"""Catalog: entry serialization, queries, snapshot + log persistence."""

import dataclasses
import json
import random

import pytest

from repro.obs import metrics as _metrics
from repro.store.catalog import (
    Catalog,
    CatalogEntry,
    CatalogError,
    CatalogQuery,
)


def entry(eid="s000001-xyz", **kw):
    base = dict(
        id=eid, program="xyz", n_threads=2, events=4,
        verdict="violation", violations=1,
        counterexamples=("(-1, 0) --x=0--> (0, 0)",),
        final_clocks=((2, 0), (1, 2)), sound=True,
        wall_time_s=0.01, created_at=1000.0, bytes=300,
        path=f"traces/{eid}.rpt", spec="x >= 0")
    base.update(kw)
    return CatalogEntry(**base)


class TestEntry:
    def test_json_round_trip(self):
        e = entry()
        doc = json.loads(json.dumps(e.to_json()))
        assert CatalogEntry.from_json(doc) == e

    def test_json_round_trip_every_optional_field(self):
        e = entry(format=2, engine="atomicity", engine_version="2",
                  engines=("atomicity@2", "ltl@1"),
                  engine_spec="unserializable access patterns",
                  engine_specs=("unserializable access patterns", None))
        doc = e.to_json()
        assert doc == dataclasses.asdict(e)
        assert CatalogEntry.from_json(doc) == e
        assert CatalogEntry.from_json(json.loads(json.dumps(doc))) == e

    def test_malformed_doc_rejected(self):
        with pytest.raises(CatalogError, match="malformed"):
            CatalogEntry.from_json({"id": "s1"})


class TestQuery:
    def test_all_none_matches_everything(self):
        assert CatalogQuery().matches(entry())

    def test_program_exact(self):
        assert CatalogQuery(program="xyz").matches(entry())
        assert not CatalogQuery(program="xy").matches(entry())

    def test_spec_substring(self):
        assert CatalogQuery(spec_contains="x >=").matches(entry())
        assert not CatalogQuery(spec_contains="y").matches(entry())
        assert not CatalogQuery(spec_contains="x").matches(
            entry(spec=None))

    def test_verdict(self):
        assert CatalogQuery(verdict="violation").matches(entry())
        assert not CatalogQuery(verdict="clean").matches(entry())

    def test_verdict_validated(self):
        with pytest.raises(ValueError, match="verdict"):
            CatalogQuery(verdict="maybe")

    def test_event_bounds(self):
        assert CatalogQuery(min_events=4, max_events=4).matches(entry())
        assert not CatalogQuery(min_events=5).matches(entry())
        assert not CatalogQuery(max_events=3).matches(entry())

    def test_time_bounds(self):
        assert CatalogQuery(since=1000.0, before=1001.0).matches(entry())
        assert not CatalogQuery(since=1000.5).matches(entry())
        assert not CatalogQuery(before=1000.0).matches(entry())


class TestCatalog:
    def test_missing_file_is_empty(self, tmp_path):
        cat = Catalog.load(tmp_path / "catalog.json")
        assert len(cat) == 0
        assert cat.next_seq == 1

    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "catalog.json"
        cat = Catalog(path)
        cat.add(entry("s000001-xyz", created_at=5.0))
        cat.add(entry("s000002-bank", program="bank", created_at=2.0))
        cat.next_seq = 3
        cat.save()
        loaded = Catalog.load(path)
        assert loaded.next_seq == 3
        # oldest first
        assert [e.id for e in loaded.entries()] == [
            "s000002-bank", "s000001-xyz"]
        assert "s000001-xyz" in loaded
        assert loaded.total_bytes() == 600

    def test_save_is_atomic(self, tmp_path):
        path = tmp_path / "catalog.json"
        cat = Catalog(path)
        cat.add(entry())
        cat.save()
        assert not path.with_suffix(".json.tmp").exists()

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text("{truncated")
        with pytest.raises(CatalogError, match="cannot read"):
            Catalog.load(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps({"version": 99, "entries": []}))
        with pytest.raises(CatalogError, match="version"):
            Catalog.load(path)

    def test_allocate_id_monotone_and_safe(self, tmp_path):
        cat = Catalog(tmp_path / "catalog.json")
        assert cat.allocate_id("xyz") == "s000001-xyz"
        assert cat.allocate_id("a b/c") == "s000002-a-b-c"
        assert cat.allocate_id("") == "s000003-unknown"

    def test_duplicate_id_rejected(self, tmp_path):
        cat = Catalog(tmp_path / "catalog.json")
        cat.add(entry())
        with pytest.raises(CatalogError, match="duplicate"):
            cat.add(entry())

    def test_get_and_remove_unknown(self, tmp_path):
        cat = Catalog(tmp_path / "catalog.json")
        with pytest.raises(CatalogError, match="no catalog entry"):
            cat.get("s999999-x")
        with pytest.raises(CatalogError, match="no catalog entry"):
            cat.remove("s999999-x")

    def test_query_filters_entries(self, tmp_path):
        cat = Catalog(tmp_path / "catalog.json")
        cat.add(entry("s000001-xyz"))
        cat.add(entry("s000002-bank", program="bank", verdict="clean",
                      violations=0, counterexamples=()))
        assert [e.id for e in cat.entries(CatalogQuery(verdict="clean"))] \
            == ["s000002-bank"]


def log_records(cat):
    if not cat.log_path.exists():
        return []
    return [json.loads(line)
            for line in cat.log_path.read_bytes().splitlines()]


def with_snapshot(path, n):
    """A catalog whose snapshot holds ``n`` entries and whose log is empty."""
    cat = Catalog(path)
    for k in range(1, n + 1):
        cat.add(entry(cat.allocate_id("xyz"), created_at=float(k)))
    cat.save()
    return cat


def state(cat):
    return cat.next_seq, cat.entries()


class TestLog:
    def test_snapshot_plus_log_round_trip(self, tmp_path):
        path = tmp_path / "catalog.json"
        cat = with_snapshot(path, 4)
        snapshot = path.read_bytes()
        new_id = cat.allocate_id("bank")
        cat.log_seq()
        cat.add(entry(new_id, program="bank", created_at=9.0))
        cat.log_add(cat.get(new_id))
        cat.remove("s000002-xyz")
        cat.log_remove("s000002-xyz")

        assert path.read_bytes() == snapshot   # no rewrite, three records
        assert [r["op"] for r in log_records(cat)] == ["seq", "add",
                                                       "remove"]
        loaded = Catalog.load(path)
        assert state(loaded) == state(cat)
        assert loaded.next_seq == 6
        assert "s000002-xyz" not in loaded
        assert loaded.get(new_id).program == "bank"

    def test_log_without_snapshot(self, tmp_path):
        path = tmp_path / "catalog.json"
        cat = Catalog(path)
        cat.allocate_id("xyz")
        cat.log_seq()
        assert not path.exists()
        assert Catalog.load(path).next_seq == 2

    def test_save_empties_log(self, tmp_path):
        path = tmp_path / "catalog.json"
        cat = with_snapshot(path, 3)
        cat.allocate_id("xyz")
        cat.log_seq()
        cat.save()
        assert log_records(cat) == []
        assert state(Catalog.load(path)) == state(cat)

    def test_torn_final_record_dropped_then_truncated(self, tmp_path):
        path = tmp_path / "catalog.json"
        cat = with_snapshot(path, 3)
        cat.allocate_id("xyz")
        cat.log_seq()
        expected = state(cat)
        with open(cat.log_path, "ab") as fh:   # the writer died mid-append
            fh.write(b'{"op":"add","entry":{"id":"s0000')

        loaded = Catalog.load(path)
        assert state(loaded) == expected
        loaded.allocate_id("xyz")
        loaded.log_seq()
        assert [r["op"] for r in log_records(loaded)] == ["seq", "seq"]
        assert Catalog.load(path).next_seq == 6

    @pytest.mark.parametrize("bad", [
        b"{not json\n",
        b'{"op": "rename", "id": "s000001-xyz"}\n',
        b'{"op": "add", "entry": {"id": "s000009-xyz"}}\n',
        b'["op", "seq"]\n',
        b"\n",
    ])
    def test_corrupt_middle_record_rejected(self, tmp_path, bad):
        path = tmp_path / "catalog.json"
        cat = with_snapshot(path, 3)
        cat.allocate_id("xyz")
        cat.log_seq()
        with open(cat.log_path, "ab") as fh:
            fh.write(bad)
        cat.log_seq()
        with pytest.raises(CatalogError, match="bad record 2"):
            Catalog.load(path)

    def test_log_never_outgrows_catalog(self, tmp_path):
        path = tmp_path / "catalog.json"
        cat = Catalog(path)
        rng = random.Random(7)
        for _ in range(300):
            if len(cat) and rng.random() < 0.3:
                victim = rng.choice(cat.entries()).id
                cat.remove(victim)
                cat.log_remove(victim)
            elif rng.random() < 0.5:
                cat.allocate_id("xyz")
                cat.log_seq()
            else:
                e = entry(cat.allocate_id("xyz"))
                cat.log_seq()
                assert len(log_records(cat)) <= max(1, len(cat))
                cat.add(e)
                cat.log_add(e)
            assert len(log_records(cat)) <= max(1, len(cat))
            assert state(Catalog.load(path)) == state(cat)

    def test_compaction_amortizes_and_is_counted(self, tmp_path):
        cat = Catalog(tmp_path / "catalog.json")
        _metrics.enable(reset=True)
        try:
            for _ in range(200):
                e = entry(cat.allocate_id("xyz"))
                cat.log_seq()
                cat.add(e)
                cat.log_add(e)
            appends = _metrics.REGISTRY.get("store.catalog_appends").value
            compactions = _metrics.REGISTRY.get(
                "store.catalog_compactions").value
        finally:
            _metrics.disable()
        assert appends == 400
        # the log grows with the catalog between compactions, so they
        # thin out geometrically (a rewrite per mutation would be 400)
        assert 0 < compactions < 25

    def test_replay_is_idempotent(self, tmp_path):
        """A crash between the snapshot rename and the log truncation
        leaves records the snapshot already holds; they apply twice."""
        path = tmp_path / "catalog.json"
        cat = with_snapshot(path, 4)
        e = entry(cat.allocate_id("bank"), program="bank")
        cat.log_seq()
        cat.add(e)
        cat.log_add(e)
        cat.remove("s000001-xyz")
        cat.log_remove("s000001-xyz")
        stale_log = cat.log_path.read_bytes()
        cat.save()
        cat.log_path.write_bytes(stale_log)
        assert state(Catalog.load(path)) == state(cat)

    def test_load_rereads_when_compaction_races(self, tmp_path,
                                                monkeypatch):
        path = tmp_path / "catalog.json"
        writer = with_snapshot(path, 4)
        e = entry(writer.allocate_id("bank"), program="bank")
        writer.log_seq()
        writer.add(e)
        writer.log_add(e)

        read_snapshot = Catalog._read_snapshot
        calls = []

        def racing(self):
            read_snapshot(self)
            if not calls:   # compaction lands between snapshot and log
                writer.save()
            calls.append(self)

        monkeypatch.setattr(Catalog, "_read_snapshot", racing)
        loaded = Catalog.load(path)
        assert len(calls) == 2
        assert state(loaded) == state(writer)
