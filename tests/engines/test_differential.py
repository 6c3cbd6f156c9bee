"""Differential replay + engine attribution end-to-end.

The archive is the regression corpus: multi-engine sessions must commit
attributable entries (which engines, which versions, which spec texts),
`verify_entry` must rebuild the exact pipeline from the catalog and
reproduce every verdict bit-for-bit, and `--engine` differential replay
must surface findings the recorded pipeline missed — the headline case
being a seeded serializability violation that is invisible to the LTL
spec.  Plumbing round-trips (Hello, JournalMeta, catalog back-compat)
ride along.
"""

import pytest

from repro.core import all_accesses
from repro.sched import FixedScheduler, Program, run_program
from repro.sched.program import (
    Acquire,
    Internal,
    Read,
    Release,
    Write,
    straightline,
)
from repro.server.protocol import Hello, ProtocolError
from repro.server.recovery import JournalMeta
from repro.store import TraceArchive, replay_entry, verify_entry
from repro.store.catalog import CatalogEntry, CatalogQuery
from repro.store.replay import selections_for_entry

from .conftest import lock_execution


@pytest.fixture
def archive(tmp_path):
    return TraceArchive(tmp_path / "archive")


def seeded_violation_execution():
    """A region whose atomicity is broken by a remote write while every
    value stays non-negative: the LTL spec ``x >= 0`` is clean, only the
    atomicity engine sees the R-W-R triple."""
    region = straightline([Acquire("L"), Read("x"), Internal(),
                           Read("x"), Release("L")])
    remote = straightline([Write("x", 1)])
    program = Program(initial={"x": 0, "L": 0}, threads=[region, remote])
    return run_program(program, FixedScheduler([], strict=False),
                       relevance=all_accesses())


ENGINES = ["ltl:x >= 0", "atomicity", "pattern:W(x);R(x)"]


def record(archive, execution, engines, program="locks"):
    return archive.record_messages(
        program, execution.n_threads, execution.initial_store,
        execution.messages, spec="x >= 0", engines=engines)


class TestMultiEngineRecording:
    def test_entry_attributes_every_engine(self, archive):
        entry = record(archive, seeded_violation_execution(), ENGINES)
        assert entry.engine == "ltl"
        assert entry.engines == ("ltl@1", "atomicity@1", "pattern@1")
        assert entry.engine_spec == "x >= 0"
        assert entry.engine_specs == (
            "x >= 0", "unserializable access patterns (AVIO table)",
            "W(x) ; R(x)")     # pattern text is stored normalized
        # atomicity flags the seeded violation the LTL spec misses
        assert entry.verdict == "violation"
        assert any("atomicity violation" in c for c in entry.counterexamples)
        assert not any("x >= 0" in c for c in entry.counterexamples)

    def test_verify_entry_reproduces_multi_engine_verdicts(self, archive):
        entry = record(archive, seeded_violation_execution(), ENGINES)
        assert verify_entry(archive, entry) == []

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_verify_random_lock_corpus(self, archive, seed):
        ex = lock_execution(seed)
        entry = archive.record_messages(
            "locks", ex.n_threads, ex.initial_store, ex.messages,
            spec="v0 >= 0",
            engines=["ltl:v0 >= 0", "atomicity", "pattern:W(v0);R(v0)"])
        assert verify_entry(archive, entry) == []

    def test_selections_reconstructed_from_catalog(self, archive):
        entry = record(archive, seeded_violation_execution(), ENGINES)
        selections, missing = selections_for_entry(entry)
        assert selections == ["ltl:x >= 0", "atomicity",
                              "pattern:W(x) ; R(x)"]
        assert missing == []

    def test_classic_entry_still_verifies(self, archive):
        """A spec-only recording (no engines) stays the classic pipeline
        and still reproduces bit-for-bit — the pre-bus baseline."""
        ex = seeded_violation_execution()
        entry = archive.record_messages(
            "locks", ex.n_threads, ex.initial_store, ex.messages,
            spec="x >= 0")
        assert entry.engine == "ltl"
        assert entry.engines == ("ltl@1",)
        assert entry.violations == 0            # x >= 0 is clean
        assert verify_entry(archive, entry) == []


class TestDifferentialReplay:
    def test_new_engine_over_old_entry_finds_what_ltl_missed(self, archive):
        """The acceptance case: replay an LTL-clean archive under the
        atomicity engine and surface the seeded serializability bug."""
        ex = seeded_violation_execution()
        entry = archive.record_messages(
            "locks", ex.n_threads, ex.initial_store, ex.messages,
            spec="x >= 0")
        assert entry.violations == 0
        diff = replay_entry(archive, entry, engines=["atomicity"])
        assert diff.violations == 1
        assert "R-W-R" in diff.counterexamples[0]
        assert diff.engines[0]["engine"] == "atomicity"
        # the archived entry itself is untouched
        assert archive.get(entry.id).violations == 0

    def test_verify_with_extra_engines_keeps_diff_on_recorded(self, archive):
        """`replay --engine X --expect-catalog`: X runs alongside but the
        bit-for-bit comparison stays restricted to the recorded engines —
        extra findings must not read as drift."""
        ex = seeded_violation_execution()
        entry = archive.record_messages(
            "locks", ex.n_threads, ex.initial_store, ex.messages,
            spec="x >= 0")
        assert verify_entry(archive, entry,
                            extra_engines=["atomicity"]) == []

    def test_extra_engine_already_recorded_not_duplicated(self, archive):
        entry = record(archive, seeded_violation_execution(), ENGINES)
        assert verify_entry(archive, entry,
                            extra_engines=["atomicity"]) == []


class TestQueryByEngine:
    def test_bare_name_and_qualified_filters(self, archive):
        ex = seeded_violation_execution()
        multi = record(archive, ex, ENGINES, program="multi")
        classic = archive.record_messages(
            "classic", ex.n_threads, ex.initial_store, ex.messages,
            spec="x >= 0")
        ids = {e.id for e in archive.entries(CatalogQuery(engine="atomicity"))}
        assert ids == {multi.id}
        ids = {e.id for e in
               archive.entries(CatalogQuery(engine="atomicity@1"))}
        assert ids == {multi.id}
        assert not archive.entries(CatalogQuery(engine="atomicity@99"))
        # every entry ran LTL; the classic one is attributed to it too
        ids = {e.id for e in archive.entries(CatalogQuery(engine="ltl"))}
        assert ids == {multi.id, classic.id}

    def test_engine_filter_conjunctive_with_others(self, archive):
        ex = seeded_violation_execution()
        record(archive, ex, ENGINES, program="multi")
        q = CatalogQuery(engine="atomicity", program="elsewhere")
        assert archive.entries(q) == []


class TestCatalogBackCompat:
    def _doc(self, **overrides):
        doc = {
            "id": "t-0001", "program": "xyz", "n_threads": 3, "events": 9,
            "verdict": "clean", "violations": 0, "counterexamples": [],
            "final_clocks": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            "sound": True, "wall_time_s": 0.1, "created_at": 1.0,
            "bytes": 128, "path": "traces/t-0001.rpt", "spec": "x >= 0",
        }
        doc.update(overrides)
        return doc

    def test_pre_bus_doc_attributed_to_ltl(self):
        entry = CatalogEntry.from_json(self._doc())
        assert entry.engine == "ltl"
        assert entry.engines == ("ltl@1",)
        assert entry.engine_spec == "x >= 0"
        selections, missing = selections_for_entry(entry)
        assert selections == ["ltl:x >= 0"]
        assert missing == []

    def test_pre_bus_specless_doc_attributed_to_none(self):
        entry = CatalogEntry.from_json(self._doc(spec=None))
        assert entry.engine == "none"
        assert entry.engines == ()
        assert selections_for_entry(entry) == ([], [])

    def test_explicit_empty_engines_round_trips(self):
        entry = CatalogEntry.from_json(self._doc(engines=[]))
        assert entry.engines == ()

    def test_unreconstructible_engine_reported_missing(self):
        entry = CatalogEntry.from_json(self._doc(
            engines=["ltl@1", "pattern@1"], engine_spec="x >= 0"))
        selections, missing = selections_for_entry(entry)
        assert selections == ["ltl:x >= 0"]
        assert missing == ["pattern@1"]    # its pattern text was never kept


class TestProtocolPlumbing:
    def test_hello_engines_round_trip(self):
        h = Hello(mode="attach", program="demo", n_threads=3,
                  initial={"x": 0}, spec="x >= 0",
                  engines=("ltl", "atomicity", "pattern:W(x);R(x)"))
        back = Hello.from_frame(h.to_frame())
        assert back.engines == h.engines

    def test_hello_engines_default_empty(self):
        h = Hello(mode="attach", program="demo", n_threads=3,
                  initial={}, spec=None)
        doc = h.to_frame()
        assert "engines" not in doc
        assert Hello.from_frame(doc).engines == ()

    @pytest.mark.parametrize("bad", [["ltl", 3], "atomicity", [""]])
    def test_hello_rejects_malformed_engines(self, bad):
        h = Hello(mode="attach", program="demo", n_threads=3, initial={})
        doc = h.to_frame()
        doc["engines"] = bad
        with pytest.raises(ProtocolError, match="engines"):
            Hello.from_frame(doc)

    def test_journal_meta_engines_round_trip(self):
        hello = Hello(mode="attach", program="demo", n_threads=2,
                      initial={"x": 0}, spec="x >= 0",
                      engines=("atomicity", "ltl:x >= 0"))
        meta = JournalMeta(session=1, token="tok", epoch=1, hello=hello,
                           created_at=123.0)
        back = JournalMeta.from_json(meta.to_json())
        assert back.hello.engines == ("atomicity", "ltl:x >= 0")
        assert back == meta

    def test_journal_meta_pre_bus_doc_defaults_empty(self):
        hello = Hello(mode="attach", program="demo", n_threads=2,
                      initial={}, spec=None)
        meta = JournalMeta(session=1, token="tok", epoch=1, hello=hello,
                           created_at=1.0)
        doc = meta.to_json()
        del doc["engines"]
        assert JournalMeta.from_json(doc).hello.engines == ()
