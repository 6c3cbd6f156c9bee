"""Replay determinism: archived traces reproduce the live verdict.

The property under test is the paper's "online or offline" claim made
executable: the analysis is a pure function of the message stream, so
feeding an archived stream back through the pipeline must reproduce the
live verdict bit-for-bit — violation count, counterexample texts, final
per-thread vector clocks, soundness — on every workload and seed.
"""

import dataclasses

import pytest

from repro.logic import Monitor
from repro.observer.observer import Observer
from repro.store import (
    Catalog,
    TraceArchive,
    replay_entry,
    replay_trace,
    verify_all,
    verify_entry,
)

from ..conftest import V1_XYZ_TRACE
from .conftest import SEEDS, WORKLOADS, run_workload


def record_live(archive, name, seed):
    """Run a workload live and archive it, returning (entry, observer)."""
    execution, spec = run_workload(name, seed)
    entry = archive.record_messages(
        name, execution.n_threads, execution.initial_store,
        execution.messages, spec=spec)
    monitor = Monitor(spec)
    observer = Observer(execution.n_threads, execution.initial_store,
                        spec=monitor, causal_log=True)
    for m in execution.messages:
        observer.receive(m)
    observer.finish()
    return entry, observer, sorted(monitor.variables)


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_replay_reproduces_live_verdict(self, archive, name, seed):
        entry, observer, variables = record_live(archive, name, seed)
        result = replay_entry(archive, entry)
        # the replay agrees with an independent live run of the pipeline
        live = [v.pretty(variables) for v in observer.violations]
        assert result.counterexamples == tuple(live)
        assert result.sound == observer.health.sound_everywhere
        # and with everything the catalog pinned at commit time
        assert verify_entry(archive, entry) == []

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_replay_reproduces_vector_clocks(self, archive, name, seed):
        entry, _, _ = record_live(archive, name, seed)
        result = replay_entry(archive, entry)
        assert result.final_clocks == entry.final_clocks
        assert result.events == entry.events

    def test_replay_twice_is_identical(self, archive):
        entry, _, _ = record_live(archive, "xyz", 7)
        a = replay_entry(archive, entry)
        b = replay_entry(archive, entry)
        assert (a.counterexamples, a.final_clocks, a.violations) == \
            (b.counterexamples, b.final_clocks, b.violations)


class TestReAnalysis:
    def test_different_spec_without_rerunning(self, archive):
        entry, _, _ = record_live(archive, "xyz", None)
        assert entry.verdict == "violation"
        relaxed = replay_entry(archive, entry, spec="x >= -1")
        assert relaxed.violations == 0
        assert relaxed.verdict == "clean"
        assert relaxed.spec == "x >= -1"
        # the archived entry is untouched
        assert archive.get(entry.id).verdict == "violation"

    def test_replay_by_id(self, archive):
        entry, _, _ = record_live(archive, "bank", 0)
        result = replay_entry(archive, entry.id)
        assert result.program == "bank"
        assert result.events == entry.events

    def test_replay_plain_trace_file(self):
        # a v1 file: replay handles both formats
        _, spec = run_workload("xyz")
        result = replay_trace(V1_XYZ_TRACE, spec=spec)
        assert result.violations == 1
        assert result.events == 4


class TestRegressionCorpus:
    def test_verify_all_clean(self, archive):
        for name in sorted(WORKLOADS):
            record_live(archive, name, 0)
        report = verify_all(archive)
        assert report.clean
        assert report.checked == len(WORKLOADS)
        assert report.ok == report.checked
        assert "reproduced exactly" in report.summary()

    def test_verify_all_detects_drift(self, archive, tmp_path):
        entry, _, _ = record_live(archive, "xyz", None)
        # tamper with the pinned expectation: pretend the live run was clean
        catalog = Catalog.load(archive.root / TraceArchive.CATALOG_NAME)
        catalog.remove(entry.id)
        catalog.add(dataclasses.replace(entry, violations=0,
                                        counterexamples=()))
        catalog.save()
        tampered = TraceArchive(archive.root)
        report = verify_all(tampered)
        assert not report.clean
        assert entry.id in report.drifted
        problems = report.drifted[entry.id]
        assert any("violation count drifted" in p for p in problems)
        assert "DRIFTED" in report.summary()

    def test_verify_entry_reports_every_drift_axis(self, archive):
        entry, _, _ = record_live(archive, "xyz", None)
        wrong = dataclasses.replace(
            entry, events=entry.events + 1, violations=entry.violations + 1,
            counterexamples=("nope",),
            final_clocks=tuple((99,) * entry.n_threads
                               for _ in range(entry.n_threads)),
            sound=not entry.sound)
        problems = verify_entry(archive, wrong)
        text = "\n".join(problems)
        for axis in ("event count", "violation count", "counterexamples",
                     "final vector clocks", "soundness"):
            assert axis in text
