"""AtomicityEngine: streaming AVIO detection vs the offline oracle.

The engine must be *equivalent* to
:func:`repro.analysis.atomicity.find_atomicity_violations` on complete
streams — same triples, same report texts — while running online with a
bounded live window.  The deterministic cases mirror
``tests/analysis/test_atomicity.py`` shapes fed through the bus; the
random-program sweep pins exact parity, with and without retirement.
"""

import pytest

import repro.engines.atomicity as atomicity_mod
from repro.analysis.atomicity import find_atomicity_violations
from repro.core import all_accesses
from repro.engines import AnalysisBus, AtomicityEngine
from repro.sched import FixedScheduler, Program, run_program
from repro.sched.program import (
    Acquire,
    Internal,
    Read,
    Release,
    Write,
    straightline,
)

from .conftest import lock_execution


def run(threads, initial, schedule=None):
    p = Program(initial=initial, threads=threads)
    return run_program(p, FixedScheduler(schedule or [], strict=False),
                       relevance=all_accesses())


def feed(execution, engine=None, finish=True):
    engine = engine or AtomicityEngine(execution.n_threads)
    bus = AnalysisBus(execution.n_threads, [engine])
    for m in execution.messages:
        bus.feed(m)
    if finish:
        bus.finish()
    return engine


def region_reader(var="x", n_reads=2):
    ops = [Acquire("L")]
    for _ in range(n_reads):
        ops.append(Read(var))
        ops.append(Internal())
    ops = ops[:-1] + [Release("L")]
    return straightline(ops)


def offline_pretty(execution):
    return sorted(v.pretty() for v in find_atomicity_violations(execution))


class TestUnserializablePatterns:
    def test_rwr_non_repeatable_read(self):
        ex = run([region_reader(), straightline([Write("x", 1)])],
                 {"x": 0, "L": 0})
        engine = feed(ex)
        assert len(engine.findings) == 1
        f = engine.findings[0]
        assert f.pattern == ("R", "W", "R")
        assert f.var == "x"
        assert f.lock == "L"

    def test_wrw_intermediate_read(self):
        writer = straightline([Acquire("L"), Write("x", 1), Internal(),
                               Write("x", 2), Release("L")])
        ex = run([writer, straightline([Read("x")])], {"x": 0, "L": 0})
        engine = feed(ex)
        assert {f.pattern for f in engine.findings} == {("W", "R", "W")}

    def test_rww_lost_remote_write(self):
        local = straightline([Acquire("L"), Read("x"), Internal(),
                              Write("x", 9), Release("L")])
        ex = run([local, straightline([Write("x", 1)])], {"x": 0, "L": 0})
        assert ("R", "W", "W") in {f.pattern for f in feed(ex).findings}

    def test_wwr_lost_local_write(self):
        local = straightline([Acquire("L"), Write("x", 1), Internal(),
                              Read("x"), Release("L")])
        ex = run([local, straightline([Write("x", 2)])], {"x": 0, "L": 0})
        assert ("W", "W", "R") in {f.pattern for f in feed(ex).findings}


class TestSerializablePatterns:
    @pytest.mark.parametrize("local_ops, remote_op", [
        ([Read("x"), Read("x")], Read("x")),          # R-R-R
        ([Write("x", 1), Read("x")], Read("x")),      # W-R-R
        ([Read("x"), Write("x", 1)], Read("x")),      # R-R-W
    ])
    def test_serializable_triples_not_reported(self, local_ops, remote_op):
        ops = [Acquire("L")]
        for i, op in enumerate(local_ops):
            if i:
                ops.append(Internal())
            ops.append(op)
        ops.append(Release("L"))
        ex = run([straightline(ops), straightline([remote_op])],
                 {"x": 0, "L": 0})
        assert feed(ex).findings == []

    def test_remote_under_same_lock_not_reported(self):
        remote = straightline([Acquire("L"), Write("x", 1), Release("L")])
        ex = run([region_reader(), remote], {"x": 0, "L": 0})
        assert feed(ex).findings == []

    def test_remote_under_different_lock_reported(self):
        remote = straightline([Acquire("M"), Write("x", 1), Release("M")])
        ex = run([region_reader(), remote], {"x": 0, "L": 0, "M": 0})
        assert len(feed(ex).findings) == 1

    def test_same_thread_never_reported(self):
        body = straightline([Acquire("L"), Read("x"), Write("x", 1),
                             Read("x"), Release("L"), Write("x", 2)])
        ex = run([body], {"x": 0, "L": 0})
        assert feed(ex).findings == []

    def test_different_variables_not_reported(self):
        ex = run([region_reader("x"), straightline([Write("y", 1)])],
                 {"x": 0, "y": 0, "L": 0})
        assert feed(ex).findings == []


class TestEmissionTiming:
    def test_nothing_emitted_before_region_closes(self):
        """Findings inside an open region are deferred to its release —
        an unreleased lock span is not an atomic block."""
        ex = run([region_reader(), straightline([Write("x", 1)])],
                 {"x": 0, "L": 0})
        engine = AtomicityEngine(ex.n_threads)
        bus = AnalysisBus(ex.n_threads, [engine])
        emitted_at = []
        for m in ex.messages:
            if bus.feed(m):
                emitted_at.append(m.event.kind.name)
        bus.finish()
        assert engine.findings          # the violation was found...
        assert set(emitted_at) <= {"RELEASE", "READ", "WRITE"}

    def test_remote_after_close_reports_immediately(self):
        """A region's pairs stay live after release: a later remote access
        concurrent with both halves still lands (schedule T0 fully first)."""
        ex = run([region_reader(), straightline([Write("x", 1)])],
                 {"x": 0, "L": 0}, schedule=[0] * 8 + [1])
        engine = feed(ex)
        assert len(engine.findings) == 1

    def test_unreleased_region_drops_its_findings(self):
        local = straightline([Acquire("L"), Read("x"), Internal(),
                              Read("x")])      # never released
        ex = run([local, straightline([Write("x", 1)])], {"x": 0, "L": 0})
        engine = feed(ex)
        assert engine.findings == []
        assert find_atomicity_violations(ex) == []   # oracle agrees


class TestOfflineParity:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_lock_programs(self, seed):
        ex = lock_execution(seed)
        engine = feed(ex)
        assert sorted(engine.counterexamples()) == offline_pretty(ex)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_wider_programs(self, seed):
        ex = lock_execution(seed, n_threads=4, n_vars=3, n_locks=3,
                            ops_per_thread=16)
        engine = feed(ex)
        assert sorted(engine.counterexamples()) == offline_pretty(ex)

    def test_pretty_matches_offline_text_exactly(self):
        ex = run([region_reader(), straightline([Write("x", 1)])],
                 {"x": 0, "L": 0})
        assert feed(ex).counterexamples() == \
            [v.pretty() for v in find_atomicity_violations(ex)]


class TestRetirement:
    @pytest.mark.parametrize("seed", range(6))
    def test_pruning_preserves_parity(self, seed, monkeypatch):
        """An aggressive retirement cadence must not change the findings:
        only accesses covered by every thread's frontier are retired."""
        monkeypatch.setattr(atomicity_mod, "_PRUNE_EVERY", 4)
        ex = lock_execution(seed, ops_per_thread=20)
        engine = feed(ex)
        assert sorted(engine.counterexamples()) == offline_pretty(ex)

    def test_pruning_actually_retires(self, monkeypatch):
        monkeypatch.setattr(atomicity_mod, "_PRUNE_EVERY", 4)
        ex = lock_execution(1, n_threads=2, ops_per_thread=40)
        engine = feed(ex)
        snap = engine.snapshot()
        assert snap["retired"] > 0
        assert snap["live_accesses"] < snap["data_events"]


class TestBatchParity:
    @pytest.mark.parametrize("seed", range(5))
    def test_feed_batch_equals_feed(self, seed):
        ex = lock_execution(seed)
        one = AtomicityEngine(ex.n_threads)
        bus_one = AnalysisBus(ex.n_threads, [one])
        found_one = []
        for m in ex.messages:
            found_one.extend(bus_one.feed(m))
        found_one.extend(bus_one.finish())

        many = AtomicityEngine(ex.n_threads)
        bus_many = AnalysisBus(ex.n_threads, [many])
        found_many = []
        msgs = list(ex.messages)
        for i in range(0, len(msgs), 5):
            found_many.extend(bus_many.feed_batch(msgs[i:i + 5]))
        found_many.extend(bus_many.finish())

        assert [f.key for f in found_one] == [f.key for f in found_many]
        assert one.counterexamples() == many.counterexamples()
        assert one.verdict() == many.verdict()


class TestContract:
    def test_rejects_unannotated_events(self):
        from repro.engines.bus import BusEvent
        ex = lock_execution(0)
        ev = BusEvent(msg=ex.messages[0], index=0,
                      clock=tuple(ex.messages[0].clock), hb=None)
        with pytest.raises(ValueError, match="sync-HB"):
            AtomicityEngine(ex.n_threads).feed(ev)

    def test_verdict_attribution(self):
        ex = run([region_reader(), straightline([Write("x", 1)])],
                 {"x": 0, "L": 0})
        v = feed(ex).verdict()
        assert v.engine == "atomicity"
        assert v.qualified == "atomicity@1"
        assert v.spec == "unserializable access patterns (AVIO table)"
        assert v.verdict == "violation"
        assert v.sound is True

    def test_snapshot_shape(self):
        ex = lock_execution(2)
        snap = feed(ex).snapshot()
        assert snap["engine"] == "atomicity"
        assert snap["finished"] is True
        assert snap["open_regions"] == 0
        assert snap["data_events"] > 0
