"""Analysis-bus tests: one stream, one clock computation, N engines.

Pins down the bus contract — annotations are computed once and shared by
identity, the online sync-HB clocks agree with the offline
``Computation(causality="sync")`` oracle, an engine-less bus does no
work, and graceful degradation reaches every engine.
"""

import pytest

from repro.core.computation import Computation
from repro.engines import (
    AnalysisBus,
    AnalysisEngine,
    AtomicityEngine,
    EngineError,
    EngineVerdict,
    LtlEngine,
    PatternEngine,
    compute_degraded_windows,
    hb_concurrent,
    hb_precedes,
    make_engine,
    parse_engine_spec,
)
from repro.obs import metrics

from .conftest import lock_execution


class RecordingEngine(AnalysisEngine):
    """Test double: remembers every BusEvent it was fed."""

    name = "recorder"
    version = "t"

    def __init__(self):
        super().__init__()
        self.seen = []

    def feed(self, ev):
        self.seen.append(ev)
        return []

    def counterexamples(self):
        return []


class TestFanOut:
    def test_every_engine_sees_the_same_annotated_event(self):
        ex = lock_execution(0)
        a, b = RecordingEngine(), RecordingEngine()
        bus = AnalysisBus(ex.n_threads, [a, b])
        for m in ex.messages:
            bus.feed(m)
        assert len(a.seen) == len(b.seen) == len(ex.messages)
        for ea, eb in zip(a.seen, b.seen):
            # identity, not equality: the annotation was computed once
            assert ea is eb
        for i, ev in enumerate(a.seen):
            assert ev.index == i
            assert ev.clock == tuple(ev.msg.clock)
            assert ev.hb is not None

    def test_feed_batch_annotates_once_and_shares(self):
        ex = lock_execution(1)
        a, b = RecordingEngine(), RecordingEngine()
        bus = AnalysisBus(ex.n_threads, [a, b])
        bus.feed_batch(list(ex.messages))
        assert bus.events_fed == len(ex.messages)
        for ea, eb in zip(a.seen, b.seen):
            assert ea is eb

    def test_findings_concatenated_in_engine_order(self):
        class Finder(RecordingEngine):
            def __init__(self, tag):
                super().__init__()
                self.tag = tag

            def feed(self, ev):
                super().feed(ev)
                return [self.tag]

        bus_exec = lock_execution(2)
        bus = AnalysisBus(bus_exec.n_threads,
                          [Finder("first"), Finder("second")])
        found = bus.feed(bus_exec.messages[0])
        assert found == ["first", "second"]


class TestSyncHappensBefore:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_agrees_with_offline_sync_computation(self, seed):
        ex = lock_execution(seed)
        rec = RecordingEngine()
        bus = AnalysisBus(ex.n_threads, [rec])
        for m in ex.messages:
            bus.feed(m)
        comp = Computation(ex.events, causality="sync")
        evs = rec.seen
        for i, a in enumerate(evs):
            for b in evs[i + 1:]:
                assert hb_concurrent(a, b) == comp.concurrent(a.event,
                                                              b.event)
                assert hb_precedes(a, b) == comp.precedes(a.event, b.event)


class TestOrderingContract:
    def test_engineless_bus_does_not_annotate(self):
        ex = lock_execution(0)
        bus = AnalysisBus(ex.n_threads, [])
        assert bus.feed(ex.messages[0]) == []
        assert bus.feed_batch(list(ex.messages[1:])) == []
        assert bus.events_fed == 0

    def test_rejects_zero_threads(self):
        with pytest.raises(ValueError):
            AnalysisBus(0, [])


class TestGracefulDegradation:
    def test_finish_partial_degrades_every_verdict(self):
        ex = lock_execution(3)
        engines = [AtomicityEngine(ex.n_threads),
                   PatternEngine(ex.n_threads, "W(v0);R(v0)")]
        bus = AnalysisBus(ex.n_threads, engines)
        counts = [0] * ex.n_threads
        for m in ex.messages[: len(ex.messages) // 2]:
            bus.feed(m)
            counts[m.thread] += 1
        bus.finish_partial(counts)
        for v in bus.verdicts():
            assert v.sound is False
            assert v.degraded_windows
            doc = v.to_json()
            assert doc["sound"] is False
            assert doc["degraded_windows"]

    def test_finish_keeps_verdicts_sound(self):
        ex = lock_execution(3)
        bus = AnalysisBus(ex.n_threads, [AtomicityEngine(ex.n_threads)])
        for m in ex.messages:
            bus.feed(m)
        bus.finish()
        assert all(v.sound for v in bus.verdicts())
        assert bus.degraded_windows == ()

    def test_compute_degraded_windows_exact_and_conservative(self):
        # exact: only the cut-short threads are windows
        ws = compute_degraded_windows([3, 5], [5, 5])
        assert [(w.thread, w.first_missing, w.analyzed) for w in ws] == \
            [(0, 4, 3)]
        # complete delivery with known totals: nothing degraded
        assert compute_degraded_windows([5, 5], [5, 5]) == ()
        # unknown totals: every thread is conservatively degraded
        ws = compute_degraded_windows([2, 0])
        assert [(w.thread, w.first_missing) for w in ws] == [(0, 3), (1, 1)]

    def test_compute_degraded_windows_rejects_overdelivery(self):
        with pytest.raises(ValueError, match="delivered 6 > expected 5"):
            compute_degraded_windows([6], [5])


class TestSelectionStrings:
    def test_parse_engine_spec(self):
        assert parse_engine_spec("atomicity") == ("atomicity", None)
        assert parse_engine_spec("pattern:W(x);R(y)") == \
            ("pattern", "W(x);R(y)")
        assert parse_engine_spec("LTL:x >= 0") == ("ltl", "x >= 0")

    @pytest.mark.parametrize("bad", ["", "   ", ":arg"])
    def test_parse_rejects_nameless_selections(self, bad):
        with pytest.raises(EngineError):
            parse_engine_spec(bad)

    def test_make_engine_ltl_uses_default_spec(self):
        e = make_engine("ltl", 2, {"c": 0}, default_spec="c >= 0")
        assert isinstance(e, LtlEngine)
        assert e.spec_text() == "c >= 0"

    def test_make_engine_ltl_inline_formula_wins(self):
        e = make_engine("ltl:c >= 1", 2, {"c": 0}, default_spec="c >= 0")
        assert e.spec_text() == "c >= 1"

    def test_make_engine_ltl_without_any_spec_fails(self):
        with pytest.raises(EngineError, match="needs a specification"):
            make_engine("ltl", 2, {"c": 0})

    def test_make_engine_pattern_requires_steps(self):
        with pytest.raises(EngineError, match="needs a pattern"):
            make_engine("pattern", 2, {})

    def test_make_engine_atomicity_rejects_argument(self):
        with pytest.raises(ValueError, match="takes no argument"):
            make_engine("atomicity:fast", 2, {})

    def test_make_engine_unknown_name_lists_available(self):
        with pytest.raises(EngineError, match="atomicity.*ltl.*pattern"):
            make_engine("fuzzer", 2, {})


class TestVerdictContract:
    def test_verdict_and_qualified(self):
        v = EngineVerdict(engine="atomicity", version="1",
                          spec="unserializable access patterns (AVIO table)",
                          violations=0, counterexamples=(), sound=True)
        assert v.verdict == "clean"
        assert v.qualified == "atomicity@1"
        bad = EngineVerdict(engine="ltl", version="1", spec="c >= 0",
                            violations=2, counterexamples=("a", "b"),
                            sound=True)
        assert bad.verdict == "violation"

    def test_to_json_shape(self):
        v = EngineVerdict(engine="pattern", version="1", spec="W(x);R(x)",
                          violations=1, counterexamples=("m",), sound=False)
        doc = v.to_json()
        assert doc == {
            "engine": "pattern", "version": "1", "spec": "W(x);R(x)",
            "verdict": "violation", "violations": 1,
            "counterexamples": ["m"], "sound": False,
            "degraded_windows": [],
        }


class TestBusMetrics:
    def test_labelled_per_engine_counters(self):
        ex = lock_execution(4)
        metrics.enable(reset=True)
        try:
            engines = [AtomicityEngine(ex.n_threads),
                       PatternEngine(ex.n_threads, "W(v0);R(v0)")]
            bus = AnalysisBus(ex.n_threads, engines)
            for m in ex.messages:
                bus.feed(m)
            bus.finish()
            snap = metrics.REGISTRY.snapshot()
            for name in ("atomicity", "pattern"):
                inst = snap[f"engine.events{{engine={name}}}"]
                assert inst["value"] == len(ex.messages)
                assert inst["labels"] == {"engine": name}
                assert f"engine.findings{{engine={name}}}" in snap
        finally:
            metrics.disable()

    def test_snapshot_reports_every_engine(self):
        ex = lock_execution(5)
        bus = AnalysisBus(ex.n_threads, [AtomicityEngine(ex.n_threads)])
        bus.feed_batch(list(ex.messages))
        snap = bus.snapshot()
        assert snap["events"] == len(ex.messages)
        assert snap["finished"] is False
        assert snap["engines"][0]["engine"] == "atomicity"
