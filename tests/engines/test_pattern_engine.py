"""PatternEngine: predictive pattern matching vs a brute-force oracle.

The property is classical: events ``e1..ek`` (matching the pattern steps)
occur in order in *some* linearization of the causal partial order iff
there is no backward causality — ``∀ i<j: ¬(e_j ⊳ e_i)`` under the
synchronization-only happens-before order.  The oracle enumerates every
witness combination against :class:`Computation(causality="sync")`; the
engine must agree on violation existence (when nothing was suppressed)
and every match it reports must be oracle-valid.
"""

import itertools

import pytest

import repro.engines.pattern as pattern_mod
from repro.core import all_accesses
from repro.core.computation import Computation
from repro.engines import AnalysisBus, EngineError, PatternEngine, parse_pattern
from repro.sched import FixedScheduler, Program, run_program
from repro.sched.program import Acquire, Read, Release, Write, straightline

from .conftest import lock_execution


def run(threads, initial, schedule=None):
    p = Program(initial=initial, threads=threads)
    return run_program(p, FixedScheduler(schedule or [], strict=False),
                       relevance=all_accesses())


def feed(execution, pattern):
    engine = PatternEngine(execution.n_threads, pattern)
    bus = AnalysisBus(execution.n_threads, [engine])
    for m in execution.messages:
        bus.feed(m)
    bus.finish()
    return engine


def oracle_witnesses(execution, pattern):
    """Every oracle-valid witness tuple (as eid tuples), brute force."""
    steps = parse_pattern(pattern)
    comp = Computation(execution.events, causality="sync")
    events = [m.event for m in execution.messages]
    pools = [[e for e in events if s.matches(e)] for s in steps]
    out = set()
    for combo in itertools.product(*pools):
        if len({e.eid for e in combo}) != len(combo):
            continue
        if all(not comp.precedes(combo[j], combo[i])
               for i in range(len(combo))
               for j in range(i + 1, len(combo))):
            out.add(tuple(e.eid for e in combo))
    return out


class TestParsing:
    def test_steps_and_constraints(self):
        steps = parse_pattern("W(x) ; r(y)@T2 ; ANY(z)=3")
        assert [s.var for s in steps] == ["x", "y", "z"]
        assert steps[1].thread == 1          # @T2 is 0-based internally
        assert steps[2].value == "3"
        assert len(steps[2].kinds) == 4      # ANY covers R/W/ACQ/REL

    @pytest.mark.parametrize("bad", [
        "W(x);;R(y)",        # empty step
        "W(x);",             # trailing ';'
        "X(x)",              # unknown kind
        "W x",               # missing parens
        "",                  # nothing at all
    ])
    def test_rejects_bad_patterns(self, bad):
        with pytest.raises(EngineError):
            parse_pattern(bad)


class TestDeterministicMatching:
    def test_concurrent_events_match_both_orders(self):
        """Two causally-unrelated accesses can appear in either order in
        some linearization — both patterns must match."""
        ex = run([straightline([Write("x", 1)]),
                  straightline([Read("x")])], {"x": 0})
        assert feed(ex, "W(x);R(x)").matches
        assert feed(ex, "R(x);W(x)").matches

    def test_program_order_forbids_reversal(self):
        """Within one thread the causal order is total: the reversed
        pattern has no witness."""
        ex = run([straightline([Write("x", 1), Read("x")])], {"x": 0})
        assert feed(ex, "W(x)@T1;R(x)@T1").matches
        assert not feed(ex, "R(x)@T1;W(x)@T1").matches

    def test_sync_edges_forbid_reordering(self):
        """Accesses under the same lock are ordered by the release→acquire
        edge; the pattern against that order must not match."""
        t1 = straightline([Acquire("L"), Write("x", 1), Release("L")])
        t2 = straightline([Acquire("L"), Read("x"), Release("L")])
        # schedule T1's region fully before T2's: sync-HB orders W before R
        ex = run([t1, t2], {"x": 0, "L": 0}, schedule=[0, 0, 0, 1, 1, 1])
        assert feed(ex, "W(x);R(x)").matches
        assert not feed(ex, "R(x);W(x)").matches

    def test_value_constraint(self):
        ex = run([straightline([Write("x", 1), Write("x", 2)])], {"x": 0})
        assert feed(ex, "W(x)=1;W(x)=2").matches
        assert not feed(ex, "W(x)=2;W(x)=1").matches
        assert not feed(ex, "W(x)=7").matches

    def test_same_event_cannot_fill_two_steps(self):
        ex = run([straightline([Write("x", 1)])], {"x": 0})
        assert not feed(ex, "W(x);W(x)").matches

    def test_out_of_delivery_order_witnesses(self):
        """A witness for step 2 may be delivered before the eventual
        witness for step 1 (partial assignments, not prefixes)."""
        ex = run([straightline([Write("y", 1)]),
                  straightline([Write("x", 1)])],
                 {"x": 0, "y": 0}, schedule=[0, 1])
        # delivery order is W(y) then W(x); the pattern asks x-then-y,
        # realizable because the writes are concurrent
        engine = feed(ex, "W(x);W(y)")
        assert engine.matches

    def test_single_step_pattern(self):
        ex = run([straightline([Acquire("L"), Release("L")])], {"L": 0})
        assert feed(ex, "ACQ(L)").matches
        assert not feed(ex, "ACQ(M)").matches


class TestOracleAgreement:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("pattern", [
        "W(v0);R(v0)",
        "R(v0);W(v1);W(v0)",
        "ACQ(L0);W(v0);REL(L0)",
    ])
    def test_existence_and_witness_validity(self, seed, pattern):
        ex = lock_execution(seed, ops_per_thread=8)
        engine = feed(ex, pattern)
        valid = oracle_witnesses(ex, pattern)
        snap = engine.snapshot()
        # every reported match is a realizable witness chain
        for m in engine.matches:
            assert m.key in valid
        # unless bounded, the engine finds a match iff the oracle has one
        if not snap["suppressed_candidates"] and not snap["suppressed_matches"]:
            assert bool(engine.matches) == bool(valid)

    @pytest.mark.parametrize("seed", range(4))
    def test_thread_constrained_patterns(self, seed):
        ex = lock_execution(seed, ops_per_thread=8)
        pattern = "W(v0)@T1;R(v0)@T2"
        engine = feed(ex, pattern)
        valid = oracle_witnesses(ex, pattern)
        for m in engine.matches:
            assert m.key in valid
            assert m.witnesses[0].thread == 0
            assert m.witnesses[1].thread == 1


class TestBounds:
    def test_matches_deduplicated_by_witness_chain(self):
        ex = lock_execution(3)
        engine = feed(ex, "W(v0);R(v0)")
        keys = [m.key for m in engine.matches]
        assert len(keys) == len(set(keys))

    def test_match_cap_reported_not_hidden(self, monkeypatch):
        monkeypatch.setattr(pattern_mod, "_MAX_MATCHES", 1)
        ex = run([straightline([Write("x", 1), Write("x", 2)]),
                  straightline([Read("x"), Read("x")])], {"x": 0})
        engine = feed(ex, "W(x);R(x)")
        assert len(engine.matches) == 1
        assert engine.snapshot()["suppressed_matches"] > 0

    def test_candidate_cap_reported_not_hidden(self, monkeypatch):
        monkeypatch.setattr(pattern_mod, "_MAX_CANDIDATES", 1)
        ex = lock_execution(4)
        engine = feed(ex, "W(v0);W(v1);R(v0)")
        assert engine.snapshot()["suppressed_candidates"] > 0

    def test_dominance_pruning_keeps_existence(self):
        """Dominated assignments constrain the future strictly more, so
        pruning them never loses the existence answer: agreement with the
        oracle on a stream long enough to trigger pruning."""
        ex = lock_execution(5, n_threads=2, ops_per_thread=25)
        pattern = "W(v0);R(v1)"
        engine = feed(ex, pattern)
        snap = engine.snapshot()
        if not snap["suppressed_candidates"]:
            assert bool(engine.matches) == \
                bool(oracle_witnesses(ex, pattern))


class TestBatchParity:
    @pytest.mark.parametrize("seed", range(5))
    def test_feed_batch_equals_feed(self, seed):
        ex = lock_execution(seed)
        one = PatternEngine(ex.n_threads, "W(v0);R(v0);W(v1)")
        bus_one = AnalysisBus(ex.n_threads, [one])
        for m in ex.messages:
            bus_one.feed(m)
        bus_one.finish()

        many = PatternEngine(ex.n_threads, "W(v0);R(v0);W(v1)")
        bus_many = AnalysisBus(ex.n_threads, [many])
        msgs = list(ex.messages)
        for i in range(0, len(msgs), 7):
            bus_many.feed_batch(msgs[i:i + 7])
        bus_many.finish()

        assert [m.key for m in one.matches] == [m.key for m in many.matches]
        assert one.counterexamples() == many.counterexamples()
        assert one.snapshot() == many.snapshot()


class TestContract:
    def test_rejects_unannotated_events(self):
        from repro.engines.bus import BusEvent
        ex = lock_execution(0)
        ev = BusEvent(msg=ex.messages[0], index=0,
                      clock=tuple(ex.messages[0].clock), hb=None)
        with pytest.raises(ValueError, match="sync-HB"):
            PatternEngine(ex.n_threads, "W(v0)").feed(ev)

    def test_verdict_attribution(self):
        ex = run([straightline([Write("x", 1)]),
                  straightline([Read("x")])], {"x": 0})
        v = feed(ex, "W(x) ; R(x)").verdict()
        assert v.engine == "pattern"
        assert v.spec == "W(x) ; R(x)"
        assert v.verdict == "violation"
        assert "pattern match [W(x) ; R(x)]" in v.counterexamples[0]
