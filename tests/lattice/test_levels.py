"""Tests for the online level-by-level builder: equivalence with the full
lattice, out-of-order feeding, end-of-thread markers, GC accounting,
monitor-state semantics, and state projection."""

import random

import pytest

from repro.lattice.full import ComputationLattice
from repro.lattice.levels import LevelByLevelBuilder
from repro.logic.monitor import Monitor
from repro.sched import RandomScheduler, run_program
from repro.workloads import (
    LANDING_PROPERTY,
    LANDING_VARS,
    XYZ_PROPERTY,
    XYZ_VARS,
    random_program,
)


def build(execution, variables, spec=None, order=None, **kw):
    initial = {v: execution.initial_store[v] for v in variables}
    monitor = Monitor(spec) if spec else None
    b = LevelByLevelBuilder(execution.n_threads, initial, monitor, **kw)
    msgs = list(execution.messages) if order is None else order
    b.feed_many(msgs)
    b.finish()
    return b


class TestConstructionEquivalence:
    def test_fig6_expands_all_nodes(self, xyz_execution):
        b = build(xyz_execution, XYZ_VARS)
        assert b.complete
        assert b.stats.nodes_expanded == 7  # all Fig. 6 nodes

    def test_fig5_expands_all_nodes(self, landing_execution):
        b = build(landing_execution, LANDING_VARS)
        assert b.stats.nodes_expanded == 6

    def test_random_programs_match_full_lattice(self):
        for seed in range(8):
            program = random_program(random.Random(seed), n_threads=3,
                                     n_vars=2, ops_per_thread=3,
                                     write_ratio=0.7)
            ex = run_program(program, RandomScheduler(seed))
            variables = sorted(program.default_relevance_vars())
            initial = {v: ex.initial_store[v] for v in variables}
            full = ComputationLattice(3, initial, ex.messages)
            b = build(ex, variables)
            assert b.stats.nodes_expanded == len(full), seed

    def test_feeding_order_does_not_matter(self, xyz_execution):
        ref = build(xyz_execution, XYZ_VARS, spec=XYZ_PROPERTY)
        msgs = list(xyz_execution.messages)
        rng = random.Random(2)
        for _ in range(6):
            rng.shuffle(msgs)
            b = build(xyz_execution, XYZ_VARS, spec=XYZ_PROPERTY, order=msgs)
            assert b.stats.nodes_expanded == ref.stats.nodes_expanded
            assert len(b.violations) == len(ref.violations)

    def test_empty_stream(self):
        b = LevelByLevelBuilder(2, {"x": 0})
        b.finish()
        assert b.complete
        assert b.stats.nodes_expanded == 0 or b.stats.levels_completed >= 0


class TestOnlineBehavior:
    def test_stalls_until_messages_available(self, xyz_execution):
        msgs = list(xyz_execution.messages)
        initial = {v: xyz_execution.initial_store[v] for v in XYZ_VARS}
        b = LevelByLevelBuilder(2, initial)
        # feed only thread 1's messages: thread 0's first is missing, and
        # without end-of-stream the builder cannot advance past level 0
        for m in msgs:
            if m.thread == 1:
                b.feed(m)
        assert b.level == 0
        for m in msgs:
            if m.thread == 0:
                b.feed(m)
        b.finish()
        assert b.complete

    def test_mark_thread_done_unblocks_online(self, xyz_execution):
        """End-of-thread markers let levels advance before close."""
        msgs = sorted(xyz_execution.messages, key=lambda m: m.emit_index)
        initial = {v: xyz_execution.initial_store[v] for v in XYZ_VARS}
        b = LevelByLevelBuilder(2, initial)
        for m in msgs:
            b.feed(m)
        # all messages fed but stream not closed: builder waits (a thread
        # might still emit)
        assert not b.complete
        b.mark_thread_done(0, 2)
        b.mark_thread_done(1, 2)
        assert b.complete  # no finish() needed

    def test_thread_done_markers_enable_early_results(self, xyz_execution):
        """With a monitor, the markers surface the predicted violation
        before the stream closes."""
        initial = {v: xyz_execution.initial_store[v] for v in XYZ_VARS}
        b = LevelByLevelBuilder(2, initial, Monitor(XYZ_PROPERTY))
        b.feed_many(xyz_execution.messages)
        assert b.violations == []
        b.mark_thread_done(0, 2)
        b.mark_thread_done(1, 2)
        assert len(b.violations) == 1  # no finish() needed

    def test_mark_thread_done_validation(self):
        b = LevelByLevelBuilder(2, {"x": 0})
        with pytest.raises(IndexError):
            b.mark_thread_done(5, 1)
        with pytest.raises(ValueError):
            b.mark_thread_done(0, -1)
        b.mark_thread_done(0, 2)
        with pytest.raises(ValueError, match="conflicting"):
            b.mark_thread_done(0, 3)

    def test_feed_after_finish_rejected(self, xyz_execution):
        b = build(xyz_execution, XYZ_VARS)
        with pytest.raises(RuntimeError):
            b.feed(xyz_execution.messages[0])

    def test_finish_with_gap_raises(self, xyz_execution):
        initial = {v: xyz_execution.initial_store[v] for v in XYZ_VARS}
        b = LevelByLevelBuilder(2, initial)
        # skip thread 0's first message -> permanent gap
        for m in xyz_execution.messages:
            if tuple(m.clock) != (1, 0):
                b.feed(m)
        with pytest.raises(RuntimeError, match="missing"):
            b.finish()


class TestMonitoring:
    def test_fig6_predicts_one_violation(self, xyz_execution):
        b = build(xyz_execution, XYZ_VARS, spec=XYZ_PROPERTY)
        assert len(b.violations) == 1
        v = b.violations[0]
        assert [m.event.label for m in v.messages] == ["x=0", "y=1", "z=1", "x=1"]

    def test_fig5_predicts_violation_with_counterexample(self, landing_execution):
        b = build(landing_execution, LANDING_VARS, spec=LANDING_PROPERTY)
        assert len(b.violations) >= 1
        v = b.violations[0]
        states = [tuple(s[x] for x in LANDING_VARS) for s in v.states]
        assert states[-1] == (1, 1, 0)  # landing started with radio down

    def test_counterexample_states_replay_messages(self, landing_execution):
        b = build(landing_execution, LANDING_VARS, spec=LANDING_PROPERTY)
        for v in b.violations:
            store = dict(v.states[0])
            for m, s in zip(v.messages, v.states[1:]):
                store[m.event.var] = m.event.value
                assert dict(s) == store

    def test_track_paths_false_still_counts_violations(self, landing_execution):
        b = build(landing_execution, LANDING_VARS, spec=LANDING_PROPERTY,
                  track_paths=False)
        assert len(b.violations) >= 1
        assert b.violations[0].messages == ()

    def test_violation_at_initial_state(self):
        b = LevelByLevelBuilder(1, {"x": 5}, Monitor("x == 0"))
        assert len(b.violations) == 1
        assert b.violations[0].cut == (0,)

    def test_monitor_state_sets_deduplicate(self, landing_execution):
        """Different paths reaching a cut with the same monitor state merge
        (the paper's 'all runs in parallel' trick)."""
        b = build(landing_execution, LANDING_VARS, spec=LANDING_PROPERTY)
        # peak resident (cut, mstate) pairs stays small
        assert b.stats.peak_resident_states <= 2 * b.stats.peak_resident_cuts


class TestMemoryBound:
    def test_at_most_two_levels_resident(self):
        """E5: peak resident cuts <= the two widest consecutive levels."""
        for seed in range(5):
            program = random_program(random.Random(seed), n_threads=3,
                                     n_vars=3, ops_per_thread=4,
                                     write_ratio=0.6)
            ex = run_program(program, RandomScheduler(seed))
            variables = sorted(program.default_relevance_vars())
            initial = {v: ex.initial_store[v] for v in variables}
            full = ComputationLattice(3, initial, ex.messages)
            widths = [len(lv) for lv in full.levels()]
            two_level_max = max(
                (widths[i] + widths[i + 1] for i in range(len(widths) - 1)),
                default=widths[0] if widths else 0,
            )
            b = build(ex, variables, track_paths=False)
            assert b.stats.peak_resident_cuts <= two_level_max, seed

    def test_peak_smaller_than_full_lattice_when_deep(self):
        program = random_program(random.Random(42), n_threads=2, n_vars=2,
                                 ops_per_thread=8, write_ratio=0.8)
        ex = run_program(program, RandomScheduler(1))
        variables = sorted(program.default_relevance_vars())
        initial = {v: ex.initial_store[v] for v in variables}
        full = ComputationLattice(2, initial, ex.messages)
        b = build(ex, variables, track_paths=False)
        assert b.stats.peak_resident_cuts <= len(full)

    def test_max_frontier_guard(self, xyz_execution):
        initial = {v: xyz_execution.initial_store[v] for v in XYZ_VARS}
        b = LevelByLevelBuilder(2, initial, max_frontier=1)
        with pytest.raises(MemoryError):
            b.feed_many(xyz_execution.messages)
            b.finish()


class TestProjection:
    def test_states_restricted_to_monitor_vars(self, xyz_execution):
        """With a monitor for x only, node states do not carry y/z."""
        initial = dict(xyz_execution.initial_store)
        b = LevelByLevelBuilder(2, initial, Monitor("x >= -1"),
                                track_paths=False)
        b.feed_many(xyz_execution.messages)
        b.finish()
        for state in b.frontier.values():
            assert set(state) <= {"x"}

    def test_projection_override(self, xyz_execution):
        initial = dict(xyz_execution.initial_store)
        b = LevelByLevelBuilder(2, initial, project={"y"})
        b.feed_many(xyz_execution.messages)
        b.finish()
        for state in b.frontier.values():
            assert set(state) <= {"y"}

    def test_projection_does_not_change_verdicts(self, xyz_execution):
        initial = dict(xyz_execution.initial_store)
        wide = LevelByLevelBuilder(2, initial, Monitor(XYZ_PROPERTY),
                                   project=initial.keys())
        wide.feed_many(xyz_execution.messages)
        wide.finish()
        narrow = LevelByLevelBuilder(2, initial, Monitor(XYZ_PROPERTY))
        narrow.feed_many(xyz_execution.messages)
        narrow.finish()
        assert len(wide.violations) == len(narrow.violations) == 1
