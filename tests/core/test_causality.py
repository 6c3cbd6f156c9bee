"""Tests for observer-side causality reconstruction (CausalityIndex)."""

import random

import numpy as np
import pytest

from repro.core.causality import CausalityIndex, hasse_reduction, is_linear_extension
from repro.core.events import Event, EventKind, Message
from repro.core.vectorclock import VectorClock
from repro.sched import FixedScheduler, run_program
from repro.workloads import XYZ_OBSERVED_SCHEDULE, xyz_program


def msg(thread, seq, clock, var="x"):
    return Message(
        event=Event(thread=thread, seq=seq, kind=EventKind.WRITE, var=var,
                    value=0, relevant=True),
        thread=thread,
        clock=VectorClock(clock),
    )


@pytest.fixture
def fig6_index(xyz_execution):
    return CausalityIndex(2, xyz_execution.messages), xyz_execution.messages


class TestConstruction:
    def test_duplicate_eid_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            CausalityIndex(2, [msg(0, 1, (1, 0)), msg(0, 1, (2, 0))])

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="width"):
            CausalityIndex(2, [msg(0, 1, (1, 0, 0))])

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            CausalityIndex(0)

    def test_contains_and_message(self):
        idx = CausalityIndex(2, [msg(0, 1, (1, 0))])
        assert (0, 1) in idx
        assert (1, 1) not in idx
        assert idx.message((0, 1)).clock == (1, 0)
        assert len(idx) == 1


class TestPointQueries:
    def test_fig6_relations(self, fig6_index):
        idx, msgs = fig6_index
        e1, e2, e4, e3 = msgs  # emission order of the observed schedule
        assert idx.precedes(e1, e2)
        assert idx.precedes(e1, e3)
        assert idx.precedes(e1, e4)
        assert idx.precedes(e2, e4)
        assert idx.concurrent(e2, e3)
        assert idx.concurrent(e3, e4)

    def test_queries_accept_eids(self, fig6_index):
        idx, msgs = fig6_index
        e1 = msgs[0]
        assert idx.precedes(e1.event.eid, msgs[1].event.eid)
        assert idx.concurrent(msgs[1].event.eid, msgs[3].event.eid)

    def test_predecessors_successors(self, fig6_index):
        idx, msgs = fig6_index
        e1, e2, e4, e3 = msgs
        assert {m.event.eid for m in idx.predecessors(e4)} == {e1.event.eid, e2.event.eid}
        assert {m.event.eid for m in idx.successors(e1)} == {
            e2.event.eid, e3.event.eid, e4.event.eid
        }


class TestBulkKernels:
    def test_relation_matrix_matches_point_queries(self, fig6_index):
        idx, msgs = fig6_index
        p = idx.relation_matrix()
        for i, a in enumerate(idx.messages):
            for j, b in enumerate(idx.messages):
                assert p[i, j] == (a.causally_precedes(b)), (i, j)

    def test_concurrency_matrix(self, fig6_index):
        idx, _ = fig6_index
        c = idx.concurrency_matrix()
        assert not c.diagonal().any()
        assert (c == c.T).all()
        # Fig. 6: exactly e2||e3 and e3||e4 concurrent
        assert idx.count_concurrent_pairs() == 2

    def test_insertion_order_invariance(self, xyz_execution):
        msgs = list(xyz_execution.messages)
        rng = random.Random(3)
        for _ in range(5):
            rng.shuffle(msgs)
            idx = CausalityIndex(2, msgs)
            assert idx.count_concurrent_pairs() == 2


class TestStructure:
    def test_covering_edges_fig6(self, fig6_index):
        idx, msgs = fig6_index
        e1, e2, e4, e3 = msgs
        cover = {(a.event.eid, b.event.eid) for a, b in idx.covering_edges()}
        # e1->e4 is implied by e1->e2->e4, so the Hasse diagram drops it.
        assert cover == {
            (e1.event.eid, e2.event.eid),
            (e1.event.eid, e3.event.eid),
            (e2.event.eid, e4.event.eid),
        }

    def test_hasse_reduction_empty(self):
        out = hasse_reduction(np.zeros((0, 0), dtype=bool))
        assert out.shape == (0, 0)

    def test_hasse_reduction_non_square(self):
        with pytest.raises(ValueError):
            hasse_reduction(np.zeros((2, 3), dtype=bool))

    def test_hasse_reduction_chain(self):
        # 0<1<2 with transitive edge 0<2: reduction keeps 0-1, 1-2 only
        p = np.array([[0, 1, 1], [0, 0, 1], [0, 0, 0]], dtype=bool)
        r = hasse_reduction(p)
        assert r.tolist() == [[False, True, False],
                              [False, False, True],
                              [False, False, False]]

    def test_per_thread_chains(self, fig6_index):
        idx, _ = fig6_index
        chains = idx.per_thread_chains()
        assert [m.clock[0] for m in chains[0]] == [1, 2]
        assert [m.clock[1] for m in chains[1]] == [1, 2]

    def test_minimal_messages(self, fig6_index):
        idx, msgs = fig6_index
        assert [m.event.eid for m in idx.minimal_messages()] == [msgs[0].event.eid]


class TestLinearization:
    def test_linearize_is_linear_extension(self, fig6_index):
        idx, _ = fig6_index
        order = idx.linearize()
        assert is_linear_extension(order)
        assert len(order) == 4

    def test_is_linear_extension_rejects_bad_order(self, fig6_index):
        idx, msgs = fig6_index
        e1, e2, e4, e3 = msgs
        assert not is_linear_extension([e2, e1, e3, e4])
        assert is_linear_extension([e1, e3, e2, e4])

    def test_emission_order_is_linear_extension_always(self):
        """Algorithm A's own emission order respects ⊳ (sanity)."""
        result = run_program(xyz_program(), FixedScheduler(XYZ_OBSERVED_SCHEDULE))
        assert is_linear_extension(result.messages)
