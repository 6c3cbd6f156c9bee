"""Tests for the online observer: reordering tolerance (E7) and the socket
wire to an analysis server (the two-process deployment of Fig. 4)."""

import dataclasses
import gc
import itertools
import random
import time
import weakref

import pytest

from repro.core.causality import CausalityIndex
from repro.observer import (
    FifoChannel,
    MultiChannel,
    Observer,
    ReorderingChannel,
    deliver_all,
)
from repro.sched import RandomScheduler, run_program
from repro.workloads import (
    LANDING_VARS,
    XYZ_PROPERTY,
    XYZ_VARS,
    random_program,
)

from ..conftest import sealed_record


def make_observer(execution, variables, spec=None, causal_log=False):
    initial = {v: execution.initial_store[v] for v in variables}
    return Observer(execution.n_threads, initial, spec=spec,
                    causal_log=causal_log)


class TestIngestion:
    def test_receive_builds_causality(self, xyz_execution):
        obs = make_observer(xyz_execution, XYZ_VARS, causal_log=True)
        obs.receive_batch(xyz_execution.messages)
        assert obs.n_received == 4
        assert CausalityIndex(2, obs.causal_log).count_concurrent_pairs() \
            == 2

    def test_receive_after_finish_rejected(self, xyz_execution):
        obs = make_observer(xyz_execution, XYZ_VARS)
        obs.receive_batch(xyz_execution.messages)
        obs.finish()
        with pytest.raises(RuntimeError):
            obs.receive(xyz_execution.messages[0])

    def test_consume_channel(self, xyz_execution):
        obs = make_observer(xyz_execution, XYZ_VARS, spec=XYZ_PROPERTY)
        ch = FifoChannel()
        for m in xyz_execution.messages:
            ch.put(m)
        ch.close()
        obs.consume(ch)
        obs.finish()
        assert len(obs.violations) == 1

    def test_no_spec_no_violations(self, xyz_execution):
        obs = make_observer(xyz_execution, XYZ_VARS)
        obs.receive_batch(xyz_execution.messages)
        assert obs.finish() == []
        assert obs.violations == []
        assert obs.stats is None


class TestReorderingInvariance:
    """E7: verdicts and causality are invariant under delivery order."""

    def test_fifo_order_is_linear_extension(self, xyz_execution):
        obs = make_observer(xyz_execution, XYZ_VARS, causal_log=True)
        obs.receive_batch(xyz_execution.messages)
        assert obs.causal_log == list(xyz_execution.messages)

    @pytest.mark.parametrize("seed", range(6))
    def test_reordered_delivery_same_verdict(self, xyz_execution, seed):
        channel = ReorderingChannel(seed=seed, window=3)
        delivery = deliver_all(channel, xyz_execution.messages)
        obs = make_observer(xyz_execution, XYZ_VARS, spec=XYZ_PROPERTY,
                            causal_log=True)
        obs.receive_batch(delivery)
        obs.finish()
        assert len(obs.violations) == 1
        assert CausalityIndex(2, obs.causal_log).count_concurrent_pairs() \
            == 2

    @pytest.mark.parametrize("seed", range(4))
    def test_multichannel_delivery_same_verdict(self, landing_execution, seed):
        from repro.workloads import LANDING_PROPERTY

        channel = MultiChannel(k=2, seed=seed)
        delivery = deliver_all(channel, landing_execution.messages)
        obs = make_observer(landing_execution, LANDING_VARS,
                            spec=LANDING_PROPERTY)
        obs.receive_batch(delivery)
        obs.finish()
        assert len(obs.violations) == 1

    def test_adversarial_full_shuffle(self, xyz_execution):
        msgs = list(xyz_execution.messages)
        for seed in range(10):
            random.Random(seed).shuffle(msgs)
            obs = make_observer(xyz_execution, XYZ_VARS, spec=XYZ_PROPERTY)
            obs.receive_batch(msgs)
            obs.finish()
            assert len(obs.violations) == 1, seed


def serve_xyz(execution, records, tamper=None, **config):
    """Stream the xyz run over the wire to an analysis server; return the
    client session (``tamper`` may rewrite its sender first)."""
    from repro.server import AnalysisServer, ServerConfig, attach

    with AnalysisServer(ServerConfig(port=0, **config),
                        on_session_end=records.append) as srv:
        with attach(srv.host, srv.port, n_threads=execution.n_threads,
                    initial={v: execution.initial_store[v] for v in XYZ_VARS},
                    spec=XYZ_PROPERTY, program="xyz") as session:
            if tamper is not None:
                tamper(session._sender)
            for m in execution.messages:
                session.send(m)
    return session


class TestServedSocket:
    """The two-process deployment of Fig. 4: messages leave the program
    over TCP and an analysis server hosts the observer."""

    def test_round_trip(self, xyz_execution, tmp_path):
        from repro.observer.trace import read_trace
        from repro.store import TraceArchive

        serve_xyz(xyz_execution, [], archive_dir=str(tmp_path))
        archive = TraceArchive(tmp_path)
        [entry] = archive.entries()
        received = read_trace(archive.path_of(entry)).messages
        assert [m.event.eid for m in received] == [
            m.event.eid for m in xyz_execution.messages]
        assert [tuple(m.clock) for m in received] == [
            tuple(m.clock) for m in xyz_execution.messages]

    def test_observer_over_socket(self, xyz_execution):
        records = []
        session = serve_xyz(xyz_execution, records)
        obs = make_observer(xyz_execution, XYZ_VARS, spec=XYZ_PROPERTY)
        obs.receive_batch(xyz_execution.messages)
        obs.finish()
        assert session.verdict.violations == len(obs.violations) == 1
        assert sorted(session.verdict.counterexamples) == \
            sorted(obs.counterexamples())
        assert records[0]["analyzed"] == len(xyz_execution.messages)


class TestCausalLog:
    def test_causal_log_is_linear_extension_under_shuffle(self, xyz_execution):
        from repro.core.causality import is_linear_extension

        msgs = list(xyz_execution.messages)
        for seed in range(6):
            random.Random(seed).shuffle(msgs)
            obs = Observer(2, {v: xyz_execution.initial_store[v]
                               for v in ("x", "y", "z")}, causal_log=True)
            obs.receive_batch(msgs)
            assert len(obs.causal_log) == 4
            assert is_linear_extension(obs.causal_log)

    def test_causal_log_disabled_by_default(self, xyz_execution):
        obs = Observer(2, dict(xyz_execution.initial_store))
        obs.receive_batch(xyz_execution.messages)
        assert obs.causal_log == []


class TestStrictGap:
    """A strict observer keeps the perfect-channel contract for every
    engine selection: a message lost from the middle of a thread's chain
    fails ``finish()`` instead of yielding a quietly partial verdict."""

    @pytest.mark.parametrize("selection", [
        {"spec": XYZ_PROPERTY},
        {"engines": [f"ltl:{XYZ_PROPERTY}"]},
        {"engines": ["atomicity"]},
        {"spec": XYZ_PROPERTY, "engines": ["ltl", "atomicity"]},
    ], ids=["spec", "ltl", "atomicity", "ltl+atomicity"])
    def test_finish_raises_on_gap(self, xyz_execution, selection):
        # eid (0, 2) is thread 0's first relevant message; its successor
        # (0, 5) and everything after it in causality stay parked
        kept = [m for m in xyz_execution.messages if m.event.eid != (0, 2)]
        obs = Observer(2, {v: xyz_execution.initial_store[v]
                           for v in XYZ_VARS}, **selection)
        obs.receive_batch(kept)
        with pytest.raises(RuntimeError, match="missing relevant messages"):
            obs.finish()

    def test_health_counts_parked_messages(self, xyz_execution):
        kept = [m for m in xyz_execution.messages if m.event.eid != (0, 2)]
        obs = make_observer(xyz_execution, XYZ_VARS, spec=XYZ_PROPERTY)
        obs.receive_batch(kept)
        health = obs.health
        assert (health.received, health.delivered, health.pending) == \
            (3, 0, 3)
        assert not health.sound_everywhere


class TestSocketRobustness:
    @staticmethod
    def _before_first_message(line):
        """A tamper that writes ``line`` raw onto the wire just before
        the first data frame."""
        def tamper(sender):
            transmit = sender._transmit

            def first(frame):
                sender._transmit = transmit
                transmit(line)
                transmit(frame)

            sender._transmit = first
        return tamper

    def test_garbage_line_raises_in_strict_mode(self, xyz_execution):
        """A line that is not a frame fails the session: the verdict is
        never computed over a stream with a hole in it."""
        from repro.observer.reliable import ReliableTransportError

        records = []
        with pytest.raises(ReliableTransportError):
            serve_xyz(xyz_execution, records,
                      tamper=self._before_first_message(b"{not json\n"))
        [record] = records
        assert record["state"] == "failed"
        assert "corrupt frame: not a JSON object" in record["error"]

    def test_client_raises_the_daemons_reason(self, xyz_execution):
        """The daemon drops the connection on the garbage line while the
        client is still writing: the client's error names the daemon's
        reason, not the broken pipe its own next write runs into.  The
        client's ack reader is made slow to apply the daemon's ``err``
        (as on a starved machine), so the failed write comes first."""
        from repro.observer.reliable import ReliableTransportError

        for _ in range(3):
            records = []

            def tamper(sender):
                transmit, fail = sender._transmit, sender._fail

                def first(frame):
                    sender._transmit = transmit
                    transmit(b"{not json\n")
                    sealed_record(records)   # the daemon has hung up
                    transmit(frame)

                def slow_reader(reason, override=False):
                    if reason.startswith("peer error"):
                        time.sleep(0.2)
                    fail(reason, override)

                sender._transmit = first
                sender._fail = slow_reader

            with pytest.raises(ReliableTransportError,
                               match="corrupt frame: not a JSON object"):
                serve_xyz(xyz_execution, records, tamper=tamper)

    def test_blank_lines_ignored(self, xyz_execution):
        records = []
        session = serve_xyz(xyz_execution, records,
                            tamper=self._before_first_message(b"\n\n"))
        assert session.verdict.state == "finished"
        assert session.verdict.analyzed == len(xyz_execution.messages)
        assert session.verdict.violations == 1


class TestBoundedState:
    """Without ``causal_log`` and without engines, the observer keeps no
    reference to a message once it is delivered: its state is bounded by
    what is still undecided, not by the length of the stream."""

    @staticmethod
    def fresh_stream(messages, refs, duplicates):
        # fresh copies the test does not keep; windows of 4 are shuffled so
        # messages park behind gaps and are released later
        order = list(range(len(messages)))
        rng = random.Random(5)
        for i in range(0, len(order), 4):
            window = order[i:i + 4]
            rng.shuffle(window)
            order[i:i + 4] = window
        for n, i in enumerate(order):
            copies = 2 if duplicates and n % 5 == 0 else 1
            for _ in range(copies):
                m = dataclasses.replace(messages[i])
                refs.append(weakref.ref(m))
                yield m

    @pytest.mark.parametrize("fault_tolerant", [False, True],
                             ids=["strict", "tolerant"])
    def test_delivered_messages_are_freed(self, fault_tolerant):
        program = random_program(random.Random(2), n_threads=3, n_vars=3,
                                 ops_per_thread=30, write_ratio=0.7)
        ex = run_program(program, RandomScheduler(2))
        refs = []
        obs = Observer(ex.n_threads, dict(ex.initial_store),
                       fault_tolerant=fault_tolerant)
        stream = self.fresh_stream(ex.messages, refs,
                                   duplicates=fault_tolerant)
        while chunk := list(itertools.islice(stream, 8)):
            obs.receive_batch(chunk)
        del chunk
        health = obs.health
        assert health.delivered == len(ex.messages)
        assert health.pending == 0
        assert health.duplicates_dropped == len(refs) - len(ex.messages)
        assert (health.duplicates_dropped > 0) == fault_tolerant
        gc.collect()
        alive = [r() for r in refs if r() is not None]
        assert alive == []

    def test_quarantined_messages_are_freed(self):
        """Losing the first message quarantines most of the stream; the
        observer counts that cone, it does not keep it."""
        program = random_program(random.Random(2), n_threads=3, n_vars=3,
                                 ops_per_thread=30, write_ratio=0.7)
        ex = run_program(program, RandomScheduler(2))
        first, rest = ex.messages[0], ex.messages[1:]
        refs = []
        obs = Observer(ex.n_threads, dict(ex.initial_store),
                       fault_tolerant=True, stall_threshold=16)
        stream = self.fresh_stream(rest, refs, duplicates=False)
        while chunk := list(itertools.islice(stream, 8)):
            obs.receive_batch(chunk)
        del chunk
        health = obs.health
        assert health.losses == (first.delivery_index,)
        assert health.quarantined > len(rest) // 2
        assert health.pending == 0
        assert health.delivered + health.quarantined == len(rest)
        gc.collect()
        alive = [r() for r in refs if r() is not None]
        assert alive == []
