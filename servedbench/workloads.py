"""The benchmark's workloads: generated streams, server settings, oracle.

A workload is a pool of *streams* generated from the seed, the server
settings the daemon runs with, and the analysis each session asks for.
A stream is a list of operations that the load generator replays live
through :class:`~repro.core.algorithm_a.AlgorithmA`, whose sink is the
attached session, so each served session sees exactly the messages that
Algorithm A emits for the stream.

The oracle computes each stream's reference result in process: the same
operations through a fresh ``AlgorithmA``, and its messages through an
:class:`~repro.observer.observer.Observer` with the same analysis
selection, in batches of 64.  A served verdict is correct when its state,
violation count, counterexamples, final clocks and per-engine verdict
documents all equal the reference.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.algorithm_a import AlgorithmA, all_accesses, relevant_writes
from repro.core.events import EventKind
from repro.logic.monitor import Monitor
from repro.observer.observer import Observer
from repro.sched.scheduler import FixedScheduler, run_program
from repro.workloads.xyz import OBSERVED_SCHEDULE, XYZ_PROPERTY, xyz_program

# the lattice workload's program generator lives with the engine benchmarks
_BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks")
sys.path.insert(0, _BENCHMARKS)
try:
    from bench_engines import _lock_soup
finally:
    sys.path.remove(_BENCHMARKS)

__all__ = ["Stream", "Workload", "WORKLOADS", "algorithm_a", "build", "emit",
           "reference", "verdict_key"]

# operation codes: index into the tuple of bound AlgorithmA methods
_READ, _WRITE, _ACQ, _REL, _INTERNAL = range(5)
_CODES = {EventKind.READ: _READ, EventKind.WRITE: _WRITE,
          EventKind.ACQUIRE: _ACQ, EventKind.RELEASE: _REL,
          EventKind.INTERNAL: _INTERNAL}


@dataclass
class Stream:
    """One generated run of the monitored program."""

    n_threads: int
    initial: dict
    ops: list            # (code, thread, var, value)
    all_relevant: bool   # every access relevant, else only writes
    relevant_vars: tuple = ()
    messages: int = 0
    reference: Optional[dict] = None
    expected: tuple = ()      # the reference in verdict_key shape
    inproc_cpu_s: float = 0.0


@dataclass
class Workload:
    """One traffic mix; BENCHMARK.json and README.md give the reasons."""

    name: str
    #: record every session into a trace archive (ServerConfig.archive_dir);
    #: every other ServerConfig field keeps its default
    archive: bool = False
    spec: Optional[str] = None
    engines: tuple = ()
    clients: int = 1
    streams: list = field(default_factory=list)


def algorithm_a(stream: Stream, sink=None) -> AlgorithmA:
    """A fresh Algorithm A with the stream's width and relevance."""
    relevance = (all_accesses() if stream.all_relevant
                 else relevant_writes(stream.relevant_vars))
    return AlgorithmA(stream.n_threads, relevance=relevance, sink=sink,
                      collect=sink is None)


def emit(stream: Stream, sink) -> AlgorithmA:
    """Replay the stream's operations live through Algorithm A."""
    a = algorithm_a(stream, sink)
    calls = (a.on_read, a.on_write, a.on_acquire, a.on_release)
    internal = a.on_internal
    for code, thread, var, value in stream.ops:
        if code == _READ or code == _WRITE:
            calls[code](thread, var, value)
        elif code == _INTERNAL:
            internal(thread)
        else:
            calls[code](thread, var)
    return a


def _firehose_stream(rng: random.Random, n_ops: int) -> Stream:
    """8 threads, 16 shared variables, ~70% writes; writes are relevant."""
    names = [f"v{i}" for i in range(16)]
    store = dict.fromkeys(names, 0)
    ops = []
    for _ in range(n_ops):
        t = rng.randrange(8)
        var = names[rng.randrange(16)]
        if rng.random() < 0.7:
            val = rng.randrange(100)
            store[var] = val
            ops.append((_WRITE, t, var, val))
        else:
            ops.append((_READ, t, var, store[var]))
    return Stream(8, dict.fromkeys(names, 0), ops, all_relevant=False,
                  relevant_vars=tuple(names))


def _ops_of(events) -> list:
    return [(_CODES[e.kind], e.thread, e.var, e.value) for e in events]


def _lock_soup_stream(seed: int, ops_per_thread: int) -> Stream:
    """The 4-thread lock-region soup of ``bench_engines.py``, every access
    relevant."""
    run = _lock_soup(seed, ops_per_thread)
    return Stream(4, dict(run.initial_store), _ops_of(run.events),
                  all_relevant=True)


def _relabel(stream: Stream, rng: random.Random) -> Stream:
    """The same program with its threads permuted and its locks renamed.

    Random lock soups differ widely in cost: over 1k messages the
    in-process cost of one soup ranges over about 2x, mostly with the
    number and length of the LTL counterexamples.  A run serves only tens
    of sessions, so soups drawn afresh per seed cannot give figures that
    repeat, and a pool of unequal soups splits the verdict latencies into
    clusters that the median jumps between.  The lattice workload
    therefore serves the fixed soup 0, and the seed draws a relabelling
    of it: different messages, identical analysis work.
    """
    perm = list(range(stream.n_threads))
    rng.shuffle(perm)
    locks = {"L0": "L1", "L1": "L0"} if rng.random() < 0.5 else {}
    ops = [(code, perm[t], locks.get(var, var), value)
           for code, t, var, value in stream.ops]
    return Stream(stream.n_threads, stream.initial, ops,
                  stream.all_relevant, stream.relevant_vars)


def _xyz_stream() -> Stream:
    """The paper's observed x/y/z run: 4 messages, 1 predicted violation."""
    run = run_program(xyz_program(), FixedScheduler(OBSERVED_SCHEDULE))
    return Stream(2, {"x": -1, "y": 0, "z": 0}, _ops_of(run.events),
                  all_relevant=False, relevant_vars=("x", "y", "z"))


WORKLOADS = {
    "firehose": Workload("firehose", archive=True),
    "lattice": Workload(
        "lattice",
        engines=("ltl:(v0 > 5) -> [v1 >= 0, v1 > 8)", "atomicity",
                 "pattern:W(v0)=9;R(v0);W(v1)")),
    "sessions": Workload("sessions", archive=True, spec=XYZ_PROPERTY,
                         clients=2),
}

#: firehose streams per run, and stream sizes.  A lattice session is about
#: 500 messages: at 1k, a 30 s run closes only about 18 sessions, too few
#: for a verdict_ms_p50 that repeats.
_POOL = 3
_FIREHOSE_OPS = 20_000
_LOCK_SOUP_OPS = 155


def build(name: str, seed: int) -> Workload:
    """Generate the workload's stream pool from ``seed`` and compute each
    stream's reference result."""
    wl = WORKLOADS[name]
    wl = Workload(wl.name, wl.archive, wl.spec, wl.engines, wl.clients)
    if name == "firehose":
        rng = random.Random(seed)
        wl.streams = [_firehose_stream(rng, _FIREHOSE_OPS)
                      for _ in range(_POOL)]
    elif name == "lattice":
        wl.streams = [_relabel(_lock_soup_stream(0, _LOCK_SOUP_OPS),
                               random.Random(seed))]
    else:
        wl.streams = [_xyz_stream()]
    for s in wl.streams:
        s.reference, s.inproc_cpu_s = reference(wl, s)
        s.expected = _expected_key(s.reference)
        s.messages = s.reference["analyzed"]
    return wl


def reference(wl: Workload, stream: Stream) -> tuple[dict, float]:
    """The in-process verdict of ``stream`` and the thread CPU seconds its
    ``Observer.receive_batch`` calls took (batch 64, no server)."""
    msgs = emit(stream, None).emitted
    # a served session hands the Observer a Monitor built from the hello's
    # spec (so the verdict names the parsed formula); do the same here
    obs = Observer(stream.n_threads, stream.initial,
                   spec=Monitor(wl.spec) if wl.spec else None,
                   engines=list(wl.engines) or None)
    c0 = time.thread_time()
    for i in range(0, len(msgs), 64):
        obs.receive_batch(msgs[i:i + 64])
    cpu = time.thread_time() - c0
    obs.finish()
    final = [[0] * stream.n_threads for _ in range(stream.n_threads)]
    for m in msgs:
        final[m.thread] = list(m.clock)
    verdicts = obs.engine_verdicts()
    doc = {
        "state": "finished",
        "violations": sum(v.violations for v in verdicts),
        "counterexamples": obs.counterexamples(),
        "final_clocks": final,
        "engines": [v.to_json() for v in verdicts],
        "analyzed": len(msgs),
    }
    return json.loads(json.dumps(doc)), cpu


def verdict_key(v: Any) -> tuple:
    """The comparable part of a served :class:`SessionVerdict`, in the
    shape the client builds it in, so comparing it costs no conversion
    inside the measured phase."""
    return (v.state, v.violations, v.counterexamples, v.final_clocks,
            v.engines, v.analyzed)


def _expected_key(ref: dict) -> tuple:
    """A reference document in :func:`verdict_key` shape."""
    return (ref["state"], ref["violations"], tuple(ref["counterexamples"]),
            tuple(tuple(c) for c in ref["final_clocks"]),
            tuple(ref["engines"]), ref["analyzed"])
