"""Analysis bus: multi-engine fan-out cost and engine complementarity.

Four questions this bench answers (tables land in ``BENCH_engines.json``;
reading guide in ``docs/PERFORMANCE.md``):

* what does each online engine cost **alone** on the same causally-ordered
  stream (events/s for ltl / atomicity / pattern on one lock-region soup);
* does fanning all three out over one :class:`repro.engines.AnalysisBus`
  stay **< 2×** the costliest single-engine run — the PR acceptance bound
  — and how does one combined pass compare to the *sum* of three separate
  passes (running every engine costs one walk over the stream, not three);
* is the per-event **annotation** (vector clocks + sync happens-before)
  really computed once: a bus fanning out to three no-op engines must
  cost far less than three single-engine buses each annotating for
  themselves;
* are the engines **complementary**: on the seeded serializability bug
  (an R-W-R triple whose values never go negative) the LTL spec stays
  clean while the atomicity engine reports the violation.

Regenerate the committed baseline with::

    PYTHONPATH=src python -m pytest -s benchmarks/bench_engines.py \
        --emit-json BENCH_engines.json
"""

from __future__ import annotations

import random
import time

from repro.core import all_accesses
from repro.engines import AnalysisBus, AnalysisEngine
from repro.observer import Observer
from repro.sched import FixedScheduler, Program, RandomScheduler, run_program
from repro.sched.program import (
    Acquire,
    Internal,
    Read,
    Release,
    Write,
    straightline,
)

from conftest import baseline_table, load_baseline, table

BASELINE = "BENCH_engines.json"

#: The session spec: a temporal interval property (the paper's formula
#: shape), so the LTL lattice does real monitoring work on the soup —
#: predicted violations are expected and part of the measured cost.
SPEC = "(v0 > 5) -> [v1 >= 0, v1 > 8)"

#: The single-engine configurations, then the combined bus.
SINGLES = [
    ("ltl", [f"ltl:{SPEC}"]),
    ("atomicity", ["atomicity"]),
    ("pattern", ["pattern:W(v0)=9;R(v0);W(v1)"]),
]
COMBINED = ("ltl+atomicity+pattern", [s for _, sel in SINGLES for s in sel])


def _lock_soup(seed: int, ops_per_thread: int, n_threads: int = 4,
               n_vars: int = 2, n_locks: int = 2):
    """A random lock-region program run with every access relevant — the
    stream shape all three engines consume (sync + reads + writes)."""
    rng = random.Random(seed)
    variables = [f"v{i}" for i in range(n_vars)]
    locks = [f"L{i}" for i in range(n_locks)]
    bodies = []
    for _t in range(n_threads):
        ops, held = [], None
        for _ in range(ops_per_thread):
            u = rng.random()
            if u < 0.15 and held is None:
                held = rng.choice(locks)
                ops.append(Acquire(held))
            elif u < 0.30 and held is not None:
                ops.append(Release(held))
                held = None
            elif u < 0.40:
                ops.append(Internal())
            elif u < 0.72:
                ops.append(Write(rng.choice(variables), rng.randrange(10)))
            else:
                ops.append(Read(rng.choice(variables)))
        if held is not None:
            ops.append(Release(held))
        bodies.append(straightline(ops))
    initial = {v: 0 for v in variables}
    initial.update({lk: 0 for lk in locks})
    program = Program(initial=initial, threads=bodies)
    return run_program(program, RandomScheduler(seed),
                       relevance=all_accesses())


def _timed_run(execution, selections, repeats: int = 1):
    """Feed the whole stream through a fresh Observer; best-of-``repeats``
    wall time plus the last observer (for verdict sanity checks)."""
    msgs = list(execution.messages)
    best, obs = float("inf"), None
    for _ in range(repeats):
        o = Observer(execution.n_threads, dict(execution.initial_store),
                     engines=list(selections))
        t0 = time.perf_counter()
        for i in range(0, len(msgs), 256):
            o.receive_batch(msgs[i:i + 256])
        o.finish()
        dt = time.perf_counter() - t0
        if dt < best:
            best, obs = dt, o
    return best, obs


def test_multi_engine_fan_out_cost(quick):
    """One stream, shared clocks: combined {ltl, atomicity, pattern} must
    cost < 2× the costliest single-engine run (``--quick`` relaxes the
    bound for CI noise, the committed baseline holds the strict one)."""
    ex = _lock_soup(seed=0, ops_per_thread=60 if quick else 300,
                    n_threads=3 if quick else 4)
    n = len(ex.messages)
    _timed_run(ex, COMBINED[1])          # warm-up: imports, allocator caches
    repeats = 1 if quick else 3
    times, rows = {}, []
    for label, selections in SINGLES + [COMBINED]:
        dt, obs = _timed_run(ex, selections, repeats)
        times[label] = dt
        rows.append((label, n, f"{dt * 1e3:.1f}", f"{n / dt:,.0f}"))
        verdicts = obs.engine_verdicts()
        assert len(verdicts) == len(selections)
        assert all(v.sound for v in verdicts)
    table("multi-engine fan-out cost (one stream, shared clocks)",
          ["engines", "events", "time ms", "ev/s"], rows)

    singles = [times[label] for label, _ in SINGLES]
    vs_single = times[COMBINED[0]] / max(singles)
    vs_sum = times[COMBINED[0]] / sum(singles)
    table("fan-out ratios", ["comparison", "ratio"],
          [("combined vs costliest single", f"{vs_single:.2f}x"),
           ("combined vs sum of singles", f"{vs_sum:.2f}x")])
    assert vs_single < (3.0 if quick else 2.0), (
        f"three engines on one bus cost {vs_single:.2f}x the costliest "
        f"single-engine run — the shared-annotation bound is < 2x")


class _NullEngine(AnalysisEngine):
    """Consumes annotated events and does nothing: isolates the bus's own
    per-event cost (causal delivery + clock/HB annotation + fan-out)."""

    name = "null"
    version = "bench"

    def feed(self, ev):
        return []

    def counterexamples(self):
        return []


def test_annotation_computed_once(quick):
    """The bus annotates each delivered event once and shares the frozen
    ``BusEvent`` by identity: fanning out to three no-op engines must cost
    well under three single-engine buses annotating independently."""
    ex = _lock_soup(seed=1, ops_per_thread=60 if quick else 300,
                    n_threads=3 if quick else 4)
    msgs = list(ex.messages)

    def bus_time(n_engines, repeats):
        best = float("inf")
        for _ in range(repeats):
            bus = AnalysisBus(ex.n_threads,
                              [_NullEngine() for _ in range(n_engines)])
            t0 = time.perf_counter()
            for i in range(0, len(msgs), 256):
                bus.feed_batch(msgs[i:i + 256])
            bus.finish()
            best = min(best, time.perf_counter() - t0)
        return best

    repeats = 2 if quick else 5
    bus_time(3, 1)                                  # warm-up
    one = bus_time(1, repeats)
    three = bus_time(3, repeats)
    separate = 3 * one
    rows = [("1 engine, 1 bus", f"{one * 1e3:.1f}"),
            ("3 engines, 1 bus (shared annotation)", f"{three * 1e3:.1f}"),
            ("3 engines, 3 buses (3x single)", f"{separate * 1e3:.1f}")]
    table("annotation amortization (no-op engines)",
          ["configuration", "time ms"], rows)
    assert three < separate * (0.95 if quick else 0.85), (
        f"3-engine bus {three * 1e3:.1f}ms vs 3 separate buses "
        f"{separate * 1e3:.1f}ms — annotation is not being shared")


def test_atomicity_flags_seeded_violation_ltl_misses():
    """The complementarity demonstration: a lock region whose two reads
    straddle a remote write (R-W-R, unserializable) while every value
    stays non-negative — invisible to ``x >= 0``, caught by AVIO."""
    region = straightline([Acquire("L"), Read("x"), Internal(),
                           Read("x"), Release("L")])
    remote = straightline([Write("x", 1)])
    program = Program(initial={"x": 0, "L": 0}, threads=[region, remote])
    ex = run_program(program, FixedScheduler([], strict=False),
                     relevance=all_accesses())
    obs = Observer(ex.n_threads, dict(ex.initial_store),
                   engines=["ltl:x >= 0", "atomicity"])
    obs.receive_batch(list(ex.messages))
    obs.finish()
    verdicts = {v.engine: v for v in obs.engine_verdicts()}
    assert verdicts["ltl"].verdict == "clean"
    assert verdicts["atomicity"].verdict == "violation"
    assert "R-W-R" in verdicts["atomicity"].counterexamples[0]
    table("engine complementarity — seeded serializability bug",
          ["engine", "verdict", "violations"],
          [(name, v.verdict, v.violations)
           for name, v in sorted(verdicts.items())])


def test_committed_baseline_is_current():
    """The committed ``BENCH_engines.json`` must exist, parse, and still
    show the acceptance numbers: all four configurations measured, the
    combined run < 2× the costliest single engine, and the atomicity
    engine flagging the seeded bug the LTL spec misses."""
    data = load_baseline(BASELINE)
    cost = baseline_table(data, "multi-engine fan-out cost", BASELINE)
    labels = [r[0] for r in cost["rows"]]
    assert labels == [label for label, _ in SINGLES] + [COMBINED[0]], (
        f"cost table in {BASELINE} covers {labels} — regenerate")
    ratios = baseline_table(data, "fan-out ratios", BASELINE)
    vs_single = float(dict((r[0], r[1]) for r in ratios["rows"])
                      ["combined vs costliest single"].rstrip("x"))
    assert vs_single < 2.0, (
        f"committed baseline shows {vs_single:.2f}x for the combined run — "
        f"above the 2x acceptance bound; regenerate {BASELINE} on a quiet "
        f"machine")
    amort = baseline_table(data, "annotation amortization", BASELINE)
    assert len(amort["rows"]) == 3
    comp = baseline_table(data, "engine complementarity", BASELINE)
    verdicts = {r[0]: r[1] for r in comp["rows"]}
    assert verdicts["ltl"] == "clean"
    assert verdicts["atomicity"] == "violation"
