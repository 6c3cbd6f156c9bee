"""Trace-archive costs: v2 vs v1 format throughput and replay overhead.

Three questions a deployment asks of the store:

* what does the v2 segment format cost (and save) against v1 JSONL —
  write/read throughput and bytes per event (v1 is read-only in the
  package, so this bench dumps its JSON lines itself);
* what does deterministic replay cost relative to the live analysis it
  reproduces (the ``repro replay --all --expect-catalog`` budget);
* does the archive round-trip scale linearly in events;
* does a commit's catalog cost stay flat as the archive grows.
"""

import json
import os
import random
import statistics
import time

from repro.core import AlgorithmA
from repro.engines import StreamVerdict
from repro.logic import Monitor
from repro.observer.observer import Observer
from repro.observer.trace import read_trace
from repro.store import (
    Catalog,
    CatalogEntry,
    SegmentWriter,
    TraceArchive,
    replay_entry,
)
from repro.store.replay import replay_trace

from conftest import table

N_EVENTS = 5_000
N_THREADS = 4
SPEC = "v0 >= 0"


def make_messages(n=N_EVENTS, n_threads=N_THREADS, seed=0):
    rng = random.Random(seed)
    algo = AlgorithmA(n_threads)
    for k in range(n):
        algo.on_write(rng.randrange(n_threads), f"v{k % 8}", k)
    return algo.emitted


def initial_store():
    return {f"v{i}": 0 for i in range(8)}


def write_v2(path, msgs, **kw):
    with SegmentWriter(path, N_THREADS, initial_store(), **kw) as w:
        for m in msgs:
            w.write(m)
    return w


def write_v1(path, msgs):
    """The v1 layout — a header line, then one ``Message.to_json`` line
    per message — flushed and fsynced like a v2 close."""
    header = {"type": "header", "version": 1, "n_threads": N_THREADS,
              "initial": initial_store(), "program": "unknown"}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for m in msgs:
            fh.write(m.to_json() + "\n")
        fh.flush()
        os.fsync(fh.fileno())


def test_v2_write_benchmark(benchmark, tmp_path):
    msgs = make_messages()
    path = tmp_path / "big.rpt"
    w = benchmark(lambda: write_v2(path, msgs))
    assert w.count == N_EVENTS


def test_v2_read_benchmark(benchmark, tmp_path):
    msgs = make_messages()
    path = tmp_path / "big.rpt"
    write_v2(path, msgs)
    trace = benchmark(lambda: read_trace(path))
    assert len(trace.messages) == N_EVENTS
    assert [tuple(m.clock) for m in trace.messages[:50]] == [
        tuple(m.clock) for m in msgs[:50]]


def test_format_comparison(tmp_path):
    """v1 vs v2: throughput and size on the same 5k-event stream."""
    msgs = make_messages()
    rows = []
    v1, v2 = tmp_path / "t.trace", tmp_path / "t.rpt"

    t0 = time.perf_counter()
    write_v1(v1, msgs)
    w1 = time.perf_counter() - t0
    t0 = time.perf_counter()
    read_trace(v1)
    r1 = time.perf_counter() - t0

    t0 = time.perf_counter()
    write_v2(v2, msgs)
    w2 = time.perf_counter() - t0
    t0 = time.perf_counter()
    read_trace(v2)
    r2 = time.perf_counter() - t0

    for name, path, wt, rt in (("v1 jsonl", v1, w1, r1),
                               ("v2 segments", v2, w2, r2)):
        size = path.stat().st_size
        rows.append((name, f"{N_EVENTS / wt:,.0f}", f"{N_EVENTS / rt:,.0f}",
                     size, f"{size / N_EVENTS:.1f}"))
    table("trace format v1 vs v2 (5k events, 4 threads)",
          ["format", "write ev/s", "read ev/s", "bytes", "bytes/event"],
          rows)
    # the compressed segment format must be substantially smaller
    assert v2.stat().st_size < 0.5 * v1.stat().st_size


def test_replay_vs_live_overhead(tmp_path):
    """Replay must cost about the same as the live analysis it reproduces —
    it runs the identical pipeline, plus segment decompression."""
    msgs = make_messages(n=2_000)

    t0 = time.perf_counter()
    observer = Observer(N_THREADS, initial_store(), spec=Monitor(SPEC),
                        causal_log=True)
    for m in msgs:
        observer.receive(m)
    observer.finish()
    live = time.perf_counter() - t0

    archive = TraceArchive(tmp_path / "arch")
    entry = archive.record_messages("bench", N_THREADS, initial_store(),
                                    msgs, spec=SPEC)
    t0 = time.perf_counter()
    result = replay_entry(archive, entry)
    replay = time.perf_counter() - t0

    table("replay vs live analysis (2k events, spec on)",
          ["path", "wall s", "events/s"],
          [("live pipeline", f"{live:.4f}", f"{2_000 / live:,.0f}"),
           ("archived replay", f"{replay:.4f}", f"{2_000 / replay:,.0f}"),
           ("ratio", f"{replay / live:.2f}x", "")])
    assert result.violations == len(observer.violations)
    assert result.events == 2_000
    # same pipeline + decompression: allow generous CI jitter, catch
    # an accidental quadratic replay path
    assert replay < 20 * live


def test_replay_scaling(tmp_path):
    """Replay wall time grows linearly in archived events."""
    rows = []
    rates = []
    for n in (500, 2_000, 8_000):
        path = tmp_path / f"s{n}.rpt"
        write_v2(path, make_messages(n=n))
        t0 = time.perf_counter()
        result = replay_trace(path, spec=SPEC)
        dt = time.perf_counter() - t0
        assert result.events == n
        rates.append(n / dt)
        rows.append((n, f"{dt:.4f}", f"{n / dt:,.0f}"))
    table("replay scaling (v2 archive, spec on)",
          ["events", "wall s", "events/s"], rows)
    # linear: throughput at 16x the events stays within ~8x of the small run
    assert max(rates) / min(rates) < 8


def seeded_archive(root, n):
    """An archive whose catalog snapshot already indexes ``n`` entries."""
    root.mkdir(parents=True)
    catalog = Catalog(root / TraceArchive.CATALOG_NAME)
    for k in range(n):
        trace_id = catalog.allocate_id("bench")
        catalog.add(CatalogEntry(
            id=trace_id, program="bench", n_threads=N_THREADS, events=8,
            verdict="clean", violations=0, counterexamples=(),
            final_clocks=((0,) * N_THREADS,) * N_THREADS, sound=True,
            wall_time_s=0.001, created_at=float(k), bytes=300,
            path=f"traces/{trace_id}.rpt", spec=SPEC))
    catalog.save()
    return TraceArchive(root)


def test_catalog_commit_cost_is_flat(tmp_path):
    """One session's archive round trip (``begin`` + 8 writes + ``commit``)
    at 10, 100 and 1,000 existing entries.  Each catalog mutation appends
    one log record, so the cost must not grow with the catalog (a full
    catalog rewrite per mutation made it linear)."""
    msgs = make_messages(n=8)
    reps = 15
    rows, cpu = [], {}
    for n in (10, 100, 1_000):
        archive = seeded_archive(tmp_path / f"a{n}", n)
        walls, cpus = [], []
        for _ in range(reps):
            w0, c0 = time.perf_counter(), time.process_time()
            pending = archive.begin("bench", N_THREADS, initial_store(),
                                    spec=SPEC)
            for m in msgs:
                pending.write(m)
            pending.commit(StreamVerdict((), True), 0.001)
            cpus.append(time.process_time() - c0)
            walls.append(time.perf_counter() - w0)
        assert len(archive) == n + reps
        cpu[n] = statistics.median(cpus)
        rows.append((n, f"{statistics.median(walls) * 1e3:.2f}",
                     f"{cpu[n] * 1e3:.2f}"))
    table("archive commit cost vs catalog size (median of 15 sessions)",
          ["entries", "wall ms", "cpu ms"], rows)
    assert cpu[1_000] < 3 * cpu[10]
