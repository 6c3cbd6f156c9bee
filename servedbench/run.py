"""Served-path benchmark: load generator, daemon control, metrics.

Run from the root of a checkout::

    python3 servedbench/run.py --workload firehose --seed 1 --seconds 30

This process is the load generator: it replays each workload's generated
streams live through Algorithm A into ``repro.server.attach()`` sessions.
The analysis daemon runs in a separate process (``daemon.py``) with the
default ``ServerConfig`` plus only the settings the workload names.
Every served verdict is checked against an in-process reference.

With ``--trace 0`` the last line of output carries the end-to-end
metrics; with ``--trace 1`` both processes record spans around the calls
into each layer, and the last line carries the per-layer ledger instead.
Both print an ``info`` line before it (seed, messages per session,
``PYTHONHASHSEED``, CPU affinity, retransmissions, failures, and in a
traced run the end-to-end numbers measured with tracing on).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: scratch space inside the checkout (archives, traces); see .gitignore
WORK = ROOT / ".servedbench"

#: daemon launches per run; setup_s is their median
SETUP_LAUNCHES = 5
#: hard stop for one run, below the 180 s a run may take
DEADLINE_S = 170
#: verdict wait for one session close
CLOSE_TIMEOUT_S = 60.0

END_TO_END_UNITS = {
    "ingest_eps": "events/s",
    "sessions_per_s": "sessions/s",
    "verdict_ms_p50": "ms",
    "verdict_ms_p90": "ms",
    "daemon_cpu_us_per_event": "us",
    "client_cpu_us_per_event": "us",
    "daemon_rss_mb": "MB",
    "setup_s": "s",
}

#: span names whose self CPU is one row of each process's ledger
CLIENT_CPU_ROWS = {
    "core.emit_us": "core.emit",
    "reliable.send_us": "reliable.send",
    "reliable.ack_rx_us": "reliable.ack_rx",
    "reliable.timer_us": "reliable.timer",
    "server.attach_us": "server.attach",
    "server.close_us": "server.close",
}
DAEMON_CPU_ROWS = {
    "server.read_us": "server.conn",
    "session.build_us": "session.build",
    "session.record_us": "session.record",
    "reliable.decode_us": "reliable.decode",
    "session.enqueue_us": "session.enqueue",
    "session.process_us": "session.process",
    "observer.ingest_us": "observer.ingest",
    "delivery.us": "delivery",
    "bus.annotate_us": "bus",
    "ltl.us": "ltl",
    "atomicity.us": "atomicity",
    "pattern.us": "pattern",
    "observer.finish_us": "observer.finish",
    "store.write_us": "store.write",
    "store.commit_us": "store.commit",
    "store.begin_us": "store.begin",
    "store.catalog_us": "store.catalog",
}

#: the per-layer ledger: (metric, unit, process, layer and what is measured)
LEDGER = [
    ("core.emit_us", "us", "client",
     "core.algorithm_a: AlgorithmA.process self CPU, sink excluded"),
    ("reliable.send_us", "us", "client",
     "observer.reliable: AttachedSession.send CPU (JSON, CRC, sendall)"),
    ("reliable.ack_rx_us", "us", "client",
     "observer.reliable: sender ack-reader thread CPU"),
    ("reliable.timer_us", "us", "client",
     "observer.reliable: sender retransmit/heartbeat timer thread CPU"),
    ("server.attach_us", "us", "client",
     "server.client: attach() CPU (handshake)"),
    ("server.close_us", "us", "client",
     "server.client: AttachedSession.close() CPU (fin, result)"),
    ("client.other_us", "us", "client",
     "generator CPU outside every span above"),
    ("client.cpu_us", "us", "client",
     "generator process CPU per event (= rows above)"),
    ("reliable.send_wait_us", "us", "client",
     "AttachedSession.send wall - CPU: blocked on a full window"),
    ("reliable.retransmits_per_kevent", "count", "client",
     "reliable.retransmissions per 1000 events"),
    ("server.attach_ms", "ms", "client", "attach() wall per session"),
    ("server.read_us", "us", "daemon",
     "server.daemon: connection reader self CPU (socket read, framing, "
     "handshake, result frame)"),
    ("session.build_us", "us", "daemon",
     "server.session: Session construction CPU (Observer, monitor, "
     "engines)"),
    ("session.record_us", "us", "daemon",
     "server.session: Session.record CPU (renders counterexamples and "
     "verdict documents)"),
    ("reliable.decode_us", "us", "daemon",
     "observer.reliable: FrameDecoder.feed_line self CPU (JSON, CRC, "
     "Message.from_json, ack)"),
    ("session.enqueue_us", "us", "daemon",
     "server.session: Session.enqueue CPU"),
    ("session.process_us", "us", "daemon",
     "server.session: Session.process_batch self CPU"),
    ("observer.ingest_us", "us", "daemon",
     "observer.observer: Observer.receive_batch self CPU (causality index)"),
    ("delivery.us", "us", "daemon",
     "observer.delivery: CausalDelivery.offer_batch CPU"),
    ("bus.annotate_us", "us", "daemon",
     "engines.bus: AnalysisBus.feed_batch/finish self CPU"),
    ("ltl.us", "us", "daemon",
     "engines.ltl + lattice.levels: LtlEngine.feed_batch/finish CPU"),
    ("atomicity.us", "us", "daemon",
     "engines.atomicity: AtomicityEngine.feed_batch/finish CPU"),
    ("pattern.us", "us", "daemon",
     "engines.pattern: PatternEngine.feed_batch/finish CPU"),
    ("observer.finish_us", "us", "daemon",
     "observer.observer: Observer.finish self CPU"),
    ("store.write_us", "us", "daemon",
     "store.archive: PendingTrace.write CPU"),
    ("store.commit_us", "us", "daemon",
     "store.archive: PendingTrace.commit self CPU"),
    ("store.begin_us", "us", "daemon",
     "store.archive: TraceArchive.begin self CPU"),
    ("store.catalog_us", "us", "daemon",
     "store.catalog: Catalog.save CPU (full catalog.json rewrite)"),
    ("daemon.other_us", "us", "daemon",
     "daemon CPU outside every span above"),
    ("daemon.cpu_us", "us", "daemon",
     "daemon process CPU per event (= rows above)"),
    ("wire.bytes_per_event", "B", "daemon",
     "bytes of lines entering FrameDecoder.feed_line"),
    ("reliable.dup_frames_per_kevent", "count", "daemon",
     "reliable.recv_duplicates per 1000 events"),
    ("session.enqueue_wait_us", "us", "daemon",
     "Session.enqueue wall - CPU: reader blocked on a full queue"),
    ("session.queue_wait_ms_p50", "ms", "daemon",
     "enqueue -> start of the process_batch that takes the event"),
    ("session.batch_events_mean", "count", "daemon",
     "events per Session.process_batch call"),
    ("lattice.nodes_per_event", "count", "daemon",
     "lattice.nodes_expanded per event"),
    ("lattice.monitor_cache_hit_ratio", "ratio", "daemon",
     "lattice.monitor_cache_hits / lattice.monitor_steps"),
    ("lattice.peak_frontier_cuts", "count", "daemon",
     "peak of the lattice.frontier_cuts gauge"),
    ("observer.finish_ms", "ms", "daemon", "Observer.finish wall per session"),
    ("store.bytes_per_event", "B", "daemon",
     "store.bytes_compressed / store.events_archived"),
    ("store.commit_ms", "ms", "daemon", "PendingTrace.commit wall per commit"),
    ("store.commit_wait_ms", "ms", "daemon",
     "PendingTrace.commit wall - CPU per commit (fsync, catalog rewrite)"),
    ("store.catalog_saves_per_session", "count", "daemon",
     "Catalog.save calls per session"),
    ("observer.inproc_us", "us", "reference",
     "same streams through an in-process Observer.receive_batch (batch 64)"),
]
PER_LAYER_UNITS = {name: unit for name, unit, _p, _w in LEDGER}

#: ``*.other_us`` may fall below zero by this share of the process CPU
#: (clock granularity) before the ledger counts as double-counting
OTHER_TOLERANCE = 0.01


def ledger_errors(values: dict) -> list[str]:
    """Why the ledger does not add up: a process whose span rows cover
    more than its CPU, so that some CPU is counted twice."""
    errors = []
    for proc in ("client", "daemon"):
        cpu, other = values[f"{proc}.cpu_us"], values[f"{proc}.other_us"]
        if other < -OTHER_TOLERANCE * cpu:
            errors.append(f"{proc} span rows exceed its CPU by {-other:.3f} "
                          f"us/event: CPU counted twice")
    return errors


def format_ledger(values: dict) -> str:
    """The per-layer table, one row per metric, grouped by process, and
    the share of each process's CPU that its span rows cover."""
    lines = [f"{'process':9} {'metric':32} {'value':>11} {'unit':5}  what"]
    for name, unit, proc, what in LEDGER:
        lines.append(f"{proc:9} {name:32} {values[name]:11.3f} {unit:5}  "
                     f"{what}")
    for proc in ("client", "daemon"):
        cpu, other = values[f"{proc}.cpu_us"], values[f"{proc}.other_us"]
        lines.append(f"{proc}: span rows cover {(cpu - other) / cpu:.1%} of "
                     f"{cpu:.3f} us CPU per event; {proc}.other_us "
                     f"{other:.3f} us")
    lines += [f"LEDGER ERROR: {e}" for e in ledger_errors(values)]
    return "\n".join(lines)


class RunFailed(RuntimeError):
    """The run cannot produce a result (daemon died, deadline passed)."""


def _alarm(signum, frame):
    raise RunFailed(f"run exceeded {DEADLINE_S}s")


# -- daemon process -----------------------------------------------------------

class Daemon:
    """One ``daemon.py`` process and its stdin/stdout control channel."""

    def __init__(self, config: dict, cpus: list[int], trace_path: str = ""):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        self.t_launch = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "daemon.py"),
             json.dumps({"config": config, "trace": bool(trace_path),
                         "trace_path": trace_path,
                         "cpus": cpus})],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env, cwd=str(ROOT))
        self.port = self._read()["ready"]

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RunFailed(
                f"daemon exited with code {self.proc.wait()} before replying")
        return json.loads(line)

    def ask(self, cmd: str) -> dict:
        self.proc.stdin.write(cmd + "\n")
        self.proc.stdin.flush()
        return self._read()

    def stop(self) -> None:
        """Drain and stop the daemon; kill it if it will not go."""
        if self.proc.poll() is None:
            try:
                self.ask("quit")
                self.proc.wait(timeout=30)
            except (OSError, ValueError, RunFailed,
                    subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        for f in (self.proc.stdin, self.proc.stdout):
            try:
                f.close()
            except OSError:
                pass


# -- load generator -----------------------------------------------------------

class Client:
    """One connection's worth of back-to-back sessions."""

    def __init__(self, wl, port: int, offset: int):
        self.wl = wl
        self.port = port
        self.k = offset
        self.verdict_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.correct = 0
        self.analyzed = 0
        self.emitted = 0
        self.retransmissions = 0
        #: (messages, session wall ms, verdict ms, retransmissions)
        self.per_session: list[tuple] = []
        self.errors: list[str] = []

    def session(self, stream) -> bool:
        from repro.server import client as client_mod
        from workloads import emit, verdict_key

        wl = self.wl
        self.attempted += 1
        t_attach = time.perf_counter()
        s = None
        try:
            s = client_mod.attach(
                port=self.port, n_threads=stream.n_threads,
                initial=stream.initial, spec=wl.spec,
                engines=list(wl.engines) or None, program=wl.name)
            emit(stream, s.send)
            self.emitted += stream.messages
            t_close = time.perf_counter()
            v = s.close(timeout=CLOSE_TIMEOUT_S)
            dt = time.perf_counter() - t_close
            # the sender counts its retransmissions whether or not metrics
            # are enabled, so the untraced run reports them too
            retrans = s._sender.retransmissions
        except Exception as exc:   # rejects, protocol and transport errors
            if s is not None:
                s.abort()
            self._fail(f"{type(exc).__name__}: {exc}")
            return False
        self.retransmissions += retrans
        self.verdict_ms.append(dt * 1e3)
        self.analyzed += v.analyzed
        self.per_session.append((
            stream.messages,
            round((time.perf_counter() - t_attach) * 1e3, 3),
            round(dt * 1e3, 3), retrans))
        if verdict_key(v) != stream.expected:
            self._fail(
                f"session {v.session}: verdict differs from the reference "
                f"(state {v.state}, {v.violations} violations, "
                f"{v.analyzed} analyzed, error {v.error!r})")
            return False
        self.correct += 1
        return True

    def _fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(why)

    def loop(self, deadline: float) -> None:
        streams = self.wl.streams
        while True:
            self.session(streams[self.k % len(streams)])
            self.k += 1
            if time.perf_counter() >= deadline:
                return


def _one_event_session(wl, port: int) -> None:
    """Attach, send a single message, close: the daemon is serving."""
    from repro.server import attach
    from workloads import algorithm_a

    stream = wl.streams[0]
    s = attach(port=port, n_threads=stream.n_threads, initial=stream.initial,
               spec=wl.spec, engines=list(wl.engines) or None,
               program=wl.name)
    algorithm_a(stream, s.send).on_write(0, next(iter(stream.initial)), 1)
    v = s.close(timeout=CLOSE_TIMEOUT_S)
    if v.state != "finished" or v.analyzed != 1:
        raise RunFailed(f"one-event session ended {v.state}: {v.error}")


def _server_config(wl, work: Path) -> dict:
    return {"archive_dir": str(work / "archive")} if wl.archive else {}


def setup_daemons(wl, work: Path, cpus: list[int],
                  trace_path: str) -> tuple[Daemon, list]:
    """Launch the daemon ``SETUP_LAUNCHES`` times, timing each launch to
    the verdict of its first one-event session; keep the last one."""
    times, daemon = [], None
    for i in range(SETUP_LAUNCHES):
        last = i == SETUP_LAUNCHES - 1
        sub = work / f"daemon{i}"
        sub.mkdir(parents=True, exist_ok=True)
        daemon = Daemon(_server_config(wl, sub), cpus,
                        trace_path if last else "")
        try:
            _one_event_session(wl, daemon.port)
            times.append(time.perf_counter() - daemon.t_launch)
        except BaseException:
            daemon.stop()
            raise
        if not last:
            daemon.stop()
    return daemon, times


def _quantile(values: list[float], q: float) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(q * 100) - 1]


def measure(wl, daemon: Daemon, seconds: float, rec=None) -> dict:
    """The measured phase: sessions back to back for ``seconds``, from the
    first attach to the last verdict."""
    clients = [Client(wl, daemon.port, offset=i) for i in range(wl.clients)]
    # warm-up: one session per daemon, verified but not measured
    warm = Client(wl, daemon.port, offset=0)
    if not warm.session(wl.streams[0]):
        raise RunFailed("warm-up session failed: " + "; ".join(warm.errors))
    d0 = daemon.ask("mark")
    if rec is not None:
        rec.reset()
    c0 = time.process_time()
    t0 = time.perf_counter()
    deadline = t0 + seconds
    if len(clients) == 1:
        clients[0].loop(deadline)
    else:
        threads = [threading.Thread(target=c.loop, args=(deadline,),
                                    daemon=True)
                   for c in clients]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    wall = time.perf_counter() - t0
    client_cpu = time.process_time() - c0
    if rec is not None:
        time.sleep(0.2)   # let the last senders' reader threads finish
    d1 = daemon.ask("stats")
    return {"clients": clients, "wall": wall, "client_cpu": client_cpu,
            "daemon_cpu": d1["cpu_s"] - d0["cpu_s"], "daemon": d1}


def end_to_end(m: dict, setup_times: list[float]) -> tuple[dict, dict]:
    clients = m["clients"]
    wall = m["wall"]
    analyzed = sum(c.analyzed for c in clients)
    emitted = sum(c.emitted for c in clients)
    lat = sorted(x for c in clients for x in c.verdict_ms)
    values = {
        "ingest_eps": analyzed / wall,
        "sessions_per_s": sum(c.correct for c in clients) / wall,
        "verdict_ms_p50": statistics.median(lat) if lat else 0.0,
        "verdict_ms_p90": _quantile(lat, 0.9),
        "daemon_cpu_us_per_event": m["daemon_cpu"] / max(analyzed, 1) * 1e6,
        "client_cpu_us_per_event": m["client_cpu"] / max(emitted, 1) * 1e6,
        "daemon_rss_mb": m["daemon"]["maxrss_kb"] / 1024.0,
        "setup_s": statistics.median(setup_times),
    }
    attempted = sum(c.attempted for c in clients)
    failed = sum(c.failed for c in clients)
    info = {
        "sessions_attempted": attempted,
        "sessions_failed": failed,
        "failed_frac": failed / max(attempted, 1),
        "verdict_samples": len(lat),
        "events_analyzed": analyzed,
        "events_emitted": emitted,
        "wall_s": wall,
        "retransmissions": sum(c.retransmissions for c in clients),
        "retransmits_per_kevent":
            sum(c.retransmissions for c in clients) / max(emitted, 1) * 1e3,
        "setup_launches_s": setup_times,
        "per_session": [p for c in clients for p in c.per_session],
        "errors": [e for c in clients for e in c.errors],
    }
    return values, info


# -- traced run ---------------------------------------------------------------

def instrument_client(rec) -> None:
    """Wrap the generator-side layer functions in span recorders."""
    from repro.core.algorithm_a import AlgorithmA
    from repro.observer.reliable import ReliableSender
    from repro.server import client as client_mod

    sid = lambda a: a[0].session_id  # noqa: E731
    rec.wrap(AlgorithmA, "process", "core.emit")
    rec.wrap(client_mod.AttachedSession, "send", "reliable.send",
             session_of=sid)
    rec.wrap(client_mod.AttachedSession, "close", "server.close",
             session_of=sid)
    rec.wrap(client_mod, "attach", "server.attach")
    rec.wrap(ReliableSender, "_ack_loop", "reliable.ack_rx")
    rec.wrap(ReliableSender, "_timer_loop", "reliable.timer")


def _metric(snapshot: dict, name: str, field: str = "value") -> float:
    return float(snapshot.get(name, {}).get(field, 0) or 0)


def ledger(m: dict, client_spans: dict, wl) -> dict:
    """Per-layer values; each process's CPU rows plus its ``*.other_us``
    equal that process's CPU per event."""
    from repro.obs import metrics

    clients = m["clients"]
    events = max(sum(c.analyzed for c in clients), 1)
    sessions = max(sum(c.correct for c in clients), 1)
    d = m["daemon"]
    dspans, dmetrics = d["spans"], d["metrics"]
    counters = d["counters"]

    def per_event(spans, span, key="self_cpu_ns"):
        return spans.get(span, {}).get(key, 0) / events / 1e3

    def wait_us(spans, span):
        s = spans.get(span, {})
        return (s.get("wall_ns", 0) - s.get("cpu_ns", 0)) / events / 1e3

    def per_call_ms(spans, span, key):
        s = spans.get(span, {})
        return s.get(key, 0) / max(s.get("calls", 0), 1) / 1e6

    out: dict[str, float] = {}
    client_cpu = m["client_cpu"] / events * 1e6
    for row, span in CLIENT_CPU_ROWS.items():
        out[row] = per_event(client_spans, span)
    out["client.other_us"] = client_cpu - sum(
        out[r] for r in CLIENT_CPU_ROWS)
    out["client.cpu_us"] = client_cpu
    out["reliable.send_wait_us"] = wait_us(client_spans, "reliable.send")
    local = metrics.REGISTRY.snapshot()
    out["reliable.retransmits_per_kevent"] = (
        _metric(local, "reliable.retransmissions") / events * 1e3)
    out["server.attach_ms"] = per_call_ms(client_spans, "server.attach",
                                          "wall_ns")

    daemon_cpu = m["daemon_cpu"] / events * 1e6
    for row, span in DAEMON_CPU_ROWS.items():
        out[row] = per_event(dspans, span)
    out["daemon.other_us"] = daemon_cpu - sum(
        out[r] for r in DAEMON_CPU_ROWS)
    out["daemon.cpu_us"] = daemon_cpu
    out["wire.bytes_per_event"] = counters.get("wire.bytes", 0) / events
    out["reliable.dup_frames_per_kevent"] = (
        _metric(dmetrics, "reliable.recv_duplicates") / events * 1e3)
    out["session.enqueue_wait_us"] = wait_us(dspans, "session.enqueue")
    out["session.queue_wait_ms_p50"] = d["queue_wait_ms_p50"]
    out["session.batch_events_mean"] = (
        counters.get("session.batch_events", 0)
        / max(counters.get("session.batches", 0), 1))
    steps = _metric(dmetrics, "lattice.monitor_steps")
    out["lattice.nodes_per_event"] = (
        _metric(dmetrics, "lattice.nodes_expanded") / events)
    out["lattice.monitor_cache_hit_ratio"] = (
        _metric(dmetrics, "lattice.monitor_cache_hits") / steps
        if steps else 0.0)
    out["lattice.peak_frontier_cuts"] = _metric(
        dmetrics, "lattice.frontier_cuts", "max")
    out["observer.finish_ms"] = per_call_ms(dspans, "observer.finish",
                                            "wall_ns")
    archived = _metric(dmetrics, "store.events_archived")
    out["store.bytes_per_event"] = (
        _metric(dmetrics, "store.bytes_compressed") / archived
        if archived else 0.0)
    commit = dspans.get("store.commit", {})
    out["store.commit_ms"] = per_call_ms(dspans, "store.commit", "wall_ns")
    out["store.commit_wait_ms"] = (
        (commit.get("wall_ns", 0) - commit.get("cpu_ns", 0))
        / max(commit.get("calls", 0), 1) / 1e6)
    out["store.catalog_saves_per_session"] = (
        dspans.get("store.catalog", {}).get("calls", 0) / sessions)
    out["observer.inproc_us"] = (
        sum(s.inproc_cpu_s for s in wl.streams)
        / sum(s.messages for s in wl.streams) * 1e6)
    out["_sessions"] = sessions
    return out


# -- main ---------------------------------------------------------------------

def _result(correct: bool, attempted: int, failed: int,
            values: dict, units: dict) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units}})


def _pin() -> list[int]:
    """Keep the first CPU for the generator and return the others for the
    daemon, so the two processes never share a CPU and the kernel never
    moves them.  With one CPU nothing is pinned and the list is empty."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return []
    os.sched_setaffinity(0, cpus[:1])
    return cpus[1:]


def run(args) -> int:
    daemon_cpus = _pin()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    traced = bool(args.trace)
    t_build = time.perf_counter()
    wl = workloads.build(args.workload, args.seed)
    build_s = time.perf_counter() - t_build
    if args.workload == "sessions":
        ref = wl.streams[0].reference
        if ref["violations"] != 1 or ref["analyzed"] != 4:
            raise RunFailed("the x/y/z reference must predict exactly one "
                            f"violation over 4 messages, got {ref}")
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    trace_dir = WORK / "traces"
    trace_path = trace_dir / f"{args.workload}-seed{args.seed}.json"
    daemon_trace = str(trace_path) + ".daemon" if traced else ""
    rec = None
    if traced:
        from repro.obs import metrics
        from spans import Recorder

        metrics.enable(reset=True)
        rec = Recorder(pid=1)
        instrument_client(rec)
    daemon = None
    try:
        daemon, setup_times = setup_daemons(wl, work, daemon_cpus,
                                            daemon_trace)
        m = measure(wl, daemon, args.seconds, rec)
        client_spans = rec.totals() if rec is not None else {}
    finally:
        if daemon is not None:
            daemon.stop()
        shutil.rmtree(work, ignore_errors=True)
    values, info = end_to_end(m, setup_times)
    info.update({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": traced,
        "messages_per_session": sorted({s.messages for s in wl.streams}),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "cpu_affinity": {"generator": sorted(os.sched_getaffinity(0)),
                         "daemon": daemon_cpus or "all"},
        "observer_inproc_us": sum(s.inproc_cpu_s for s in wl.streams)
        / sum(s.messages for s in wl.streams) * 1e6,
        "nproc": os.cpu_count(),
        "server_config": _server_config(wl, Path("<work>")),
        "reference_build_s": build_s,
    })
    attempted = info["sessions_attempted"]
    failed = info["sessions_failed"]
    # every attempted session ended either verified or counted as failed,
    # so a client thread that died mid-session cannot leave a correct run
    accounted = attempted == sum(c.correct for c in m["clients"]) + failed
    if not accounted:
        info["errors"].append("sessions attempted but neither verified nor "
                              "counted as failed")
    correct = failed == 0 and attempted > 0 and accounted
    if traced:
        layers = ledger(m, client_spans, wl)
        errors = ledger_errors(layers)
        info["errors"] += errors
        correct = correct and not errors
        info["end_to_end_traced"] = values
        info["sessions_measured"] = layers.pop("_sessions")
        events = rec.chrome_events()
        with open(daemon_trace, encoding="utf-8") as fh:
            events += json.load(fh)["traceEvents"]
        os.remove(daemon_trace)
        from spans import write_chrome

        write_chrome(str(trace_path), events)
        info["trace_file"] = str(trace_path.relative_to(ROOT))
        info["trace_events"] = len(events)
        print(format_ledger(layers))
        print(json.dumps({"info": info}))
        print(_result(correct, attempted, failed, layers, PER_LAYER_UNITS))
    else:
        print(json.dumps({"info": info}))
        print(_result(correct, attempted, failed, values, END_TO_END_UNITS))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["firehose", "lattice", "sessions"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # fixed string hashing, so set and dict layouts repeat across runs
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable,
                 [sys.executable, str(Path(__file__).resolve())]
                 + sys.argv[1:])
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(DEADLINE_S)
    try:
        return run(args)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)


if __name__ == "__main__":
    sys.exit(main())
