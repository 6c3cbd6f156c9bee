"""Daemon launcher: one ``AnalysisServer`` in its own process.

Started by ``run.py`` as ``python3 daemon.py '<json>'`` with ``src`` on
``PYTHONPATH``.  The JSON names the :class:`~repro.server.ServerConfig`
fields the workload sets (everything else keeps its shipped default), and
whether this is a traced run.  The launcher prints one ``{"ready": port}``
line, then answers one-line commands on stdin with one JSON line on
stdout:

``mark``
    start of the measured phase: forget spans and counters recorded so
    far (the warm-up); reply with the process CPU and peak RSS.
``stats``
    reply with the process CPU (children included) and peak RSS, and in a
    traced run the span totals, counters and session queue waits.
``quit``
    drain and stop the server, write the trace file of a traced run, exit.

End of stdin counts as ``quit``, so the daemon never outlives its parent.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import QueueWaits, Recorder  # noqa: E402

#: pid written into the daemon's trace events (the generator uses 1)
DAEMON_PID = 2


def _usage() -> dict:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "cpu_s": me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime,
        "maxrss_kb": max(me.ru_maxrss, kids.ru_maxrss),
    }


def _session_of_decoder(args) -> int:
    # the server hands each connection's decoder the session's send_bytes
    owner = getattr(args[0]._send, "__self__", None)
    return getattr(owner, "id", 0)


def instrument(rec: Recorder, waits: QueueWaits) -> None:
    """Wrap the daemon-side layer functions in span recorders."""
    from repro.engines.atomicity import AtomicityEngine
    from repro.engines.bus import AnalysisBus
    from repro.engines.ltl import LtlEngine
    from repro.engines.pattern import PatternEngine
    from repro.observer.delivery import CausalDelivery
    from repro.observer.observer import Observer
    from repro.observer.reliable import FrameDecoder
    from repro.server.daemon import AnalysisServer
    from repro.server.session import Session
    from repro.store.archive import PendingTrace, TraceArchive
    from repro.store.catalog import Catalog

    def wire_bytes(args, result, t0, t1, cpu):
        rec.count("wire.bytes", len(args[1]))

    def enqueued(args, result, t0, t1, cpu):
        if result:
            waits.enqueued(args[0].id, t1)

    batch_fn = Session.process_batch

    def process_batch(self, max_batch=64):
        before = self.analyzed
        t_start = time.monotonic_ns()
        try:
            return batch_fn(self, max_batch)
        finally:
            n = self.analyzed - before
            if n:
                waits.taken(self.id, n, t_start)
                rec.count("session.batches")
                rec.count("session.batch_events", n)

    Session.process_batch = process_batch

    rec.wrap(AnalysisServer, "_serve_connection", "server.conn")
    rec.wrap(Session, "__init__", "session.build")
    rec.wrap(Session, "record", "session.record")
    rec.wrap(FrameDecoder, "feed_line", "reliable.decode",
             session_of=_session_of_decoder, on_exit=wire_bytes)
    rec.wrap(Session, "enqueue", "session.enqueue",
             session_of=lambda a: a[0].id, on_exit=enqueued)
    rec.wrap(Session, "process_batch", "session.process",
             session_of=lambda a: a[0].id)
    rec.wrap(Observer, "receive_batch", "observer.ingest")
    rec.wrap(Observer, "finish", "observer.finish")
    rec.wrap(CausalDelivery, "offer_batch", "delivery")
    rec.wrap(AnalysisBus, "feed_batch", "bus")
    rec.wrap(AnalysisBus, "finish", "bus")
    for cls, name in ((LtlEngine, "ltl"), (AtomicityEngine, "atomicity"),
                      (PatternEngine, "pattern")):
        rec.wrap(cls, "feed_batch", name)
        rec.wrap(cls, "finish", name)
    rec.wrap(PendingTrace, "write", "store.write")
    rec.wrap(PendingTrace, "commit", "store.commit")
    rec.wrap(TraceArchive, "begin", "store.begin")
    rec.wrap(Catalog, "save", "store.catalog")


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    if spec.get("cpus"):
        os.sched_setaffinity(0, spec["cpus"])   # before any thread starts
    traced = bool(spec.get("trace"))
    from repro.obs import metrics
    from repro.server import AnalysisServer, ServerConfig

    rec = waits = None
    if traced:
        metrics.enable(reset=True)
        rec, waits = Recorder(pid=DAEMON_PID), QueueWaits()
        instrument(rec, waits)
    server = AnalysisServer(ServerConfig(**spec["config"])).start()
    print(json.dumps({"ready": server.port}), flush=True)
    try:
        for line in sys.stdin:
            cmd = line.strip()
            if cmd == "quit":
                break
            reply = _usage()
            if cmd == "mark" and traced:
                rec.reset()
                waits.reset()
                metrics.REGISTRY.reset()
            elif cmd == "stats" and traced:
                samples = waits.samples
                reply.update(
                    spans=rec.totals(), counters=rec.counters(),
                    metrics=metrics.REGISTRY.snapshot(),
                    queue_wait_ms_p50=(statistics.median(samples)
                                       if samples else 0.0))
            print(json.dumps(reply), flush=True)
    finally:
        server.shutdown(drain=True, timeout=5.0)
        if traced and spec.get("trace_path"):
            from spans import write_chrome

            write_chrome(spec["trace_path"], rec.chrome_events())
        print(json.dumps({"bye": True}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
