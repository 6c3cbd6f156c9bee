"""Chaos smoke: crash the analysis mid-stream, demand verdict parity.

Three faults, injected against a supervised ``repro.server`` daemon while
a client streams a workload:

* ``worker-kill``  — SIGKILL the session's analysis worker process half
  way through the stream.  The supervisor must restart it, replay the
  journal, and finish with the same verdict as an undisturbed run.
* ``worker-hang``  — SIGSTOP the worker half way through instead.  The
  process stays alive but goes silent: the supervisor must declare it
  dead by heartbeat loss, kill it and restart it from the journal, which
  by then runs ahead of everything the stopped worker analysed.
* ``conn-drop``    — sever the client's TCP connection half way through.
  The client's :class:`~repro.server.ReconnectPolicy` must resume by
  token and resend the unacked window, again with verdict parity.

Parity means: violation count, counterexample text, *and* final vector
clocks all match a standalone Observer fed the same execution.  Run by
the ``chaos-smoke`` CI job; exits non-zero on any mismatch.

With ``--fleet`` a third fault joins, injected against a supervised
2-shard :class:`~repro.fleet.AnalysisFleet` instead of a bare daemon:

* ``shard-kill``   — SIGKILL the whole shard *daemon* owning the session
  (looked up from the session-id stride) half way through the stream.
  The fleet supervisor must respawn the slot with recovery, the client's
  resume must be routed to the reborn shard, and the verdict must match.

Usage::

    PYTHONPATH=src python benchmarks/chaos_smoke.py --seeds 3
    PYTHONPATH=src python benchmarks/chaos_smoke.py --seeds 2 --fleet
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import tempfile
import time

from repro.observer import Observer
from repro.sched import RandomScheduler, run_program
from repro.server import AnalysisServer, ReconnectPolicy, ServerConfig, attach
from repro.workloads import (
    AUDIT_PROPERTY,
    LANDING_PROPERTY,
    XYZ_PROPERTY,
    landing_controller,
    transfer_program,
    xyz_program,
)

WORKLOADS = [
    ("xyz", xyz_program, XYZ_PROPERTY, ("x", "y", "z")),
    ("landing", landing_controller, LANDING_PROPERTY,
     ("landing", "approved", "radio")),
    ("bank", transfer_program, AUDIT_PROPERTY, ("a", "b", "audited")),
]

FAULTS = ("worker-kill", "worker-hang", "conn-drop")
#: fault -> the signal it sends the session's worker
WORKER_SIGNALS = {"worker-kill": signal.SIGKILL,
                  "worker-hang": signal.SIGSTOP}
FLEET_FAULTS = ("shard-kill", "conn-drop")


def control(factory, spec, variables, seed, backend="flat"):
    """Undisturbed run: execution + expected verdict from a standalone
    Observer (the same ground truth the soak tests use).  ``backend``
    picks Algorithm A's clock representation for the instrumented run —
    verdict parity must hold whichever backend produced the stream."""
    execution = run_program(factory(), RandomScheduler(seed),
                            clock_backend=backend)
    initial = {v: execution.initial_store[v] for v in variables}
    observer = Observer(execution.n_threads, initial, spec=spec)
    clocks = [tuple([0] * execution.n_threads)
              for _ in range(execution.n_threads)]
    for m in execution.messages:
        observer.receive(m)
        clocks[m.thread] = tuple(m.clock)
    observer.finish()
    expected = sorted(v.pretty(tuple(sorted(variables)))
                      for v in observer.violations)
    return execution, initial, expected, tuple(clocks)


def signal_worker(server, session_id, sig, deadline=10.0):
    """Send ``sig`` to the live analysis worker of a session; returns its
    pid."""
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        sess = server._sessions.get(session_id)
        proc = getattr(sess, "_proc", None) if sess is not None else None
        if proc is not None and proc.pid is not None and proc.is_alive():
            os.kill(proc.pid, sig)
            return proc.pid
        time.sleep(0.02)
    raise RuntimeError(f"no live worker for session {session_id}")


def drop_connection(session):
    """Sever the client's socket under it (simulates a network cut)."""
    import socket as _socket

    sock = session._sender._sock
    try:
        sock.shutdown(_socket.SHUT_RDWR)
    except OSError:
        pass


def run_case(name, factory, spec, variables, seed, fault, ckpt_dir,
             backend="flat"):
    execution, initial, expected, clocks = control(
        factory, spec, variables, seed, backend)
    config = ServerConfig(
        port=0, workers=2, supervised=True, checkpoint_dir=ckpt_dir,
        checkpoint_every=4, resume_timeout=10.0, drain_timeout=60.0)
    problems = []
    records = []
    with AnalysisServer(config, on_session_end=records.append) as srv:
        session = attach(
            srv.host, srv.port, n_threads=execution.n_threads,
            initial=initial, spec=spec, program=name,
            reconnect=ReconnectPolicy(max_attempts=8, backoff=0.05))
        half = max(1, len(execution.messages) // 2)
        for m in execution.messages[:half]:
            session.send(m)
        if fault in WORKER_SIGNALS:
            signal_worker(srv, session.session_id, WORKER_SIGNALS[fault])
        else:
            drop_connection(session)
        for m in execution.messages[half:]:
            session.send(m)
        verdict = session.close(timeout=60.0)

    if fault in WORKER_SIGNALS and not any(
            r.get("restarts", 0) >= 1 for r in records):
        problems.append(f"{fault} injected but the session recorded no "
                        "worker restart")
    if verdict.state != "finished":
        problems.append(f"state={verdict.state} error={verdict.error}")
    if verdict.analyzed != len(execution.messages):
        problems.append(
            f"analyzed {verdict.analyzed} != {len(execution.messages)}")
    got = sorted(verdict.counterexamples)
    if got != expected:
        problems.append(f"counterexamples {got} != {expected}")
    if verdict.violations != len(expected):
        problems.append(
            f"violations {verdict.violations} != {len(expected)}")
    if tuple(tuple(c) for c in verdict.final_clocks) != clocks:
        problems.append(
            f"final clocks {verdict.final_clocks} != {clocks}")
    return problems


def run_fleet_case(name, factory, spec, variables, seed, fault, ckpt_dir,
                   backend="flat"):
    """Same parity contract as :func:`run_case`, but the stream goes
    through a 2-shard fleet and ``shard-kill`` takes out the *owning
    shard daemon* (found via the session-id stride) rather than one
    session worker."""
    from repro.fleet import AnalysisFleet, FleetConfig, shard_of_session
    from repro.observer.reliable import RetransmitConfig

    execution, initial, expected, clocks = control(
        factory, spec, variables, seed, backend)
    config = FleetConfig(
        shards=2, workers=1, supervised=True, checkpoint_dir=ckpt_dir,
        checkpoint_every=4, resume_timeout=15.0, drain_timeout=60.0,
        heartbeat_interval=0.1, heartbeat_timeout=1.0,
        restart_backoff=0.05, restart_backoff_cap=0.2)
    problems = []
    with AnalysisFleet(config) as fleet:
        session = attach(
            fleet.host, fleet.port, n_threads=execution.n_threads,
            initial=initial, spec=spec, program=name,
            config=RetransmitConfig(window=64),
            reconnect=ReconnectPolicy(max_attempts=10, backoff=0.1))
        half = max(1, len(execution.messages) // 2)
        for m in execution.messages[:half]:
            session.send(m)
        if fault == "shard-kill":
            slot = shard_of_session(session.session_id)
            if fleet.supervisor.kill_shard(slot) is None:
                problems.append(f"no live shard {slot} to kill")
        else:
            drop_connection(session)
        for m in execution.messages[half:]:
            session.send(m)
        verdict = session.close(timeout=60.0)
        router = fleet.status()["fleet"]["router"]

    if verdict.state != "finished":
        problems.append(f"state={verdict.state} error={verdict.error}")
    if verdict.analyzed != len(execution.messages):
        problems.append(
            f"analyzed {verdict.analyzed} != {len(execution.messages)}")
    got = sorted(verdict.counterexamples)
    if got != expected:
        problems.append(f"counterexamples {got} != {expected}")
    if verdict.violations != len(expected):
        problems.append(
            f"violations {verdict.violations} != {len(expected)}")
    if tuple(tuple(c) for c in verdict.final_clocks) != clocks:
        problems.append(
            f"final clocks {verdict.final_clocks} != {clocks}")
    if fault == "shard-kill" and router["shard_restarts"] < 1:
        problems.append("shard-kill injected but the supervisor "
                        "recorded no restart")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=3,
                    help="seeds per workload per fault (default 3)")
    ap.add_argument("--backend", default="flat",
                    choices=("flat", "tree", "auto"),
                    help="clock backend for the instrumented control run "
                         "(default flat); tree must give identical verdicts")
    ap.add_argument("--fleet", action="store_true",
                    help="inject against a supervised 2-shard fleet "
                         "(shard-kill + conn-drop) instead of one daemon")
    args = ap.parse_args()

    faults = FLEET_FAULTS if args.fleet else FAULTS
    runner = run_fleet_case if args.fleet else run_case
    failures = 0
    total = 0
    for name, factory, spec, variables in WORKLOADS:
        for seed in range(args.seeds):
            for fault in faults:
                total += 1
                with tempfile.TemporaryDirectory() as ckpt:
                    try:
                        problems = runner(
                            name, factory, spec, variables, seed, fault,
                            ckpt, backend=args.backend)
                    except Exception as exc:  # noqa: BLE001 - smoke harness
                        problems = [f"exception: {exc!r}"]
                tag = f"{name:<8} seed={seed} {fault:<11}"
                if problems:
                    failures += 1
                    print(f"FAIL {tag} " + "; ".join(problems))
                else:
                    print(f"ok   {tag}")
                sys.stdout.flush()
    print(f"\n{total - failures}/{total} chaos cases with verdict parity")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
