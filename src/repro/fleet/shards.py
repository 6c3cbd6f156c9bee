"""Shard daemons and their supervisor.

Each shard is a full :class:`~repro.server.daemon.AnalysisServer` running
in its own **process** (``multiprocessing`` spawn context, like the
session workers of :mod:`repro.server.supervisor`): real OS-level
parallelism across cores, and a crash domain the router can kill and
restart without touching its siblings.

The :class:`ShardSupervisor` reuses the daemon-supervisor heartbeat
pattern one level up: a monitor thread watches process liveness and
round-trips a ``status`` hello against every shard on a fixed cadence; a
shard that dies — or goes silent past ``heartbeat_timeout`` — is killed
and respawned **in the same slot** with the same checkpoint directory and
``recover=True``, so the replacement daemon rescans its journals and
readmits every interrupted session as detached.  Clients then recover
through the ordinary resume-token re-attach: their reconnect dials the
router, whose session-id stride routing lands the resume on the reborn
shard.  Restarts are budgeted with capped exponential backoff; a slot
that exhausts its budget is marked down and the router routes around it.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import signal
import threading
import time
from typing import Optional

from ..obs import metrics as _metrics
from ..server.client import fetch_status
from ..server.daemon import AnalysisServer, ServerConfig
from .config import FleetConfig

_LOG = logging.getLogger("repro.fleet")

__all__ = ["ShardSupervisor"]

_MP = multiprocessing.get_context("spawn")

_C_RESTARTS = _metrics.REGISTRY.counter(
    "fleet.shard_restarts", unit="restarts",
    help="shard daemons killed-or-died and respawned by the fleet "
         "supervisor")
_G_ACTIVE_SHARDS = _metrics.REGISTRY.gauge(
    "fleet.active_shards", unit="shards",
    help="shard daemons currently up and serving (max = fleet size)")


def _shard_main(conn, config: ServerConfig,
                metrics_enabled: bool = False) -> None:
    """Entry point of a shard process: run one daemon until told to stop.

    Reports ``("ready", host, port, pid)`` through the pipe once
    listening, then waits for a ``"stop"`` message (or the parent's
    death) and drain-shuts the daemon, reporting ``("stopped",
    n_records)``.  ``metrics_enabled`` carries the parent's collection
    state across the spawn boundary so fleet status can aggregate shard
    metric snapshots.
    """
    # the router's parent process coordinates shutdown; a terminal SIGINT
    # must not kill shards before their sessions drain
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if metrics_enabled:
        _metrics.enable()
    try:
        server = AnalysisServer(config).start()
    except Exception as exc:  # noqa: BLE001 - reported to the supervisor
        try:
            conn.send(("error", repr(exc)))
        except OSError:
            pass
        return
    try:
        conn.send(("ready", server.host, server.port, os.getpid()))
    except OSError:
        server.shutdown(drain=False)
        return
    parent = multiprocessing.parent_process()
    stop = False
    while not stop:
        try:
            if conn.poll(0.2):
                msg = conn.recv()
                stop = msg == "stop"
        except (EOFError, OSError):
            break
        if parent is not None and not parent.is_alive():
            break   # orphaned: the fleet process is gone, drain and exit
    records = server.shutdown(drain=True)
    try:
        conn.send(("stopped", len(records)))
    except OSError:
        pass


class _ShardHandle:
    """Supervisor-side view of one shard slot's current incarnation."""

    def __init__(self, index: int, generation: int,
                 proc: multiprocessing.process.BaseProcess, conn,
                 host: str, port: int, pid: int):
        self.index = index
        self.generation = generation
        self.proc = proc
        self.conn = conn
        self.host = host
        self.port = port
        self.pid = pid
        self.started_at = time.time()
        self.last_ok = time.monotonic()   # last successful health signal

    @property
    def alive(self) -> bool:
        return self.proc.is_alive()


class ShardSupervisor:
    """Spawns, health-checks and restarts the fleet's shard daemons."""

    def __init__(self, config: FleetConfig):
        self.config = config
        self._lock = threading.Lock()
        self._handles: list[Optional[_ShardHandle]] = [None] * config.shards
        self._restarts: list[int] = [0] * config.shards
        self._down_reason: list[Optional[str]] = [None] * config.shards
        self._restarts_total = 0
        self._stop = threading.Event()
        self._monitor: Optional[threading.Thread] = None

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "ShardSupervisor":
        """Spawn every shard and start the health monitor.  When a shard
        fails to start, the ones already running are stopped before the
        error propagates: they are not daemonic, so nothing else would."""
        try:
            for index in range(self.config.shards):
                self._handles[index] = self._spawn(index, generation=1,
                                                   recover=False)
        except BaseException:
            self.shutdown()
            raise
        if _metrics.ENABLED:
            _G_ACTIVE_SHARDS.set(self.config.shards)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-fleet-monitor",
            daemon=True)
        self._monitor.start()
        return self

    def _spawn(self, index: int, generation: int,
               recover: bool) -> _ShardHandle:
        """Start one shard process and wait for its ready report."""
        server_config = self.config.shard_config(index, recover=recover)
        parent_conn, child_conn = _MP.Pipe()
        # NOT daemonic: a supervised shard spawns its own session-worker
        # processes, which daemonic processes are forbidden to do.  Orphan
        # safety comes from _shard_main's parent-death poll instead.
        proc = _MP.Process(
            target=_shard_main,
            args=(child_conn, server_config, _metrics.ENABLED),
            name=f"repro-shard-{index:02d}-g{generation}", daemon=False)
        proc.start()
        child_conn.close()
        deadline = time.monotonic() + self.config.spawn_timeout
        while True:
            remaining = deadline - time.monotonic()
            dead = not proc.is_alive() and not parent_conn.poll()
            if remaining <= 0 or dead:
                if proc.is_alive():
                    proc.kill()
                what = ("died before reporting ready" if dead else
                        f"did not report ready within "
                        f"{self.config.spawn_timeout}s")
                raise RuntimeError(
                    f"shard {index} (generation {generation}) {what}")
            if not parent_conn.poll(min(0.2, max(remaining, 0.01))):
                continue
            try:
                msg = parent_conn.recv()
            except (EOFError, OSError) as exc:
                raise RuntimeError(
                    f"shard {index} died during startup: {exc!r}") from exc
            if msg and msg[0] == "ready":
                _, host, port, pid = msg
                return _ShardHandle(index, generation, proc, parent_conn,
                                    host, port, pid)
            if msg and msg[0] == "error":
                raise RuntimeError(
                    f"shard {index} failed to start: {msg[1]}")

    def shutdown(self) -> None:
        """Stop the monitor, then drain-stop every shard."""
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
        with self._lock:
            handles = [h for h in self._handles if h is not None]
            self._handles = [None] * self.config.shards
        for handle in handles:
            try:
                handle.conn.send("stop")
            except OSError:
                pass
        grace = self.config.drain_timeout + 10.0
        deadline = time.monotonic() + grace
        for handle in handles:
            handle.proc.join(timeout=max(0.1, deadline - time.monotonic()))
            if handle.proc.is_alive():
                handle.proc.kill()
                handle.proc.join(timeout=5.0)
        if _metrics.ENABLED:
            _G_ACTIVE_SHARDS.set(0)

    # -- health ---------------------------------------------------------------

    def _monitor_loop(self) -> None:
        while not self._stop.wait(self.config.heartbeat_interval):
            for index in range(self.config.shards):
                with self._lock:
                    handle = self._handles[index]
                if handle is None or self._stop.is_set():
                    continue
                if not handle.alive:
                    self._handle_crash(index, handle,
                                       "shard process died")
                    continue
                try:
                    fetch_status(handle.host, handle.port,
                                 timeout=self.config.heartbeat_timeout)
                    handle.last_ok = time.monotonic()
                except (OSError, ValueError):
                    silent = time.monotonic() - handle.last_ok
                    if silent > self.config.heartbeat_timeout:
                        self._handle_crash(
                            index, handle,
                            f"shard unresponsive for {silent:.1f}s")

    def _handle_crash(self, index: int, handle: _ShardHandle,
                      why: str) -> None:
        """Kill a dead/hung shard and respawn the slot with recovery."""
        if handle.proc.is_alive():
            handle.proc.kill()
            handle.proc.join(timeout=5.0)
        n = self._restarts[index] + 1
        self._restarts[index] = n
        self._restarts_total += 1
        if _metrics.ENABLED:
            _C_RESTARTS.inc()
        if n > self.config.max_shard_restarts:
            reason = (f"{why}; restart budget exhausted after "
                      f"{self.config.max_shard_restarts} restarts")
            _LOG.error("shard %d down for good: %s", index, reason)
            with self._lock:
                self._handles[index] = None
                self._down_reason[index] = reason
            if _metrics.ENABLED:
                _G_ACTIVE_SHARDS.add(-1)
            return
        backoff = min(self.config.restart_backoff * (2 ** (n - 1)),
                      self.config.restart_backoff_cap)
        _LOG.warning("shard %d: %s; restart %d/%d in %.2fs", index, why,
                     n, self.config.max_shard_restarts, backoff)
        with self._lock:
            self._handles[index] = None   # route around it while it boots
        if self._stop.wait(backoff):
            return
        try:
            replacement = self._spawn(index, generation=handle.generation + 1,
                                      recover=True)
        except RuntimeError as exc:
            _LOG.error("shard %d failed to respawn: %s", index, exc)
            with self._lock:
                self._down_reason[index] = str(exc)
            if _metrics.ENABLED:
                _G_ACTIVE_SHARDS.add(-1)
            return
        with self._lock:
            self._handles[index] = replacement
            self._down_reason[index] = None

    # -- queries (router-facing) ----------------------------------------------

    def address(self, index: int) -> Optional[tuple[str, int, int]]:
        """``(host, port, generation)`` of a live shard slot, else None."""
        with self._lock:
            handle = self._handles[index]
        if handle is None:
            return None
        return handle.host, handle.port, handle.generation

    def up_slots(self) -> list[int]:
        with self._lock:
            return [i for i, h in enumerate(self._handles) if h is not None]

    @property
    def restarts_total(self) -> int:
        return self._restarts_total

    def kill_shard(self, index: int) -> Optional[int]:
        """SIGKILL a shard process (chaos testing); returns its pid."""
        with self._lock:
            handle = self._handles[index]
        if handle is None:
            return None
        pid = handle.pid
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            return None
        return pid

    def snapshot(self) -> list[dict]:
        """Per-slot health rows for the fleet status document."""
        rows = []
        for index in range(self.config.shards):
            with self._lock:
                handle = self._handles[index]
                down = self._down_reason[index]
            row = {
                "shard": index,
                "state": "up" if handle is not None else (
                    "down" if down else "restarting"),
                "restarts": self._restarts[index],
            }
            if handle is not None:
                row.update(host=handle.host, port=handle.port,
                           pid=handle.pid, generation=handle.generation,
                           uptime_s=round(time.time() - handle.started_at, 3))
            if down:
                row["error"] = down
            rows.append(row)
        return rows
