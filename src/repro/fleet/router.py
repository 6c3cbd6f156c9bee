"""The fleet front door: one port, N shard daemons behind it.

The router speaks the existing session protocol
(:mod:`repro.server.protocol`) so clients are completely unchanged —
``attach()`` dials the router exactly as it would a lone daemon.  For
each accepted connection the router reads exactly one handshake line
(byte-at-a-time, like the client's own reader, so it never consumes
bytes belonging to the reliable stream that follows), places the session,
forwards the hello to the chosen shard, relays the shard's one-line
answer, and then **splices** raw bytes in both directions for the life of
the connection.  Everything after the handshake — acks, checkpoints,
result frames — flows through untouched.

Placement and backpressure:

* a fresh ``attach`` walks the consistent-hash ring's preference order
  (:class:`~repro.fleet.hashring.HashRing`) for a per-session routing
  key, skipping shards that are down or believed full; a shard-side
  ``capacity`` reject (the structured ``why`` field) spills the attach to
  the next ring node, and only when every shard has refused does the
  client see a reasoned fleet-wide reject;
* a ``resume`` needs no routing table: shard *i* mints session ids in its
  own stride of the id space (:data:`~repro.fleet.config.SESSION_STRIDE`),
  so the session id in the resume hello identifies the owning slot.  If
  that slot is mid-restart the router holds the handshake for up to
  ``resume_wait`` — long enough for the supervisor to respawn the shard
  and for its journal recovery to readmit the session;
* a ``status`` hello is answered by the router itself with the fleet
  document: a synthesized aggregate ``server`` section (so ``repro
  sessions`` keeps working against a router), a ``fleet`` section with
  router counters and per-shard health, every shard's session table
  merged (rows tagged with their shard), and the shard metric snapshots
  summed into one fleet-wide snapshot.
"""

from __future__ import annotations

import errno as _errno
import logging
import socket
import threading
import time
from typing import Optional

from .. import __version__ as _repro_version
from ..obs import metrics as _metrics
from ..server.client import fetch_status
from ..server.protocol import (
    ProtocolError,
    encode_frame,
    read_frame_line,
    set_nodelay,
)
from .config import SESSION_STRIDE, FleetConfig, shard_of_session
from .hashring import HashRing
from .shards import ShardSupervisor

_LOG = logging.getLogger("repro.fleet")

__all__ = ["FleetRouter", "AnalysisFleet", "merge_metric_snapshots"]

_C_ROUTED = _metrics.REGISTRY.counter(
    "fleet.routed_sessions", unit="sessions",
    help="attach handshakes placed on a shard by the router (labelled "
         "per shard as fleet.routed_sessions{shard=})")
_C_SPILLS = _metrics.REGISTRY.counter(
    "fleet.spills", unit="sessions",
    help="attach placements that skipped a full shard and moved to the "
         "next ring node")
_C_REJECTS = _metrics.REGISTRY.counter(
    "fleet.rejects", unit="sessions",
    help="handshakes refused by the router itself (whole fleet "
         "saturated, unroutable resume, malformed hello)")
_C_REBALANCED = _metrics.REGISTRY.counter(
    "fleet.rebalanced_sessions", unit="sessions",
    help="resume handshakes routed to a restarted shard (generation > 1) "
         "— sessions that moved to a reborn daemon after a crash")

#: recv/sendall chunk for the post-handshake byte splice.
_SPLICE_CHUNK = 1 << 16


def merge_metric_snapshots(snapshots: list[dict]) -> dict:
    """Sum per-process metric snapshots into one fleet-wide snapshot.

    Counters and gauges add their values (gauges also take the max of
    maxes); histograms add counts/sums, merge buckets, and keep the
    global min/max.  Instruments missing from some snapshots contribute
    nothing there.
    """
    merged: dict[str, dict] = {}
    for snap in snapshots:
        for name, inst in snap.items():
            have = merged.get(name)
            if have is None:
                merged[name] = {k: (dict(v) if isinstance(v, dict) else v)
                                for k, v in inst.items()}
                continue
            kind = inst.get("type")
            if kind == "counter":
                have["value"] = have.get("value", 0) + inst.get("value", 0)
            elif kind == "gauge":
                have["value"] = have.get("value", 0) + inst.get("value", 0)
                have["max"] = max(have.get("max", 0), inst.get("max", 0))
            elif kind == "histogram":
                have["count"] = have.get("count", 0) + inst.get("count", 0)
                have["sum"] = have.get("sum", 0) + inst.get("sum", 0)
                for bound in (inst.get("buckets") or {}):
                    have.setdefault("buckets", {})
                    have["buckets"][bound] = (have["buckets"].get(bound, 0)
                                              + inst["buckets"][bound])
                for k, pick in (("min", min), ("max", max)):
                    vals = [v for v in (have.get(k), inst.get(k))
                            if v is not None]
                    have[k] = pick(vals) if vals else None
                if have["count"]:
                    have["mean"] = have["sum"] / have["count"]
    return merged


class FleetRouter:
    """Accepts client connections and splices them onto shards."""

    def __init__(self, config: FleetConfig, supervisor: ShardSupervisor):
        self.config = config
        self._supervisor = supervisor
        self._ring = HashRing(range(config.shards), vnodes=config.vnodes)
        self._server: Optional[socket.socket] = None
        self.host = config.host
        self.port: Optional[int] = None
        self._lock = threading.Lock()
        self._stopping = False
        self._route_seq = 0
        # plain counters besides the obs metrics, so the fleet status
        # document is populated even with metrics collection disabled
        self._routed = 0
        self._spills = 0
        self._rejects = 0
        self._rebalanced = 0
        self._routed_by_shard: dict[int, int] = {}
        self._full_until: dict[int, float] = {}
        self._started_at = time.time()
        self._accept_thread: Optional[threading.Thread] = None
        self._conn_threads: list[threading.Thread] = []

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "FleetRouter":
        if self._server is not None:
            raise RuntimeError("router already started")
        self._server = socket.create_server((self.config.host,
                                             self.config.port))
        self.host, self.port = self._server.getsockname()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-fleet-accept", daemon=True)
        self._accept_thread.start()
        return self

    def shutdown(self) -> None:
        with self._lock:
            if self._stopping:
                return
            self._stopping = True
        if self._server is not None:
            try:
                self._server.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._server.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)

    # -- accept / dispatch ----------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._server is not None
        while True:
            try:
                conn, addr = self._server.accept()
            except OSError as exc:
                with self._lock:
                    if self._stopping:
                        return
                if exc.errno in (_errno.EBADF, _errno.EINVAL,
                                 _errno.ENOTSOCK):
                    return
                continue
            set_nodelay(conn)
            t = threading.Thread(
                target=self._serve_connection, args=(conn,),
                name=f"repro-fleet-conn-{addr[1]}", daemon=True)
            self._conn_threads.append(t)
            t.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            with conn:
                conn.settimeout(self.config.io_timeout)
                try:
                    frame = read_frame_line(conn)
                except (ProtocolError, OSError, ValueError) as exc:
                    self._reject(conn, f"bad handshake: {exc}",
                                 why="bad-hello")
                    return
                mode = frame.get("mode") if frame.get("t") == "hello" else None
                if mode == "status":
                    conn.sendall(encode_frame(self.status()))
                elif mode == "resume":
                    self._route_resume(conn, frame)
                elif mode == "attach":
                    self._route_attach(conn, frame)
                else:
                    self._reject(
                        conn, f"expected a hello frame, got {frame!r}",
                        why="bad-hello")
        except OSError:
            pass
        finally:
            try:
                self._conn_threads.remove(threading.current_thread())
            except ValueError:
                pass

    # -- placement ------------------------------------------------------------

    def _route_attach(self, conn: socket.socket, frame: dict) -> None:
        with self._lock:
            self._route_seq += 1
            key = f"attach:{self._route_seq}"
        preferred = True
        down = 0
        for slot in self._ring.preference(key):
            addr = self._supervisor.address(slot)
            if addr is None:
                down += 1
                preferred = False
                continue
            if self._believed_full(slot):
                self._count_spill()
                preferred = False
                continue
            upstream = self._shard_handshake(addr, frame)
            if upstream is None:          # dial/handshake failed: next node
                preferred = False
                continue
            sock, reply = upstream
            if (reply.get("t") == "reject"
                    and reply.get("why") == "capacity"):
                sock.close()
                self._mark_full(slot)
                self._count_spill()
                preferred = False
                continue
            # the shard's answer is final — relay it
            try:
                conn.sendall(encode_frame(reply))
            except OSError:
                sock.close()
                return
            if reply.get("t") == "helloack":
                self._count_routed(slot, preferred)
                self._splice(conn, sock)
            else:
                sock.close()
            return
        if down == len(self._ring):
            self._reject(conn, "no shard is up: the whole fleet is down "
                               "or restarting", why="capacity")
        else:
            self._reject(
                conn,
                f"fleet at capacity: all {len(self._ring) - down} live "
                f"shard(s) are at max_sessions", why="capacity")

    def _route_resume(self, conn: socket.socket, frame: dict) -> None:
        sid = frame.get("session")
        if not isinstance(sid, int) or sid < 1:
            self._reject(conn, f"resume carries no valid session id: "
                               f"{sid!r}", why="bad-hello")
            return
        slot = shard_of_session(sid)
        if slot >= self.config.shards:
            self._reject(
                conn,
                f"cannot resume session {sid}: id names shard {slot} but "
                f"the fleet has {self.config.shards}", why="resume")
            return
        # the owning shard may be mid-restart (that is exactly when
        # clients come back): hold the handshake while it respawns
        deadline = time.monotonic() + self.config.resume_wait
        addr = self._supervisor.address(slot)
        while addr is None and time.monotonic() < deadline:
            time.sleep(0.05)
            addr = self._supervisor.address(slot)
        if addr is None:
            self._reject(
                conn,
                f"cannot resume session {sid}: shard {slot} is down",
                why="resume")
            return
        upstream = self._shard_handshake(addr, frame)
        if upstream is None:
            self._reject(
                conn,
                f"cannot resume session {sid}: shard {slot} is not "
                f"answering", why="resume")
            return
        sock, reply = upstream
        try:
            conn.sendall(encode_frame(reply))
        except OSError:
            sock.close()
            return
        if reply.get("t") == "helloack":
            generation = addr[2]
            if generation > 1:
                with self._lock:
                    self._rebalanced += 1
                if _metrics.ENABLED:
                    _C_REBALANCED.inc()
            self._splice(conn, sock)
        else:
            sock.close()

    def _shard_handshake(
            self, addr: tuple[str, int, int],
            frame: dict) -> Optional[tuple[socket.socket, dict]]:
        """Dial a shard, forward the hello, read its one-line answer."""
        host, port, _generation = addr
        try:
            sock = socket.create_connection(
                (host, port), timeout=self.config.heartbeat_timeout + 5.0)
        except OSError:
            return None
        set_nodelay(sock)
        try:
            sock.sendall(encode_frame(frame))
            reply = read_frame_line(sock)
        except (OSError, ProtocolError, ValueError):
            sock.close()
            return None
        return sock, reply

    def _splice(self, client: socket.socket, shard: socket.socket) -> None:
        """Relay raw bytes both ways until either side goes away.

        Runs shard→client on a helper thread and client→shard inline;
        whichever direction ends first shuts both sockets down, which
        unblocks the other.  A SIGKILLed shard therefore breaks the
        client's connection promptly — triggering its reconnect policy,
        whose resume dials the router again.
        """
        client.settimeout(None)
        shard.settimeout(None)

        def pump(src: socket.socket, dst: socket.socket) -> None:
            try:
                while True:
                    data = src.recv(_SPLICE_CHUNK)
                    if not data:
                        break
                    dst.sendall(data)
            except OSError:
                pass
            finally:
                for s in (src, dst):
                    try:
                        s.shutdown(socket.SHUT_RDWR)
                    except OSError:
                        pass

        back = threading.Thread(target=pump, args=(shard, client),
                                name="repro-fleet-splice", daemon=True)
        back.start()
        pump(client, shard)
        back.join()
        shard.close()

    # -- admission bookkeeping ------------------------------------------------

    def _believed_full(self, slot: int) -> bool:
        with self._lock:
            until = self._full_until.get(slot)
            if until is None:
                return False
            if time.monotonic() >= until:
                del self._full_until[slot]
                return False
            return True

    def _mark_full(self, slot: int) -> None:
        with self._lock:
            self._full_until[slot] = (time.monotonic()
                                      + self.config.status_ttl)

    def _count_routed(self, slot: int, preferred: bool) -> None:
        with self._lock:
            self._routed += 1
            self._routed_by_shard[slot] = (
                self._routed_by_shard.get(slot, 0) + 1)
        if _metrics.ENABLED:
            _C_ROUTED.inc()
            _metrics.REGISTRY.counter(
                "fleet.routed_sessions", unit="sessions",
                help="attach handshakes placed on a shard by the router "
                     "(labelled per shard as fleet.routed_sessions{shard=})",
                labels={"shard": slot}).inc()

    def _count_spill(self) -> None:
        with self._lock:
            self._spills += 1
        if _metrics.ENABLED:
            _C_SPILLS.inc()

    def _reject(self, conn: socket.socket, reason: str, why: str) -> None:
        with self._lock:
            self._rejects += 1
        if _metrics.ENABLED:
            _C_REJECTS.inc()
        try:
            conn.sendall(encode_frame(
                {"t": "reject", "reason": reason, "why": why}))
        except OSError:
            pass

    # -- status ---------------------------------------------------------------

    def status(self) -> dict:
        """The fleet status document (see module docstring)."""
        rows = self._supervisor.snapshot()
        sessions: list[dict] = []
        snapshots: list[dict] = []
        active = finished = failed = rejected = 0
        for row in rows:
            if row["state"] != "up":
                continue
            try:
                doc = fetch_status(row["host"], row["port"], timeout=2.0)
            except (OSError, ValueError, ProtocolError):
                row["state"] = "unreachable"
                continue
            srv = doc.get("server", {})
            row["active_sessions"] = srv.get("active_sessions", 0)
            row["max_sessions"] = srv.get("max_sessions",
                                          self.config.max_sessions)
            row["finished"] = srv.get("finished", 0)
            row["failed"] = srv.get("failed", 0)
            row["rejected"] = srv.get("rejected", 0)
            active += row["active_sessions"]
            finished += row["finished"]
            failed += row["failed"]
            rejected += row["rejected"]
            for record in doc.get("sessions", []):
                tagged = dict(record)
                tagged["shard"] = row["shard"]
                sessions.append(tagged)
            if doc.get("metrics"):
                snapshots.append(doc["metrics"])
        with self._lock:
            router = {
                "host": self.host,
                "port": self.port,
                "uptime_s": round(time.time() - self._started_at, 3),
                "routed_sessions": self._routed,
                "routed_by_shard": {str(k): v for k, v in
                                    sorted(self._routed_by_shard.items())},
                "spills": self._spills,
                "rejects": self._rejects,
                "rebalanced_sessions": self._rebalanced,
                "shard_restarts": self._supervisor.restarts_total,
                "session_stride": SESSION_STRIDE,
            }
            rejected += self._rejects
        doc = {
            "t": "status",
            # synthesized aggregate so `repro sessions` (and any other
            # consumer of the single-daemon shape) works against a router
            "server": {
                "version": _repro_version,
                "host": self.host,
                "port": self.port,
                "uptime_s": router["uptime_s"],
                "active_sessions": active,
                "max_sessions": self.config.shards * self.config.max_sessions,
                "workers": self.config.shards * self.config.workers,
                "draining": self._stopping,
                "finished": finished,
                "failed": failed,
                "rejected": rejected,
            },
            "fleet": {"router": router, "shards": rows},
            "sessions": sorted(sessions, key=lambda r: r["session"]),
        }
        if _metrics.ENABLED:
            snapshots.append(_metrics.REGISTRY.snapshot())
        if snapshots:
            doc["metrics"] = merge_metric_snapshots(snapshots)
        return doc


class AnalysisFleet:
    """The whole deployment: shard supervisor + router, one lifecycle.

    Usage::

        from repro.fleet import AnalysisFleet, FleetConfig

        with AnalysisFleet(FleetConfig(shards=4)) as fleet:
            session = attach(port=fleet.port, ...)   # unchanged client
    """

    def __init__(self, config: FleetConfig = FleetConfig()):
        self.config = config
        self.supervisor = ShardSupervisor(config)
        self.router = FleetRouter(config, self.supervisor)

    @property
    def host(self) -> str:
        return self.router.host

    @property
    def port(self) -> Optional[int]:
        return self.router.port

    def start(self) -> "AnalysisFleet":
        self.supervisor.start()
        try:
            self.router.start()
        except BaseException:
            self.supervisor.shutdown()
            raise
        return self

    def shutdown(self) -> None:
        """Stop accepting, then drain-stop every shard."""
        self.router.shutdown()
        self.supervisor.shutdown()

    def status(self) -> dict:
        return self.router.status()

    def __enter__(self) -> "AnalysisFleet":
        return self.start() if self.router.port is None else self

    def __exit__(self, *exc) -> None:
        self.shutdown()
