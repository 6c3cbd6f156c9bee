"""The multi-session analysis server (``repro serve``).

One long-lived daemon observes many instrumented programs at once.  Each
client connection performs a one-line handshake
(:mod:`repro.server.protocol`), gets admitted as a session or rejected
with a reason, and then streams events over the exact
:class:`~repro.observer.reliable.ReliableSender` framing of the
two-process pipeline.  The moving parts:

* an **accept loop** hands each connection to a dedicated reader thread —
  ingestion (frame decode, CRC, dedup, acks) stays on the connection's own
  thread and never blocks another session; a corrupt or out-of-order
  frame is handled like a dropped connection;
* a bounded **worker pool** runs the lattice/predictive analysis off the
  ingestion hot path; a session is serviced by at most one worker at a
  time, so per-session event order is preserved without per-event locks;
* a **session registry** tracks lifecycle (handshake → streaming →
  draining → finished/failed) and keeps a bounded history of final
  records for ``repro sessions``;
* **admission control and backpressure**: at ``max_sessions`` the next
  attach is rejected with an explicit reason; a session whose queue stays
  full past ``overload_timeout`` is failed with an ``err`` frame instead
  of silently stalling the wire;
* **graceful shutdown**: stop accepting, give live sessions
  ``drain_timeout`` to finish, flush every record (optionally to a JSONL
  results file), then take the worker pool down;
* **crash resilience** (opt-in): ``supervised=True`` runs each session's
  analysis in a restartable worker process journaled through
  ``checkpoint_dir`` (:mod:`repro.server.supervisor` /
  :mod:`repro.server.recovery`); ``resume_timeout > 0`` keeps a session
  alive after its connection drops so the client can re-attach by resume
  token; ``recover=True`` readmits journaled sessions after a daemon
  restart.
"""

from __future__ import annotations

import dataclasses
import errno as _errno
import hmac
import json
import logging
import queue
import secrets
import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

from .. import __version__ as _repro_version
from ..obs import metrics as _metrics
from ..observer.reliable import FrameDecoder, ReliableTransportError, _frame
from .protocol import Hello, ProtocolError, encode_frame, set_nodelay
from .recovery import SessionJournal, scan_journals
from .session import Session, SessionState
from .supervisor import SupervisedSession, SupervisorConfig

_LOG = logging.getLogger("repro.server")

__all__ = ["ServerConfig", "AnalysisServer"]

_C_STARTED = _metrics.REGISTRY.counter(
    "server.sessions_started", unit="sessions",
    help="client attaches admitted (handshake completed)")
_C_FINISHED = _metrics.REGISTRY.counter(
    "server.sessions_finished", unit="sessions",
    help="sessions that drained and finished their analysis cleanly")
_C_FAILED = _metrics.REGISTRY.counter(
    "server.sessions_failed", unit="sessions",
    help="sessions that ended in failure (overload, lost connection, "
         "analysis error, shutdown timeout)")
_C_REJECTED = _metrics.REGISTRY.counter(
    "server.sessions_rejected", unit="sessions",
    help="attaches refused at the handshake (capacity, shutdown, bad hello)")
_C_INGESTED = _metrics.REGISTRY.counter(
    "server.events_ingested", unit="messages",
    help="messages accepted off the wire across all sessions")
_G_ACTIVE = _metrics.REGISTRY.gauge(
    "server.active_sessions", unit="sessions",
    help="sessions currently attached (max = concurrency high-water mark)")
_H_SESSION_EVENTS = _metrics.REGISTRY.histogram(
    "server.session_events", unit="messages",
    help="per-session event count, observed when the session ends")
_C_ACCEPT_ERRORS = _metrics.REGISTRY.counter(
    "server.accept_errors", unit="errors",
    help="accept() failures in the listener loop (labelled by errno)")
_C_DETACHED = _metrics.REGISTRY.counter(
    "server.sessions_detached", unit="sessions",
    help="sessions that lost their connection and entered a resume window "
         "instead of failing")
_C_RESUMED = _metrics.REGISTRY.counter(
    "server.sessions_resumed", unit="sessions",
    help="detached sessions successfully reclaimed by a resume handshake")
_C_RECOVERED = _metrics.REGISTRY.counter(
    "server.sessions_recovered", unit="sessions",
    help="journaled sessions readmitted by a daemon restart with "
         "--recover")
_C_SPEC_REJECTED = _metrics.REGISTRY.counter(
    "server.specs_rejected", unit="sessions",
    help="attaches refused by --strict-specs: the hello carried an "
         "inconsistent or vacuous specification (SC3xx)")

#: accept() errnos that mean the listening socket itself is gone —
#: retrying would spin, so the loop exits.
_FATAL_ACCEPT_ERRNOS = frozenset({_errno.EBADF, _errno.EINVAL,
                                  _errno.ENOTSOCK})


@dataclass(frozen=True)
class ServerConfig:
    """Deployment knobs for :class:`AnalysisServer`.

    Attributes:
        host/port: listen address (port 0 = ephemeral, read back from
            :attr:`AnalysisServer.port`).
        max_sessions: admission bound on *concurrently attached* sessions;
            the next attach is rejected with an explicit reason.
        max_queued_events: per-session bound on events parked between the
            reader thread and the worker pool.
        workers: analysis worker threads (at least one).
        batch: max events one worker services per scheduling turn; small
            enough to interleave sessions fairly, large enough to amortize
            the scheduling overhead.
        overload_timeout: how long an ingest may block on a full queue
            before the session is failed with an overload ``err`` frame.
        drain_timeout: grace period for a draining session (end-of-stream
            analysis) and for live sessions during shutdown.
        io_timeout: per-connection socket timeout; a client silent for
            this long (no data, no heartbeat) fails its session.
        max_records: finished/failed session records kept for status
            queries (oldest evicted first).
        results_path: when set, every terminal session record is appended
            to this JSONL file as it is sealed.
        archive_dir: when set, a :class:`~repro.store.archive.TraceArchive`
            rooted there records every session: analyzed messages stream
            into a v2 trace file and the catalog entry (verdict, final
            clocks) is published when the session finishes.  Failed
            sessions leave nothing behind.
        supervised: run each session's analysis in a supervised worker
            process journaled under ``checkpoint_dir``; crashed workers
            are restarted and rebuilt from their journal
            (:mod:`repro.server.supervisor`).
        checkpoint_dir: root directory for per-session durable journals;
            required by ``supervised`` and ``recover``.
        checkpoint_every: journal fsync cadence, in events.
        resume_timeout: how long a session survives after its connection
            drops, waiting for the client to resume by token.  0 (the
            default) disables re-attach: a dropped connection fails the
            session, as before.
        recover: at startup, scan ``checkpoint_dir`` and readmit every
            journaled session as a detached supervised session awaiting
            its client's resume.
        heartbeat_timeout: supervisor-side silence threshold declaring a
            worker dead.
        max_restarts: per-session worker restart budget; exceeding it
            fails the session with a reasoned ``err`` (crash-loop stop).
        restart_backoff: base of the exponential restart backoff.
        strict_specs: run the static spec-consistency pass
            (:func:`repro.staticcheck.speccheck.strict_reject_reason`) on
            every hello's spec and engine selections; an unsatisfiable,
            trivially-true, or vacuous spec is rejected at the handshake
            with a reasoned ``reject`` frame instead of burning a worker
            (docs/SPECCHECK.md).
        session_id_base: first session id this daemon mints.  A fleet
            (:mod:`repro.fleet`) gives each shard a disjoint stride of the
            id space so a session id alone identifies its shard — that is
            how the router routes resume handshakes without a routing
            table.  The default of 1 keeps single-daemon ids unchanged.
        archive_namespace: prefix applied to every trace id this daemon's
            archive allocates (e.g. ``sh00``), so per-shard archive
            directories share one fleet-wide catalog id namespace.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_sessions: int = 16
    max_queued_events: int = 1024
    workers: int = 2
    batch: int = 64
    overload_timeout: float = 2.0
    drain_timeout: float = 30.0
    io_timeout: float = 60.0
    max_records: int = 256
    results_path: Optional[str] = None
    archive_dir: Optional[str] = None
    supervised: bool = False
    checkpoint_dir: Optional[str] = None
    checkpoint_every: int = 128
    resume_timeout: float = 0.0
    recover: bool = False
    heartbeat_timeout: float = 2.0
    max_restarts: int = 3
    restart_backoff: float = 0.1
    #: Engine selections applied to sessions whose hello names none
    #: (see :mod:`repro.engines`); empty keeps the classic single-LTL
    #: pipeline driven by the hello's spec.
    default_engines: tuple[str, ...] = ()
    strict_specs: bool = False
    session_id_base: int = 1
    archive_namespace: str = ""

    def __post_init__(self) -> None:
        if self.session_id_base < 1:
            raise ValueError("session_id_base must be >= 1")
        if self.max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if self.max_queued_events < 1:
            raise ValueError("max_queued_events must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if (self.supervised or self.recover) and not self.checkpoint_dir:
            raise ValueError(
                "supervised/recover require a checkpoint_dir for the "
                "session journals")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.resume_timeout < 0:
            raise ValueError("resume_timeout must be >= 0")
        if self.heartbeat_timeout <= 0:
            raise ValueError("heartbeat_timeout must be > 0")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.restart_backoff < 0:
            raise ValueError("restart_backoff must be >= 0")

    def supervisor_config(self) -> SupervisorConfig:
        return SupervisorConfig(
            heartbeat_interval=min(0.2, self.heartbeat_timeout / 4),
            heartbeat_timeout=self.heartbeat_timeout,
            max_restarts=self.max_restarts,
            restart_backoff=self.restart_backoff,
            checkpoint_every=self.checkpoint_every,
        )


class _Overload(Exception):
    """Internal: a session's ingest queue stayed full past the timeout."""


class AnalysisServer:
    """The daemon: accept loop + reader threads + analysis worker pool.

    Args:
        config: see :class:`ServerConfig`.
        on_session_end: optional callback fired with each terminal session
            record (the ``repro serve`` CLI prints these live).
    """

    def __init__(self, config: ServerConfig = ServerConfig(),
                 on_session_end: Optional[Callable[[dict], None]] = None):
        self.config = config
        self._on_session_end = on_session_end
        self.archive = None
        if config.archive_dir is not None:
            from ..store.archive import TraceArchive

            self.archive = TraceArchive(config.archive_dir,
                                        namespace=config.archive_namespace)
        self._server: Optional[socket.socket] = None
        self.host = config.host
        self.port: Optional[int] = None
        self._lock = threading.Lock()
        self._sessions: dict[int, Session] = {}      # live (non-terminal)
        self._records: list[dict] = []               # sealed, bounded
        self._next_sid = config.session_id_base
        self._rejected = 0
        self._draining = False
        self._started_at = time.time()
        self._tasks: "queue.Queue[Optional[Session]]" = queue.Queue()
        self._threads: list[threading.Thread] = []
        self._reader_threads: list[threading.Thread] = []
        self._accept_thread: Optional[threading.Thread] = None
        self._idle = threading.Condition(self._lock)

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "AnalysisServer":
        """Bind, start the accept loop and the worker pool."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = socket.create_server((self.config.host,
                                             self.config.port))
        self.host, self.port = self._server.getsockname()
        if self.config.recover:
            self._recover_sessions()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-server-accept", daemon=True)
        self._accept_thread.start()
        for i in range(self.config.workers):
            t = threading.Thread(target=self._worker_loop,
                                 name=f"repro-server-worker-{i}", daemon=True)
            t.start()
            self._threads.append(t)
        return self

    def _recover_sessions(self) -> None:
        """Readmit every journaled session under ``checkpoint_dir`` as a
        detached supervised session: its worker restarts immediately and
        replays the journal; the client has a resume window of at least
        ``drain_timeout`` to re-attach by token."""
        journals, skipped = scan_journals(self.config.checkpoint_dir)
        for name, why in skipped:
            _LOG.warning("not recovering %s: %s", name, why)
        sup = self.config.supervisor_config()
        window = max(self.config.resume_timeout, self.config.drain_timeout)
        for journal in journals:
            meta = journal.meta
            try:
                session = SupervisedSession(
                    meta.session, journal, supervisor=sup,
                    max_queued=self.config.max_queued_events,
                    peer="recovered")
            except Exception as exc:  # noqa: BLE001 - skip, don't crash boot
                _LOG.warning("not recovering session %s: %r",
                             meta.session, exc)
                continue
            session.token = meta.token
            session.epoch = meta.epoch
            with self._lock:
                self._sessions[meta.session] = session
                self._next_sid = max(self._next_sid, meta.session + 1)
            if self.archive is not None:
                session.attach_archive(self.archive)
            if _metrics.ENABLED:
                _C_RECOVERED.inc()
                _G_ACTIVE.add(1)
                session.meter = _metrics.REGISTRY.counter(
                    "server.session.events", unit="messages",
                    help="events ingested by one session (labelled)",
                    labels={"session": meta.session})
            session.start_worker()
            self._detach(session, window, count=False)

    def shutdown(self, drain: bool = True,
                 timeout: Optional[float] = None) -> list[dict]:
        """Stop accepting, drain live sessions, flush records, stop workers.

        With ``drain`` (the default), live sessions get up to ``timeout``
        (default: the config's ``drain_timeout``) to reach a terminal
        state; stragglers are failed with reason ``server shutdown``.
        Returns every session record the server holds, oldest first.
        """
        timeout = self.config.drain_timeout if timeout is None else timeout
        with self._lock:
            already = self._draining
            self._draining = True
        if not already and self._server is not None:
            # close() alone cannot release a listener with a thread parked
            # in accept(): the in-flight syscall pins the kernel socket, so
            # the port would stay in LISTEN and block a --recover rebind.
            # shutdown() wakes the accept with EINVAL first.
            try:
                self._server.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._server.close()
        if drain:
            deadline = time.monotonic() + timeout
            with self._lock:
                live = list(self._sessions.values())
            for s in live:
                s.done.wait(max(0.0, deadline - time.monotonic()))
        with self._lock:
            live = list(self._sessions.values())
        for s in live:
            timer, s.resume_timer = s.resume_timer, None
            if timer is not None:
                timer.cancel()
            if s.fail("server shutdown"):
                # tell the client why, then force its reader loop to end
                conn = getattr(s, "conn", None)
                if conn is not None:
                    try:
                        conn.sendall(encode_frame(
                            {"t": "err", "reason": "server shutdown"}))
                    except OSError:
                        pass
                    try:
                        conn.shutdown(socket.SHUT_RDWR)
                    except OSError:
                        pass
        # stop the pool: one poison pill per worker
        for _ in self._threads:
            self._tasks.put(None)
        for t in self._threads:
            t.join(timeout=5.0)
        for t in list(self._reader_threads):
            t.join(timeout=5.0)
        announce = []
        with self._lock:
            for s in list(self._sessions.values()):
                announce.append(self._seal_locked(s))
            records = list(self._records)
        for record in announce:
            self._announce(record)
        return records

    def __enter__(self) -> "AnalysisServer":
        return self.start() if self._server is None else self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- status ---------------------------------------------------------------

    def status(self) -> dict:
        """JSON-able health report: server gauges + every session record.

        Live rows are built outside the server lock; they carry counts
        only, so a status poll renders nothing."""
        with self._lock:
            live = list(self._sessions.values())
            sealed = list(self._records)
            rejected = self._rejected
        live = [s.record() for s in live]
        # a session turns terminal (and its client holds the verdict)
        # before its reader retires it into the sealed history, so the
        # gauges count by state, not by which list the row sits in
        rows = sealed + live
        finished = sum(r["state"] == SessionState.FINISHED.value
                       for r in rows)
        failed = sum(r["state"] == SessionState.FAILED.value for r in rows)
        active = len(rows) - finished - failed
        doc = {
            "t": "status",
            "server": {
                "version": _repro_version,
                "host": self.host,
                "port": self.port,
                "uptime_s": round(time.time() - self._started_at, 3),
                "active_sessions": active,
                "max_sessions": self.config.max_sessions,
                "workers": self.config.workers,
                "draining": self._draining,
                "finished": finished,
                "failed": failed,
                "rejected": rejected,
            },
            "sessions": sorted(rows, key=lambda r: r["session"]),
        }
        if _metrics.ENABLED:
            doc["metrics"] = _metrics.REGISTRY.snapshot()
        return doc

    def wait_idle(self, timeout: float = 10.0) -> bool:
        """Block until no live session remains (for tests/benchmarks)."""
        deadline = time.monotonic() + timeout
        with self._idle:
            while self._sessions:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._idle.wait(remaining)
            return True

    # -- accept / reader side -------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._server is not None
        logged: set[int] = set()
        while True:
            try:
                conn, addr = self._server.accept()
            except OSError as exc:
                with self._lock:
                    if self._draining:
                        return   # closed by shutdown
                code = exc.errno if exc.errno is not None else -1
                if _metrics.ENABLED:
                    _metrics.REGISTRY.counter(
                        "server.accept_errors", unit="errors",
                        help="accept() failures in the listener loop "
                             "(labelled by errno)",
                        labels={"errno": code}).inc()
                if code not in logged:
                    logged.add(code)
                    _LOG.warning(
                        "accept() failed on %s:%s with errno %s (%s); "
                        "further occurrences counted in "
                        "server.accept_errors", self.host, self.port,
                        code, exc)
                if code in _FATAL_ACCEPT_ERRNOS:
                    return   # the listening socket itself is gone
                continue     # transient (EMFILE, ECONNABORTED, ...): retry
            # accepted sockets share the listen port but don't inherit
            # SO_REUSEADDR; without it, one lingering FIN_WAIT connection
            # blocks a restarted daemon (--recover) from rebinding the port
            try:
                conn.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            except OSError:
                pass
            set_nodelay(conn)
            t = threading.Thread(
                target=self._serve_connection, args=(conn, addr),
                name=f"repro-server-conn-{addr[1]}", daemon=True)
            self._reader_threads.append(t)
            t.start()

    def _serve_connection(self, conn: socket.socket, addr) -> None:
        peer = f"{addr[0]}:{addr[1]}"
        session: Optional[Session] = None
        epoch = 0
        reason = "connection closed mid-stream"
        try:
            conn.settimeout(self.config.io_timeout)
            with conn, conn.makefile("r", encoding="utf-8") as reader:
                line = reader.readline()
                try:
                    hello = Hello.from_frame(self._parse_hello_line(line))
                except ProtocolError as exc:
                    self._reject(conn, str(exc), why="bad-hello")
                    return
                if hello.mode == "status":
                    conn.sendall(encode_frame(self.status()))
                    return
                if hello.mode == "resume":
                    resumed = self._resume(conn, hello, peer)
                    if resumed is None:
                        return
                    session, start_seq = resumed
                    epoch = session.epoch
                    self._stream(conn, reader, session, start_seq=start_seq)
                else:
                    session = self._admit(conn, hello, peer)
                    if session is None:
                        return
                    epoch = session.epoch
                    self._stream(conn, reader, session)
        except (OSError, ValueError) as exc:
            reason = f"connection lost: {exc!r}"
        except ReliableTransportError as exc:
            reason = f"connection dropped on a bad frame: {exc}"
        finally:
            if session is not None:
                self._end_connection(session, epoch, reason)
            try:
                self._reader_threads.remove(threading.current_thread())
            except ValueError:
                pass

    def _end_connection(self, session: Session, epoch: int,
                        reason: str) -> None:
        """A reader thread is done with its connection: retire, detach, or
        stand aside if the session was already resumed elsewhere."""
        with self._lock:
            if session.epoch != epoch:
                return   # a resume superseded this connection
            resumable = (self.config.resume_timeout > 0
                         and not session.state.terminal
                         and not self._draining)
        if resumable:
            self._detach(session, self.config.resume_timeout)
            return
        session.fail(reason)   # no-op if terminal
        self._retire(session)

    def _detach(self, session: Session, window: float,
                count: bool = True) -> None:
        """Park a session whose connection dropped: analysis keeps going,
        and an expiry timer fails it if no resume arrives in time."""
        session.mark_detached()
        if count and _metrics.ENABLED:
            _C_DETACHED.inc()
        epoch = session.epoch
        timer = threading.Timer(
            window, self._expire_detached, args=(session, epoch, window))
        timer.daemon = True
        session.resume_timer = timer
        timer.start()

    def _expire_detached(self, session: Session, epoch: int,
                         window: float) -> None:
        with self._lock:
            if session.epoch != epoch or session.attached:
                return   # resumed in the meantime
        session.fail(
            f"client did not resume within {window}s of disconnecting")
        self._retire(session)

    def _resume(self, conn: socket.socket, hello: Hello,
                peer: str) -> Optional[tuple[Session, int]]:
        """Validate a resume handshake and re-attach the session.

        Returns ``(session, delivered)`` on success, ``None`` after a
        reject.  A resume with an epoch older than the server's is allowed
        only while the session is detached — that covers a client that
        lost the helloack of a previous resume attempt — while a *live*
        attachment can only be superseded by its own epoch (so a stolen
        stale token cannot hijack a healthy connection).
        """
        reason: Optional[str] = None
        with self._lock:
            session = self._sessions.get(hello.session)
            if session is None or session.state.terminal:
                reason = (f"cannot resume session {hello.session}: "
                          "no such live session")
                session = None
            elif not session.token or not hmac.compare_digest(
                    session.token, hello.token):
                reason = (f"cannot resume session {hello.session}: "
                          "resume token mismatch")
                session = None
            elif hello.epoch > session.epoch or (
                    hello.epoch < session.epoch and session.attached):
                reason = (f"cannot resume session {hello.session}: "
                          f"stale epoch {hello.epoch} "
                          f"(session is at epoch {session.epoch})")
                session = None
            elif self._draining:
                reason = "server is shutting down"
                session = None
        if session is None:
            self._reject(conn, reason or "rejected",
                         why="draining" if reason == "server is shutting down"
                         else "resume")
            return None
        timer, session.resume_timer = session.resume_timer, None
        if timer is not None:
            timer.cancel()
        epoch = session.resume(conn)
        session.peer = peer
        if session.supervised:
            try:
                session.journal.bump_epoch(epoch)
            except OSError:
                pass   # a stale persisted epoch is tolerated on re-recover
        # every accepted message is in the session's queue, observer or
        # journal, so the client resends from the received count
        delivered = session.received
        if _metrics.ENABLED:
            _C_RESUMED.inc()
        conn.sendall(encode_frame({
            "t": "helloack", "session": session.id, "epoch": epoch,
            "token": session.token, "delivered": delivered}))
        return session, delivered

    @staticmethod
    def _parse_hello_line(line: str) -> dict:
        if not line:
            raise ProtocolError("connection closed before any handshake")
        try:
            d = json.loads(line)
        except ValueError as exc:
            raise ProtocolError(
                f"handshake line is not valid JSON: {exc}") from exc
        if not isinstance(d, dict):
            raise ProtocolError("handshake frame must be a JSON object")
        return d

    def _reject(self, conn: socket.socket, reason: str,
                why: str = "other") -> None:
        """Refuse a handshake.  ``why`` is the structured category — it
        labels ``server.rejects{reason=}`` and rides on the reject frame so
        the fleet router can tell a capacity reject (spill to the next
        shard) from a terminal one (forward to the client)."""
        with self._lock:
            self._rejected += 1
        if _metrics.ENABLED:
            _C_REJECTED.inc()
            _metrics.REGISTRY.counter(
                "server.rejects", unit="sessions",
                help="handshake rejects by structured cause (labelled: "
                     "capacity, overload, strict-spec, draining, bad-hello, "
                     "resume, setup)",
                labels={"reason": why}).inc()
        try:
            conn.sendall(encode_frame(
                {"t": "reject", "reason": reason, "why": why}))
        except OSError:
            pass

    def _admit(self, conn: socket.socket, hello: Hello,
               peer: str) -> Optional[Session]:
        hello = dataclasses.replace(
            hello, engines=hello.engines or self.config.default_engines)
        if self.config.strict_specs:
            from ..staticcheck.speccheck import strict_reject_reason

            bad = strict_reject_reason(hello.spec, hello.engines)
            if bad is not None:
                if _metrics.ENABLED:
                    _C_SPEC_REJECTED.inc()
                self._reject(conn, bad, why="strict-spec")
                return None
        session: Optional[Session] = None
        reason: Optional[str] = None
        why = "other"
        with self._lock:
            if self._draining:
                reason = "server is shutting down"
                why = "draining"
            elif len(self._sessions) >= self.config.max_sessions:
                reason = (f"server at capacity: {len(self._sessions)} of "
                          f"{self.config.max_sessions} sessions in use")
                why = "capacity"
            else:
                sid = self._next_sid
                self._next_sid += 1
                token = secrets.token_hex(8)
                try:
                    session = self._build_session(sid, hello, token, peer)
                except Exception as exc:  # noqa: BLE001 - told to the client
                    reason = f"session setup failed: {exc}"
                    why = "setup"
                else:
                    session.token = token
                    self._sessions[sid] = session
        if session is None:
            self._reject(conn, reason or "rejected", why=why)
            return None
        session.conn = conn
        sid = session.id
        if self.archive is not None:
            try:
                session.attach_archive(self.archive)
            except OSError:
                pass   # an unwritable archive degrades recording, not analysis
        if _metrics.ENABLED:
            _C_STARTED.inc()
            _G_ACTIVE.add(1)
            session.meter = _metrics.REGISTRY.counter(
                "server.session.events", unit="messages",
                help="events ingested by one session (labelled)",
                labels={"session": sid})
        if session.supervised:
            session.start_worker()
        conn.sendall(encode_frame({
            "t": "helloack", "session": sid, "epoch": session.epoch,
            "token": session.token}))
        return session

    def _build_session(self, sid: int, hello: Hello, token: str,
                       peer: str) -> Session:
        """Construct the right session flavor for this config (called
        under the server lock; raising rejects the attach with reason)."""
        if not self.config.supervised:
            return Session(sid, hello,
                           max_queued=self.config.max_queued_events,
                           peer=peer)
        journal = SessionJournal.create(
            self.config.checkpoint_dir, session=sid, token=token, hello=hello)
        try:
            return SupervisedSession(
                sid, journal, supervisor=self.config.supervisor_config(),
                max_queued=self.config.max_queued_events, peer=peer)
        except Exception:
            journal.delete()
            raise

    def _stream(self, conn: socket.socket, reader,
                session: Session, start_seq: int = 0) -> None:
        """Post-handshake read loop: reliable frames in, acks out.

        All writes to the connection go through the session's io lock
        (:meth:`Session.send_bytes`) because checkpoint and error frames
        from supervisor threads share the socket with our acks.
        ``start_seq`` is nonzero on a resumed connection: the decoder then
        re-acks the already-delivered prefix as duplicates.  A frame the
        decoder rejects (bad CRC, a skipped ``seq``, a fin whose count is
        not the delivered count) ends the connection
        with an ``err`` frame; the caller then parks a resumable session
        for the client's resume to replay, and fails any other.
        """
        meter = getattr(session, "meter", None)
        ckpt_frames = session.supervised or self.config.resume_timeout > 0

        def ingest(msg, payload: str) -> None:
            if not session.enqueue(msg, self.config.overload_timeout,
                                   text=payload):
                raise _Overload(
                    f"session {session.id} overloaded: ingest queue held "
                    f"{self.config.max_queued_events} events for more than "
                    f"{self.config.overload_timeout}s"
                    + ("" if session.error is None
                       else f" ({session.error})"))
            if _metrics.ENABLED:
                _C_INGESTED.inc()
                if meter is not None:
                    meter.inc()
            if (ckpt_frames
                    and session.received % self.config.checkpoint_every == 0):
                # a supervised session's enqueue has just fsynced its
                # journal through this count; an in-process one holds
                # everything in memory, so for connection-drop resumes
                # "accepted" is as durable as it gets.  Either way the
                # client may prune its resend buffer.
                session.send_frame({"t": "ckpt", "n": session.received})
            self._schedule(session)

        decoder = FrameDecoder(send=session.send_bytes, on_message=ingest,
                               start_seq=start_seq)
        try:
            for line in reader:
                frame = decoder.feed_line(line)
                if frame is None:
                    continue
                if frame.get("t") == "fin":
                    result_frame = self._finish_session(session)
                    if result_frame is not None:
                        session.send_bytes(result_frame)
                        session.send_bytes(_frame({"t": "finack"}))
                        self._drain_to_eof(conn, reader)
                    return
                # any other control frame mid-stream is ignored: the
                # reliable sender only emits msgs/hb/fin after the handshake
        except ReliableTransportError as exc:
            session.send_frame({"t": "err", "reason": str(exc)})
            raise
        except _Overload as exc:
            if _metrics.ENABLED:
                _metrics.REGISTRY.counter(
                    "server.rejects", unit="sessions",
                    help="handshake rejects by structured cause (labelled: "
                         "capacity, overload, strict-spec, draining, "
                         "bad-hello, resume, setup)",
                    labels={"reason": "overload"}).inc()
            session.fail(str(exc))
            try:
                conn.sendall(encode_frame({"t": "err", "reason": str(exc)}))
            except OSError:
                pass

    @staticmethod
    def _drain_to_eof(conn: socket.socket, reader) -> None:
        """Read the connection dry after finack, until the client closes it.

        The client sends one fin, but heartbeats may still follow it.
        Closing while unread bytes sit in the receive buffer makes the
        kernel answer with RST, which flushes the peer's receive queue —
        the result and finack can be discarded before the client ever
        reads them.  Consuming to EOF guarantees the client observed the
        handshake complete before the socket goes away.
        """
        try:
            conn.settimeout(5.0)
            for _line in reader:
                pass
        except (OSError, ValueError):
            pass

    def _finish_session(self, session: Session) -> Optional[bytes]:
        """End of stream: queue the fin, wait for the analysis to complete,
        build the result frame."""
        session.begin_drain()
        self._schedule(session)
        if not session.done.wait(self.config.drain_timeout):
            session.fail(
                f"drain timed out after {self.config.drain_timeout}s")
            return None
        record = session.record()
        return encode_frame({
            "t": "result",
            "session": session.id,
            "state": record["state"],
            "violations": record["violations"],
            "counterexamples": record["counterexamples"],
            "sound": record["sound"],
            "analyzed": record["analyzed"],
            "final_clocks": record["final_clocks"],
            "error": record["error"],
            "engines": record["engines"],
        })

    def _retire(self, session: Session) -> None:
        """Reader is done with the connection: ensure a terminal state and
        move the session into the bounded record history."""
        session.fail("connection closed mid-stream")   # no-op if terminal
        with self._lock:
            record = self._seal_locked(session)
            self._idle.notify_all()
        self._announce(record)

    def _announce(self, record: Optional[dict]) -> None:
        if record is not None and self._on_session_end is not None:
            try:
                self._on_session_end(record)
            except Exception:  # noqa: BLE001 - callbacks must not kill readers
                pass

    def _seal_locked(self, session: Session) -> Optional[dict]:
        if session.id not in self._sessions:
            return None
        del self._sessions[session.id]
        record = session.seal()
        self._records.append(record)
        if _metrics.ENABLED:
            _G_ACTIVE.add(-1)
            _H_SESSION_EVENTS.observe(record["received"])
            if record["state"] == SessionState.FINISHED.value:
                _C_FINISHED.inc()
            else:
                _C_FAILED.inc()
        while len(self._records) > self.config.max_records:
            evicted = self._records.pop(0)
            _metrics.REGISTRY.unregister(
                "server.session.events", labels={"session": evicted["session"]})
        if self.config.results_path:
            try:
                with open(self.config.results_path, "a",
                          encoding="utf-8") as fh:
                    fh.write(json.dumps(record, default=str) + "\n")
            except OSError:
                pass
        return record

    # -- worker pool ----------------------------------------------------------

    def _schedule(self, session: Session) -> None:
        """Put the session on the pool's run queue unless a worker already
        holds it (exactly-one-worker-per-session invariant)."""
        with self._lock:
            if session.scheduled or not session.has_pending():
                return
            session.scheduled = True
        self._tasks.put(session)

    def _worker_loop(self) -> None:
        while True:
            session = self._tasks.get()
            if session is None:
                return
            try:
                session.process_batch(self.config.batch)
            finally:
                with self._lock:
                    session.scheduled = False
                self._schedule(session)
