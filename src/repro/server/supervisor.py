"""Supervised sessions: per-session analysis in a restartable subprocess.

With ``ServerConfig(supervised=True)`` each admitted session runs its
``Observer → CausalDelivery → engines`` pipeline inside a spawned
worker process instead of on the daemon's thread pool.  The daemon
journals every accepted message *ahead* of the analysis
(:mod:`repro.server.recovery`), so the journal is the one copy of the
stream it keeps.  A crashed worker (segfault, OOM kill, SIGKILL, or one
silent past the heartbeat timeout) is killed, restarted with
exponential backoff and rebuilt from the journal — verdict parity with
an uninterrupted run falls out of analysis determinism.  A worker that
keeps dying exhausts its restart budget and the session fails with a
reasoned ``err`` frame; the client never hangs.

Delivery discipline between daemon and worker::

    reader ──▶ journal append ──▶ inbox ──(json | None)──▶ worker
    daemon ◀──("hb"|"result"|"fatal")── outbox

* the journal append and the choice of inbox happen under the session
  lock, and so does a (re)start's switch to a fresh inbox: a worker
  started when the journal holds ``n`` messages replays exactly
  ``[0, n)`` from the journal and receives exactly ``[n, …)`` through
  its inbox;
* the end-of-stream fin (``None``) is not journaled: it goes to the
  current inbox, and a restart after it puts a fresh fin in the new one;
* the worker only analyses.  The daemon fsyncs the journal every
  ``checkpoint_every`` messages (the reader then sends the client its
  ``ckpt`` frame) and seals it with the worker's verdict at the end.

Workers use the ``spawn`` start method on purpose: the daemon is heavily
threaded and a forked child would inherit locks mid-flight.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
import time
from dataclasses import dataclass
from typing import Any, Optional

from ..core.events import Message
from ..engines.base import StreamVerdict
from ..obs import metrics as _metrics
from ..store.archive import catalog_footer
from .recovery import SessionJournal
from .session import Session, SessionState, build_observer

__all__ = ["SupervisorConfig", "SupervisedSession"]

_MP = multiprocessing.get_context("spawn")

#: Most inbox items one worker turn hands to ``Observer.receive_batch``.
_WORKER_BATCH = 64

_C_CRASHES = _metrics.REGISTRY.counter(
    "server.worker_crashes", unit="crashes",
    help="supervised session workers lost to process death or heartbeat "
         "timeout")
_C_RESTARTS = _metrics.REGISTRY.counter(
    "server.worker_restarts", unit="restarts",
    help="supervised session workers restarted within their budget")
_C_CHECKPOINTS = _metrics.REGISTRY.counter(
    "server.checkpoints", unit="checkpoints",
    help="session journal fsyncs, each announced to the client by a "
         "ckpt frame")
_C_REPLAYED = _metrics.REGISTRY.counter(
    "server.recovery_replayed_events", unit="messages",
    help="journaled events replayed into rebuilt observers after a worker "
         "or daemon restart")


@dataclass(frozen=True)
class SupervisorConfig:
    """Crash-detection and restart policy for supervised workers.

    Attributes:
        heartbeat_interval: how often a healthy worker reports progress.
        heartbeat_timeout: silence longer than this declares the worker
            dead even when the process object still looks alive (wedged,
            SIGSTOPped).
        max_restarts: restart budget per session; exceeding it fails the
            session with a reasoned ``err`` frame (crash-loop detection).
        restart_backoff / restart_backoff_cap: exponential backoff between
            restarts, ``backoff * 2**(n-1)`` capped.
        checkpoint_every: journal fsync cadence, in events.
    """

    heartbeat_interval: float = 0.2
    heartbeat_timeout: float = 2.0
    max_restarts: int = 3
    restart_backoff: float = 0.1
    restart_backoff_cap: float = 2.0
    checkpoint_every: int = 128

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be > 0")
        if self.heartbeat_timeout <= self.heartbeat_interval:
            raise ValueError(
                "heartbeat_timeout must exceed heartbeat_interval")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.restart_backoff < 0 or self.restart_backoff_cap < 0:
            raise ValueError("restart backoffs must be >= 0")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")


def _worker_main(journal_dir: str, replay: int, inbox, outbox,
                 hb_interval: float) -> None:
    """Worker-process entry point: rebuild the observer from the first
    ``replay`` journaled messages, then analyze the inbox until fin.

    Runs in a fresh ``spawn`` child and never writes the journal.
    Analysis exceptions are deterministic (same input → same crash), so
    they are reported as ``fatal`` — restarting would only loop.
    """
    journal = SessionJournal.open_dir(journal_dir)
    hello = journal.meta.hello
    observer = build_observer(hello)
    recovered = journal.read_prefix(replay)
    observer.rebuild(recovered)
    clocks: list[list[int]] = [[0] * hello.n_threads
                               for _ in range(hello.n_threads)]
    for m in recovered:
        clocks[m.thread] = list(m.clock)
    stats = {"analyzed": len(recovered),
             "violations": observer.finding_count()}
    stop = threading.Event()

    def hb_loop() -> None:
        while not stop.wait(hb_interval):
            try:
                outbox.put(("hb", stats["analyzed"], stats["violations"]))
            except (OSError, ValueError):
                return

    threading.Thread(target=hb_loop, daemon=True).start()
    parent = multiprocessing.parent_process()
    try:
        while True:
            try:
                batch = [inbox.get(timeout=0.5)]
            except queue.Empty:
                if parent is not None and not parent.is_alive():
                    return
                continue
            while batch[-1] is not None and len(batch) < _WORKER_BATCH:
                try:
                    batch.append(inbox.get_nowait())
                except queue.Empty:
                    break
            fin = batch[-1] is None
            msgs = [Message.from_json(text) for text in batch if text]
            try:
                if msgs:
                    observer.receive_batch(msgs)
                if fin:
                    observer.finish()
            except Exception as exc:  # noqa: BLE001
                outbox.put(("fatal", f"analysis error: {exc}"))
                return
            for m in msgs:
                clocks[m.thread] = list(m.clock)
            stats["violations"] = observer.finding_count()
            stats["analyzed"] += len(msgs)
            if fin:
                verdict = observer.verdict()
                outbox.put(("result", {
                    "analyzed": stats["analyzed"],
                    "final_clocks": clocks,
                    "engines": verdict.engines,
                    "sound": verdict.sound,
                }))
                return
    finally:
        stop.set()


class SupervisedSession(Session):
    """A session whose analysis runs in a supervised worker process.

    The daemon side owns the session's journal (created at admission, or
    found by ``--recover``; its meta holds the session's hello) and is its
    only writer; it keeps no other copy of the stream.  The base class
    still provides lifecycle, attachment and archive plumbing;
    queue-and-worker-pool machinery is bypassed
    (:meth:`has_pending`/:meth:`process_batch` report nothing to do).
    """

    def __init__(self, session_id: int, journal: SessionJournal,
                 supervisor: Optional[SupervisorConfig] = None,
                 max_queued: int = 1024, peer: str = ""):
        super().__init__(session_id, journal.meta.hello,
                         max_queued=max_queued, peer=peer)
        # the base constructor validated the spec against the initial
        # store by building an observer; the analysis lives in the worker,
        # so drop the parent copy rather than keep a dead lattice around
        self.observer = None  # type: ignore[assignment]
        self.supervised = True
        self.journal = journal
        # reopen for appending, rolling a torn tail back to its durable
        # prefix: a recovered session's client resumes from that count
        self.received = len(journal.recover_and_open())
        self.sup = supervisor or SupervisorConfig()
        self._archive = None
        self.restarts = 0
        self._closing = False
        self._proc = None
        self._inbox = None
        # serializes writers into the inbox, so its order is journal order
        self._submit_lock = threading.Lock()

    # -- worker lifecycle -----------------------------------------------------

    def start_worker(self) -> None:
        """Spawn a worker on the journal written so far: the daemon calls
        this right after admission or recovery, the supervisor after each
        crash."""
        inbox = _MP.Queue(maxsize=self._max_queued)
        # the journal holds everything in the inbox, so the daemon never
        # waits at exit to flush it into a pipe a dead worker left full
        inbox.cancel_join_thread()
        outbox = _MP.Queue()
        with self._cond:
            if self._state.terminal:
                return
            # flushed, not fsynced: the worker reads it through the page
            # cache, and durability is the checkpoint cadence's job
            replay = self.journal.checkpoint(fsync=False)
            self._inbox = inbox
            if self._state is SessionState.DRAINING:
                inbox.put(None)
        proc = _MP.Process(
            target=_worker_main,
            args=(str(self.journal.dir), replay, inbox, outbox,
                  self.sup.heartbeat_interval),
            daemon=True)
        proc.start()
        with self._cond:
            self._proc = proc
            closing = self._closing
        if closing:      # torn down while we were starting it
            self._kill(proc)
            return
        if replay and _metrics.ENABLED:
            _C_REPLAYED.inc(replay)
        threading.Thread(target=self._monitor_loop, args=(proc, outbox),
                         daemon=True).start()

    def _put(self, inbox, item, timeout: float) -> bool:
        """Put ``item`` into ``inbox``.  True once it is in, or once a
        restart has replaced the inbox (the new worker replays journaled
        messages, and gets a fin of its own).  False when the session
        ended or the inbox stayed full past ``timeout``."""
        deadline = time.monotonic() + timeout
        while True:
            with self._cond:
                if self._state.terminal:
                    return False
                if self._inbox is not inbox:
                    return True
            try:
                inbox.put(item, timeout=0.2)
                return True
            except queue.Full:
                if time.monotonic() >= deadline:
                    return False

    def _monitor_loop(self, proc, outbox) -> None:
        last_seen = time.monotonic()
        while True:
            with self._cond:
                if (self._state.terminal or self._closing
                        or self._proc is not proc):
                    return
            try:
                item = outbox.get(timeout=self.sup.heartbeat_interval)
            except queue.Empty:
                item = None
            except (OSError, ValueError):
                return
            with self._cond:
                if self._proc is not proc or self._closing:
                    return
            if item is None:
                stale = time.monotonic() - last_seen
                if not proc.is_alive():
                    self._handle_crash(proc, "worker process died")
                    return
                if stale > self.sup.heartbeat_timeout:
                    self._handle_crash(
                        proc, f"worker heartbeat lost for {stale:.1f}s")
                    return
                continue
            last_seen = time.monotonic()
            kind = item[0]
            if kind == "hb":
                self.analyzed = max(self.analyzed, item[1])
                self.live_violations = item[2]
            elif kind == "fatal":
                # a draining session's reader answers the fin with a result
                # frame carrying the reason; an err frame racing ahead of
                # it would turn the client's close into a transport error
                draining = self._state is SessionState.DRAINING
                if self.fail(item[1]) and not draining:
                    self.send_frame({"t": "err", "reason": item[1]})
                return
            elif kind == "result":
                self._on_result(item[1], proc)
                return

    def _handle_crash(self, proc, reason: str) -> None:
        if _metrics.ENABLED:
            _C_CRASHES.inc()
        self._kill(proc)
        self.restarts += 1
        if self.restarts > self.sup.max_restarts:
            why = (f"worker crash loop: {reason}; restart budget "
                   f"({self.sup.max_restarts}) exhausted")
            if self.fail(why):
                self.send_frame({"t": "err", "reason": why})
            return
        backoff = min(
            self.sup.restart_backoff * (2 ** (self.restarts - 1)),
            self.sup.restart_backoff_cap)
        time.sleep(backoff)
        with self._cond:
            if self._state.terminal or self._closing:
                return
        if _metrics.ENABLED:
            _C_RESTARTS.inc()
        self.start_worker()

    @staticmethod
    def _kill(proc) -> None:
        try:
            proc.kill()
            proc.join(timeout=2.0)
        except (OSError, ValueError, AttributeError):
            pass

    def _on_result(self, result: dict, proc) -> None:
        with self._cond:
            if self._state.terminal:
                return
            self.verdict = StreamVerdict(tuple(result["engines"]),
                                         result["sound"])
            self.analyzed = result["analyzed"]
            self.final_clocks = [tuple(c) for c in result["final_clocks"]]
        if self._archive is not None:
            try:
                self.journal.seal(extra=catalog_footer(
                    self.program, self.spec, self.n_threads, self.verdict,
                    self.final_clocks,
                    max(0.0, time.time() - self.journal.meta.created_at)))
                entry = self._archive.adopt_sealed(self.journal.events_path)
                self.archive_id = entry.id
            except Exception:  # noqa: BLE001 - archive loss ≠ analysis loss
                self.archive_id = None
        # delete before `done` is published: whoever sees the session
        # finished may rely on its journal being gone
        self.journal.delete()
        with self._cond:
            if not self._state.terminal:
                self._enter_terminal(SessionState.FINISHED)
        self._kill(proc)

    # -- overridden session surface -------------------------------------------

    def attach_archive(self, archive) -> None:
        # the sealed journal is adopted wholesale at finish; no parent-side
        # PendingTrace double-writes the stream
        self._archive = archive
        self.archive_id = None

    def enqueue(self, msg: Any, timeout: float,
                text: Optional[str] = None) -> bool:
        with self._submit_lock:
            with self._cond:
                if self._state is not SessionState.STREAMING:
                    return False
                text = self.journal.write(msg, text)
                self.received += 1
                if self.received % self.sup.checkpoint_every == 0:
                    self.journal.checkpoint()
                    if _metrics.ENABLED:
                        _C_CHECKPOINTS.inc()
                self.queue_high_water = max(self.queue_high_water,
                                            self.pending)
                inbox = self._inbox
            # no inbox yet: the first worker replays this from the journal
            return inbox is None or self._put(inbox, text, timeout)

    def begin_drain(self) -> None:
        with self._submit_lock:
            with self._cond:
                if self._state is not SessionState.STREAMING:
                    return
                self._state = SessionState.DRAINING
                inbox = self._inbox
            if inbox is not None:
                # bounded wait: if the fin cannot be delivered the
                # session's drain timeout turns it into a reasoned failure
                self._put(inbox, None, 5.0)

    def fail(self, reason: str) -> bool:
        did = super().fail(reason)
        if did:
            self._teardown_worker()
            if reason == "server shutdown":
                # keep the journal: `repro serve --recover` readmits the
                # session and a reconnecting client resumes it
                self.journal.close()
            else:
                self.journal.delete()
        return did

    def _teardown_worker(self) -> None:
        with self._cond:
            self._closing = True
            proc = self._proc
        if proc is not None:
            self._kill(proc)

    def has_pending(self) -> bool:
        return False

    def process_batch(self, max_batch: int = 64) -> bool:
        return False

    @property
    def pending(self) -> int:
        return max(0, self.received - self.analyzed)
