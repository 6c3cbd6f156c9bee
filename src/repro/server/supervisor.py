"""Supervised sessions: per-session analysis in a restartable subprocess.

With ``ServerConfig(supervised=True)`` each admitted session runs its
``Observer → CausalDelivery → engines`` pipeline inside a spawned
worker process instead of on the daemon's thread pool.  The parent keeps
a *retained buffer* of every event since the last durable checkpoint, so
a crashed worker (segfault, OOM kill, SIGKILL) is detected by heartbeat
loss, restarted with exponential backoff, rebuilt from its journaled
prefix (:mod:`repro.server.recovery`) and refed the missing tail —
verdict parity with an uninterrupted run falls out of analysis
determinism.  A worker that keeps dying exhausts its restart budget and
the session fails with a reasoned ``err`` frame; the client never hangs.

Delivery discipline between parent and worker::

    parent ──("msg", index, json)──▶ inbox ──▶ worker
    parent ◀──("hb"|"recovered"|"ckpt"|"result"|"fatal")── outbox

* every event carries its 0-based delivery ``index``; the end-of-stream
  fin rides the same channel as ``("msg", index, None)``, so it survives
  restarts by living in the retained buffer like any other item;
* the worker processes an item iff ``index == analyzed`` and silently
  drops everything else — refeeding the whole retained window after a
  restart (or racing a refeed with a live enqueue) is therefore
  idempotent and order-safe;
* the worker journals an event only *after* the observer accepted it and
  reports ``("ckpt", n)`` when the journal fsyncs, which is when the
  parent prunes its retained buffer below ``n`` and forwards a ``ckpt``
  frame so the client can prune its resume buffer too.

Workers use the ``spawn`` start method on purpose: the daemon is heavily
threaded and a forked child would inherit locks mid-flight.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from ..core.events import Message
from ..engines.base import StreamVerdict
from ..obs import metrics as _metrics
from ..store.archive import catalog_footer
from .recovery import SessionJournal, build_observer
from .session import Session, SessionState

__all__ = ["SupervisorConfig", "SupervisedSession"]

_MP = multiprocessing.get_context("spawn")

_C_CRASHES = _metrics.REGISTRY.counter(
    "server.worker_crashes", unit="crashes",
    help="supervised session workers lost to process death or heartbeat "
         "timeout")
_C_RESTARTS = _metrics.REGISTRY.counter(
    "server.worker_restarts", unit="restarts",
    help="supervised session workers restarted within their budget")
_C_CHECKPOINTS = _metrics.REGISTRY.counter(
    "server.checkpoints", unit="checkpoints",
    help="durable session checkpoints acknowledged by workers")
_C_REPLAYED = _metrics.REGISTRY.counter(
    "server.worker_recovered_events", unit="messages",
    help="journaled events workers replayed after a (re)start, as "
         "reported to the supervisor")


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


def _worker_main(journal_dir: str, inbox, outbox, checkpoint_every: int,
                 hb_interval: float) -> None:
    """Worker-process entry point: recover the journal, rebuild the
    observer, then analyze the inbox until fin.

    Runs in a fresh ``spawn`` child; everything it needs arrives through
    the journal directory and the two queues.  Analysis exceptions are
    deterministic (same input → same crash), so they are reported as
    ``fatal`` — restarting would only loop.
    """
    journal = SessionJournal.open_dir(journal_dir)
    meta = journal.meta
    observer = build_observer(meta)
    recovered = journal.recover_and_open()
    observer.rebuild(recovered)
    clocks: list[list[int]] = [[0] * meta.n_threads
                               for _ in range(meta.n_threads)]
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
    outbox.put(("recovered", stats["analyzed"]))

    parent = multiprocessing.parent_process()
    try:
        while True:
            try:
                item = inbox.get(timeout=0.5)
            except queue.Empty:
                if parent is not None and not parent.is_alive():
                    return
                continue
            kind = item[0]
            if kind == "stop":
                return
            if kind != "msg":
                continue
            _, index, text = item
            if index != stats["analyzed"]:
                # duplicate (refeed below our recovery point) or an
                # out-of-order early copy the refeed will resend in place
                continue
            if text is None:                       # fin sentinel
                try:
                    observer.finish()
                except Exception as exc:  # noqa: BLE001
                    outbox.put(("fatal", f"analysis error: {exc}"))
                    return
                verdict = observer.verdict()
                wall = max(0.0, time.time() - meta.created_at)
                journal.seal(extra=catalog_footer(
                    meta.program, meta.spec, meta.n_threads, verdict,
                    clocks, wall))
                outbox.put(("result", {
                    "analyzed": stats["analyzed"],
                    "final_clocks": [list(c) for c in clocks],
                    "engines": verdict.engines,
                    "sound": verdict.sound,
                }))
                return
            msg = Message.from_json(text)
            try:
                observer.receive(msg)
            except Exception as exc:  # noqa: BLE001
                outbox.put(("fatal", f"analysis error: {exc}"))
                return
            journal.write(msg)
            stats["violations"] = observer.finding_count()
            stats["analyzed"] += 1
            clocks[msg.thread] = list(msg.clock)
            n = journal.maybe_checkpoint(checkpoint_every)
            if n is not None:
                outbox.put(("ckpt", n))
    finally:
        stop.set()
        journal.close()


class SupervisedSession(Session):
    """A session whose analysis runs in a supervised worker process.

    The parent side keeps: the journal handle (created by the daemon at
    admission), the retained ``(index, json-or-None)`` buffer since the
    last durable checkpoint, and the latest worker-reported progress.
    The base class still provides lifecycle, attachment and archive
    plumbing; queue-and-worker-pool machinery is bypassed
    (:meth:`has_pending`/:meth:`process_batch` report nothing to do).
    """

    def __init__(self, session_id: int, hello, journal: SessionJournal,
                 supervisor: Optional[SupervisorConfig] = None,
                 max_queued: int = 1024, peer: str = "",
                 default_engines: Sequence[str] = ()):
        super().__init__(session_id, hello, max_queued=max_queued, peer=peer,
                         default_engines=default_engines)
        # the base constructor validated the spec against the initial
        # store by building an observer; the analysis lives in the worker,
        # so drop the parent copy rather than keep a dead lattice around
        self.observer = None  # type: ignore[assignment]
        self.supervised = True
        self.journal = journal
        self.sup = supervisor or SupervisorConfig()
        self._archive = None
        self._retained: deque[tuple[int, Optional[str]]] = deque()
        self._next_index = 0
        self._durable = 0
        self.restarts = 0
        self._fin_sent = False
        self._closing = False
        self._proc = None
        self._inbox = None
        self._outbox = None
        # serializes writers into the current inbox so a restart's refeed
        # cannot interleave with a live enqueue (order = index order)
        self._submit_lock = threading.Lock()

    # -- worker lifecycle -----------------------------------------------------

    def start_worker(self) -> None:
        """Spawn the first worker (daemon calls this right after admit or
        recovery; also reused for every restart)."""
        self._spawn()

    def _spawn(self) -> None:
        inbox = _MP.Queue(maxsize=self._max_queued)
        outbox = _MP.Queue()
        proc = _MP.Process(
            target=_worker_main,
            args=(str(self.journal.dir), inbox, outbox,
                  self.sup.checkpoint_every, self.sup.heartbeat_interval),
            daemon=True)
        proc.start()
        with self._cond:
            self._inbox, self._outbox, self._proc = inbox, outbox, proc
        threading.Thread(target=self._monitor_loop, args=(proc, outbox),
                         daemon=True).start()
        # refeed everything not yet durable — the worker drops items below
        # its recovery point, so over-delivery is harmless
        with self._submit_lock:
            with self._cond:
                snapshot = list(self._retained)
            for item in snapshot:
                if not self._put_current(inbox, ("msg", item[0], item[1])):
                    break

    def _put_current(self, inbox, item, deadline: Optional[float] = None
                     ) -> bool:
        """Put into ``inbox`` unless it stops being the current inbox (a
        restart superseded it — the refeed owns delivery then) or the
        session ends.  Returns False only on supersession/termination/
        deadline."""
        while True:
            with self._cond:
                if self._state.terminal:
                    return False
                if self._inbox is not inbox:
                    return False
            try:
                inbox.put(item, timeout=0.2)
                return True
            except queue.Full:
                if deadline is not None and time.monotonic() >= deadline:
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
            elif kind == "recovered":
                self._on_durable(item[1], frame=False)
                if _metrics.ENABLED and item[1]:
                    _C_REPLAYED.inc(item[1])
            elif kind == "ckpt":
                self._on_durable(item[1], frame=True)
                if _metrics.ENABLED:
                    _C_CHECKPOINTS.inc()
            elif kind == "fatal":
                if self.fail(item[1]):
                    self.send_frame({"t": "err", "reason": item[1]})
                return
            elif kind == "result":
                self._on_result(item[1], proc)
                return

    def _on_durable(self, n: int, frame: bool) -> None:
        with self._cond:
            self._durable = max(self._durable, n)
            self.analyzed = max(self.analyzed, n)
            while self._retained and self._retained[0][0] < self._durable:
                self._retained.popleft()
        if frame:
            self.send_frame({"t": "ckpt", "n": n})

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
        self._spawn()

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
        archive = self._archive
        if archive is not None:
            try:
                entry = archive.adopt_sealed(self.journal.events_path)
                self.archive_id = entry.id
            except Exception:  # noqa: BLE001 - archive loss ≠ analysis loss
                self.archive_id = None
        # delete before `done` is published: whoever sees the session
        # finished may rely on its journal being gone
        self.journal.delete()
        with self._cond:
            if not self._state.terminal:
                self._retained.clear()
                self._enter_terminal(SessionState.FINISHED)
        self._kill(proc)

    def restore_progress(self, durable: int) -> None:
        """Daemon-restart recovery: align parent counters with the
        journal's durable prefix, so client sequence numbers (absolute,
        0-based) line up with worker delivery indices after the resume."""
        with self._cond:
            self.received = durable
            self._next_index = durable
            self._durable = durable
            self.analyzed = durable

    # -- overridden session surface -------------------------------------------

    def attach_archive(self, archive) -> None:
        # the worker's sealed journal is adopted wholesale at finish; no
        # parent-side PendingTrace double-writes the stream
        self._archive = archive
        self.archive_id = None

    def enqueue(self, msg: Any, timeout: float) -> bool:
        text = msg.to_json()
        with self._cond:
            if self._state is not SessionState.STREAMING:
                return False
            index = self._next_index
            self._next_index += 1
            self._retained.append((index, text))
            self.received += 1
            backlog = self.received - self._durable
            if backlog > self.queue_high_water:
                self.queue_high_water = backlog
            inbox = self._inbox
        if inbox is None:        # worker not spawned yet: refeed delivers
            return True
        with self._submit_lock:
            ok = self._put_current(inbox, ("msg", index, text),
                                   deadline=time.monotonic() + timeout)
        if ok:
            return True
        with self._cond:
            if self._state.terminal:
                return False
            if self._inbox is not inbox:
                # a restart superseded the inbox mid-put; the refeed owns
                # delivery of the retained buffer (this item included)
                return True
        # the worker is alive but its queue stayed full past the timeout:
        # that is genuine overload, let the daemon declare it
        return False

    def begin_drain(self) -> None:
        with self._cond:
            if self._state is not SessionState.STREAMING:
                return
            self._state = SessionState.DRAINING
            index = self._next_index
            self._next_index += 1
            self._retained.append((index, None))
            self._fin_sent = True
            inbox = self._inbox
            self._cond.notify_all()
        if inbox is None:
            return
        with self._submit_lock:
            # bounded wait: if the fin cannot be delivered the session's
            # drain timeout turns it into a reasoned failure, never a hang
            # (a later restart refeeds the fin from the retained buffer)
            self._put_current(inbox, ("msg", index, None),
                              deadline=time.monotonic() + 5.0)

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

    def delivered_for_resume(self) -> int:
        # everything acked is either journaled or in the retained buffer,
        # so the client never needs to resend below `received`
        return self.received

    def has_pending(self) -> bool:
        return False

    def process_batch(self, max_batch: int = 64) -> bool:
        return False

    @property
    def pending(self) -> int:
        return max(0, self.received - self.analyzed)
