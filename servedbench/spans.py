"""Span recorder for the traced benchmark run.

The benchmark times the served path from the outside: :meth:`Recorder.wrap`
replaces a function on a class of the program under test with a wrapper
that records one span per call.  Nothing in the program itself changes.

Every span carries its name, start and end (``time.monotonic_ns``, which
is comparable across the processes of one machine), the enclosing span on
the same thread, the session id when one is known, and the thread CPU time
spent inside it (``time.thread_time_ns``).  From those:

* *self CPU* is a span's CPU minus the CPU of the wrapped spans it
  encloses, so each nanosecond of thread CPU lands in exactly one row;
* *waited* is a span's wall time minus its CPU time (blocked on a lock, a
  condition or a socket).

A span still open when :meth:`Recorder.reset` runs (a connection or timer
loop of the warm-up session) is dropped when it closes: part of its CPU
was spent before the reset, and counting all of it would double-count
against the process CPU measured from the reset.  Its CPU after the reset
then shows up as unattributed.

Totals are kept per thread and merged on demand, so recording takes no
lock on the hot path.  Individual spans are kept in memory up to a cap and
written out at exit as a Chrome trace-event document, the format that
``repro.obs.tracing.Tracer.export_chrome`` produces.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from typing import Callable, Optional

__all__ = ["Recorder", "QueueWaits", "write_chrome"]

_now = time.monotonic_ns
_cpu = time.thread_time_ns


class _Frame:
    __slots__ = ("name", "session", "t0", "c0", "child_cpu", "epoch")

    def __init__(self, name: str, session: int, t0: int, c0: int,
                 epoch: int):
        self.name = name
        self.session = session
        self.t0 = t0
        self.c0 = c0
        self.child_cpu = 0
        self.epoch = epoch


class Recorder:
    """Wraps functions in span recorders and aggregates what they record.

    Args:
        pid: process id written into exported trace events.
        keep: most spans kept individually for the exported trace; the
            totals always cover every span.
    """

    def __init__(self, pid: int, keep: int = 40_000):
        self.pid = pid
        self.keep = keep
        self._local = threading.local()
        self._tables: list[dict] = []
        self._counts: list[dict] = []
        self._lock = threading.Lock()
        self.kept: list[tuple] = []
        #: bumped by reset(); spans opened in an older epoch are dropped
        self._epoch = 0

    def _thread_state(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
            self._local.table = {}
            self._local.counts = {}
            with self._lock:
                self._tables.append(self._local.table)
                self._counts.append(self._local.counts)
        return st, self._local.table

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to a named per-thread counter (bytes, events)."""
        self._thread_state()
        counts = self._local.counts
        counts[name] = counts.get(name, 0) + n

    def wrap(self, owner, attr: str, name: str,
             session_of: Optional[Callable] = None,
             on_exit: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``session_of(args)`` names the session a call belongs to; without
        it a span inherits its parent's session.  ``on_exit(args, result,
        t0, t1, cpu)`` is called after the span closes, for measurements
        a span alone cannot give (queue waits, bytes on the wire).
        """
        fn = getattr(owner, attr)
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, table = rec._thread_state()
            parent = stack[-1] if stack else None
            if session_of is not None:
                session = session_of(args)
            else:
                session = parent.session if parent is not None else 0
            frame = _Frame(name, session, _now(), _cpu(), rec._epoch)
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                c1 = _cpu()
                t1 = _now()
                stack.pop()
                if frame.epoch == rec._epoch:
                    cpu = c1 - frame.c0
                    wall = t1 - frame.t0
                    if parent is not None:
                        parent.child_cpu += cpu
                    row = table.get(name)
                    if row is None:
                        row = table[name] = [0, 0, 0, 0]
                    row[0] += 1
                    row[1] += wall
                    row[2] += cpu
                    row[3] += cpu - frame.child_cpu
                    if len(rec.kept) < rec.keep:
                        rec.kept.append((
                            name, frame.t0, wall, cpu, threading.get_ident(),
                            parent.name if parent is not None else "",
                            session))
                    if on_exit is not None:
                        on_exit(args, result, frame.t0, t1, cpu)

        setattr(owner, attr, wrapper)

    def reset(self) -> None:
        """Forget everything recorded so far (the warm-up); spans open
        now are dropped when they close."""
        with self._lock:
            self._epoch += 1
            for t in self._tables + self._counts:
                t.clear()
        self.kept.clear()

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, wall, CPU and self CPU, in nanoseconds."""
        out: dict[str, list] = {}
        with self._lock:
            tables = [dict(t) for t in self._tables]
        for t in tables:
            for name, row in t.items():
                acc = out.setdefault(name, [0, 0, 0, 0])
                for i in range(4):
                    acc[i] += row[i]
        return {name: {"calls": r[0], "wall_ns": r[1], "cpu_ns": r[2],
                       "self_cpu_ns": r[3]} for name, r in out.items()}

    def counters(self) -> dict[str, int]:
        """Named counters summed over every thread."""
        out: dict[str, int] = {}
        with self._lock:
            counts = [dict(c) for c in self._counts]
        for c in counts:
            for name, n in c.items():
                out[name] = out.get(name, 0) + n
        return out

    def chrome_events(self) -> list[dict]:
        """Kept spans as Chrome ``"X"`` events (timestamps in µs)."""
        return [{
            "name": name, "cat": "servedbench", "ph": "X",
            "ts": t0 / 1000.0, "dur": wall / 1000.0,
            "pid": self.pid, "tid": tid & 0xFFFF_FFFF,
            "args": {"cpu_us": cpu / 1000.0, "parent": parent,
                     "session": session},
        } for name, t0, wall, cpu, tid, parent, session in self.kept]


def write_chrome(path: str, events: list[dict]) -> None:
    """Write a Chrome trace-event document (loadable in Perfetto)."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


class QueueWaits:
    """Per-session FIFO matching of enqueue times to the start of the
    batch that takes each event: the time an event waited in the session
    queue.  Samples are kept in milliseconds."""

    def __init__(self) -> None:
        self._pending: dict[int, list[int]] = {}
        self._heads: dict[int, int] = {}
        self._lock = threading.Lock()
        self.samples: list[float] = []

    def enqueued(self, session: int, t: int) -> None:
        with self._lock:
            self._pending.setdefault(session, []).append(t)

    def taken(self, session: int, n: int, t_start: int) -> None:
        with self._lock:
            q = self._pending.get(session)
            if not q:
                return
            head = self._heads.get(session, 0)
            end = min(head + n, len(q))
            self.samples.extend((t_start - t) / 1e6 for t in q[head:end])
            if end >= len(q):
                del self._pending[session]
                self._heads.pop(session, None)
            else:
                self._heads[session] = end

    def reset(self) -> None:
        with self._lock:
            self._pending.clear()
            self._heads.clear()
            self.samples.clear()
