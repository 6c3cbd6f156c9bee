"""Instrumented runtime for *real* Python threads.

The paper lists three ways to execute Algorithm A on every shared-variable
access: instrument the (byte)code, modify the JVM, or "enforce shared
variable updates via library functions, which execute A as well" (§1).  This
module is the library-function route for Python; the AST route lives in
:mod:`repro.instrument.rewriter`.

A single global event lock makes every shared access *atomic and
instantaneous* — the sequential-consistency assumption of §2.1.  (CPython's
GIL does not suffice: a read-modify-write spans several bytecodes.)  Thread
identity is resolved via ``threading.get_ident`` and mapped to dense MVC
indices on first use, exercising the dynamic-thread extension the paper
mentions in §2.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Mapping, Optional

from ..core.algorithm_a import AlgorithmA, RelevancePredicate
from ..core.events import Event, EventKind, Message, VarName

__all__ = ["InstrumentedRuntime"]


class InstrumentedRuntime:
    """Event capture + Algorithm A for real ``threading`` programs.

    Args:
        initial: initial shared store (variables must be declared up front,
            like the paper's static shared variables; dynamic registration
            is available via :meth:`declare`).
        relevance: Algorithm A's relevance predicate (default: every write).
            Spec-relevance slicing passes a slice's
            :meth:`~repro.staticcheck.SliceResult.predicate` here: accesses
            outside the slice emit no message but still merge clocks, so
            the relevant causal order stays exact.
        sink: callable receiving emitted messages (e.g. an
            :class:`~repro.observer.observer.Observer` or a socket sender).
        max_threads: preallocated MVC width; indices grow dynamically
            beyond it.
    """

    def __init__(
        self,
        initial: Mapping[VarName, Any],
        relevance: Optional[RelevancePredicate] = None,
        sink: Optional[Callable[[Message], None]] = None,
        sync_only_clocks: bool = False,
        max_threads: int = 4,
    ):
        self._store: dict[VarName, Any] = dict(initial)
        self._lock = threading.RLock()
        self._algo = AlgorithmA(
            max_threads,
            relevance=relevance,
            sink=sink,
            dynamic_threads=True,
            sync_only_clocks=sync_only_clocks,
        )
        self._thread_ids: dict[int, int] = {}
        self._locks: dict[VarName, threading.Lock] = {}
        self._condition_wrappers: dict[VarName, "_InstrumentedCondition"] = {}
        self._events: list[Event] = []
        self.initial_store: dict[VarName, Any] = dict(initial)

    # -- thread identity -----------------------------------------------------

    def thread_index(self) -> int:
        """Dense MVC index of the calling thread (registered on first use)."""
        ident = threading.get_ident()
        with self._lock:
            idx = self._thread_ids.get(ident)
            if idx is None:
                idx = len(self._thread_ids)
                self._thread_ids[ident] = idx
            return idx

    def register_thread(self, index: Optional[int] = None) -> int:
        """Explicitly pin the calling thread to an MVC index (main threads
        often want index 0 regardless of call order)."""
        ident = threading.get_ident()
        with self._lock:
            if index is None:
                return self.thread_index()
            if ident in self._thread_ids and self._thread_ids[ident] != index:
                raise RuntimeError("thread already registered with another index")
            if index in self._thread_ids.values():
                owner = [k for k, v in self._thread_ids.items() if v == index]
                if owner != [ident]:
                    raise RuntimeError(f"MVC index {index} already taken")
            self._thread_ids[ident] = index
            return index

    @property
    def n_threads(self) -> int:
        return self._algo.n_threads

    # -- shared accesses --------------------------------------------------------

    def declare(self, var: VarName, value: Any) -> None:
        """Register a shared variable after construction (dynamic sharing,
        §3.1)."""
        with self._lock:
            if var in self._store:
                raise ValueError(f"shared variable {var!r} already declared")
            self._store[var] = value
            self.initial_store[var] = value

    def read(self, var: VarName) -> Any:
        with self._lock:
            if var not in self._store:
                raise KeyError(f"undeclared shared variable {var!r}")
            value = self._store[var]
            self._record(EventKind.READ, var, value)
            return value

    def write(self, var: VarName, value: Any, label: Optional[str] = None) -> Any:
        with self._lock:
            if var not in self._store:
                raise KeyError(f"undeclared shared variable {var!r}")
            self._store[var] = value
            self._record(EventKind.WRITE, var, value,
                         label=label or f"{var}={value!r}")
            return value

    def update(self, var: VarName, fn: Callable[[Any], Any]) -> Any:
        """Atomic read-modify-write *as two events* (read then write), like
        ``x++`` compiles to.  The global lock makes the pair indivisible in
        this execution, but the two events still let the predictive analyzer
        consider schedules where they are separated."""
        with self._lock:
            old = self.read(var)
            new = fn(old)
            self.write(var, new)
            return new

    def internal(self, label: Optional[str] = None) -> None:
        with self._lock:
            self._record(EventKind.INTERNAL, None, None, label=label)

    def _record(
        self,
        kind: EventKind,
        var: Optional[VarName],
        value: Any,
        label: Optional[str] = None,
    ) -> None:
        idx = self.thread_index()
        self._algo.process(idx, kind, var, value, label)
        self._events.append(
            Event(
                thread=idx,
                seq=self._algo.events_of(idx),
                kind=kind,
                var=var if kind.is_access else None,
                value=value,
                relevant=bool(
                    self._algo.emitted
                    and self._algo.emitted[-1].event.eid
                    == (idx, self._algo.events_of(idx))
                ),
                label=label,
            )
        )

    # -- synchronization (§3.1) ----------------------------------------------------

    def lock(self, name: VarName) -> "_InstrumentedLock":
        with self._lock:
            if name not in self._locks:
                self._locks[name] = threading.Lock()
                self._store.setdefault(name, 0)
                self.initial_store.setdefault(name, 0)
            return _InstrumentedLock(self, name, self._locks[name])

    def acquire(self, name: VarName) -> None:
        lk = self.lock(name)
        lk.acquire()

    def release(self, name: VarName) -> None:
        with self._lock:
            real = self._locks[name]
        self._record_sync(EventKind.RELEASE, name)
        real.release()

    def _record_sync(self, kind: EventKind, var: VarName) -> None:
        with self._lock:
            self._store.setdefault(var, 0)
            self.initial_store.setdefault(var, 0)
            self._record(kind, var, None, label=f"{kind.value}({var})")

    def condition(self, name: VarName) -> "_InstrumentedCondition":
        """A wait/notify condition generating §3.1's dummy-variable writes:
        the notifier writes before notification, the woken thread writes
        after — installing the notify→wake happens-before edge."""
        with self._lock:
            wrapper = self._condition_wrappers.get(name)
            if wrapper is None:
                self._store.setdefault(name, 0)
                self.initial_store.setdefault(name, 0)
                wrapper = _InstrumentedCondition(self, name, threading.Condition())
                self._condition_wrappers[name] = wrapper
            return wrapper

    # -- results -----------------------------------------------------------------

    @property
    def messages(self) -> list[Message]:
        with self._lock:
            return list(self._algo.emitted)

    @property
    def events(self) -> list[Event]:
        with self._lock:
            return list(self._events)

    @property
    def store(self) -> dict[VarName, Any]:
        with self._lock:
            return dict(self._store)

    @property
    def algorithm(self) -> AlgorithmA:
        return self._algo


class _InstrumentedLock:
    """Context-manager lock generating §3.1 acquire/release write events."""

    def __init__(self, rt: InstrumentedRuntime, name: VarName, real: threading.Lock):
        self._rt = rt
        self._name = name
        self._real = real

    def acquire(self) -> None:
        # Take the real lock *outside* the event lock (holding the event
        # lock while blocking would deadlock every other access), then
        # record the acquire event.
        self._real.acquire()
        self._rt._record_sync(EventKind.ACQUIRE, self._name)

    def release(self) -> None:
        self._rt._record_sync(EventKind.RELEASE, self._name)
        self._real.release()

    def __enter__(self) -> "_InstrumentedLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class _InstrumentedCondition:
    """Wait/notify with §3.1 instrumentation over ``threading.Condition``.

    Semaphore-flavored like the cooperative scheduler (a notify with no
    waiter leaves a credit), so real-thread workloads are race-free against
    the classic lost-notification hazard.
    """

    def __init__(self, rt: InstrumentedRuntime, name: VarName,
                 real: threading.Condition):
        self._rt = rt
        self._name = name
        self._real = real
        self._credits = 0

    def notify(self, n: int = 1) -> None:
        """Emit the pre-notification write, then wake up to ``n`` waiters
        (banking credits for waits that have not started yet)."""
        self._rt._record_sync(EventKind.NOTIFY, self._name)
        with self._real:
            self._credits += n
            self._real.notify(n)

    def notify_all(self) -> None:
        self._rt._record_sync(EventKind.NOTIFY, self._name)
        with self._real:
            self._credits += 1_000_000  # effectively unbounded
            self._real.notify_all()

    def wait(self, timeout: float = 30.0) -> None:
        """Block until notified, then emit the post-notification write."""
        with self._real:
            deadline_ok = self._real.wait_for(
                lambda: self._credits > 0, timeout=timeout
            )
            if not deadline_ok:
                raise TimeoutError(
                    f"wait on condition {self._name!r} timed out"
                )
            self._credits -= 1
        self._rt._record_sync(EventKind.WAKE, self._name)
