"""Observer-side causality reconstruction from MVC messages.

The observer receives messages ``⟨e, i, V⟩`` *in any order* and, thanks to
Theorem 3, can recover the relevant causal partial order ``⊳``::

    e ⊳ e'   iff   V[i] <= V'[i]   iff   V < V'

:class:`CausalityIndex` is built once over a set of messages and answers
precedence, concurrency, covering-relation (Hasse diagram) and
linear-extension queries, for offline tools such as lattice rendering and
race detection.  The online observer keeps no index: deciding delivery
needs only per-thread counts (:mod:`repro.observer.delivery`).

Two comparison kernels coexist (ablation: ``benchmarks/bench_overhead.py``):
scalar Theorem-3 tests (two int compares per query — optimal for point
queries) and a numpy :class:`~repro.core.vectorclock.ClockArena` bulk kernel
for whole-relation materialization (O(m²n) in one C pass).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from .events import Message
from .vectorclock import ClockArena

__all__ = ["CausalityIndex", "hasse_reduction", "is_linear_extension"]


class CausalityIndex:
    """An index over a set of received messages, built once.

    Messages may arrive in any delivery order; the index keyed by event id
    ``(thread, seq)`` is insensitive to it.  Duplicate event ids and clock
    width mismatches are rejected.  The clock arena is written lazily, by
    the first bulk query.
    """

    def __init__(self, n_threads: int, messages: Iterable[Message] = ()):
        if n_threads <= 0:
            raise ValueError("n_threads must be positive")
        self._n = n_threads
        self._msgs: list[Message] = []
        self._by_eid: dict[tuple[int, int], int] = {}
        self._arena = ClockArena(width=n_threads)
        for msg in messages:
            if msg.clock.width != n_threads:
                raise ValueError(
                    f"message clock width {msg.clock.width} != index "
                    f"width {n_threads}"
                )
            eid = msg.event.eid
            if eid in self._by_eid:
                raise ValueError(f"duplicate message for event {eid}")
            self._by_eid[eid] = len(self._msgs)
            self._msgs.append(msg)

    def __len__(self) -> int:
        return len(self._msgs)

    def __iter__(self) -> Iterator[Message]:
        return iter(self._msgs)

    @property
    def n_threads(self) -> int:
        return self._n

    @property
    def messages(self) -> Sequence[Message]:
        return tuple(self._msgs)

    def message(self, eid: tuple[int, int]) -> Message:
        return self._msgs[self._by_eid[eid]]

    def __contains__(self, eid: tuple[int, int]) -> bool:
        return eid in self._by_eid

    # -- point queries (Theorem 3, scalar kernel) --------------------------------

    def precedes(self, a: Message | tuple[int, int], b: Message | tuple[int, int]) -> bool:
        """``a ⊳ b`` via the Theorem 3 test ``V[i] <= V'[i]``."""
        ma = a if isinstance(a, Message) else self.message(a)
        mb = b if isinstance(b, Message) else self.message(b)
        return ma.causally_precedes(mb)

    def concurrent(self, a: Message | tuple[int, int], b: Message | tuple[int, int]) -> bool:
        ma = a if isinstance(a, Message) else self.message(a)
        mb = b if isinstance(b, Message) else self.message(b)
        return ma.concurrent_with(mb)

    def predecessors(self, b: Message | tuple[int, int]) -> list[Message]:
        mb = b if isinstance(b, Message) else self.message(b)
        return [m for m in self._msgs if m.causally_precedes(mb)]

    def successors(self, a: Message | tuple[int, int]) -> list[Message]:
        ma = a if isinstance(a, Message) else self.message(a)
        return [m for m in self._msgs if ma.causally_precedes(m)]

    # -- bulk queries (numpy kernel) ----------------------------------------------

    def relation_matrix(self) -> np.ndarray:
        """Strict-precedence boolean matrix ``P[a, b] = (msgs[a] ⊳ msgs[b])``.

        Theorem 3's third characterization, ``e ⊳ e' iff V < V'``, vectorizes
        as ``leq & ~eq`` over the arena.
        """
        arena = self._arena
        if len(arena) < len(self._msgs):
            arena.extend([m.clock for m in self._msgs[len(arena):]])
        le = arena.pairwise_leq()
        m = len(self._msgs)
        eq = le & le.T
        np.fill_diagonal(eq, True)
        return le & ~eq

    def concurrency_matrix(self) -> np.ndarray:
        """``C[a, b] = msgs[a] || msgs[b]`` (irreflexive)."""
        p = self.relation_matrix()
        c = ~p & ~p.T
        np.fill_diagonal(c, False)
        return c

    def count_concurrent_pairs(self) -> int:
        return int(self.concurrency_matrix().sum()) // 2

    # -- structure ------------------------------------------------------------------

    def covering_edges(self) -> list[tuple[Message, Message]]:
        """The Hasse diagram of ``⊳`` (see :func:`hasse_reduction`)."""
        p = self.relation_matrix()
        keep = hasse_reduction(p)
        out = []
        rows, cols = np.nonzero(keep)
        for a, b in zip(rows.tolist(), cols.tolist()):
            out.append((self._msgs[a], self._msgs[b]))
        return out

    def per_thread_chains(self) -> dict[int, list[Message]]:
        """Messages grouped by thread, ordered by seq (program order)."""
        chains: dict[int, list[Message]] = {i: [] for i in range(self._n)}
        for m in self._msgs:
            chains.setdefault(m.thread, []).append(m)
        for c in chains.values():
            c.sort(key=lambda m: m.event.seq)
        return chains

    def linearize(self) -> list[Message]:
        """One consistent run: messages sorted topologically w.r.t. ``⊳``.

        Sorting by clock sum (lattice level) then thread is a valid linear
        extension: if ``a ⊳ b`` then ``V_a < V_b`` so ``sum(V_a) < sum(V_b)``.
        """
        return sorted(self._msgs, key=lambda m: (m.clock.sum(), m.thread, m.event.seq))

    def minimal_messages(self) -> list[Message]:
        """Messages with no predecessor (lattice level-1 candidates)."""
        p = self.relation_matrix()
        has_pred = p.any(axis=0)
        return [m for m, hp in zip(self._msgs, has_pred.tolist()) if not hp]


def hasse_reduction(precedes: np.ndarray) -> np.ndarray:
    """Transitive reduction of a strict-order boolean matrix.

    An edge ``a -> b`` is *covering* iff ``a ≺ b`` and there is no ``c`` with
    ``a ≺ c ≺ b``.  Computed as one boolean matrix product (numpy ``@`` on
    bools goes through int; ``(P @ P) > 0`` keeps it vectorized).
    """
    if precedes.shape[0] != precedes.shape[1]:
        raise ValueError("precedence matrix must be square")
    if precedes.size == 0:
        return precedes.copy()
    through = (precedes.astype(np.uint8) @ precedes.astype(np.uint8)) > 0
    return precedes & ~through


def is_linear_extension(order: Sequence[Message]) -> bool:
    """Does this delivery order respect ``⊳``?  O(m²) scalar Theorem-3 tests."""
    for i, later in enumerate(order):
        for earlier in order[:i]:
            if later.causally_precedes(earlier):
                return False
    return True
