"""In-process delivery orders between the instrumented program and the
observer.

JMPaX sends messages "via a socket to an external observer" (§4.1), and the
paper stresses that analyzing *computations* (not flat traces) lets the
observer "properly deal with potential reordering of delivered messages
(e.g., due to using multiple channels to reduce the monitoring overhead)"
(§2.2).  These channel classes simulate those delivery conditions in one
process so tests and benchmarks can exercise the reordering-tolerance code
path (E7):

* :class:`FifoChannel` — in-order delivery (the trivial baseline);
* :class:`ReorderingChannel` — adversarial bounded reordering with a seeded
  RNG: each delivery picks a random message among the ``window`` oldest
  undelivered ones;
* :class:`MultiChannel` — messages sharded over ``k`` FIFO sub-channels
  (e.g. by thread) and merged nondeterministically at the receiver.

Channels are synchronous pull-based queues: producers :meth:`put`, the
consumer :meth:`drain`s what is currently deliverable.  A stream that
leaves the process takes the one real wire instead: a
:class:`~repro.observer.reliable.ReliableSender` attached to an analysis
server (:func:`repro.server.attach`).
"""

from __future__ import annotations

import random
from collections import deque
from typing import Iterable, Iterator, Optional

from ..core.events import Message

__all__ = [
    "Channel",
    "FifoChannel",
    "ReorderingChannel",
    "MultiChannel",
    "deliver_all",
]


class Channel:
    """Base class: an order-scrambling buffer between producer and consumer."""

    def put(self, msg: Message) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """No more messages will be put; everything buffered becomes
        deliverable."""
        raise NotImplementedError

    def drain(self) -> Iterator[Message]:
        """Yield currently-deliverable messages (order is channel policy)."""
        raise NotImplementedError


class FifoChannel(Channel):
    """Exact emission-order delivery."""

    def __init__(self) -> None:
        self._queue: deque[Message] = deque()
        self._closed = False

    def put(self, msg: Message) -> None:
        if self._closed:
            raise RuntimeError("channel closed")
        self._queue.append(msg)

    def close(self) -> None:
        self._closed = True

    def drain(self) -> Iterator[Message]:
        while self._queue:
            yield self._queue.popleft()


class ReorderingChannel(Channel):
    """Adversarial bounded reordering.

    A message becomes deliverable once buffered; each delivery draws
    uniformly among the ``window`` oldest undelivered messages, so a message
    can be overtaken by at most ``window - 1`` later ones — a standard model
    of a network that reorders within a bounded horizon.  ``window=None``
    means unbounded: delivery order is a uniformly random permutation.
    """

    def __init__(self, seed: int = 0, window: Optional[int] = 4):
        if window is not None and window < 1:
            raise ValueError("window must be >= 1 (or None for unbounded)")
        self._rng = random.Random(seed)
        self._window = window
        self._buffer: list[Message] = []
        self._closed = False

    def put(self, msg: Message) -> None:
        if self._closed:
            raise RuntimeError("channel closed")
        self._buffer.append(msg)

    def close(self) -> None:
        self._closed = True

    def drain(self) -> Iterator[Message]:
        # Hold messages back while the channel is open so reordering has
        # material to work with; deliver everything once closed.
        while self._buffer and (self._closed or len(self._buffer) > 1):
            horizon = len(self._buffer) if self._window is None else min(
                self._window, len(self._buffer)
            )
            k = self._rng.randrange(horizon)
            yield self._buffer.pop(k)


class MultiChannel(Channel):
    """Messages sharded across ``k`` FIFO sub-channels and merged at the
    receiver by (seeded) nondeterministic interleaving.

    Per-channel order is preserved (FIFO sockets) but cross-channel order is
    arbitrary — exactly the deployment the paper motivates with "multiple
    channels to reduce the monitoring overhead".  The default routing sends
    each thread's messages down ``thread mod k``.
    """

    def __init__(self, k: int = 2, seed: int = 0, route_by_thread: bool = True):
        if k < 1:
            raise ValueError("need at least one sub-channel")
        self._queues: list[deque[Message]] = [deque() for _ in range(k)]
        self._rng = random.Random(seed)
        self._route_by_thread = route_by_thread
        self._rr = 0
        self._closed = False

    def put(self, msg: Message) -> None:
        if self._closed:
            raise RuntimeError("channel closed")
        if self._route_by_thread:
            q = msg.thread % len(self._queues)
        else:
            q = self._rr
            self._rr = (self._rr + 1) % len(self._queues)
        self._queues[q].append(msg)

    def close(self) -> None:
        self._closed = True

    def drain(self) -> Iterator[Message]:
        while True:
            nonempty = [q for q in self._queues if q]
            if not nonempty:
                return
            q = self._rng.choice(nonempty)
            yield q.popleft()


def deliver_all(channel: Channel, messages: Iterable[Message]) -> list[Message]:
    """Convenience: push everything through a channel and collect the
    delivery order."""
    out: list[Message] = []
    for m in messages:
        channel.put(m)
        out.extend(channel.drain())
    channel.close()
    out.extend(channel.drain())
    return out

