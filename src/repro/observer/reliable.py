"""Reliable transport: sequenced, acked, CRC-checked frames over TCP.

This is the one wire a message stream takes out of the instrumented
process: :class:`ReliableSender` on the program's side, and on the
observer's side the analysis server (:mod:`repro.server`), which runs one
:class:`FrameDecoder` per client connection.  On top of TCP it adds:

* messages ride sequence-numbered, CRC-checked *batch* frames: one frame
  carries a burst of consecutive messages, one per payload line, and the
  CRC covers the whole payload;
* the receiver acks each frame it accepts once, with the seq of its last
  message; messages below the receiver's delivered count (a resumed
  connection's replay) are dropped as duplicates and the frame re-acked;
* acks are watermarks: TCP and the decoder are both in order, so an ack
  for ``seq`` means every message up to ``seq`` has arrived, and the
  in-flight window is the count ``next_seq - acked``;
* batching needs no timer: a message goes out at once when no data frame
  is unacked, and otherwise joins a pending batch that leaves as soon as
  the next ack arrives (or ahead of the fin).  Each batch is therefore
  whatever piled up during one round trip, at most ``window`` messages;
* the window is bounded: :meth:`ReliableSender.send` blocks (backpressure)
  when it is full, so a slow receiver bounds the sender's buffer, and a
  receiver that stops acking for :data:`SEND_WAIT_TIMEOUT` seconds fails
  the sender;
* heartbeats flow while the sender is idle, so a receiver with a read
  timeout (the server's ``io_timeout``) tells "quiet" from "crashed";
* the stream ends with a ``fin`` frame carrying the total count, which
  the receiver uses to verify zero loss end-to-end.

There is no retransmission timer: a live TCP connection never loses a
frame, so a frame can only go missing with its connection.  A frame that
fails its CRC, carries a line that does not decode, or skips ahead of
the next expected ``seq`` therefore breaks the connection
(:class:`FrameDecoder` raises, and delivers none of that frame's
messages); on the other side, a reverse line that is not a JSON object
or an ack for a seq never sent fails the sender, and so does an EOF
before the ``finack``.  Recovering from a lost connection is the
caller's job: the analysis server's client keeps a resume buffer and
replays it on a new connection (:mod:`repro.server.client`).

Wire format: newline-delimited JSON frames over TCP ::

    {"t": "msgs", "seq": 3, "crc": 123,
     "payload": "<Message.to_json() of seq 3>\n<... of seq 4>\n<... of seq 5>"}
    {"t": "ack", "seq": 5}
    {"t": "hb"}
    {"t": "fin", "count": 17}
    {"t": "finack"}

Delivery to the application is in send order, exactly once, or a
:class:`ReliableTransportError` is raised — loss is never silent.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from ..core.events import Message
from ..obs import metrics as _metrics

__all__ = ["RetransmitConfig", "ReliableSender", "FrameDecoder",
           "ReliableTransportError", "SEND_WAIT_TIMEOUT"]

_C_FRAMES = _metrics.REGISTRY.counter(
    "reliable.frames_sent", unit="frames",
    help="data frames first-sent by the reliable sender")
_H_FRAME_MSGS = _metrics.REGISTRY.histogram(
    "reliable.frame_messages", unit="messages",
    help="messages per data frame, observed by the sender")
_C_RETRANS = _metrics.REGISTRY.counter(
    "reliable.retransmissions", unit="messages",
    help="messages re-sent by a resume on a new connection")
_C_HEARTBEATS = _metrics.REGISTRY.counter(
    "reliable.heartbeats", unit="frames",
    help="idle heartbeats sent")
_C_ACKS = _metrics.REGISTRY.counter(
    "reliable.acks", unit="frames",
    help="acks received by the sender")
_G_INFLIGHT = _metrics.REGISTRY.gauge(
    "reliable.window_inflight", unit="messages",
    help="unacked messages, sent or pending (max = window pressure)")
_C_RECV_MSGS = _metrics.REGISTRY.counter(
    "reliable.recv_messages", unit="messages",
    help="messages delivered in order by the reliable receiver")
_C_RECV_DUPS = _metrics.REGISTRY.counter(
    "reliable.recv_duplicates", unit="messages",
    help="duplicate messages (below the delivered count) dropped by the "
         "receiver")
_C_RECV_CORRUPT = _metrics.REGISTRY.counter(
    "reliable.recv_corrupt_frames", unit="frames",
    help="frames the receiver rejected (bad JSON, shape, CRC or payload)")

#: Longest :meth:`ReliableSender.send` waits for window space before it
#: declares the receiver stuck.  It must cover the analysis server's
#: ``overload_timeout`` (2 s by default): a server whose session queue
#: stays full answers with an ``err`` frame after that long, and the
#: client should fail with that reason, not with its own.
SEND_WAIT_TIMEOUT = 60.0

#: How long a failed socket write waits for the ack reader to finish.  A
#: peer that drops the connection on purpose sends an ``err`` frame first,
#: and that reason, not the local broken pipe, is the one to raise.
_ERR_GRACE = 1.0


class ReliableTransportError(RuntimeError):
    """Raised when the reliability contract cannot be met (receiver gone
    or stuck, a corrupt or out-of-order frame, or a stream closed
    incomplete)."""


def _frame(obj: dict) -> bytes:
    return (json.dumps(obj) + "\n").encode("utf-8")


@dataclass(frozen=True)
class RetransmitConfig:
    """Flow-control knobs for :class:`ReliableSender`.

    Attributes:
        window: maximum unacked messages, sent or pending.  When full,
            :meth:`ReliableSender.send` *blocks* — backpressure, so a slow
            receiver bounds the sender's buffer instead of growing it.  A
            data frame therefore never carries more than ``window``
            messages.
        heartbeat_interval: idle period (seconds) after which a heartbeat
            frame is sent; ``None`` disables heartbeats.
    """

    window: int = 64
    heartbeat_interval: Optional[float] = 0.5

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if (self.heartbeat_interval is not None
                and self.heartbeat_interval <= 0):
            raise ValueError("heartbeat_interval must be positive or None")


class FrameDecoder:
    """Receive-side frame state machine for **one** peer connection.

    Owns exactly the transport concerns — CRC check, ack emission and
    duplicate suppression — and leaves policy to the caller: every
    :class:`Message` is handed to ``on_message`` in send order, and
    control frames the decoder does not consume (``fin``, handshake
    frames, anything unknown) are *returned* from :meth:`feed_line` so the
    caller decides how to answer them.  The analysis server
    (:mod:`repro.server`) runs one decoder per client connection.

    The connection is TCP, so frames arrive intact and in order.  A line
    that is not a valid frame, fails its CRC, carries a payload line that
    is not a :class:`Message`, or skips ahead of the next expected ``seq``
    means the connection itself is broken: :meth:`feed_line` raises
    :class:`ReliableTransportError`, delivers none of that frame's
    messages, and the caller drops the connection.

    Args:
        send: callable taking raw frame ``bytes`` — used to emit acks back
            to this peer.
        on_message: called as ``on_message(msg, payload)`` with each
            :class:`Message` in seq order and ``payload``, the CRC-checked
            ``Message.to_json`` text it was decoded from (always one ASCII
            line), so a caller that stores the stream need not encode it
            again.  Exceptions propagate to the caller of
            :meth:`feed_line` (the server uses this to abort a session on
            overload without acking the frame that overflowed it).
        start_seq: first sequence number this decoder will deliver.  A
            resumed session hands the peer's already-delivered count here,
            so replayed messages below it are dropped as duplicates (and
            their frame re-acked) instead of being delivered twice.
    """

    def __init__(self, send: Callable[[bytes], None],
                 on_message: Optional[Callable[[Message, str], None]] = None,
                 start_seq: int = 0):
        if start_seq < 0:
            raise ValueError("start_seq must be >= 0")
        self._send = send
        self._on_message = on_message
        self._next_deliver = start_seq
        self.expected_total: Optional[int] = None
        self.duplicates = 0
        self.corrupt_frames = 0

    @property
    def delivered(self) -> int:
        """Messages handed to ``on_message`` so far (== next seq wanted)."""
        return self._next_deliver

    @property
    def complete(self) -> bool:
        """A fin has been seen and every seq before its count delivered."""
        return (self.expected_total is not None
                and self._next_deliver >= self.expected_total)

    def feed_line(self, line: str) -> Optional[dict]:
        """Consume one wire line.  Data/heartbeat frames are fully handled
        here (returns ``None``); any other parsed frame is returned for the
        caller to act on.  A ``fin`` frame records its count before being
        returned.  Raises :class:`ReliableTransportError` for a corrupt or
        out-of-order frame.
        """
        line = line.strip()
        if not line:
            return None
        try:
            d = json.loads(line)
        except ValueError:
            d = None
        if not isinstance(d, dict):
            raise self._corrupt("not a JSON object")
        kind = d.get("t")
        if kind == "msgs":
            self._on_batch(d)
            return None
        if kind == "hb":
            return None
        if kind == "fin":
            self.expected_total = d.get("count")
        return d

    def _corrupt(self, what: str) -> ReliableTransportError:
        """Count a corrupt frame; the caller raises the returned error."""
        self.corrupt_frames += 1
        if _metrics.ENABLED:
            _C_RECV_CORRUPT.inc()
        return ReliableTransportError(f"corrupt frame: {what}")

    def _on_batch(self, d: dict) -> None:
        seq, payload = d.get("seq"), d.get("payload")
        if not isinstance(seq, int) or not isinstance(payload, str):
            raise self._corrupt("msgs without an int seq and a str payload")
        if zlib.crc32(payload.encode("utf-8")) != d.get("crc"):
            raise self._corrupt(f"seq {seq} failed its CRC")
        if seq > self._next_deliver:
            raise ReliableTransportError(
                f"frame seq {seq} skips ahead of seq {self._next_deliver}")
        lines = payload.split("\n")
        # a replay that straddles the delivered count: only its suffix is new
        dups = min(self._next_deliver - seq, len(lines))
        fresh = []
        for i in range(dups, len(lines)):
            text = lines[i]
            try:
                msg = Message.from_json(text)
            except Exception as exc:  # noqa: BLE001 - any decode failure
                raise self._corrupt(
                    f"seq {seq + i} payload is not a message: {exc!r}"
                ) from exc
            if not text.isascii() or "\r" in text:
                # stored as one line of a trace segment: any other layout
                # of the same JSON is replaced by the canonical encoding
                text = msg.to_json()
            fresh.append((msg, text))
        if dups:
            self.duplicates += dups
            if _metrics.ENABLED:
                _C_RECV_DUPS.inc(dups)
        if _metrics.ENABLED and fresh:
            _C_RECV_MSGS.inc(len(fresh))
        on_message = self._on_message
        for msg, text in fresh:
            if on_message is not None:
                on_message(msg, text)
            self._next_deliver += 1
        self._send(_frame({"t": "ack", "seq": seq + len(lines) - 1}))


class ReliableSender:
    """The instrumented-program side: send messages, learn they arrived.

    ``send`` is single-caller: messages take their ``seq`` in call order,
    as Algorithm A's sink produces them.  A message goes out at once when
    no data frame is unacked; otherwise it joins a pending batch, which
    the ack reader sends when the next ack arrives and :meth:`close` sends
    ahead of the fin.  Whichever thread flushes holds the socket lock from
    taking the batch to writing it, so frames leave in seq order.

    Args:
        sock: the connected socket to the receiver.  The client
            (:func:`repro.server.attach`) dials and performs its handshake
            synchronously, then hands the socket over.
        config: flow-control knobs (:class:`RetransmitConfig`; the
            defaults when omitted), readable back as :attr:`config`.
        on_frame: callback for reverse-direction frames the sender does
            not consume itself (acks and finacks are handled internally;
            an ``err`` frame fails the transport with the peer's reason).
            The server uses this channel to push ``ckpt`` frames and the
            session's final ``result`` frame back to the client.
        first_seq: sequence number of the first message this sender
            emits.  A resuming client sets it to the server's delivered
            count so replayed messages keep their original sequence
            numbers (and :meth:`close`'s fin count stays the absolute
            stream total).
    """

    def __init__(
        self,
        sock: socket.socket,
        config: Optional[RetransmitConfig] = None,
        on_frame: Optional[Callable[[dict], None]] = None,
        first_seq: int = 0,
    ):
        if first_seq < 0:
            raise ValueError("first_seq must be >= 0")
        #: The effective (validated) flow-control configuration.
        self.config = config if config is not None else RetransmitConfig()
        self._on_frame = on_frame
        self._sock = sock
        #: held by a flush from taking its batch to writing it, and again
        #: inside :meth:`_transmit`, hence re-entrant
        self._sock_lock = threading.RLock()
        self._window = self.config.window

        self._cond = threading.Condition()
        self._next_seq = first_seq
        #: messages put in a data frame so far: every seq below it is on
        #: the wire, the ones from it on wait in ``_pending``
        self._sent = first_seq
        self._pending: list[str] = []
        #: ack watermark: every seq below it has reached the receiver
        self._acked = first_seq
        self._failed: Optional[str] = None
        self._fin_acked = False
        self._closing = False
        #: set once the sender is finished or failed; stops the heartbeats
        self._done = threading.Event()
        self._last_activity = time.monotonic()
        #: messages re-sent by :meth:`resend` (a resume's replay)
        self.retransmissions = 0
        self.heartbeats_sent = 0

        self._ack_thread = threading.Thread(target=self._ack_loop, daemon=True)
        self._ack_thread.start()
        self._timer_thread = threading.Thread(target=self._timer_loop,
                                              daemon=True)
        self._timer_thread.start()

    # -- plumbing -------------------------------------------------------------

    def _fail(self, reason: str, override: bool = False) -> None:
        """Record the first failure reason (or this one, with ``override``)
        and stop the heartbeats."""
        with self._cond:
            if override or self._failed is None:
                self._failed = reason
            self._cond.notify_all()
        self._done.set()

    def _ack_loop(self) -> None:
        reason = "connection closed before the finack"
        try:
            with self._sock.makefile("r", encoding="utf-8") as f:
                for line in f:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        d = json.loads(line)
                    except ValueError:
                        d = None
                    if not isinstance(d, dict):
                        reason = (f"bad frame from the receiver: {line[:80]!r}"
                                  " is not a JSON object")
                        break
                    kind = d.get("t")
                    if kind == "ack":
                        bad = self._on_ack(d.get("seq"))
                        if bad:
                            reason = bad
                            break
                    elif kind == "finack":
                        with self._cond:
                            self._fin_acked = True
                            self._cond.notify_all()
                    elif kind == "err":
                        # the peer declared the stream dead (overload,
                        # session failure): its reason beats our own
                        self._fail(f"peer error: {d.get('reason', 'unknown')}",
                                   override=True)
                    elif self._on_frame is not None:
                        self._on_frame(d)
        except OSError as exc:
            reason = f"connection lost: {exc}"
        if self._fin_acked:
            self._done.set()
        else:
            self._fail(reason)

    def _on_ack(self, seq) -> Optional[str]:
        """Advance the watermark and send the pending batch, if any; an
        ack for a seq that was never sent returns the failure reason."""
        with self._cond:
            if not isinstance(seq, int) or not 0 <= seq < self._sent:
                return (f"bad ack from the receiver: seq {seq!r}, but "
                        f"{self._sent} message(s) were sent")
            if seq >= self._acked:
                self._acked = seq + 1
                self._cond.notify_all()
            if _metrics.ENABLED:
                _C_ACKS.inc()
                _G_INFLIGHT.set(self._next_seq - self._acked)
            pending = bool(self._pending)
        if pending:
            self._flush()
        return None

    def _flush(self) -> None:
        """Send every pending message as one data frame."""
        with self._sock_lock:
            with self._cond:
                batch = self._pending
                if not batch or self._failed:
                    return
                self._pending = []
                seq = self._sent
                self._sent += len(batch)
            if _metrics.ENABLED:
                _C_FRAMES.inc()
                _H_FRAME_MSGS.observe(len(batch))
            payload = "\n".join(batch)
            self._transmit(_frame({
                "t": "msgs", "seq": seq,
                "crc": zlib.crc32(payload.encode("utf-8")),
                "payload": payload,
            }))

    def _timer_loop(self) -> None:
        """Heartbeats: one ``hb`` frame per idle ``heartbeat_interval``."""
        interval = self.config.heartbeat_interval
        if interval is None:
            return
        wait = interval
        while not self._done.wait(wait):
            idle = time.monotonic() - self._last_activity
            if idle < interval:
                wait = interval - idle
                continue
            wait = interval
            self._last_activity = time.monotonic()
            self.heartbeats_sent += 1
            if _metrics.ENABLED:
                _C_HEARTBEATS.inc()
            self._transmit(_frame({"t": "hb"}))

    def _transmit(self, frame: bytes) -> None:
        try:
            with self._sock_lock:
                self._sock.sendall(frame)
        except OSError as exc:
            if threading.current_thread() is not self._ack_thread:
                self._ack_thread.join(_ERR_GRACE)
            self._fail(f"socket send failed: {exc}")

    def _raise_if_failed(self) -> None:
        if self._failed:
            raise ReliableTransportError(self._failed)

    # -- public API -----------------------------------------------------------

    def send(self, msg: Message) -> None:
        """Send one message; blocks while the in-flight window is full, and
        raises :class:`ReliableTransportError` if it stays full for
        :data:`SEND_WAIT_TIMEOUT` seconds."""
        payload = msg.to_json()
        with self._cond:
            self._raise_if_failed()
            if self._closing:
                raise ReliableTransportError("sender already closed")
            if self._next_seq - self._acked >= self._window:
                deadline = time.monotonic() + SEND_WAIT_TIMEOUT
                while (self._next_seq - self._acked >= self._window
                       and not self._failed):
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        self._fail(f"no ack for frame seq {self._acked} "
                                   f"within {SEND_WAIT_TIMEOUT}s")
                        break
                    self._cond.wait(remaining)
                self._raise_if_failed()
            self._next_seq += 1
            self._pending.append(payload)
            self._last_activity = time.monotonic()
            # with a data frame unacked, its ack sends this message
            idle = self._sent == self._acked
            if _metrics.ENABLED:
                _G_INFLIGHT.set(self._next_seq - self._acked)
        if idle:
            self._flush()
        self._raise_if_failed()

    def resend(self, messages: Iterable[Message]) -> None:
        """Send messages an earlier connection already carried — a
        resume's replay; each one counts as a retransmission."""
        for msg in messages:
            self.send(msg)
            self.retransmissions += 1
            if _metrics.ENABLED:
                _C_RETRANS.inc()

    def close(self, timeout: float = 10.0) -> None:
        """Send the pending batch and the fin, wait up to ``timeout`` for
        the finack, and close the socket.

        TCP delivers in order, so the finack means the receiver took every
        frame before the fin.  Raises :class:`ReliableTransportError` if
        the contract could not be met — the caller *knows* whether
        everything arrived.  The socket is closed either way.
        """
        with self._cond:
            self._closing = True
            count = self._next_seq
        self._flush()
        if not self._failed:
            self._transmit(_frame({"t": "fin", "count": count}))
        with self._cond:
            # once the finack is in, the exchange has *succeeded* — the
            # peer may close its end right after it, and that EOF or a
            # raced heartbeat's send error must not fail the close
            if not self._cond.wait_for(
                    lambda: self._fin_acked or self._failed is not None,
                    timeout=timeout):
                self._fail(f"no finack within {timeout}s")
            acked = self._fin_acked
        self._done.set()
        with self._sock_lock:
            # The ack-reader's makefile keeps the underlying fd alive past
            # close(); shutdown pushes our FIN out now so the peer's
            # post-finack drain sees EOF immediately instead of timing out
            # (and, after a failure, wakes that reader too).
            try:
                self._sock.shutdown(socket.SHUT_WR if acked
                                    else socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()
        if not acked:
            raise ReliableTransportError(self._failed)

    def __enter__(self) -> "ReliableSender":
        return self

    def __exit__(self, *exc) -> None:
        if exc[0] is None:
            self.close()
        else:  # don't mask the original error with flush failures
            self._done.set()
            with self._sock_lock:
                self._sock.close()

