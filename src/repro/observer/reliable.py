"""Reliable transport: sequenced, acked, CRC-checked frames over TCP.

This is the one wire a message stream takes out of the instrumented
process: :class:`ReliableSender` on the program's side, and on the
observer's side the analysis server (:mod:`repro.server`), which runs one
:class:`FrameDecoder` per client connection.  On top of TCP it adds:

* every payload rides a sequence-numbered, CRC-checked frame;
* the receiver acks each frame it accepts; duplicates (frames a resumed
  connection replays) are re-acked and dropped;
* acks are watermarks: TCP and the decoder are both in order, so an ack
  for ``seq`` means every frame up to ``seq`` has arrived, and the
  in-flight window is the count ``next_seq - acked``;
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
fails its CRC, carries a payload that does not decode, or skips ahead of
the next expected ``seq`` therefore breaks the connection
(:class:`FrameDecoder` raises), and an EOF before the ``finack`` fails
the sender.  Recovering from a lost connection is the caller's job: the
analysis server's client keeps a resume buffer and replays it on a new
connection (:mod:`repro.server.client`).

Wire format: newline-delimited JSON frames over TCP ::

    {"t": "msg", "seq": 3, "crc": 123, "payload": "<Message.to_json()>"}
    {"t": "ack", "seq": 3}
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
_C_RETRANS = _metrics.REGISTRY.counter(
    "reliable.retransmissions", unit="frames",
    help="frames re-sent by a resume on a new connection")
_C_HEARTBEATS = _metrics.REGISTRY.counter(
    "reliable.heartbeats", unit="frames",
    help="idle heartbeats sent")
_C_ACKS = _metrics.REGISTRY.counter(
    "reliable.acks", unit="frames",
    help="acks received by the sender")
_G_INFLIGHT = _metrics.REGISTRY.gauge(
    "reliable.window_inflight", unit="frames",
    help="unacked frames in flight (max = window pressure)")
_C_RECV_MSGS = _metrics.REGISTRY.counter(
    "reliable.recv_messages", unit="messages",
    help="messages delivered in order by the reliable receiver")
_C_RECV_DUPS = _metrics.REGISTRY.counter(
    "reliable.recv_duplicates", unit="frames",
    help="duplicate frames re-acked and dropped by the receiver")
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
        window: maximum unacked frames in flight.  When full,
            :meth:`ReliableSender.send` *blocks* — backpressure, so a slow
            receiver bounds the sender's buffer instead of growing it.
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
    that is not a valid frame, fails its CRC, carries a payload that is
    not a :class:`Message`, or skips ahead of the next expected ``seq``
    means the connection itself is broken:
    :meth:`feed_line` raises :class:`ReliableTransportError` and the
    caller drops the connection.

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
            so replayed frames below it are re-acked as duplicates instead
            of being delivered twice.
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
        if kind == "msg":
            self._on_msg_frame(d)
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

    def _on_msg_frame(self, d: dict) -> None:
        seq, payload = d.get("seq"), d.get("payload")
        if not isinstance(seq, int) or not isinstance(payload, str):
            raise self._corrupt("msg without an int seq and a str payload")
        if zlib.crc32(payload.encode("utf-8")) != d.get("crc"):
            raise self._corrupt(f"seq {seq} failed its CRC")
        if seq > self._next_deliver:
            raise ReliableTransportError(
                f"frame seq {seq} skips ahead of seq {self._next_deliver}")
        if seq < self._next_deliver:
            self.duplicates += 1
            if _metrics.ENABLED:
                _C_RECV_DUPS.inc()
        else:
            try:
                msg = Message.from_json(payload)
            except Exception as exc:  # noqa: BLE001 - any decode failure
                raise self._corrupt(
                    f"seq {seq} payload is not a message: {exc!r}") from exc
            if not payload.isascii() or "\n" in payload or "\r" in payload:
                # stored as one line of a trace segment: any other layout
                # of the same JSON is replaced by the canonical encoding
                payload = msg.to_json()
            if _metrics.ENABLED:
                _C_RECV_MSGS.inc()
            if self._on_message is not None:
                self._on_message(msg, payload)
            self._next_deliver += 1
        self._send(_frame({"t": "ack", "seq": seq}))


class ReliableSender:
    """The instrumented-program side: send messages, learn they arrived.

    ``send`` is single-caller: frames must reach the socket in ``seq``
    order, as Algorithm A's sink produces them.

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
        first_seq: sequence number of the first frame this sender emits.
            A resuming client sets it to the server's delivered count so
            replayed messages keep their original sequence numbers (and
            :meth:`close`'s fin count stays the absolute stream total).
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
        self._sock_lock = threading.Lock()
        self._window = self.config.window

        self._cond = threading.Condition()
        self._next_seq = first_seq
        #: ack watermark: every seq below it has reached the receiver
        self._acked = first_seq
        self._failed: Optional[str] = None
        self._fin_acked = False
        self._closing = False
        #: set once the sender is finished or failed; stops the heartbeats
        self._done = threading.Event()
        self._last_activity = time.monotonic()
        #: frames re-sent by :meth:`resend` (a resume's replay)
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
                        continue
                    kind = d.get("t") if isinstance(d, dict) else None
                    if kind == "ack":
                        seq = d.get("seq")
                        with self._cond:
                            if isinstance(seq, int) and seq >= self._acked:
                                self._acked = seq + 1
                                self._cond.notify_all()
                            if _metrics.ENABLED:
                                _C_ACKS.inc()
                                _G_INFLIGHT.set(self._next_seq - self._acked)
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
            seq = self._next_seq
            self._next_seq += 1
            self._last_activity = time.monotonic()
            if _metrics.ENABLED:
                _C_FRAMES.inc()
                _G_INFLIGHT.set(self._next_seq - self._acked)
        self._transmit(_frame({
            "t": "msg", "seq": seq,
            "crc": zlib.crc32(payload.encode("utf-8")),
            "payload": payload,
        }))
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
        """Send the fin, wait up to ``timeout`` for the finack, and close
        the socket.

        TCP delivers in order, so the finack means the receiver took every
        frame before the fin.  Raises :class:`ReliableTransportError` if
        the contract could not be met — the caller *knows* whether
        everything arrived.  The socket is closed either way.
        """
        with self._cond:
            self._closing = True
            count = self._next_seq
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

