"""Wire protocol of the multi-session analysis server.

Everything rides the reliable transport's newline-delimited JSON framing
(:mod:`repro.observer.reliable`): the data frames (``msgs``/``ack``/
``hb``/``fin``/``finack``) are defined there, and this module adds the
*session* frames exchanged around them.  A ``msgs`` frame carries a batch of
consecutive messages under one CRC, and the server acks each accepted
one once, with the seq of its last message; since TCP and the frame
decoder are both in order, an ack for ``seq`` is a watermark — every
message up to ``seq`` has arrived:

============  =========  ====================================================
frame         direction  meaning
============  =========  ====================================================
``hello``     C → S      first line on every connection: protocol version,
                         mode (``attach``, ``resume`` or ``status``) and,
                         for attaches, the session parameters (program
                         name, thread count, initial shared store, optional
                         spec); a resume instead names the session id, its
                         resume token and the client's last known epoch
``helloack``  S → C      attach admitted; carries the assigned session id,
                         the session *epoch* (incremented on every
                         (re)attach) and the *resume token* the client must
                         present to reclaim the session after a drop.  On a
                         resume it additionally carries ``delivered`` — the
                         server's delivered count, i.e. the sequence number
                         the client must resend from
``reject``    S → C      attach refused (capacity, shutdown, bad hello,
                         unknown session / bad token on resume); carries a
                         human-readable ``reason`` plus a structured
                         ``why`` category (``capacity``, ``draining``,
                         ``strict-spec``, ``bad-hello``, ``resume``,
                         ``setup``) that the fleet router uses to decide
                         between spilling to another shard and forwarding
                         the refusal — overload is an explicit answer,
                         never a hang
``err``       S → C      mid-stream failure (queue overload, analysis
                         error, worker crash loop); the client's reliable
                         sender surfaces the reason as a
                         :class:`ReliableTransportError`
``ckpt``      S → C      durability checkpoint: ``n`` events of this
                         session are journaled to disk; the client may
                         prune its resume buffer below ``n`` (the server
                         will never ask for them again, even after a daemon
                         restart)
``result``    S → C      the session's final verdicts (including the final
                         per-thread vector clocks), sent after the server
                         finishes the session's analysis and *before* the
                         ``finack`` that completes the close handshake
``status``    S → C      reply to a ``hello`` in status mode: one JSON line
                         with server health and every session record
============  =========  ====================================================

The handshake is deliberately synchronous — one request line, one reply
line — so the client can complete it before handing the socket to
:class:`~repro.observer.reliable.ReliableSender`, whose ack-reader thread
then owns the receive direction.

Every served-path TCP socket — the client's, the daemon's accepted ones
and both legs of the fleet router — sets ``TCP_NODELAY``
(:func:`set_nodelay`).  Each frame is one whole ``sendall``; left on,
Nagle's algorithm holds a small frame (``fin``, ``result``, ``finack``)
written behind an unacknowledged one until the peer's delayed ACK fires,
40 ms or more on Linux, which would floor every session's close latency.

Resume semantics: the session *epoch* counts connections (1 on first
attach, +1 per successful resume), so a stale reader thread or a stale
client can always be told apart from the current one; the *token* is a
random capability string minted at admission — presenting it is what
authorizes a reconnecting client to reclaim the session.  The resume is
the only resend: the client replays its buffer from the server's
``delivered`` count, and replayed messages below that count are dropped
as duplicates by the frame decoder (their frame still acked), which makes
the replay idempotent.
"""

from __future__ import annotations

import json
import socket
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "Hello",
    "encode_frame",
    "read_frame_line",
    "set_nodelay",
]

#: Bumped on incompatible changes to the session or data frames; a server
#: rejects hellos from a different major version with an explicit reason.
#: Version 2 replaced the per-message ``msg`` frame with the batch ``msgs``.
PROTOCOL_VERSION = 2

#: Upper bound on one handshake line — a hello carries a program name and
#: an initial store, not a trace, so anything larger is a framing error.
MAX_FRAME_BYTES = 1 << 20

#: How far one ``MSG_PEEK`` looks for the handshake line's newline; a
#: hello or helloack is a few hundred bytes, so one peek nearly always
#: finds it.
_PEEK_BYTES = 4096


class ProtocolError(ValueError):
    """A frame violates the session protocol (bad JSON, wrong shape,
    incompatible version)."""


def encode_frame(obj: dict) -> bytes:
    """One wire line: compact JSON + newline."""
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode("utf-8")


def set_nodelay(sock: socket.socket) -> None:
    """Turn Nagle's algorithm off on one served-path TCP socket.

    A socket that cannot take the option (its peer already gone) is left
    as it is: it fails on its first read, where the caller handles it.
    """
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:
        pass


def read_frame_line(sock: socket.socket,
                    max_bytes: int = MAX_FRAME_BYTES) -> dict:
    """Read exactly one newline-terminated JSON frame from ``sock``.

    Nothing past the newline is consumed: the handshake is one line each
    way, and the reliable stream behind it belongs to another reader (a
    buffered reader would steal its first data frames).  Each round peeks
    at what has arrived and then takes exactly up to the newline, or the
    whole peeked chunk when it holds none — two ``recv`` calls per
    segment, not one per byte.
    """
    buf = bytearray()
    while True:
        peek = sock.recv(min(_PEEK_BYTES, max_bytes + 1 - len(buf)),
                         socket.MSG_PEEK)
        if not peek:
            raise ProtocolError(
                "connection closed mid-handshake "
                f"(after {len(buf)} bytes, no newline)")
        end = peek.find(b"\n") + 1   # 0: no newline in this chunk
        want = end or len(peek)
        while want:   # the peeked bytes are queued: these never block
            chunk = sock.recv(want)
            if not chunk:
                raise ProtocolError("connection closed mid-handshake")
            buf += chunk
            want -= len(chunk)
        if end:
            del buf[-1]
            break
        if len(buf) > max_bytes:
            raise ProtocolError(f"handshake line exceeds {max_bytes} bytes")
    try:
        d = json.loads(buf.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"handshake line is not valid JSON: {exc}") from exc
    if not isinstance(d, dict):
        raise ProtocolError(f"handshake frame must be an object, got {d!r}")
    return d


@dataclass(frozen=True)
class Hello:
    """The client's opening frame, parsed and validated.

    ``mode="attach"`` opens an analysis session; ``mode="status"`` asks for
    one status line and closes.  ``initial`` must cover every variable the
    spec mentions (checked server-side when the session's observer is
    built, so a bad spec is a *reject with reason*, not a reader-thread
    crash).
    """

    mode: str
    program: str = "unknown"
    n_threads: int = 0
    initial: dict[str, Any] = field(default_factory=dict)
    spec: Optional[str] = None
    fault_tolerant: bool = False
    #: Engine selection strings (see :mod:`repro.engines`); empty means
    #: the server's default pipeline (a single LTL engine under ``spec``).
    engines: tuple[str, ...] = ()
    version: int = PROTOCOL_VERSION
    #: Resume-mode fields: the session being reclaimed, its capability
    #: token, and the epoch the client last saw (staleness check).
    session: int = 0
    token: str = ""
    epoch: int = 0

    MODES = ("attach", "resume", "status")

    def __post_init__(self) -> None:
        if self.mode not in self.MODES:
            raise ProtocolError(
                f"unknown hello mode {self.mode!r} (expected one of "
                f"{list(self.MODES)})")
        if self.mode == "attach" and self.n_threads < 1:
            raise ProtocolError(
                f"attach hello needs n_threads >= 1, got {self.n_threads}")
        if self.mode == "resume":
            if self.session < 1:
                raise ProtocolError(
                    f"resume hello needs a session id >= 1, "
                    f"got {self.session}")
            if not self.token:
                raise ProtocolError("resume hello needs a resume token")
            if self.epoch < 1:
                raise ProtocolError(
                    f"resume hello needs an epoch >= 1, got {self.epoch}")

    def to_frame(self) -> dict:
        d = {"t": "hello", "v": self.version, "mode": self.mode}
        if self.mode == "attach":
            d.update(program=self.program, n_threads=self.n_threads,
                     initial=dict(self.initial), spec=self.spec,
                     fault_tolerant=self.fault_tolerant)
            if self.engines:
                d["engines"] = list(self.engines)
        elif self.mode == "resume":
            d.update(session=self.session, token=self.token,
                     epoch=self.epoch)
        return d

    @classmethod
    def from_frame(cls, d: dict) -> "Hello":
        if d.get("t") != "hello":
            raise ProtocolError(
                f"expected a hello frame, got t={d.get('t')!r}")
        version = d.get("v")
        if version != PROTOCOL_VERSION:
            raise ProtocolError(
                f"protocol version {version!r} not supported "
                f"(this server speaks version {PROTOCOL_VERSION})")
        mode = d.get("mode")
        if not isinstance(mode, str):
            raise ProtocolError("hello lacks a string 'mode' field")
        if mode == "status":
            return cls(mode="status", version=version)
        if mode == "resume":
            session = d.get("session")
            if not isinstance(session, int):
                raise ProtocolError("resume hello needs an integer session")
            token = d.get("token")
            if not isinstance(token, str):
                raise ProtocolError("resume hello needs a string token")
            epoch = d.get("epoch")
            if not isinstance(epoch, int):
                raise ProtocolError("resume hello needs an integer epoch")
            return cls(mode="resume", session=session, token=token,
                       epoch=epoch, version=version)
        n_threads = d.get("n_threads")
        if not isinstance(n_threads, int):
            raise ProtocolError("attach hello needs an integer n_threads")
        initial = d.get("initial")
        if not isinstance(initial, dict):
            raise ProtocolError("attach hello needs an 'initial' object")
        spec = d.get("spec")
        if spec is not None and not isinstance(spec, str):
            raise ProtocolError("hello 'spec' must be a string or null")
        program = d.get("program", "unknown")
        if not isinstance(program, str):
            raise ProtocolError("hello 'program' must be a string")
        engines = d.get("engines", [])
        if not (isinstance(engines, list)
                and all(isinstance(e, str) and e for e in engines)):
            raise ProtocolError(
                "hello 'engines' must be a list of non-empty strings")
        return cls(
            mode=mode,
            program=program,
            n_threads=n_threads,
            initial=initial,
            spec=spec,
            fault_tolerant=bool(d.get("fault_tolerant", False)),
            engines=tuple(engines),
            version=version,
        )
