"""Multi-session analysis server: one daemon observing many programs.

The paper's architecture (Fig. 1) pairs each instrumented program with its
own observer process.  This package generalises that to a long-running
daemon — ``repro serve`` — that accepts many concurrent client
connections over the reliable transport, assigns each a *session* with its
own :class:`~repro.observer.observer.Observer` and its analysis engines,
and analyses all of them on a bounded worker pool.  Sessions get explicit lifecycle states,
admission control (attaches past capacity are rejected with a reason, not
stalled), backpressure (bounded per-session ingest queues that withhold
acks when full), graceful drain on shutdown, and a line-JSON status
endpoint surfaced as ``repro sessions``.

Client side: :func:`attach` opens a session and returns an
:class:`AttachedSession` whose ``send`` slots in as Algorithm A's message
sink; ``close`` completes the stream and returns the server's
:class:`SessionVerdict`.

Crash resilience (opt-in, ``docs/SERVER.md`` § Failure model & recovery):
``ServerConfig(supervised=True, checkpoint_dir=...)`` runs each session's
analysis in a supervised, journaled worker process
(:mod:`repro.server.supervisor`, :mod:`repro.server.recovery`);
``resume_timeout > 0`` plus a client-side :class:`ReconnectPolicy` lets a
dropped connection re-attach by resume token and replay its unacked
window; ``recover=True`` readmits journaled sessions after a daemon
restart.
"""

from .client import (
    AttachedSession,
    ReconnectPolicy,
    ResultTimeout,
    ServerRejected,
    SessionVerdict,
    attach,
    fetch_status,
)
from .daemon import AnalysisServer, ServerConfig
from .protocol import PROTOCOL_VERSION, Hello, ProtocolError
from .recovery import JournalError, SessionJournal, scan_journals
from .session import Session, SessionState
from .supervisor import SupervisedSession, SupervisorConfig

__all__ = [
    "AnalysisServer",
    "ServerConfig",
    "Session",
    "SessionState",
    "SupervisedSession",
    "SupervisorConfig",
    "SessionJournal",
    "JournalError",
    "scan_journals",
    "Hello",
    "ProtocolError",
    "PROTOCOL_VERSION",
    "AttachedSession",
    "SessionVerdict",
    "ServerRejected",
    "ResultTimeout",
    "ReconnectPolicy",
    "attach",
    "fetch_status",
]
