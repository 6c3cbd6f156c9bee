"""Observer-side transport and ingestion (paper Fig. 4, §2.2, §4.1)."""

from .channel import (
    Channel,
    FifoChannel,
    MultiChannel,
    ReorderingChannel,
    deliver_all,
)
from .delivery import CausalDelivery
from .faults import FaultLog, FaultPlan, FaultyChannel
from .observer import Observer, ObserverHealth
from .reliable import (
    FrameDecoder,
    ReliableSender,
    ReliableTransportError,
    RetransmitConfig,
)
from .trace import Trace, TraceFormatError, read_trace

__all__ = [
    "Channel",
    "FifoChannel",
    "MultiChannel",
    "ReorderingChannel",
    "deliver_all",
    "CausalDelivery",
    "FaultLog",
    "FaultPlan",
    "FaultyChannel",
    "Observer",
    "ObserverHealth",
    "FrameDecoder",
    "ReliableSender",
    "ReliableTransportError",
    "RetransmitConfig",
    "Trace",
    "TraceFormatError",
    "read_trace",
]
