"""BW-First as a real distributed message-passing protocol (Section 5).

* :mod:`~repro.protocol.messages` — the Proposal/Acknowledgment wire types;
* :mod:`~repro.protocol.actor` — the per-node Algorithm-1 state machine;
* :mod:`~repro.protocol.network` — latency-modelled transport + counters;
* :mod:`~repro.protocol.runner` — end-to-end negotiation with verification
  against the centralised implementation.
"""

from .actor import NodeActor
from .messages import Acknowledgment, Proposal, wire_size
from .network import Network
from .retry import RetryPolicy
from .runner import VIRTUAL_PARENT, ProtocolResult, run_protocol

__all__ = [
    "NodeActor",
    "Proposal",
    "Acknowledgment",
    "wire_size",
    "Network",
    "RetryPolicy",
    "ProtocolResult",
    "run_protocol",
    "VIRTUAL_PARENT",
]
