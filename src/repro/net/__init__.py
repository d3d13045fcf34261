"""Simulated asynchronous message-passing network.

Provides the point-to-point channels of the paper's model: asynchronous,
reliable (by default), with per-message delivery delay drawn from a
configurable latency model bounded by ``[d, D]``.  The network also keeps the
byte-level traffic accounting that the communication-cost experiments use,
and exposes the crash/drop/delay/duplication hooks the chaos subsystem
(:mod:`repro.chaos`) injects faults through.
"""

from repro.net.message import Message, request, reply
from repro.net.latency import LatencyModel, FixedLatency, UniformLatency, AsymmetricLatency
from repro.net.network import Network
from repro.net.stats import TrafficStats, TrafficRecord

__all__ = [
    "Message",
    "request",
    "reply",
    "LatencyModel",
    "FixedLatency",
    "UniformLatency",
    "AsymmetricLatency",
    "Network",
    "TrafficStats",
    "TrafficRecord",
]
