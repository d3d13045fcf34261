"""Deterministic discrete-event simulation substrate.

The paper's system model is an asynchronous, reliable message-passing
environment whose only timing assumption (used in the latency analysis of
Section 4.4) is that every message is delivered within ``[d, D]`` time units
of some global clock that no process can read.  This package provides that
environment as a deterministic, seeded discrete-event simulator:

* :class:`~repro.sim.core.Simulator` -- the event loop and virtual clock.
* :class:`~repro.sim.futures.SimFuture` and the coroutine runner -- protocol
  actions (client phases, quorum gathers, consensus rounds) are written as
  generator coroutines that ``yield`` futures.
* :class:`~repro.sim.process.Process` -- the base class for every writer,
  reader, reconfigurer and server.
"""

from repro.sim.core import Simulator, Event
from repro.sim.futures import SimFuture, QuorumFuture, all_of
from repro.sim.process import Process

__all__ = [
    "Simulator",
    "Event",
    "SimFuture",
    "QuorumFuture",
    "all_of",
    "Process",
]
