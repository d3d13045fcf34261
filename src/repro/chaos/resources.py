"""Resource-exhaustion gray failures: the server-side admission governor.

Real fleets rarely die cleanly.  They run out of memory and start shedding
work, or their disks fill up and writes fail with ``ENOSPC`` -- all while
the process stays up and keeps answering health checks.  This module models
that family of *gray* failures as a per-server :class:`ResourceGovernor`: a
stack of admission rules consulted by
:meth:`repro.core.server.AresServer.on_message` before any request is
dispatched.  A rule that refuses returns a reason string; the server then
replies with an explicit NACK carrying that reason instead of silently
dropping the request, so clients can distinguish "retriable resource
pressure" from a dead peer and retry with backoff.

The governor itself is inert scaffolding: with no rules installed (the
default -- servers are built with ``governor = None``) the admission check
is a single attribute test and executions are byte-identical to builds
without this module.  Rules are installed by the
:class:`~repro.chaos.faults.Refuse` effect through the chaos engine's one
hook installer (:meth:`~repro.chaos.engine.ChaosEngine.install`), so
resource faults participate in ``During``/``Stochastic`` windows, heal
cleanly, and respect stochastic gates like every network-level fault.
"""

from __future__ import annotations

from typing import Callable, List, Optional, TYPE_CHECKING

from repro.net.message import Message

if TYPE_CHECKING:  # pragma: no cover
    from repro.chaos.engine import ChaosEngine

#: An admission rule: ``(server, message) -> refusal reason or None``.
AdmissionRule = Callable[[object, Message], Optional[str]]


class ResourceGovernor:
    """Per-server admission control under injected resource pressure.

    Parameters
    ----------
    server:
        The :class:`~repro.core.server.AresServer` being governed.
    engine:
        The chaos engine, used to record shed decisions in the chaos log
        (bounded, so per-message sheds at scale stay O(1) in memory).
    """

    def __init__(self, server, engine: "ChaosEngine") -> None:
        self.server = server
        self.engine = engine
        #: Active admission rules, consulted in installation order.
        self.rules: List[AdmissionRule] = []
        #: How many requests this governor refused (for reports/tests).
        self.shed = 0

    def admit(self, message: Message) -> Optional[str]:
        """Consult every rule; the first refusal reason wins (``None`` admits)."""
        for rule in self.rules:
            reason = rule(self.server, message)
            if reason is not None:
                self.shed += 1
                self.engine.record(
                    f"shed {message.kind} at {self.server.pid.name}: {reason}")
                return reason
        return None


def ensure_governor(server, engine: "ChaosEngine") -> ResourceGovernor:
    """The server's governor, created (and attached) on first use."""
    governor = getattr(server, "governor", None)
    if governor is None:
        governor = ResourceGovernor(server, engine)
        server.governor = governor
    return governor


# ----------------------------------------------------------------- rules
def memory_budget_rule(budget_bytes: int) -> AdmissionRule:
    """Refuse data-carrying writes that would push stored bytes over budget.

    Models bounded per-server object-state memory with explicit shedding:
    requests that carry no object data (tag queries, config reads, Paxos
    traffic) always pass, so the control plane keeps working while the data
    plane degrades -- the signature gray-failure asymmetry.
    """

    def rule(server, message: Message) -> Optional[str]:
        if message.data_bytes <= 0:
            return None
        stored = server.storage_data_bytes()
        if stored + message.data_bytes > budget_bytes:
            return (f"memory budget exceeded ({stored}+{message.data_bytes}B "
                    f"> {budget_bytes}B)")
        return None

    return rule


def disk_full_rule() -> AdmissionRule:
    """Refuse every data-carrying write: the persistence layer is out of space.

    The reason string follows the classic ``OSError(errno.ENOSPC)``
    rendering so logs read like the real incident.
    """

    def rule(server, message: Message) -> Optional[str]:
        if message.data_bytes <= 0:
            return None
        return "[Errno 28] No space left on device"

    return rule
