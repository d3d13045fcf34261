"""Single-decree Paxos.

One Paxos *instance* decides the successor of one configuration.  The
reconfiguration client is the proposer; the configuration's
``consensus_servers`` (all of ``c.Servers``, or an LDR configuration's
directories) are the acceptors; a round awaits a majority of them
(``consensus_quorum_size``).

The implementation is classic Synod Paxos:

* **Phase 1** (prepare/promise): the proposer picks a ballot ``(round, pid)``
  greater than any it used before and asks a majority of acceptors to
  promise not to accept lower ballots; promises carry the highest-ballot
  value each acceptor has already accepted.
* **Phase 2** (accept/accepted): the proposer proposes the value carried by
  the highest-ballot promise (or its own value if none) and waits for a
  majority of accepts.
* **Decision**: once a majority accepted a ballot, its value is decided and
  returned to the proposer.  Nothing is broadcast: a later proposer learns
  the decision from phase 1 itself.

The ARES server attaches its ``nextC`` record for the instance's
configuration to every reply to ``PREPARE`` (:mod:`repro.core.server`).  A
record there means the instance already decided and its value was
propagated with ``put-config``, so the proposer returns that record instead
of deciding, and the reconfigurer walks down it
(:meth:`~repro.core.reconfig.ReconfigOpsMixin._add_config`).

Contention between concurrent proposers is resolved by ballot escalation
with randomised (seeded) back-off, which terminates with probability 1 in
the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, TYPE_CHECKING

from repro.common.errors import ConsensusError
from repro.common.ids import ProcessId
from repro.config.sequence import next_link
from repro.net.message import Message, reply, request
from repro.sim.futures import Timer

if TYPE_CHECKING:  # pragma: no cover
    from repro.config.configuration import Configuration
    from repro.sim.process import Process


# Message kinds (all consensus traffic is metadata for cost purposes).
PREPARE = "PAXOS-PREPARE"
PROMISE = "PAXOS-PROMISE"
ACCEPT = "PAXOS-ACCEPT"
ACCEPTED = "PAXOS-ACCEPTED"
NACK = "PAXOS-NACK"


@dataclass(frozen=True, order=True)
class Ballot:
    """A Paxos ballot number ``(round, proposer)``, totally ordered."""

    round: int
    proposer_key: tuple

    @classmethod
    def initial(cls) -> "Ballot":
        """A ballot smaller than any ballot a proposer can use."""
        return cls(round=0, proposer_key=("", -1))

    @classmethod
    def make(cls, round_number: int, proposer: ProcessId) -> "Ballot":
        """Ballot for ``round_number`` owned by ``proposer``."""
        return cls(round=round_number, proposer_key=proposer.sort_key)


@dataclass
class PaxosAcceptorState:
    """Per-instance acceptor state kept at each server."""

    promised: Ballot = field(default_factory=Ballot.initial)
    accepted_ballot: Optional[Ballot] = None
    accepted_value: Any = None

    def handle(self, message: Message) -> Message:
        """Process a proposer message and return the reply to send back."""
        kind = message.kind
        if kind == PREPARE:
            return self._on_prepare(message)
        if kind == ACCEPT:
            return self._on_accept(message)
        raise ConsensusError(f"acceptor cannot handle message kind {kind}")

    def _on_prepare(self, message: Message) -> Message:
        ballot: Ballot = message["ballot"]
        if ballot > self.promised:
            self.promised = ballot
            return reply(
                message,
                kind=PROMISE,
                accepted_ballot=self.accepted_ballot,
                accepted_value=self.accepted_value,
            )
        return reply(message, kind=NACK, promised=self.promised)

    def _on_accept(self, message: Message) -> Message:
        ballot: Ballot = message["ballot"]
        if ballot >= self.promised:
            self.promised = ballot
            self.accepted_ballot = ballot
            self.accepted_value = message["value"]
            return reply(message, kind=ACCEPTED)
        return reply(message, kind=NACK, promised=self.promised)


class PaxosProposer:
    """Client-side proposer for one consensus instance.

    Parameters
    ----------
    process:
        The client process driving the proposal (a reconfiguration client).
    configuration:
        The configuration whose ``consensus_servers`` act as acceptors; its
        ``consensus_quorum_size`` is the Paxos quorum size.
    instance:
        Identifier of the instance, conventionally the configuration id whose
        successor is being decided.
    extra_decision_delay:
        Optional artificial delay (in time units) added before the decision
        is returned; benchmarks use it to model an external consensus service
        with a configurable ``T(CN)``.
    """

    def __init__(
        self,
        process: "Process",
        configuration: "Configuration",
        instance: Any,
        extra_decision_delay: float = 0.0,
    ) -> None:
        self.process = process
        self.configuration = configuration
        self.instance = instance
        self.extra_decision_delay = extra_decision_delay
        self.max_rounds = 64
        #: Whether an ``ACCEPT`` carrying the caller's own value was sent:
        #: only then can this instance decide that value without the caller
        #: seeing the decision.
        self.offered = False

    # ----------------------------------------------------------- public API
    def propose(self, value: Any):
        """Coroutine: run the instance to a decision for ``value``.

        Returns the decided value.  If another proposer's value wins, that
        value is returned (Validity and Agreement still hold -- the caller
        adopts the decided value exactly as ARES's ``add-config`` does).  If
        a promise carries a ``nextC`` record (under ``next``), the instance
        has already decided and that record -- a
        :class:`~repro.config.sequence.ConfigRecord` -- is returned instead.
        """
        if value is None:
            raise ConsensusError("cannot propose None")
        servers = self.configuration.consensus_servers
        majority = self.configuration.consensus_quorum_size
        round_number = 1

        while round_number <= self.max_rounds:
            ballot = Ballot.make(round_number, self.process.pid)

            # ---------------------------------------------------- Phase 1
            promises = yield self.process.broadcast_and_gather(
                servers,
                lambda rid: request(
                    PREPARE, rid, config_id=self.configuration.cfg_id,
                    metadata_fields=2, ballot=ballot, instance=self.instance,
                ),
                threshold=majority,
                label=f"paxos-prepare[{self.instance}]",
            )
            link = next_link(msg.get("next") for _, msg in promises)
            if link is not None:
                return link
            if any(msg.kind == NACK for _, msg in promises):
                round_number += 1
                yield Timer(self.process.sim, self._backoff(round_number), label="paxos-backoff")
                continue

            proposal = self._choose_value(promises, value)
            if proposal is value:
                self.offered = True

            # ---------------------------------------------------- Phase 2
            accepts = yield self.process.broadcast_and_gather(
                servers,
                lambda rid: request(
                    ACCEPT, rid, config_id=self.configuration.cfg_id,
                    metadata_fields=3, ballot=ballot, value=proposal,
                    instance=self.instance,
                ),
                threshold=majority,
                label=f"paxos-accept[{self.instance}]",
            )
            if all(msg.kind == ACCEPTED for _, msg in accepts):
                if self.extra_decision_delay > 0:
                    yield Timer(self.process.sim, self.extra_decision_delay,
                                label="consensus-delay")
                return proposal

            round_number += 1
            yield Timer(self.process.sim, self._backoff(round_number), label="paxos-backoff")

        raise ConsensusError(
            f"consensus instance {self.instance} did not decide within "
            f"{self.max_rounds} ballots"
        )

    # -------------------------------------------------------------- helpers
    def _backoff(self, round_number: int) -> float:
        """Randomised back-off before retrying with a higher ballot."""
        base = self.process.sim.uniform(0.1, 1.0)
        return base * round_number

    @staticmethod
    def _choose_value(promises, own_value: Any) -> Any:
        """Pick the value of the highest accepted ballot among the promises."""
        best_ballot: Optional[Ballot] = None
        best_value: Any = None
        for _, msg in promises:
            if msg.kind != PROMISE:
                continue
            accepted_ballot = msg.get("accepted_ballot")
            if accepted_ballot is None:
                continue
            if best_ballot is None or accepted_ballot > best_ballot:
                best_ballot = accepted_ballot
                best_value = msg.get("accepted_value")
        return best_value if best_value is not None else own_value
