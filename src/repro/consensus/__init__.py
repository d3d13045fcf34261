"""Consensus substrate.

Each ARES configuration ``c`` is associated with a consensus instance
``c.Con`` run on (a majority of) the servers of ``c`` and used to agree on
the configuration that follows ``c`` in the global sequence.  The paper only
requires the instance to satisfy Agreement, Validity and Termination
(Definition 41); here it is provided by single-decree Paxos with the
reconfiguration client acting as proposer and the configuration's servers
acting as acceptors.
"""

from repro.consensus.paxos import PaxosAcceptorState, PaxosProposer, Ballot

__all__ = [
    "PaxosAcceptorState",
    "PaxosProposer",
    "Ballot",
]
