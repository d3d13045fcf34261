"""Configurations and configuration sequences.

A *configuration* (Section 2) identifies a set of servers, a quorum system
over them, the atomic-memory algorithm (DAP implementation) and erasure code
used within them, and names the consensus instance used to agree on its
successor.  A quorum system only ever decides how many replies a round
awaits, so a configuration keeps it as numbers: ``quorum_size`` for its DAP
rounds, and a majority of ``consensus_servers`` for consensus and
``put-config``.  ARES maintains a *configuration sequence*: an array of
``<cfg, status>`` pairs where ``status ∈ {P, F}``.
"""

from repro.config.configuration import Configuration, DapKind
from repro.config.sequence import ConfigRecord, ConfigSequence, Status

__all__ = [
    "Configuration",
    "DapKind",
    "ConfigRecord",
    "ConfigSequence",
    "Status",
]
