"""Quorum systems.

Two quorum systems are used by the protocols:

* **Majority quorums** -- any subset of strictly more than half the servers.
  Used by ABD-backed configurations, by LDR over its directories, and by
  the configuration-sequence service and consensus (``put-config`` and
  the Paxos rounds wait for a majority of ``c.Servers``, or of an LDR
  configuration's directories).
* **Threshold quorums of size ⌈(n+k)/2⌉** -- used by TREAS.  Any two such
  quorums intersect in at least ``k`` servers, which is what makes a tag
  written to one quorum decodable by any later reader quorum.

Quorum systems are represented intensionally (by their threshold) rather
than by enumerating the quorum sets, which would be exponential in ``n``.
"""

from __future__ import annotations

from typing import Sequence

from repro.common.errors import ConfigurationError
from repro.common.ids import ProcessId


class QuorumSystem:
    """Abstract quorum system over a fixed server set."""

    def __init__(self, servers: Sequence[ProcessId]) -> None:
        self.servers = list(servers)
        if len(set(self.servers)) != len(self.servers):
            raise ConfigurationError("quorum system has duplicate servers")

    @property
    def n(self) -> int:
        """Number of servers."""
        return len(self.servers)

    @property
    def quorum_size(self) -> int:
        """Number of replies a client must gather to have heard a quorum."""
        raise NotImplementedError

    def max_crash_failures(self) -> int:
        """Largest number of server crashes that still leaves a quorum alive."""
        return self.n - self.quorum_size

    def validate(self) -> None:
        """Sanity-check the system (non-empty quorums that fit in the server set)."""
        if not 0 < self.quorum_size <= self.n:
            raise ConfigurationError(
                f"quorum size {self.quorum_size} invalid for {self.n} servers"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n={self.n}, quorum={self.quorum_size})"


class MajorityQuorums(QuorumSystem):
    """All subsets of size ``⌊n/2⌋ + 1`` (strict majorities)."""

    @property
    def quorum_size(self) -> int:
        return self.n // 2 + 1


class ThresholdQuorums(QuorumSystem):
    """All subsets of a given fixed size.

    TREAS uses threshold ``⌈(n + k) / 2⌉``; the class is generic so tests can
    exercise other thresholds.
    """

    def __init__(self, servers: Sequence[ProcessId], threshold: int) -> None:
        super().__init__(servers)
        self._threshold = threshold
        self.validate()

    @property
    def quorum_size(self) -> int:
        return self._threshold

    @classmethod
    def for_treas(cls, servers: Sequence[ProcessId], k: int) -> "ThresholdQuorums":
        """The TREAS quorum system ``⌈(n+k)/2⌉`` for an ``[n, k]`` code."""
        n = len(servers)
        threshold = -(-(n + k) // 2)  # ceil((n + k) / 2)
        return cls(servers, threshold)
