"""The configuration data type.

A configuration ``c`` (Section 2) describes:

(i)   the servers ``c.Servers`` that host the object in this epoch;
(ii)  the quorum system defined on ``c.Servers``;
(iii) the atomic-memory algorithm used inside the configuration (which DAP
      implementation, with which erasure-code parameters and garbage
      collection bound δ); and
(iv)  the consensus instance ``c.Con`` run on the servers of ``c`` to agree
      on the configuration that succeeds ``c``.

Configurations are immutable; reconfiguration installs *new* configuration
objects rather than mutating existing ones.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.common.ids import ConfigId, ProcessId
from repro.config.quorums import MajorityQuorums, QuorumSystem, ThresholdQuorums
from repro.erasure.interface import ErasureCode
from repro.erasure.replication import ReplicationCode
from repro.erasure.rs import ReedSolomonCode


class DapKind(enum.Enum):
    """Which DAP implementation a configuration runs internally."""

    ABD = "abd"
    TREAS = "treas"
    LDR = "ldr"


@dataclass(frozen=True)
class Configuration:
    """An immutable configuration.

    Use the :meth:`abd`, :meth:`treas` or :meth:`ldr` factories rather than
    the constructor; they pick the matching quorum system and erasure code
    and validate the parameter constraints the paper imposes.

    Attributes
    ----------
    cfg_id:
        The unique configuration identifier (an element of ``C``).
    servers:
        Ordered tuple of server process ids (``c.Servers``).  The order
        defines which coded element index each server stores.
    dap:
        The :class:`DapKind` used for ``get-tag`` / ``get-data`` / ``put-data``
        inside this configuration.
    code:
        The erasure code; ``code.n == len(servers)``.
    quorums:
        The quorum system used by the DAP.
    delta:
        TREAS garbage-collection parameter δ: the maximum number of writes
        concurrent with a read for which liveness is guaranteed; servers keep
        coded elements for the δ+1 highest tags.
    consensus_quorums:
        Quorum system used by the configuration's consensus instance and by
        the configuration-sequence service (always majorities over
        ``servers``).
    ldr_directories / ldr_replicas:
        For LDR configurations only: the split of ``servers`` into directory
        servers and replica servers.
    """

    cfg_id: ConfigId
    servers: Tuple[ProcessId, ...]
    dap: DapKind
    code: ErasureCode
    quorums: QuorumSystem
    delta: int = 2
    consensus_quorums: QuorumSystem = field(default=None)  # type: ignore[assignment]
    ldr_directories: Tuple[ProcessId, ...] = ()
    ldr_replicas: Tuple[ProcessId, ...] = ()

    def __post_init__(self) -> None:
        if len(self.servers) == 0:
            raise ConfigurationError(f"configuration {self.cfg_id} has no servers")
        if len(set(self.servers)) != len(self.servers):
            raise ConfigurationError(f"configuration {self.cfg_id} has duplicate servers")
        if self.code.n != len(self.servers):
            raise ConfigurationError(
                f"configuration {self.cfg_id}: code n={self.code.n} but "
                f"{len(self.servers)} servers"
            )
        if self.delta < 0:
            raise ConfigurationError("delta must be non-negative")
        if self.consensus_quorums is None:
            object.__setattr__(self, "consensus_quorums", MajorityQuorums(list(self.servers)))

    # -------------------------------------------------------------- factories
    @classmethod
    def abd(
        cls,
        cfg_id: ConfigId,
        servers: Sequence[ProcessId],
    ) -> "Configuration":
        """A replication-based configuration running the ABD DAP."""
        servers = tuple(servers)
        if not servers:
            raise ConfigurationError(f"configuration {cfg_id} has no servers")
        return cls(
            cfg_id=cfg_id,
            servers=servers,
            dap=DapKind.ABD,
            code=ReplicationCode(len(servers)),
            quorums=MajorityQuorums(list(servers)),
        )

    @classmethod
    def treas(
        cls,
        cfg_id: ConfigId,
        servers: Sequence[ProcessId],
        k: Optional[int] = None,
        delta: int = 2,
    ) -> "Configuration":
        """An erasure-coded configuration running the TREAS DAP.

        Parameters
        ----------
        k:
            The MDS code dimension; defaults to ``⌈2n/3⌉`` (the value used in
            the paper's description).  Liveness requires ``k > n/3``.
        delta:
            Concurrency bound δ for garbage collection.
        """
        servers = tuple(servers)
        n = len(servers)
        if k is None:
            k = -(-2 * n // 3)  # ceil(2n/3)
        if not 1 <= k <= n:
            raise ConfigurationError(f"invalid TREAS parameters n={n}, k={k}")
        if 3 * k <= n:
            raise ConfigurationError(
                f"TREAS liveness requires k > n/3 (got n={n}, k={k})"
            )
        return cls(
            cfg_id=cfg_id,
            servers=servers,
            dap=DapKind.TREAS,
            code=ReedSolomonCode(n, k),
            quorums=ThresholdQuorums.for_treas(servers, k),
            delta=delta,
        )

    @classmethod
    def ldr(
        cls,
        cfg_id: ConfigId,
        directories: Sequence[ProcessId],
        replicas: Sequence[ProcessId],
        f: Optional[int] = None,
    ) -> "Configuration":
        """A replication-based configuration running the LDR DAP.

        ``directories`` hold metadata (tag and replica locations); ``replicas``
        hold the values.  ``f`` is the replica crash tolerance: writes go to
        ``2f+1`` replicas and await ``f+1`` acks.  Defaults to the largest
        ``f`` with ``2f + 1 <= len(replicas)``.
        """
        directories = tuple(directories)
        replicas = tuple(replicas)
        if set(directories) & set(replicas):
            raise ConfigurationError("LDR directories and replicas must be disjoint")
        servers = directories + replicas
        if f is None:
            f = (len(replicas) - 1) // 2
        if 2 * f + 1 > len(replicas):
            raise ConfigurationError(
                f"LDR needs 2f+1 <= |replicas| (f={f}, replicas={len(replicas)})"
            )
        return cls(
            cfg_id=cfg_id,
            servers=servers,
            dap=DapKind.LDR,
            code=ReplicationCode(len(servers)),
            quorums=MajorityQuorums(list(directories)),
            ldr_directories=directories,
            ldr_replicas=replicas,
            delta=f,
        )

    @classmethod
    def of_kind(
        cls,
        dap: str,
        cfg_id: ConfigId,
        servers: Sequence[ProcessId],
        k: Optional[int] = None,
        delta: int = 2,
    ) -> "Configuration":
        """A configuration of DAP kind ``dap`` (by name) over a flat server list.

        ``k`` and ``delta`` apply to TREAS only; LDR takes the first half of
        ``servers`` as directories and the second half as replicas.
        """
        dap = dap.lower()
        if dap == "treas":
            return cls.treas(cfg_id, servers, k=k, delta=delta)
        if dap == "abd":
            return cls.abd(cfg_id, servers)
        if dap == "ldr":
            half = len(servers) // 2
            return cls.ldr(cfg_id, servers[:half], servers[half:])
        raise ConfigurationError(f"unknown DAP kind {dap!r}")

    # --------------------------------------------------------------- helpers
    @property
    def n(self) -> int:
        """Number of servers in the configuration."""
        return len(self.servers)

    @property
    def k(self) -> int:
        """Erasure-code dimension (1 for replication)."""
        return self.code.k

    @property
    def quorum_size(self) -> int:
        """The DAP's reply threshold for this configuration."""
        return self.quorums.quorum_size

    @property
    def ldr_f(self) -> int:
        """LDR's replica crash tolerance parameter ``f``."""
        return self.delta

    def server_index(self, pid: ProcessId) -> int:
        """Index of a server within the configuration (its coded-element index)."""
        try:
            return self.servers.index(pid)
        except ValueError:
            raise ConfigurationError(f"{pid} is not a member of {self.cfg_id}") from None

    def max_crash_failures(self) -> int:
        """Crash tolerance: ``⌊(n-k)/2⌋`` for TREAS, minority for ABD/LDR."""
        if self.dap is DapKind.TREAS:
            return (self.n - self.k) // 2
        return self.quorums.max_crash_failures()

    def describe(self) -> str:
        """One-line description used in reports and examples."""
        return (
            f"{self.cfg_id}: {self.dap.value} n={self.n} k={self.k} "
            f"delta={self.delta} quorum={self.quorum_size}"
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()

    def __hash__(self) -> int:
        return hash(self.cfg_id)
