"""Traffic accounting.

The communication-cost experiments (E2, E7) need to attribute bytes on the
wire to individual operations.  The network reports every message it puts
on the wire to a :class:`TrafficStats` instance; protocol code can open
*accounting scopes* (one per client operation) so that all traffic
generated while an operation is in flight is attributed to it.  A scope
held open across a whole phase is how one process's traffic is read.

Two figures are kept for every record, mirroring the paper's cost model:

``data_bytes``
    Bytes of object value / coded elements -- the quantity the paper's
    theorems bound (normalised by the value size this is ``n/k`` and friends).
``metadata_bytes``
    Estimated bytes of tags, ids and statuses -- "negligible" in the paper,
    reported separately here for completeness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.common.ids import ProcessId


@dataclass
class TrafficRecord:
    """Aggregated traffic counters."""

    messages: int = 0
    data_bytes: int = 0
    metadata_bytes: int = 0

    def add(self, data_bytes: int, metadata_bytes: int) -> None:
        """Accumulate one message."""
        self.messages += 1
        self.data_bytes += data_bytes
        self.metadata_bytes += metadata_bytes

    @property
    def total_bytes(self) -> int:
        """Data plus metadata bytes."""
        return self.data_bytes + self.metadata_bytes

    def normalised(self, value_size: int) -> float:
        """Data bytes divided by the object value size (the paper's units)."""
        if value_size <= 0:
            return 0.0
        return self.data_bytes / value_size


@dataclass
class OperationScope:
    """An open accounting scope attributed to one client operation."""

    name: str
    owner: ProcessId
    record: TrafficRecord = field(default_factory=TrafficRecord)
    open: bool = True


class TrafficStats:
    """Network-wide traffic accounting.

    Every message is charged to one ledger row per message kind,
    ``[messages, data_bytes, metadata_bytes]``; :attr:`global_record` and
    :attr:`per_kind` are derived from it on read, so the per-message path
    touches one row.  Traffic of one process (or one operation) comes from a
    scope: :meth:`open_scope` returns a handle; every message whose *sender
    or receiver* is the scope owner is charged to the scope while it is
    open.  Scopes are cheap, multiple concurrent scopes (one per in-flight
    operation of different clients) are supported, and a closed scope
    leaves nothing behind: with none open, :meth:`record` skips them with
    one truth test.
    """

    def __init__(self) -> None:
        self._kinds: Dict[str, List[int]] = {}
        self._scopes: Dict[ProcessId, List[OperationScope]] = {}

    # -------------------------------------------------------------- recording
    def record(self, src: ProcessId, dest: ProcessId, kind: str,
               data_bytes: int, metadata_bytes: int) -> None:
        """Record one message put on the wire (the network's hottest path)."""
        row = self._kinds.get(kind)
        if row is None:
            row = self._kinds[kind] = [0, 0, 0]
        row[0] += 1
        row[1] += data_bytes
        row[2] += metadata_bytes
        scopes = self._scopes
        if scopes:
            # A self-addressed message is one message to its owner's scopes.
            for owner in (src, dest) if src != dest else (src,):
                for scope in scopes.get(owner, ()):
                    scope.record.add(data_bytes, metadata_bytes)

    # ---------------------------------------------------------------- scopes
    def open_scope(self, name: str, owner: ProcessId) -> OperationScope:
        """Open an accounting scope charging traffic to/from ``owner``."""
        scope = OperationScope(name=name, owner=owner)
        self._scopes.setdefault(owner, []).append(scope)
        return scope

    def close_scope(self, scope: OperationScope) -> TrafficRecord:
        """Close the scope and return its accumulated record."""
        scope.open = False
        owner_scopes = self._scopes.get(scope.owner, [])
        if scope in owner_scopes:
            owner_scopes.remove(scope)
            if not owner_scopes:
                del self._scopes[scope.owner]
        return scope.record

    # --------------------------------------------------------------- queries
    @property
    def global_record(self) -> TrafficRecord:
        """All traffic since construction (or the last :meth:`reset`)."""
        return TrafficRecord(*map(sum, zip(*self._kinds.values())))

    @property
    def per_kind(self) -> Dict[str, TrafficRecord]:
        """Traffic by message kind (a snapshot; first-sent order)."""
        return {kind: TrafficRecord(*row) for kind, row in self._kinds.items()}

    def by_kind(self, kind: str) -> TrafficRecord:
        """Traffic for one message kind (e.g. ``"PUT-DATA"``)."""
        return TrafficRecord(*self._kinds.get(kind, ()))

    def reset(self) -> None:
        """Zero all counters (open scopes are preserved but also reset)."""
        self._kinds.clear()
        for owner_scopes in self._scopes.values():
            for scope in owner_scopes:
                scope.record = TrafficRecord()

    def summary(self) -> str:
        """Human-readable multi-line summary (used by examples)."""
        total = self.global_record
        lines = [
            f"messages:       {total.messages}",
            f"data bytes:     {total.data_bytes}",
            f"metadata bytes: {total.metadata_bytes}",
            "per message kind:",
        ]
        for kind, record in sorted(self.per_kind.items()):
            lines.append(
                f"  {kind:<22} {record.messages:>8} msgs  {record.data_bytes:>12} data B"
            )
        return "\n".join(lines)
