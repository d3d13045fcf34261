"""Operation histories.

A :class:`History` records, for every high-level read or write operation,
its invocation time, response time, the process that issued it, and its
result (the label of the value written or returned).  Histories are produced
by the ARES and store clients and consumed by the register fold of
:mod:`repro.spec.streaming` (live, or replayed over the finished history by
:mod:`repro.spec.linearizability`) and by the latency-analysis benchmarks.

Multi-object (store) histories
------------------------------
The sharded store records many named registers into **one** history; each
record then carries the object ``key`` it operated on.  Such a *keyed*
history is checked per key (every key is an independent atomic register, see
:func:`repro.spec.linearizability.check_linearizability_per_key`) while
:meth:`History.signature` stays a single merged, store-wide fingerprint.
Use :meth:`History.split_by_key` / :meth:`History.for_key` to obtain the
per-key sub-histories.

Streaming histories
-------------------
:meth:`History.enable_streaming` switches an (empty) history into a bounded
open-window mode: the register fold checks each operation as it happens
instead of replaying the history at the end, the records whose concurrency
windows closed are folded into a running signature accumulator
(byte-identical to the batch :meth:`signature_hash`), and the folded
records are discarded.  Memory stays O(open window) instead of O(run),
which is what lets the scale benchmarks push 10^6+ operations through the
store.  Full-history queries (``operations()``, ``signature()``,
``split_by_key()``, ...) raise
:class:`~repro.common.errors.StreamingHistoryError` in streaming mode.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.common.errors import StreamingHistoryError
from repro.common.ids import ProcessId
from repro.common.tags import Tag
from repro.spec.signature import SignatureAccumulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.spec.streaming import HistoryStream


class OperationType(enum.Enum):
    """The kind of a high-level operation."""

    READ = "read"
    WRITE = "write"
    RECONFIG = "reconfig"


@dataclass(slots=True)
class OperationRecord:
    """One high-level operation with its real-time interval and outcome.

    ``slots=True`` matters: streaming scale runs allocate one record per
    operation (10^6+ per benchmark run), and the per-instance ``__dict__``
    of an ordinary dataclass roughly doubles the allocation cost and
    footprint of the open window.
    """

    op_id: int
    process: ProcessId
    op_type: OperationType
    invoked_at: float
    responded_at: Optional[float] = None
    #: Label of the value written (writes) or returned (reads).
    value_label: Optional[str] = None
    #: Object key the operation addressed (``None`` for single-register
    #: histories; set by the sharded store's clients).
    key: Optional[str] = None
    #: Tag associated with the operation's value, when the protocol exposes it.
    tag: Optional[Tag] = None
    #: For reconfig operations: the installed configuration id.
    config_id: Optional[object] = None
    failed: bool = False

    @property
    def complete(self) -> bool:
        """Whether the operation has a response event."""
        return self.responded_at is not None and not self.failed

    @property
    def latency(self) -> Optional[float]:
        """Response minus invocation time, if complete."""
        if self.responded_at is None:
            return None
        return self.responded_at - self.invoked_at

    def precedes(self, other: "OperationRecord") -> bool:
        """Real-time precedence ``self → other`` (response before invocation)."""
        return self.responded_at is not None and self.responded_at < other.invoked_at

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        interval = (
            f"[{self.invoked_at:.2f}, "
            f"{'...' if self.responded_at is None else f'{self.responded_at:.2f}'}]"
        )
        where = "" if self.key is None else f"{self.key}="
        return f"{self.op_type.value}({where}{self.value_label}) by {self.process} {interval}"


def signature_entry(record: OperationRecord) -> tuple:
    """The signature tuple of one record.

    Shared by the batch :meth:`History.signature`, the non-materializing
    :meth:`History.signature_hash` and the streaming fold in
    :mod:`repro.spec.streaming`, so all three agree byte-for-byte on the
    fingerprint.  Key-less records keep the exact historical 8-tuple shape;
    keyed records append the object key.
    """
    entry = (record.op_id, record.process.name, record.op_type.value,
             record.invoked_at, record.responded_at, record.value_label,
             None if record.tag is None else str(record.tag), record.failed)
    if record.key is not None:
        entry += (record.key,)
    return entry


class History:
    """A mutable collection of :class:`OperationRecord` entries."""

    def __init__(self) -> None:
        self._records: Dict[int, OperationRecord] = {}
        self._counter = itertools.count()
        self._stream: Optional["HistoryStream"] = None

    # ------------------------------------------------------------- streaming
    @property
    def streaming(self) -> bool:
        """Whether this history folds records away as windows close."""
        return self._stream is not None

    @property
    def stream(self) -> Optional["HistoryStream"]:
        """The attached :class:`~repro.spec.streaming.HistoryStream`."""
        return self._stream

    def enable_streaming(self, window_limit: Optional[int] = None) -> "HistoryStream":
        """Switch this (empty) history into bounded open-window mode.

        Must be called before any operation is recorded: the stream folds
        records in event order, so a partially-recorded history cannot be
        converted retroactively.  Returns the attached stream (also
        available as :attr:`stream`).
        """
        from repro.spec.streaming import HistoryStream

        if self._records or self._stream is not None:
            raise StreamingHistoryError(
                "enable_streaming() requires an empty, non-streaming history")
        kwargs = {} if window_limit is None else {"window_limit": window_limit}
        self._stream = HistoryStream(self, **kwargs)
        return self._stream

    def _batch_only(self, api: str) -> None:
        if self._stream is not None:
            raise StreamingHistoryError(
                f"History.{api} needs the full record set, which streaming "
                "mode folds away; use the attached HistoryStream (counters, "
                "signature_hash, verdicts) or re-run in batch mode")

    # ------------------------------------------------------------- recording
    def invoke(
        self,
        process: ProcessId,
        op_type: OperationType,
        at: float,
        value_label: Optional[str] = None,
        key: Optional[str] = None,
    ) -> OperationRecord:
        """Record an operation invocation; returns the (open) record."""
        record = OperationRecord(
            op_id=next(self._counter),
            process=process,
            op_type=op_type,
            invoked_at=at,
            value_label=value_label,
            key=key,
        )
        self._records[record.op_id] = record
        if self._stream is not None:
            self._stream.on_invoke(record)
        return record

    def respond(
        self,
        record: OperationRecord,
        at: float,
        value_label: Optional[str] = None,
        tag: Optional[Tag] = None,
        config_id: Optional[object] = None,
    ) -> OperationRecord:
        """Record the response of an operation."""
        record.responded_at = at
        if value_label is not None:
            record.value_label = value_label
        if tag is not None:
            record.tag = tag
        if config_id is not None:
            record.config_id = config_id
        if self._stream is not None:
            self._stream.on_respond(record)
        return record

    def fail(self, record: OperationRecord, at: float) -> OperationRecord:
        """Mark an operation as failed (e.g. its client crashed)."""
        record.responded_at = at
        record.failed = True
        if self._stream is not None:
            self._stream.on_fail(record)
        return record

    # --------------------------------------------------------------- queries
    def operations(self, op_type: Optional[OperationType] = None,
                   complete_only: bool = False) -> List[OperationRecord]:
        """All records, optionally filtered by type and completeness."""
        self._batch_only("operations()")
        records = list(self._records.values())
        if op_type is not None:
            records = [r for r in records if r.op_type is op_type]
        if complete_only:
            records = [r for r in records if r.complete]
        return sorted(records, key=lambda r: (r.invoked_at, r.op_id))

    def reads(self, complete_only: bool = True) -> List[OperationRecord]:
        """All (complete) read operations."""
        return self.operations(OperationType.READ, complete_only=complete_only)

    def writes(self, complete_only: bool = False) -> List[OperationRecord]:
        """All write operations (incomplete writes matter for linearizability)."""
        return self.operations(OperationType.WRITE, complete_only=complete_only)

    def reconfigs(self, complete_only: bool = True) -> List[OperationRecord]:
        """All (complete) reconfiguration operations."""
        return self.operations(OperationType.RECONFIG, complete_only=complete_only)

    def latencies(self, op_type: Optional[OperationType] = None) -> List[float]:
        """Latencies of complete operations (optionally of one type)."""
        return [r.latency for r in self.operations(op_type, complete_only=True)]

    # ------------------------------------------------------- per-key queries
    def is_keyed(self) -> bool:
        """Whether any read/write record addresses a named object key.

        Keyed histories (recorded by the sharded store) are verified per key;
        single-register histories keep the historical whole-history checks.
        """
        if self._stream is not None:
            return self._stream.is_keyed()
        return any(
            r.key is not None
            for r in self._records.values()
            if r.op_type is not OperationType.RECONFIG
        )

    def keys(self) -> List[Optional[str]]:
        """The distinct object keys, ordered by first invocation.

        ``None`` appears when the history also carries key-less records
        (e.g. reconfigurations in a mixed history).
        """
        seen: List[Optional[str]] = []
        for record in self.operations():
            if record.key not in seen:
                seen.append(record.key)
        return seen

    def for_key(self, key: Optional[str]) -> "History":
        """The sub-history of operations on ``key`` (records are shared)."""
        self._batch_only("for_key()")
        sub = History()
        for record in self._records.values():
            if record.key == key:
                sub._records[record.op_id] = record
        return sub

    def split_by_key(self) -> Dict[Optional[str], "History"]:
        """Partition into per-key sub-histories, keyed by object key.

        The partition order is deterministic (first-invocation order) so
        per-key checkers report violations in a stable order.
        """
        subs: Dict[Optional[str], History] = {}
        for record in self.operations():
            sub = subs.get(record.key)
            if sub is None:
                sub = subs[record.key] = History()
            sub._records[record.op_id] = record
        return subs

    def __len__(self) -> int:
        if self._stream is not None:
            return self._stream.total_records
        return len(self._records)

    def __iter__(self):
        return iter(self.operations())

    def describe(self) -> str:
        """Multi-line rendering of the history ordered by invocation time."""
        return "\n".join(str(record) for record in self.operations())

    def signature(self) -> tuple:
        """A hashable fingerprint of the whole history.

        Two runs of the same seeded scenario must produce equal signatures;
        the chaos determinism tests compare them to catch any source of
        nondeterminism (unseeded randomness, iteration-order dependence)
        creeping into the stack.

        Keyed (store) histories merge every object into this one store-wide
        signature: the object key is appended to each keyed record's entry.
        Key-less records keep the exact historical tuple shape, so the
        golden signature hashes of single-register scenarios are unaffected.

        Streaming histories cannot materialize this tuple (the records are
        gone); use :meth:`signature_hash`, which is byte-identical to
        ``sha256(repr(signature()))`` in both modes.
        """
        self._batch_only("signature()")
        return tuple(signature_entry(record) for record in self.operations())

    def signature_digests(self) -> SignatureAccumulator:
        """Every record's :func:`signature_entry` folded into running digests.

        The streaming path finalizes the stream and returns its fold
        accumulator; the batch path folds :meth:`operations` here, so the
        full entries list (10^6 tuples on a scale run) is never built.
        """
        if self._stream is not None:
            return self._stream.signature_digests()
        accumulator = SignatureAccumulator()
        for record in self.operations():
            accumulator.fold(signature_entry(record))
        return accumulator

    def signature_hash(self) -> str:
        """SHA-256 of ``repr(self.signature())`` without materializing it."""
        return self.signature_digests().history_digest()
