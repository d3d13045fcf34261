"""The register fold: atomicity checking of operation histories, event by event.

Atomicity (the paper's conditions A1-A3) is decided in one place: a
:class:`RegisterFold` holds, per object key, an :class:`OnlineRegisterChecker`
(a Gibbons-Korach value partition) and an :class:`OnlineTagChecker`
(Lemma 20's tag monotonicity), fed invocations and responses in
event-time order.  It has two drivers:

* :class:`HistoryStream` (:meth:`History.enable_streaming
  <repro.spec.history.History.enable_streaming>`) feeds it live and folds
  completed records out of the history as their concurrency windows close,
  keeping memory O(open window) instead of O(run); their signature entries
  go into a running SHA-256 accumulator **byte-identical** to a batch
  history's ``sha256(repr(history.signature()))``.
* :func:`replay` feeds it a finished batch history in one pass and leaves
  the records in place; :mod:`repro.spec.linearizability` builds the batch
  verdicts on it.

The fold never guesses: a key it cannot decide (a write reusing a value
label it still holds, no greedy witness order) is marked ambiguous.  The
live stream then raises :class:`~repro.common.errors.StreamingAmbiguityError`,
since the Wing-Gong reference search needs the records it discarded; the
batch checks hand the key to that search.

Fold rules (why this is sound)
------------------------------
Invocations and responses arrive in non-decreasing simulated time (the
stream enforces this, the replay sorts for it), so the *frontier* ``F`` --
the invocation time of the earliest still-open operation -- only moves
forward.  A value cluster (one write plus the reads returning its label)
may be folded once its write completed and both its earliest response and
latest invocation lie before ``F``: no future operation can be invoked
before ``F``, so the cluster's precedence relations against all future
operations are fully determined by two scalars kept after the fold.  Two
clusters that each contain an operation really preceding one of the other
can never both be contiguous segments of a linearization (a stale read or
new/old inversion); that cycle is checked pairwise while clusters are live
and through the kept scalars afterwards.  Folded clusters that are still
legally readable (their earliest response does not precede another folded
cluster's latest invocation) stay in a small *readable* set; everything
else collapses into two scalars (``retired_max_inv`` and a
per-live-cluster ``fold_floor``).  A passing verdict is backed by a
witness: two candidate orders (clusters by earliest response, and by
protocol tag) are swept incrementally, and one must survive.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import Dict, List, Optional

from repro.common.errors import (StreamingAmbiguityError, StreamingHistoryError,
                                 StreamingWindowError)
from repro.spec.history import (History, OperationRecord, OperationType,
                                signature_entry)
from repro.spec.signature import SignatureAccumulator

#: Label of the register's initial value (the ``"v0"`` label of
#: :data:`repro.common.values.BOTTOM_VALUE`): reads linearized before every
#: write return it.
INITIAL_LABEL = "v0"

_INFINITY = float("inf")

#: Default bound on the number of unfolded records; exceeding it raises
#: :class:`~repro.common.errors.StreamingWindowError` (an operation that
#: never responds pins the fold frontier, so the window would grow without
#: bound -- the exact O(run) memory streaming mode exists to rule out).
DEFAULT_WINDOW_LIMIT = 100_000

#: Cap on mutually-concurrent folded-but-still-readable values per key.
#: Real workloads keep this at 1-2; hitting the cap means the history is
#: too ambiguous to decide online.
READABLE_CAP = 64

#: Default reservoir size for streaming latency percentiles.
DEFAULT_LATENCY_RESERVOIR = 4096


class StreamingStats:
    """Exact count/mean/max plus a bounded reservoir sample for percentiles.

    A 10^6-operation run cannot afford the batch path's list of one boxed
    float per operation, so percentiles come from a fixed-size uniform
    reservoir (Vitter's algorithm R) driven by a dedicated seeded RNG --
    deterministic for a given arrival sequence, independent of everything
    else in the run.
    """

    __slots__ = ("count", "total", "max", "capacity", "_sample", "_rng")

    def __init__(self, capacity: int = DEFAULT_LATENCY_RESERVOIR,
                 seed: int = 0) -> None:
        self.count = 0
        self.total = 0.0
        self.max = 0.0
        self.capacity = capacity
        self._sample: List[float] = []
        self._rng = random.Random(seed)

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value
        if len(self._sample) < self.capacity:
            self._sample.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self.capacity:
                self._sample[slot] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def sample(self) -> List[float]:
        """A uniform sample of the observed values (at most ``capacity``)."""
        return list(self._sample)


class _LiveCluster:
    """One unfolded written value: scalar bounds plus its reads' intervals."""

    __slots__ = ("label", "write_inv", "write_resp", "write_op", "tag_key",
                 "min_res", "max_inv", "fold_floor", "reads")

    def __init__(self, label: str, write_inv: float, write_op: int) -> None:
        self.label = label
        self.write_inv = write_inv
        self.write_resp: Optional[float] = None
        self.write_op = write_op
        #: ``tag.sort_key`` of the write, captured when it completes (None
        #: until then, and for protocols whose writes carry no tag).
        self.tag_key = None
        #: Earliest response of any cluster operation (None until one responds).
        self.min_res: Optional[float] = None
        #: Latest invocation of any cluster operation.
        self.max_inv = write_inv
        #: Growing past this point forms a pair cycle with a retired value.
        self.fold_floor = _INFINITY
        #: ``(invoked_at, op_id, responded_at)`` of the label's reads, kept
        #: only until the cluster's segment is swept (they feed the witness
        #: sweeps).
        self.reads: List[tuple] = []


class _WitnessBuilder:
    """One incremental candidate witness (a greedy linear sweep).

    Clusters are appended as contiguous segments (each opened by its
    write) in a fixed global order, and the sweep carries the max
    invocation seen so far -- a segment whose operation responds *before*
    that point cannot extend the witness, which kills this candidate (but
    not the others).  ``pending`` buffers closed
    clusters until they are provably next in this builder's order.
    """

    __slots__ = ("max_inv", "failed", "pending")

    def __init__(self) -> None:
        self.max_inv = -_INFINITY
        self.failed = False
        self.pending: Dict[str, _LiveCluster] = {}

    def note_inv(self, invoked_at: float) -> None:
        if invoked_at > self.max_inv:
            self.max_inv = invoked_at

    def sweep(self, cluster: _LiveCluster) -> bool:
        """Append ``cluster``'s segment; False if the candidate dies here."""
        ops = [(cluster.write_inv, cluster.write_resp)]
        for invoked, _op_id, responded in sorted(cluster.reads):
            ops.append((invoked, responded))
        for invoked, responded in ops:
            if responded is not None and responded < self.max_inv:
                self.failed = True
                self.pending.clear()
                return False
            if invoked > self.max_inv:
                self.max_inv = invoked
        return True


class OnlineRegisterChecker:
    """Register linearizability for one object key, decided as events arrive.

    Checks the value partition's necessary conditions over a bounded
    state: live clusters (unfolded values), a small readable set of
    folded values, two scalars for everything retired, the initial-value
    read bounds, and the running witness sweep.  ``failure`` holds the
    first proven violation; ``ambiguous`` marks histories only the batch
    reference search could decide.
    """

    __slots__ = ("key", "clusters", "readable",
                 "retired_max_inv", "first_cluster_res", "first_cluster_label",
                 "latest_initial_inv", "by_res", "by_tag", "_last_unswept",
                 "failure", "ambiguous")

    def __init__(self, key: Optional[str]) -> None:
        self.key = key
        self.clusters: Dict[str, _LiveCluster] = {}
        #: label -> [min_res, max_inv] of folded, still-readable values.
        self.readable: Dict[str, List[float]] = {}
        self.retired_max_inv = -_INFINITY
        self.first_cluster_res = _INFINITY
        self.first_cluster_label: Optional[str] = None
        self.latest_initial_inv = -_INFINITY
        #: The two candidate witnesses, built incrementally: clusters by
        #: earliest response, and clusters by protocol tag.
        self.by_res = _WitnessBuilder()
        self.by_tag = _WitnessBuilder()
        self._last_unswept: Optional[str] = None
        self.failure: Optional[str] = None
        self.ambiguous: Optional[str] = None

    # ----------------------------------------------------------- terminal
    def _fail(self, reason: str) -> None:
        if self.failure is None and self.ambiguous is None:
            self.failure = reason
        self.clusters.clear()
        self.readable.clear()
        self.by_res.pending.clear()
        self.by_tag.pending.clear()

    def _ambiguate(self, reason: str) -> None:
        if self.failure is None and self.ambiguous is None:
            self.ambiguous = reason
        self.clusters.clear()
        self.readable.clear()
        self.by_res.pending.clear()
        self.by_tag.pending.clear()

    @property
    def decided(self) -> bool:
        return self.failure is not None or self.ambiguous is not None

    def _inversion(self, label: str) -> None:
        self._fail("two written values each contain an operation that "
                   "really precedes an operation of the other (stale read "
                   f"or new/old inversion around {label!r})")

    # ------------------------------------------------------------- events
    def invoke(self, record: OperationRecord) -> None:
        if self.decided or record.op_type is not OperationType.WRITE:
            return
        label = record.value_label
        if label is None or label == INITIAL_LABEL \
                or label in self.clusters or label in self.readable:
            self._ambiguate(
                f"write {record} reuses value label {label!r}; duplicate or "
                "initial-value labels need the batch reference checker")
            return
        self.clusters[label] = _LiveCluster(label, record.invoked_at,
                                            record.op_id)

    def complete(self, record: OperationRecord) -> None:
        if self.decided:
            return
        if record.op_type is OperationType.WRITE:
            self._complete_write(record)
        else:
            self._complete_read(record)

    def fail(self, record: OperationRecord) -> None:
        """A write whose client crashed takes no effect; its reads are stale."""
        if self.decided or record.op_type is not OperationType.WRITE:
            return
        cluster = self.clusters.pop(record.value_label, None)
        if cluster is not None and cluster.reads:
            self._fail(f"read(s) returned label {record.value_label!r} of a "
                       "write that failed (no write in the effective history "
                       "produced it)")

    # ------------------------------------------------------ event helpers
    def _note_first_response(self, cluster: _LiveCluster, at: float) -> None:
        cluster.min_res = at
        if at < self.first_cluster_res:
            self.first_cluster_res = at
            self.first_cluster_label = cluster.label
        if at < self.latest_initial_inv:
            self._fail("a read of the initial value was invoked after an "
                       f"operation on {cluster.label!r} completed")

    def _complete_write(self, record: OperationRecord) -> None:
        cluster = self.clusters.get(record.value_label)
        if cluster is None:
            return
        cluster.write_resp = record.responded_at
        if record.tag is not None:
            cluster.tag_key = record.tag.sort_key
        else:
            # The tag-order candidate exists only when *every* effective
            # write carries a tag; one untagged write kills it.
            self._kill_tag_candidate()
        if cluster.min_res is None:
            self._note_first_response(cluster, record.responded_at)
        if not self.decided:
            self._pair_check(cluster)

    def _complete_read(self, record: OperationRecord) -> None:
        label = record.value_label
        if label == INITIAL_LABEL:
            if record.invoked_at > self.latest_initial_inv:
                self.latest_initial_inv = record.invoked_at
            if self.first_cluster_res < record.invoked_at:
                self._fail("a read of the initial value was invoked after an "
                           f"operation on {self.first_cluster_label!r} "
                           "completed")
                return
            self.by_res.note_inv(record.invoked_at)
            self.by_tag.note_inv(record.invoked_at)
            return
        cluster = self.clusters.get(label)
        if cluster is not None:
            cluster.reads.append((record.invoked_at, record.op_id,
                                  record.responded_at))
            if cluster.min_res is None:
                self._note_first_response(cluster, record.responded_at)
            if record.invoked_at > cluster.max_inv:
                cluster.max_inv = record.invoked_at
            if not self.decided:
                self._pair_check(cluster)
            return
        entry = self.readable.get(label)
        if entry is not None:
            # Reading a folded value keeps it last-placeable only if no
            # other value's segment must both follow it and precede this
            # read (i.e. has a response before the read's invocation).
            for live in self.clusters.values():
                if live.min_res is not None \
                        and live.min_res < record.invoked_at \
                        and entry[0] < live.max_inv:
                    self._inversion(label)
                    return
            if record.invoked_at > entry[1]:
                entry[1] = record.invoked_at
            # A builder that has not swept this value's segment yet takes
            # the read *inside* the segment (the witness shape); one
            # that already has only needs the invocation bound.
            read = (record.invoked_at, record.op_id, record.responded_at)
            appended = False
            for builder in (self.by_res, self.by_tag):
                pending = builder.pending.get(label)
                if pending is not None:
                    if not appended:
                        pending.reads.append(read)
                        appended = True
                elif not builder.failed:
                    builder.note_inv(record.invoked_at)
            self._prune_readable()
            return
        self._fail(f"read {record} returned label {label!r} which no write "
                   "in the history produced (or a stale label whose "
                   "concurrency window was already folded)")

    def _pair_check(self, cluster: _LiveCluster) -> None:
        """Cluster-level real-time cycle detection after ``cluster`` grew."""
        if cluster.min_res is None:
            return
        if cluster.max_inv > cluster.fold_floor:
            self._inversion(cluster.label)
            return
        for other in self.clusters.values():
            if other is cluster or other.min_res is None:
                continue
            if other.min_res < cluster.max_inv \
                    and cluster.min_res < other.max_inv:
                self._inversion(cluster.label)
                return
        for label, (min_res, max_inv) in self.readable.items():
            if min_res < cluster.max_inv and cluster.min_res < max_inv:
                self._inversion(label)
                return

    # ------------------------------------------------------------ folding
    def advance(self, frontier: float) -> None:
        """Fold clusters whose concurrency window closed before ``frontier``.

        A closed cluster immediately joins the ``readable`` set (its pair
        checks collapse to the two kept scalars) and is queued on both
        witness builders; each builder sweeps its queue as soon as the head
        is provably next in *that builder's* global order -- which may mean
        waiting on a still-live cluster, bounded by the open window.
        """
        if self.decided:
            return
        closed = [cluster for cluster in self.clusters.values()
                  if cluster.write_resp is not None
                  and cluster.min_res < frontier
                  and cluster.max_inv < frontier]
        for cluster in closed:
            self._close(cluster)
            if self.decided:
                return
        self._drain(final=False)

    def finalize(self) -> None:
        """Fold what remains (including pending writes that have readers);
        pending writes nobody read are dropped: no witness needs them."""
        for cluster in list(self.clusters.values()):
            if self.decided:
                return
            if cluster.min_res is None:
                del self.clusters[cluster.label]
                continue
            self._close(cluster)
        self._drain(final=True)

    def _close(self, cluster: _LiveCluster) -> None:
        del self.clusters[cluster.label]
        if cluster.tag_key is None:
            self._kill_tag_candidate()
        for builder in (self.by_res, self.by_tag):
            if not builder.failed:
                builder.pending[cluster.label] = cluster
        self.readable[cluster.label] = [cluster.min_res, cluster.max_inv]
        if len(self.readable) > READABLE_CAP:
            self._ambiguate(f"more than {READABLE_CAP} mutually-concurrent "
                            "folded values remain readable; deciding this "
                            "history needs the batch reference checker")
            return
        self._prune_readable()

    # ----------------------------------------------------- witness sweeps
    def _drain(self, final: bool) -> None:
        """Let each candidate witness absorb every queued cluster that is
        provably next in its order (all of them once the run is final)."""
        self._drain_res(final)
        self._drain_tag(final)

    def _drain_res(self, final: bool) -> None:
        """Candidate 1: clusters by ``(min_res, write_inv, write_op)``.

        A queued cluster is provably next once no live cluster sorts below
        it -- live clusters without a response yet cannot, because their
        eventual ``min_res`` is a future response time.
        """
        builder = self.by_res
        while builder.pending and not self.decided:
            best = min(builder.pending.values(),
                       key=lambda c: (c.min_res, c.write_inv, c.write_op))
            if not final:
                key = (best.min_res, best.write_inv, best.write_op)
                if any(live.min_res is not None
                       and (live.min_res, live.write_inv, live.write_op) < key
                       for live in self.clusters.values()):
                    return
            del builder.pending[best.label]
            if not builder.sweep(best):
                self._candidate_died(best.label)
                return

    def _drain_tag(self, final: bool) -> None:
        """Candidate 2: clusters by ``(tag sort key, write_op)``.

        A queued cluster ``c`` is provably next once every live cluster
        either carries a larger tag or was invoked after ``c``'s write
        responded (tag monotonicity then forces its tag above ``c``'s; if
        monotonicity is broken the tag checker reports that separately and
        this candidate merely risks dying, never passing wrongly -- a sweep
        that succeeds is a valid witness no matter how its order was
        chosen).
        """
        builder = self.by_tag
        while builder.pending and not self.decided:
            best = min(builder.pending.values(),
                       key=lambda c: (c.tag_key, c.write_op))
            if not final:
                key = (best.tag_key, best.write_op)
                for live in self.clusters.values():
                    if live.tag_key is not None:
                        if (live.tag_key, live.write_op) < key:
                            return
                    elif live.write_inv <= best.write_resp:
                        return
            del builder.pending[best.label]
            if not builder.sweep(best):
                self._candidate_died(best.label)
                return

    def _kill_tag_candidate(self) -> None:
        """An effective write without a tag: the tag-order candidate is off
        the table."""
        if not self.by_tag.failed:
            self.by_tag.failed = True
            self.by_tag.pending.clear()
            if self.by_res.failed:
                self._no_witness()

    def _candidate_died(self, label: str) -> None:
        self._last_unswept = label
        if self.by_res.failed and self.by_tag.failed:
            self._no_witness()

    def _no_witness(self) -> None:
        self._ambiguate(f"no greedy witness order covers value "
                        f"{self._last_unswept!r}; deciding this history "
                        "needs the batch reference checker")

    def _retire(self, label: str) -> None:
        min_res, max_inv = self.readable.pop(label)
        if max_inv > self.retired_max_inv:
            self.retired_max_inv = max_inv
        for live in self.clusters.values():
            if live.min_res is None or live.min_res >= max_inv:
                continue
            if min_res < live.max_inv:
                self._inversion(label)
                return
            if min_res < live.fold_floor:
                live.fold_floor = min_res

    def _prune_readable(self) -> None:
        """Drop readable values that can no longer be linearized last."""
        changed = True
        while changed and not self.decided:
            changed = False
            for label, (min_res, _max_inv) in list(self.readable.items()):
                others = self.retired_max_inv
                for other_label, other in self.readable.items():
                    if other_label != label and other[1] > others:
                        others = other[1]
                if min_res < others:
                    self._retire(label)
                    changed = True
                    break


class OnlineTagChecker:
    """Tag monotonicity (Lemma 20) for one object key, checked as events arrive.

    For any two complete operations ``π1 → π2`` the tag of ``π2`` must be at
    least the tag of ``π1``, and strictly larger when ``π2`` is a write.
    Keeps the monotone envelope of prefix-maximum tags over operations in
    response order; because responses arrive in time order, each completed
    operation only needs one binary search against the envelope, and the
    envelope is pruned below the fold frontier.  The envelope keeps its
    records, not their text: they are formatted only into a failure.
    """

    __slots__ = ("_resp_times", "_tags", "_records", "failure")

    def __init__(self) -> None:
        self._resp_times: List[float] = []
        self._tags: list = []
        self._records: List[OperationRecord] = []
        self.failure: Optional[str] = None

    def observe(self, record: OperationRecord) -> None:
        if self.failure is not None or record.tag is None:
            return
        tag = record.tag
        index = bisect_left(self._resp_times, record.invoked_at)
        if index > 0:
            best_tag = self._tags[index - 1]
            if tag < best_tag:
                self.failure = (f"tag of {record} is smaller than the tag of "
                                f"the preceding {self._records[index - 1]}")
            elif record.op_type is OperationType.WRITE and not tag > best_tag:
                self.failure = (f"write {record} does not have a strictly "
                                "larger tag than the preceding "
                                f"{self._records[index - 1]}")
            if self.failure is not None:
                self._resp_times = []
                self._tags = []
                self._records = []
                return
        if not self._tags or tag > self._tags[-1]:
            self._resp_times.append(record.responded_at)
            self._tags.append(tag)
            self._records.append(record)

    def prune(self, frontier: float) -> None:
        """Forget envelope points no future operation can be compared to."""
        if self.failure is not None or not self._resp_times:
            return
        index = bisect_left(self._resp_times, frontier)
        if index > 1:
            del self._resp_times[:index - 1]
            del self._tags[:index - 1]
            del self._records[:index - 1]


class RegisterFold:
    """The register and tag checkers of every object key, fed event by event.

    Both drivers -- the live :class:`HistoryStream` and the batch
    :func:`replay` -- call :meth:`invoke` and :meth:`respond` in event-time
    order and :meth:`finalize` once at the end.  With ``by_key=False``
    every record is checked against one register whatever its key (the
    single-register batch checks).
    """

    __slots__ = ("by_key", "registers", "tags", "keyed")

    def __init__(self, by_key: bool = True) -> None:
        self.by_key = by_key
        #: Per-key checkers, in key first-invocation order.
        self.registers: Dict[Optional[str], OnlineRegisterChecker] = {}
        self.tags: Dict[Optional[str], OnlineTagChecker] = {}
        #: Whether any read/write record was checked under a named key
        #: (verdicts then name their key).
        self.keyed = False

    def invoke(self, record: OperationRecord) -> None:
        key = record.key if self.by_key else None
        register = self.registers.get(key)
        if register is None:
            register = self.registers[key] = OnlineRegisterChecker(key)
            self.tags[key] = OnlineTagChecker()
        if record.op_type is not OperationType.RECONFIG:
            if key is not None:
                self.keyed = True
            register.invoke(record)

    def respond(self, record: OperationRecord, frontier: float) -> None:
        """Check a response (or a failure), then fold what closed before
        ``frontier`` on the record's key."""
        if record.op_type is OperationType.RECONFIG:
            return
        key = record.key if self.by_key else None
        register, tag_checker = self.registers[key], self.tags[key]
        if record.failed:
            register.fail(record)
        else:
            register.complete(record)
            tag_checker.observe(record)
        register.advance(frontier)
        tag_checker.prune(frontier)

    def finalize(self) -> None:
        """Fold what remains on every key and settle the verdicts."""
        for register in self.registers.values():
            register.finalize()

    def linearizability_failure(self) -> Optional[str]:
        """First proven atomicity violation, in key first-invocation order.

        Raises :class:`~repro.common.errors.StreamingAmbiguityError` when
        some key could only be decided by the batch reference checker and
        no other key has a proven violation.
        """
        ambiguous: Optional[str] = None
        for key, register in self.registers.items():
            prefix = f"key {key!r}: " if self.keyed else ""
            if register.failure is not None:
                return prefix + register.failure
            if register.ambiguous is not None and ambiguous is None:
                ambiguous = prefix + register.ambiguous
        if ambiguous is not None:
            raise StreamingAmbiguityError(ambiguous)
        return None

    def tag_failure(self) -> Optional[str]:
        """First tag-monotonicity violation, in key first-invocation order."""
        for key, checker in self.tags.items():
            if checker.failure is not None:
                prefix = f"key {key!r}: " if self.keyed else ""
                return prefix + checker.failure
        return None


def replay(history: History, by_key: bool = True) -> RegisterFold:
    """Decide a finished batch history by driving a fold over it in one pass.

    Events are replayed in ``(time, invocations before responses, op_id)``
    order, a failure standing for its record's response.  At equal times
    invocations go first: precedence needs a response strictly before an
    invocation, and in a live run a write is invoked before any read can
    return its value.  After each response the frontier is the invocation
    time of the earliest record, in invocation order, whose response has
    not been replayed yet.  The history's records stay in place.
    """
    fold = RegisterFold(by_key)
    records = history.operations()
    events = [(record.invoked_at, 0, record.op_id, record) for record in records]
    events.extend((record.responded_at, 1, record.op_id, record)
                  for record in records if record.responded_at is not None)
    events.sort()
    answered = set()
    first = 0
    for _at, is_response, op_id, record in events:
        if not is_response:
            fold.invoke(record)
            continue
        answered.add(op_id)
        while first < len(records) and records[first].op_id in answered:
            first += 1
        fold.respond(record, records[first].invoked_at
                     if first < len(records) else _INFINITY)
    fold.finalize()
    return fold


class HistoryStream:
    """The live driver of a :class:`RegisterFold`, plus signature accumulation.

    Created by :meth:`History.enable_streaming`; the history calls
    :meth:`on_invoke` / :meth:`on_respond` / :meth:`on_fail` for every
    record event, in non-decreasing event time (enforced here).
    """

    def __init__(self, history: History,
                 window_limit: int = DEFAULT_WINDOW_LIMIT) -> None:
        if window_limit < 1:
            raise StreamingHistoryError("window_limit must be >= 1")
        self._history = history
        self.window_limit = window_limit
        self._accumulator = SignatureAccumulator()
        self._fold = RegisterFold()
        self._finalized = False
        self._last_event_at = -_INFINITY
        self.total_records = 0
        self.completed_operations = 0
        self.failed_operations = 0
        self.folded_records = 0
        self.open_window_peak = 0
        self.read_latencies = StreamingStats(DEFAULT_LATENCY_RESERVOIR, seed=0)
        self.write_latencies = StreamingStats(DEFAULT_LATENCY_RESERVOIR, seed=1)
        #: Observability registry; None (the default) keeps the per-record
        #: path at a single attribute test (same idiom as the network's
        #: quiet path).  When installed, every invocation samples the open
        #: concurrency window into the ``open_window`` gauge.
        self.metrics = None

    # ---------------------------------------------------------- properties
    @property
    def finalized(self) -> bool:
        return self._finalized

    @property
    def open_window(self) -> int:
        """Number of records currently held (invoked or fold-pinned)."""
        return len(self._history._records)

    def is_keyed(self) -> bool:
        """Mirror of :meth:`History.is_keyed` over the streamed records."""
        return self._fold.keyed

    # -------------------------------------------------------------- events
    def _admit(self, what: str, at: float) -> None:
        if self._finalized:
            raise StreamingHistoryError(
                f"cannot {what}: the stream is finalized")
        if at < self._last_event_at:
            raise StreamingHistoryError(
                f"cannot {what} at time {at}: streaming histories must be "
                f"recorded in event-time order (last event at "
                f"{self._last_event_at})")
        self._last_event_at = at

    def on_invoke(self, record: OperationRecord) -> None:
        self._admit("record an invocation", record.invoked_at)
        self.total_records += 1
        open_window = len(self._history._records)
        if open_window > self.open_window_peak:
            self.open_window_peak = open_window
        if self.metrics is not None:
            self.metrics.set_gauge("open_window", open_window)
        if open_window > self.window_limit:
            raise StreamingWindowError(
                f"open concurrency window ({open_window} unfolded records) "
                f"exceeded window_limit={self.window_limit}; an operation "
                "that never responds is pinning the fold frontier")
        self._fold.invoke(record)

    def on_respond(self, record: OperationRecord) -> None:
        self._admit("record a response", record.responded_at)
        self.completed_operations += 1
        latency = record.responded_at - record.invoked_at
        if record.op_type is OperationType.READ:
            self.read_latencies.add(latency)
        elif record.op_type is OperationType.WRITE:
            self.write_latencies.add(latency)
        self._advance(record)

    def on_fail(self, record: OperationRecord) -> None:
        self._admit("record a failure", record.responded_at)
        self.failed_operations += 1
        self._advance(record)

    def _advance(self, record: OperationRecord) -> None:
        """Fold the closed prefix, then hand the response to the fold."""
        records = self._history._records
        fold_entry = self._accumulator.fold
        while records:
            first_id = next(iter(records))
            first = records[first_id]
            if first.responded_at is None:
                frontier = first.invoked_at
                break
            fold_entry(signature_entry(first))
            del records[first_id]
            self.folded_records += 1
        else:
            frontier = _INFINITY
        self._fold.respond(record, frontier)

    # ------------------------------------------------------------ finishing
    def finalize(self) -> None:
        """Fold everything left (pending records included) and settle verdicts.

        Idempotent; called automatically by the signature accessors and by
        :meth:`ChaosRunResult.check <repro.workloads.scenarios.ChaosRunResult.check>`
        in streaming mode.  After finalize the history accepts no records.
        """
        if self._finalized:
            return
        self._finalized = True
        records = self._history._records
        fold_entry = self._accumulator.fold
        for record in records.values():
            fold_entry(signature_entry(record))
            self.folded_records += 1
        records.clear()
        self._fold.finalize()

    def signature_digests(self) -> SignatureAccumulator:
        """The fold accumulator over every record, once :meth:`finalize` ran."""
        self.finalize()
        return self._accumulator

    # ------------------------------------------------------------- verdicts
    def method(self) -> str:
        """Checker-method label: the batch checks label the same fold ``fast``."""
        return "per-key(streaming)" if self._fold.keyed else "streaming"

    def linearizability_failure(self) -> Optional[str]:
        """See :meth:`RegisterFold.linearizability_failure`."""
        return self._fold.linearizability_failure()

    def tag_failure(self) -> Optional[str]:
        """See :meth:`RegisterFold.tag_failure`."""
        return self._fold.tag_failure()
