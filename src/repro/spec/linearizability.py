"""Linearizability (atomicity) checking for MWMR read/write registers.

The checker decides whether a recorded :class:`~repro.spec.history.History`
of a single register is linearizable with respect to the sequential
read/write register specification, i.e. whether the atomicity conditions
A1-A3 of Section 2 admit a total order.

Two cooperating algorithms
--------------------------
:func:`check_linearizability` first runs a **register-specialised fast
checker** (:func:`_fast_check`) and only falls back to the exhaustive
Wing-Gong search (:func:`check_linearizability_reference`) when the fast
checker cannot decide.

*Fast path* -- a Gibbons/Korach-style value partition, in the spirit of
Lowe's just-in-time linearization.  When every write carries a distinct
value label (the workload generators guarantee this), operations partition
into per-value **clusters** -- one write plus all reads returning its value.
In any linearization each value occupies one contiguous segment, so a
cluster is ordered entirely before another whenever any of its operations
really precedes one of the other's; that cluster-level precedence reduces to
comparing two scalars (the cluster's earliest response against the other's
latest invocation).  The fast checker

1. rejects outright on *necessary-condition* violations: a read returning a
   value no write produced, a read completing before its write was invoked,
   a read of the initial value invoked after another value's cluster had to
   be over, or two clusters that each must precede the other (a real-time
   cycle -- the classic stale read / new-old inversion);
2. otherwise *constructs* candidate linearizations (clusters ordered by
   earliest response, then by protocol tag when available) and verifies one
   in a single linear sweep.

A verified witness proves linearizability; a failed necessary condition
disproves it; anything else (duplicate value labels, no candidate order
surviving the sweep) is **ambiguous** and is handed to the reference search,
so the combination is exactly as precise as Wing-Gong while the common case
-- by far the dominant cost of chaos-scenario verification -- runs in
near-linear time.

*Reference path* -- the Wing-Gong / Lowe-style depth-first search over
operation orderings with memoisation on the *configuration* (set of
linearized operation ids plus the current register value), with the
minimal-by-precedence candidate rule and lazy treatment of incomplete
writes.

Histories are expected to use unique value labels per write (the workload
generators guarantee this); reads returning the initial value are matched
against the ``"v0"`` label of :data:`repro.common.values.BOTTOM_VALUE`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.spec.history import History, OperationRecord, OperationType

#: Label of the register's initial value: reads linearized before every
#: write return it.
INITIAL_LABEL = "v0"

#: Safety valve for the reference search: past this many states it gives up,
#: reporting failure with an explanatory reason.
_MAX_STATES = 2_000_000

_INFINITY = float("inf")


@dataclass
class LinearizabilityResult:
    """The outcome of a linearizability check."""

    ok: bool
    #: A witness linearization (operation ids in order) when ``ok``.
    order: List[int] = field(default_factory=list)
    #: Human-readable explanation when not ``ok``.
    reason: str = ""
    #: Number of search states explored (for diagnostics / performance tests).
    #: The fast checker decides without searching, reporting ``0``.
    states_explored: int = 0
    #: Which algorithm produced the verdict: ``"fast"`` or ``"reference"``.
    method: str = ""

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


def check_linearizability(history: History) -> LinearizabilityResult:
    """Check that ``history`` is linearizable as a read/write register.

    Runs the near-linear fast checker first and falls back to the
    Wing-Gong reference search only on histories the fast checker finds
    ambiguous (e.g. duplicate value labels, or no greedy witness passing
    verification).  Both paths agree on every decidable history; the fast
    path only ever returns *proven* verdicts.

    Parameters
    ----------
    history:
        The recorded history.  Failed operations are ignored; incomplete
        (pending) writes are treated as possibly-effective, incomplete reads
        are ignored (a pending read imposes no constraint).
    """
    fast = _fast_check(history)
    if fast is not None:
        return fast
    return check_linearizability_reference(history)


# ======================================================================
# Fast path: value-partition checker
# ======================================================================

class _Cluster:
    """One effective written value: its write plus the reads returning it."""

    __slots__ = ("write", "reads", "min_res", "max_inv")

    def __init__(self, write: OperationRecord, reads: List[OperationRecord]) -> None:
        self.write = write
        self.reads = reads
        min_res = write.responded_at if write.complete else _INFINITY
        max_inv = write.invoked_at
        for read in reads:
            if read.responded_at < min_res:
                min_res = read.responded_at
            if read.invoked_at > max_inv:
                max_inv = read.invoked_at
        #: Earliest response of any cluster operation: if it lies before an
        #: operation of another cluster, this cluster's segment must come
        #: first in every linearization.
        self.min_res = min_res
        #: Latest invocation of any cluster operation (the dual bound).
        self.max_inv = max_inv


def _fast_check(history: History) -> Optional[LinearizabilityResult]:
    """Decide the history directly, or return ``None`` when ambiguous.

    Never guesses: ``ok=True`` only with a sweep-verified witness,
    ``ok=False`` only on violated necessary conditions.
    """
    reads = history.reads(complete_only=True)
    writes = [w for w in history.writes() if not w.failed]

    writes_by_label: Dict[str, OperationRecord] = {}
    for write in writes:
        label = write.value_label
        if label is None or label == INITIAL_LABEL or label in writes_by_label:
            return None  # ambiguous labelling: leave it to the reference search
        writes_by_label[label] = write

    initial_reads: List[OperationRecord] = []
    reads_by_label: Dict[str, List[OperationRecord]] = {}
    for read in reads:
        label = read.value_label
        if label == INITIAL_LABEL:
            initial_reads.append(read)
        elif label in writes_by_label:
            reads_by_label.setdefault(label, []).append(read)
        else:
            return LinearizabilityResult(
                ok=False,
                reason=(f"read {read} returned label {read.value_label!r} which no "
                        "write in the history produced"),
                method="fast",
            )

    # Effective clusters: complete writes always take effect; pending writes
    # only when some read returned their value (dropping a read-free pending
    # write can never hurt, so the witness simply omits them).
    clusters: List[_Cluster] = []
    for label, write in writes_by_label.items():
        cluster_reads = reads_by_label.get(label, [])
        if not write.complete and not cluster_reads:
            continue
        for read in cluster_reads:
            if read.responded_at < write.invoked_at:
                return LinearizabilityResult(
                    ok=False,
                    reason=(f"read {read} completed before the write of "
                            f"{label!r} ({write}) was invoked"),
                    method="fast",
                )
        clusters.append(_Cluster(write, cluster_reads))

    # Reads of the initial value must be linearized before every write.
    if initial_reads:
        latest_initial_inv = max(r.invoked_at for r in initial_reads)
        for cluster in clusters:
            if cluster.min_res < latest_initial_inv:
                return LinearizabilityResult(
                    ok=False,
                    reason=(f"a read of the initial value was invoked after an "
                            f"operation on {cluster.write.value_label!r} completed"),
                    method="fast",
                )

    # Cluster-level real-time cycle: clusters u, v where an operation of u
    # precedes one of v AND vice versa can never both be contiguous segments.
    # u must precede v iff min_res(u) < max_inv(v), so a cycle is a pair with
    # min_res(u) < max_inv(v) and min_res(v) < max_inv(u); detected in
    # O(V log V) with a prefix scan over clusters sorted by min_res.
    by_min_res = sorted(clusters, key=lambda c: c.min_res)
    min_res_list = [c.min_res for c in by_min_res]
    running_max_inv = -_INFINITY
    prefix_max_inv: List[float] = []
    for cluster in by_min_res:
        if cluster.max_inv > running_max_inv:
            running_max_inv = cluster.max_inv
        prefix_max_inv.append(running_max_inv)
    for j, cluster in enumerate(by_min_res):
        k = min(bisect_left(min_res_list, cluster.max_inv), j)
        if k > 0 and prefix_max_inv[k - 1] > cluster.min_res:
            return LinearizabilityResult(
                ok=False,
                reason=("two written values each contain an operation that "
                        "really precedes an operation of the other (stale read "
                        f"or new/old inversion around {cluster.write.value_label!r})"),
                method="fast",
            )

    # Candidate segment orders: earliest-response order is correct for the
    # common case; the protocol's own tags (when every write carries one)
    # give a second, just-in-time-style candidate.
    candidates: List[List[_Cluster]] = [
        sorted(clusters, key=lambda c: (c.min_res, c.write.invoked_at, c.write.op_id)),
    ]
    if clusters and all(c.write.tag is not None for c in clusters):
        candidates.append(sorted(
            clusters, key=lambda c: (c.write.tag.sort_key, c.write.op_id)))

    prologue = sorted(initial_reads, key=lambda r: (r.invoked_at, r.op_id))
    for candidate in candidates:
        witness: List[OperationRecord] = list(prologue)
        for cluster in candidate:
            witness.append(cluster.write)
            witness.extend(sorted(cluster.reads,
                                  key=lambda r: (r.invoked_at, r.op_id)))
        if _verify_witness(witness):
            return LinearizabilityResult(
                ok=True, order=[op.op_id for op in witness], method="fast")

    if not clusters and not initial_reads:
        return LinearizabilityResult(ok=True, method="fast")
    return None  # no candidate verified: ambiguous, defer to the search


def _verify_witness(witness: List[OperationRecord]) -> bool:
    """Check a candidate order against real time in one linear sweep.

    The order is semantically valid by construction (each value is a
    contiguous segment opened by its write), so only real-time precedence
    remains: no operation may respond before an *earlier-placed* operation
    was invoked.
    """
    max_inv_so_far = -_INFINITY
    for op in witness:
        responded = op.responded_at
        if responded is not None and responded < max_inv_so_far:
            return False
        if op.invoked_at > max_inv_so_far:
            max_inv_so_far = op.invoked_at
    return True


# ======================================================================
# Reference path: Wing-Gong depth-first search
# ======================================================================

def check_linearizability_reference(history: History) -> LinearizabilityResult:
    """Exhaustive Wing-Gong search (the pre-existing reference checker).

    Kept both as the fallback for histories the fast checker cannot decide
    and as the oracle of the differential test-suite
    (``tests/test_linearizability_fast.py``).
    """
    reads = [r for r in history.reads(complete_only=True)]
    complete_writes = [w for w in history.writes() if w.complete]
    pending_writes = [w for w in history.writes() if not w.complete and not w.failed]
    operations: List[OperationRecord] = reads + complete_writes + pending_writes

    # Quick structural check: every read must return the initial value or the
    # value of some write present in the history.
    known_labels = {w.value_label for w in complete_writes + pending_writes}
    for read in reads:
        if read.value_label != INITIAL_LABEL and read.value_label not in known_labels:
            return LinearizabilityResult(
                ok=False,
                reason=(f"read {read} returned label {read.value_label!r} which no "
                        "write in the history produced"),
                method="reference",
            )

    by_id: Dict[int, OperationRecord] = {op.op_id: op for op in operations}
    ids: List[int] = sorted(by_id)
    # Precompute real-time predecessors: op -> set of ops that must precede it.
    predecessors: Dict[int, Set[int]] = {op_id: set() for op_id in ids}
    for a in operations:
        for b in operations:
            if a.op_id != b.op_id and a.precedes(b):
                predecessors[b.op_id].add(a.op_id)

    pending_write_ids = {w.op_id for w in pending_writes}
    total_required = len(reads) + len(complete_writes)

    # Depth-first search with memoisation on (linearized-set, current label).
    seen: Set[Tuple[FrozenSet[int], Optional[str]]] = set()
    states = {"count": 0}

    def search(linearized: FrozenSet[int], current_label: str, done_required: int,
               order: List[int]) -> Optional[List[int]]:
        if done_required == total_required:
            return order
        key = (linearized, current_label)
        if key in seen:
            return None
        seen.add(key)
        states["count"] += 1
        if states["count"] > _MAX_STATES:
            raise _SearchBudgetExceeded()

        for op_id in ids:
            if op_id in linearized:
                continue
            if predecessors[op_id] - linearized:
                continue  # some real-time predecessor not linearized yet
            op = by_id[op_id]
            if op.op_type is OperationType.READ:
                if op.value_label != current_label:
                    continue
                result = search(linearized | {op_id}, current_label,
                                done_required + 1, order + [op_id])
            else:
                increment = 0 if op_id in pending_write_ids else 1
                result = search(linearized | {op_id}, op.value_label,
                                done_required + increment, order + [op_id])
            if result is not None:
                return result
        return None

    try:
        witness = search(frozenset(), INITIAL_LABEL, 0, [])
    except _SearchBudgetExceeded:
        return LinearizabilityResult(
            ok=False,
            reason=f"search budget of {_MAX_STATES} states exceeded",
            states_explored=states["count"],
            method="reference",
        )
    if witness is None:
        return LinearizabilityResult(
            ok=False,
            reason="no linearization order satisfies the register specification",
            states_explored=states["count"],
            method="reference",
        )
    return LinearizabilityResult(ok=True, order=witness,
                                 states_explored=states["count"], method="reference")


class _SearchBudgetExceeded(Exception):
    """Internal signal: the memoised search exceeded its state budget."""


def check_tag_monotonicity(history: History) -> Optional[str]:
    """Cheap necessary condition using protocol tags (Lemma 20).

    For any two complete operations ``π1 → π2`` the tag of ``π2`` must be at
    least the tag of ``π1``; when ``π2`` is a write its tag must be strictly
    larger (a write always increments past every tag it discovered).
    Returns ``None`` if the condition holds, otherwise a description of the
    first violation.  This is a fast sanity check used alongside the full
    linearizability search.

    Runs in ``O(n log n)``: with operations sorted by response time, the
    real-time predecessors of an operation are a prefix (all operations that
    responded before its invocation), so each operation only needs to be
    compared against the maximum tag of that prefix.
    """
    operations = [op for op in history.operations(complete_only=True)
                  if op.tag is not None and op.op_type is not OperationType.RECONFIG]
    operations.sort(key=lambda op: op.responded_at)
    response_times = [op.responded_at for op in operations]
    # prefix_best[i]: operation with the maximum tag among operations[0..i]
    # (earliest such operation on ties, matching the pairwise scan's order).
    prefix_best: List[OperationRecord] = []
    best = None
    for op in operations:
        if best is None or op.tag > best.tag:
            best = op
        prefix_best.append(best)
    for second in operations:
        count = bisect_left(response_times, second.invoked_at)
        if count == 0:
            continue
        first = prefix_best[count - 1]
        if second.tag < first.tag:
            return (f"tag of {second} is smaller than the tag of the preceding {first}")
        if second.op_type is OperationType.WRITE and not second.tag > first.tag:
            return (f"write {second} does not have a strictly larger tag than the "
                    f"preceding {first}")
    return None


# ======================================================================
# Per-key (multi-object store) checking
# ======================================================================

@dataclass
class PerKeyLinearizabilityResult:
    """The outcome of checking a keyed (multi-object) history per key.

    A sharded store records all objects into one history; each object is an
    independent atomic register, so the history is linearizable iff every
    per-key sub-history is.  ``results`` keeps the per-key verdicts (in
    first-invocation order of the keys) for diagnostics.
    """

    ok: bool
    #: Per-key verdicts, in the history's deterministic key order.
    results: Dict[Optional[str], LinearizabilityResult] = field(default_factory=dict)
    #: First violation, prefixed with the offending key, when not ``ok``.
    reason: str = ""

    @property
    def method(self) -> str:
        """Aggregate checker-method label, e.g. ``per-key(fast)``."""
        methods = sorted({r.method for r in self.results.values() if r.method})
        return f"per-key({','.join(methods)})" if methods else "per-key"

    @property
    def states_explored(self) -> int:
        """Total search states explored across all keys."""
        return sum(r.states_explored for r in self.results.values())

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


def check_linearizability_per_key(history: History) -> PerKeyLinearizabilityResult:
    """Check a keyed history: every object key must linearize independently.

    Each per-key sub-history runs through :func:`check_linearizability`
    (fast checker first, Wing-Gong fallback).  Key-less records (e.g.
    reconfigurations mixed into a store history) form their own group; with
    no read/write operations it passes trivially.  Every key is checked
    even after a failure so ``results`` is always complete.

    Records spanning config epochs: a store key that was live-migrated
    (new servers, a different DAP kind, or another shard) records *keyed*
    ``RECONFIG`` operations alongside its reads and writes, and its
    read/write records straddle several configurations.  The per-key
    checkers accept such sub-histories as-is -- reconfigurations impose no
    register semantics (the type filters skip them) and linearizability is
    configuration-agnostic, which is exactly the paper's claim that
    atomicity survives reconfiguration.
    """
    results: Dict[Optional[str], LinearizabilityResult] = {}
    ok = True
    reason = ""
    for key, sub in history.split_by_key().items():
        result = check_linearizability(sub)
        results[key] = result
        if not result.ok and ok:
            ok = False
            reason = f"key {key!r}: {result.reason}"
    return PerKeyLinearizabilityResult(ok=ok, results=results, reason=reason)


def check_tag_monotonicity_per_key(history: History) -> Optional[str]:
    """Per-key version of :func:`check_tag_monotonicity`.

    Tags of different objects live in independent tag spaces (each key has
    its own writes), so the Lemma 20 condition only binds operations on the
    same key.  The condition deliberately spans config epochs: a migration
    transfers the maximum tag into the new configuration, so tags must stay
    monotone *across* the key's reconfigurations (keyed ``RECONFIG``
    records themselves carry no register tag and are skipped).  Returns the
    first violation prefixed with its key, or ``None``.
    """
    for key, sub in history.split_by_key().items():
        violation = check_tag_monotonicity(sub)
        if violation is not None:
            return f"key {key!r}: {violation}"
    return None
