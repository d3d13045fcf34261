"""Linearizability (atomicity) checking for MWMR read/write registers.

The checks decide whether a recorded :class:`~repro.spec.history.History`
of a single register is linearizable with respect to the sequential
read/write register specification, i.e. whether the atomicity conditions
A1-A3 of Section 2 admit a total order.

Every batch check replays the finished history once, in event-time order,
through the register fold of :mod:`repro.spec.streaming`
(:func:`~repro.spec.streaming.replay`): the same
:class:`~repro.spec.streaming.OnlineRegisterChecker` (a Gibbons-Korach
value partition) and :class:`~repro.spec.streaming.OnlineTagChecker`
(Lemma 20) that a live streaming history drives, so one implementation
decides atomicity in both modes.  A verdict the fold decides is labelled
``"fast"``; it is proven (a failed necessary condition, or a swept witness
order) but carries no witness ``order``.

*Reference path* -- the Wing-Gong / Lowe-style depth-first search over
operation orderings with memoisation on the *configuration* (set of
linearized operation ids plus the current register value), with the
minimal-by-precedence candidate rule and lazy treatment of incomplete
writes.  A key whose writes reuse a value label, and any key the fold
marks ambiguous, is decided here; the search is also the oracle of the
differential tests.

Histories are expected to use unique value labels per write (the workload
generators guarantee this); reads returning the initial value are matched
against the ``"v0"`` label of :data:`repro.common.values.BOTTOM_VALUE`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from repro.spec.history import History, OperationRecord, OperationType
from repro.spec.streaming import INITIAL_LABEL, RegisterFold, replay

#: Safety valve for the reference search: past this many states it gives up,
#: reporting failure with an explanatory reason.
_MAX_STATES = 2_000_000


@dataclass
class LinearizabilityResult:
    """The outcome of a linearizability check."""

    ok: bool
    #: A witness linearization (operation ids in order) when the reference
    #: search found one; verdicts of the fold leave it empty.
    order: List[int] = field(default_factory=list)
    #: Human-readable explanation when not ``ok``.
    reason: str = ""
    #: Number of search states explored (for diagnostics / performance tests).
    #: The fold decides without searching, reporting ``0``.
    states_explored: int = 0
    #: Which algorithm produced the verdict: ``"fast"`` or ``"reference"``.
    method: str = ""

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


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
    #: First violation when not ``ok``, prefixed with the offending key
    #: when the history is keyed.
    reason: str = ""

    @property
    def method(self) -> str:
        """Aggregate checker-method label, e.g. ``per-key(fast)``."""
        methods = sorted({r.method for r in self.results.values() if r.method})
        return f"per-key({','.join(methods)})" if methods else "per-key"

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


def check_linearizability(history: History) -> LinearizabilityResult:
    """Check that ``history`` is linearizable as a read/write register.

    Replays the history through the register fold and falls back to the
    Wing-Gong reference search only when the fold cannot decide (duplicate
    value labels, or no greedy witness order).  Every record addresses the
    one register here, whatever its key.

    Parameters
    ----------
    history:
        The recorded history.  Failed operations are ignored; incomplete
        (pending) writes are treated as possibly-effective, incomplete reads
        are ignored (a pending read imposes no constraint).
    """
    return _single(_linearizability(history, replay(history, by_key=False)))


def check_linearizability_per_key(history: History) -> PerKeyLinearizabilityResult:
    """Check a keyed history: every object key must linearize independently.

    One replay folds every key at once; a key the fold cannot decide falls
    back to the Wing-Gong search on its sub-history.  Key-less records (e.g.
    reconfigurations mixed into a store history) form their own group; with
    no read/write operations it passes trivially.  Every key is checked
    even after a failure so ``results`` is always complete.

    Records spanning config epochs: a store key that was live-migrated
    (new servers, a different DAP kind, or another shard) records *keyed*
    ``RECONFIG`` operations alongside its reads and writes, and its
    read/write records straddle several configurations.  The per-key
    checks accept such sub-histories as-is -- reconfigurations impose no
    register semantics (the fold skips them) and linearizability is
    configuration-agnostic, which is exactly the paper's claim that
    atomicity survives reconfiguration.
    """
    return _linearizability(history, replay(history))


def check_tag_monotonicity(history: History) -> Optional[str]:
    """Cheap necessary condition using protocol tags (Lemma 20).

    For any two complete operations ``π1 → π2`` the tag of ``π2`` must be at
    least the tag of ``π1``; when ``π2`` is a write its tag must be strictly
    larger (a write always increments past every tag it discovered).
    Returns ``None`` if the condition holds, otherwise a description of the
    first violation, found by replaying the history through the fold's
    :class:`~repro.spec.streaming.OnlineTagChecker`.
    """
    return replay(history, by_key=False).tag_failure()


def check_tag_monotonicity_per_key(history: History) -> Optional[str]:
    """Per-key version of :func:`check_tag_monotonicity`.

    Tags of different objects live in independent tag spaces (each key has
    its own writes), so the Lemma 20 condition only binds operations on the
    same key.  The condition deliberately spans config epochs: a migration
    transfers the maximum tag into the new configuration, so tags must stay
    monotone *across* the key's reconfigurations (keyed ``RECONFIG``
    records themselves carry no register tag and are skipped).  Returns the
    first violation, prefixed with its key when the history is keyed, or
    ``None``.
    """
    return replay(history).tag_failure()


def check_atomicity(history: History) -> Tuple[
        Union[LinearizabilityResult, PerKeyLinearizabilityResult], Optional[str]]:
    """Both batch verdicts of ``history`` from one replay of the fold.

    Keyed (store) histories are checked per key, as by
    :func:`check_linearizability_per_key` and
    :func:`check_tag_monotonicity_per_key`; others as one register.
    Returns the linearizability result and the first tag-monotonicity
    violation (``None`` when tags are monotone).
    """
    keyed = history.is_keyed()
    fold = replay(history, by_key=keyed)
    verdict = _linearizability(history, fold)
    return (verdict if keyed else _single(verdict)), fold.tag_failure()


def _linearizability(history: History,
                     fold: RegisterFold) -> PerKeyLinearizabilityResult:
    """The fold's verdict on every key; a key it cannot decide, or whose
    writes reuse a value label, goes to the reference search."""
    reusing = _keys_reusing_labels(history, fold.by_key)
    results: Dict[Optional[str], LinearizabilityResult] = {}
    ok = True
    reason = ""
    for key, register in fold.registers.items():
        if register.ambiguous is not None or key in reusing:
            result = check_linearizability_reference(
                history.for_key(key) if fold.by_key else history)
        else:
            result = LinearizabilityResult(ok=register.failure is None,
                                           reason=register.failure or "",
                                           method="fast")
        results[key] = result
        if not result.ok and ok:
            ok = False
            reason = (f"key {key!r}: " if fold.keyed else "") + result.reason
    return PerKeyLinearizabilityResult(ok=ok, results=results, reason=reason)


def _single(verdict: PerKeyLinearizabilityResult) -> LinearizabilityResult:
    """The one register's result of a fold replayed with ``by_key=False``."""
    return verdict.results.get(None, LinearizabilityResult(ok=True, method="fast"))


def _keys_reusing_labels(history: History, by_key: bool) -> Set[Optional[str]]:
    """Keys with an effective write whose value label is missing, the
    initial label, or another write's: their value partition is ambiguous."""
    seen: Set[Tuple[Optional[str], Optional[str]]] = set()
    reusing: Set[Optional[str]] = set()
    for write in history.writes():
        if write.failed:
            continue
        key = write.key if by_key else None
        label = write.value_label
        if label is None or label == INITIAL_LABEL or (key, label) in seen:
            reusing.add(key)
        seen.add((key, label))
    return reusing


# ======================================================================
# Reference path: Wing-Gong depth-first search
# ======================================================================

def check_linearizability_reference(history: History) -> LinearizabilityResult:
    """Exhaustive Wing-Gong search (the reference checker).

    Kept both as the fallback for histories the fold cannot decide and as
    the oracle of the differential test-suite
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
