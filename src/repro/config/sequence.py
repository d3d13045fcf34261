"""Configuration sequences (the local view ``cseq`` of the global list GL).

Every client process keeps a local approximation of the global configuration
sequence: an array of ``<cfg, status>`` pairs where ``status`` is ``P``
(pending) or ``F`` (finalized).  The key quantities used by the protocol and
by its analysis are:

* ``µ(cseq)`` -- the index of the *last finalized* configuration;
* ``ν(cseq)`` -- the index of the *last* (non-⊥) configuration.

The sequence operations here mirror the paper's notation and additionally
provide the prefix checks used by the tests for Lemmas 13-16 (Configuration
Uniqueness / Prefix / Progress).

Pruning
-------
The liveness analysis only ever traverses the suffix ``[µ, ν]``, so entries
strictly before ``µ`` are dead weight once the configurations they name have
been retired.  :meth:`ConfigSequence.prune` drops them behind a retained
**base offset**: every public index stays the *absolute* GL index (``µ``/``ν``
and all existing index arithmetic keep their paper meaning) while the backing
list shrinks.  :meth:`ConfigSequence.jump_to` is the client-side half of the
server's retirement tombstone -- a stale sequence whose retained window lies
entirely before a finalized successor re-bases onto that successor in one
step.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.config.configuration import Configuration


class Status(enum.Enum):
    """Configuration status within a sequence."""

    PENDING = "P"
    FINALIZED = "F"


@dataclass(frozen=True)
class ConfigRecord:
    """One ``<cfg, status>`` entry of a configuration sequence."""

    config: Configuration
    status: Status

    def finalized(self) -> "ConfigRecord":
        """The same entry with status ``F``."""
        return ConfigRecord(config=self.config, status=Status.FINALIZED)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.config.cfg_id}, {self.status.value}>"


def next_link(records: Iterable[Optional[ConfigRecord]]) -> Optional[ConfigRecord]:
    """The ``nextC`` a quorum reported (Algorithm 4 lines 16-21).

    The first finalized record, else the first pending one, else ``None``
    (the paper's ``⊥``).
    """
    pending = None
    for record in records:
        if record is not None:
            if record.status is Status.FINALIZED:
                return record
            if pending is None:
                pending = record
    return pending


class ConfigSequence:
    """A growable, prunable sequence of :class:`ConfigRecord` entries.

    Index 0 of GL always holds the initial configuration ``c0`` with status
    ``F``.  A fresh sequence retains everything from index 0; after
    :meth:`prune` (or :meth:`jump_to`) the backing list starts at
    :attr:`base` instead, but **every index accepted or returned by this
    class remains the absolute GL index** -- accessing a pruned index raises
    :class:`~repro.common.errors.ConfigurationError`.
    """

    def __init__(self, initial: Configuration) -> None:
        self._entries: List[ConfigRecord] = [ConfigRecord(initial, Status.FINALIZED)]
        #: Absolute GL index of ``_entries[0]`` (0 until the sequence prunes).
        self._base = 0
        #: Cached ``µ``: the index of the last finalized entry.  Finalized
        #: status only ever moves forward (``set_record`` never downgrades
        #: ``F``), so the cache is maintained monotonically by every mutator
        #: instead of re-scanning the list on each read/write/reconfig round.
        self._mu = 0

    # ------------------------------------------------------------- accessors
    def __len__(self) -> int:
        """Logical length of the known prefix of GL (``ν + 1``)."""
        return self._base + len(self._entries)

    def __iter__(self) -> Iterator[ConfigRecord]:
        """Iterate over the *retained* records (those at ``base .. ν``)."""
        return iter(self._entries)

    def __getitem__(self, index: int) -> ConfigRecord:
        return self._record_at(index)

    def _record_at(self, index: int) -> ConfigRecord:
        offset = index - self._base
        if offset < 0:
            raise ConfigurationError(
                f"index {index} was pruned from the sequence (retained base "
                f"is {self._base})")
        if offset >= len(self._entries):
            raise ConfigurationError(
                f"index {index} is beyond the sequence (last index "
                f"is {self.nu})")
        return self._entries[offset]

    @property
    def base(self) -> int:
        """Absolute GL index of the first *retained* entry."""
        return self._base

    @property
    def nu(self) -> int:
        """``ν``: index of the last configuration in the sequence."""
        return self._base + len(self._entries) - 1

    @property
    def mu(self) -> int:
        """``µ``: index of the last configuration whose status is ``F``.

        Served from the monotone cache; the property tests compare it
        against a backward scan over the retained records.
        """
        return self._mu

    @property
    def last(self) -> ConfigRecord:
        """The record at index ``ν``."""
        return self._entries[-1]

    def config_at(self, index: int) -> Configuration:
        """The configuration object at ``index``."""
        return self._record_at(index).config

    def index_of(self, cfg_id) -> Optional[int]:
        """Absolute index of the retained entry for ``cfg_id`` (or ``None``)."""
        for offset, entry in enumerate(self._entries):
            if entry.config.cfg_id == cfg_id:
                return self._base + offset
        return None

    def records_before(self, index: int) -> List[Tuple[int, ConfigRecord]]:
        """The retained ``(absolute index, record)`` pairs strictly before ``index``."""
        stop = min(index, self.nu + 1) - self._base
        return [(self._base + offset, self._entries[offset])
                for offset in range(max(0, stop))]

    # -------------------------------------------------------------- mutation
    def append(self, record: ConfigRecord) -> int:
        """Append a record; returns its (absolute) index.

        Appending a configuration whose identifier already appears in the
        retained window is rejected: the paper assumes each configuration is
        installed at most once (Section 4.1).
        """
        if any(entry.config.cfg_id == record.config.cfg_id for entry in self._entries):
            raise ConfigurationError(
                f"configuration {record.config.cfg_id} already present in the sequence"
            )
        self._entries.append(record)
        index = self._base + len(self._entries) - 1
        if record.status is Status.FINALIZED and index > self._mu:
            self._mu = index
        return index

    def set_record(self, index: int, record: ConfigRecord) -> None:
        """Install ``record`` at ``index`` (extending the sequence by one if needed).

        Used by the sequence-traversal code when it learns entry ``index``
        from a server.  Installing a *different* configuration at an existing
        index violates Configuration Uniqueness (Lemma 13) and raises.
        """
        offset = index - self._base
        if offset < 0:
            raise ConfigurationError(
                f"cannot install index {index}: it was pruned (retained base "
                f"is {self._base})")
        if offset < len(self._entries):
            existing = self._entries[offset]
            if existing.config.cfg_id != record.config.cfg_id:
                raise ConfigurationError(
                    f"configuration uniqueness violated at index {index}: "
                    f"{existing.config.cfg_id} vs {record.config.cfg_id}"
                )
            # Never downgrade F to P.
            if existing.status is Status.FINALIZED:
                return
            self._entries[offset] = record
            if record.status is Status.FINALIZED and index > self._mu:
                self._mu = index
        elif offset == len(self._entries):
            self.append(record)
        else:
            raise ConfigurationError(
                f"cannot install index {index} in a sequence ending at {self.nu}"
            )

    def finalize(self, index: int) -> None:
        """Mark the record at ``index`` as finalized."""
        offset = index - self._base
        if not 0 <= offset < len(self._entries):
            raise ConfigurationError(
                f"cannot finalize index {index}: retained window is "
                f"[{self._base}, {self.nu}]")
        self._entries[offset] = self._entries[offset].finalized()
        if index > self._mu:
            self._mu = index

    def prune(self, upto: int) -> int:
        """Drop every entry strictly before ``upto``; returns how many dropped.

        ``upto`` must not exceed ``µ``: the suffix ``[µ, ν]`` is what live
        operations gather over, so the last finalized entry (and everything
        after it) is always retained.  Indices keep their absolute meaning --
        the drop is recorded in :attr:`base`.
        """
        if upto > self._mu:
            raise ConfigurationError(
                f"cannot prune up to {upto}: last finalized index is {self._mu}")
        drop = upto - self._base
        if drop <= 0:
            return 0
        del self._entries[:drop]
        self._base = upto
        return drop

    def jump_to(self, index: int, record: ConfigRecord) -> None:
        """Re-base the sequence onto a finalized successor at ``index``.

        The client-side half of a retirement tombstone: when every retained
        entry of this sequence lies before a finalized configuration at
        ``index`` (learned from a retired configuration's servers), the
        intermediate entries are unlearnable -- their servers reclaimed them
        -- and unneeded (state was transferred forward before finalization,
        so gathering over ``[µ, ν]`` with ``µ = index`` is safe).  The
        sequence becomes the single retained record at ``index``.

        A jump to an index inside the retained window degrades to
        :meth:`set_record` (uniqueness still enforced); jumping *backwards*
        past the base is rejected.
        """
        if record.status is not Status.FINALIZED:
            raise ConfigurationError(
                f"tombstone jump target at index {index} must be finalized")
        if index <= self.nu:
            self.set_record(index, record)
            return
        self._entries = [record]
        self._base = index
        self._mu = index

    # ----------------------------------------------------------- comparisons
    def is_prefix_of(self, other: "ConfigSequence") -> bool:
        """Prefix order ``x ⪯_p y`` on the configuration members (Definition 12).

        Compared over the indices both sequences retain; entries either side
        pruned are covered by Configuration Uniqueness (a retired entry was
        finalized at its index, which never changes).
        """
        if len(self) > len(other):
            return False
        start = max(self._base, other._base)
        return all(
            self[i].config.cfg_id == other[i].config.cfg_id
            for i in range(start, len(self))
        )

    def copy(self) -> "ConfigSequence":
        """An independent copy (records are shared; they are immutable)."""
        clone = ConfigSequence(self._entries[0].config)
        clone._entries = list(self._entries)
        clone._base = self._base
        clone._mu = self._mu
        return clone

    def describe(self) -> str:
        """Compact rendering like ``[<c0,F>, <c1,P>]`` (with the base offset)."""
        inner = ", ".join(str(entry) for entry in self._entries)
        if self._base:
            return f"[...{self._base} pruned..., {inner}]"
        return "[" + inner + "]"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()
