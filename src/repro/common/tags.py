"""Logical tags and tag-value pairs.

A tag ``τ`` is a pair ``(z, w)`` where ``z`` is a natural number and ``w`` a
writer identifier (Section 2, "Tags").  Tags are totally ordered: first by
the integer part, ties broken by the writer identifier.  The initial tag of
every object is ``t0 = (0, ⊥)`` which compares smaller than any tag produced
by a writer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.common.ids import ProcessId
    from repro.common.values import Value


@dataclass(frozen=True)
class Tag:
    """A logical timestamp ``(z, w)``.

    Attributes
    ----------
    z:
        Monotonically increasing integer component.
    writer:
        The :class:`~repro.common.ids.ProcessId` of the writer that created
        the tag, or ``None`` for the initial tag ``t0``.
    """

    z: int
    writer: Optional["ProcessId"] = None
    # Tags are compared on every quorum reply (max-tag selection, server
    # updates), so the comparison key is built once at construction instead
    # of twice per comparison.  ``compare=False`` keeps equality and hashing
    # on ``(z, writer)`` exactly as before.
    sort_key: tuple = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # ``None`` (the initial writer) sorts below every real writer id.
        writer_key = ("", -1) if self.writer is None else self.writer.sort_key
        object.__setattr__(self, "sort_key", (self.z, writer_key))
        # Tags key the per-server DAP state dictionaries, so they are hashed
        # on nearly every protocol message; same basis as the generated hash.
        object.__setattr__(self, "_hash", hash((self.z, self.writer)))

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Tag") -> bool:
        return self.sort_key < other.sort_key

    def __le__(self, other: "Tag") -> bool:
        return self.sort_key <= other.sort_key

    def __gt__(self, other: "Tag") -> bool:
        return self.sort_key > other.sort_key

    def __ge__(self, other: "Tag") -> bool:
        return self.sort_key >= other.sort_key

    def increment(self, writer: "ProcessId") -> "Tag":
        """Return the tag ``(z + 1, writer)`` used by a write operation.

        This is the ``inc(t)`` step of template A1: the writer bumps the
        integer part of the maximum tag it discovered and stamps it with its
        own identifier.
        """
        return Tag(z=self.z + 1, writer=writer)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        owner = self.writer.name if self.writer is not None else "⊥"
        return f"({self.z},{owner})"


#: The initial tag ``t0`` carried by every object before the first write.
BOTTOM_TAG = Tag(z=0, writer=None)


@dataclass(frozen=True)
class TagValue:
    """An immutable ``(tag, value)`` pair as exchanged by the DAPs."""

    tag: Tag
    value: "Value"

    def __lt__(self, other: "TagValue") -> bool:
        return self.tag < other.tag

    def __le__(self, other: "TagValue") -> bool:
        return self.tag <= other.tag

    def __gt__(self, other: "TagValue") -> bool:
        return self.tag > other.tag

    def __ge__(self, other: "TagValue") -> bool:
        return self.tag >= other.tag

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.tag}, {self.value}>"


def max_tag(tags: "list[Tag]", default: Optional[Tag] = None) -> Tag:
    """Return the maximum of ``tags``.

    Parameters
    ----------
    tags:
        Possibly empty list of tags.
    default:
        Value to return when ``tags`` is empty; defaults to
        :data:`BOTTOM_TAG`.
    """
    if not tags:
        return BOTTOM_TAG if default is None else default
    best = tags[0]
    for tag in tags[1:]:
        if tag > best:
            best = tag
    return best


def max_tag_value(pairs: "list[TagValue]", default: Optional[TagValue] = None) -> Optional[TagValue]:
    """Return the pair with the maximum tag, or ``default`` if empty."""
    if not pairs:
        return default
    best = pairs[0]
    for pair in pairs[1:]:
        if pair.tag > best.tag:
            best = pair
    return best
