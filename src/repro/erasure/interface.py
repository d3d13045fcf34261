"""Abstract erasure-code interface and the coded-element type.

Every configuration in ARES carries a code (Reed-Solomon for TREAS-backed
configurations, replication for ABD-backed ones).  The code maps a
:class:`~repro.common.values.Value` to ``n`` :class:`CodedElement` objects
(``Φ_i(v)`` in the paper) and reconstructs the value from any ``k`` of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.common.values import Value


@dataclass(frozen=True)
class CodedElement:
    """One coded element ``c_i = Φ_i(v)``.

    Attributes
    ----------
    index:
        The output component ``i`` (0-based); the paper associates coded
        element ``c_i`` with server ``i``.
    payload:
        The fragment bytes; for an ``[n, k]`` code the accounted size is
        ``ceil(|v| / k)`` (plus negligible padding bookkeeping).
    original_size:
        The size of the original value in bytes, needed to strip padding at
        decode time.  Treated as metadata for cost purposes.
    label:
        The label of the encoded value, carried for test observability only.
    """

    index: int
    payload: bytes
    original_size: int
    label: Optional[str] = None

    @property
    def size(self) -> int:
        """Fragment size in bytes (the paper's ``1/k`` units)."""
        return len(self.payload)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"CodedElement(i={self.index}, {self.size}B, of {self.label})"


class ErasureCode:
    """Abstract ``[n, k]`` code.

    Concrete subclasses: :class:`~repro.erasure.rs.ReedSolomonCode` and
    :class:`~repro.erasure.replication.ReplicationCode`.
    """

    #: Total number of coded elements (one per server).
    n: int
    #: Number of elements sufficient (and necessary) to reconstruct the value.
    k: int

    def encode(self, value: Value,
               known: Iterable[CodedElement] = ()) -> List[CodedElement]:
        """Encode ``value`` into ``n`` coded elements (index ``0 .. n-1``).

        ``known`` holds coded elements of this very value that the caller
        already has (a TREAS reader writing back what it just decoded): the
        result equals ``encode(value)`` element for element, but an element
        covered by ``known`` is taken from there instead of being computed.
        The payload of a known element is trusted, its shape is not.

        Raises
        ------
        ValueError
            If a known element cannot belong to ``value`` under this code:
            its index is outside ``0 .. n-1``, its ``original_size`` is not
            ``value.size`` or its length is not the shard length.
        """
        raise NotImplementedError

    def encode_one(self, value: Value, index: int) -> CodedElement:
        """The element for server ``index``, equal to ``encode(value)[index]``.

        This default encodes all ``n`` elements to keep one; a code that can
        compute a single element for less overrides it
        (:class:`~repro.erasure.rs.ReedSolomonCode` does).
        """
        return self.encode(value)[index]

    def decode(self, elements: Iterable[CodedElement]) -> Value:
        """Reconstruct the value from at least ``k`` distinct coded elements.

        Raises
        ------
        repro.common.errors.DecodeError
            If fewer than ``k`` distinct indices are provided or the
            fragments are inconsistent.
        """
        raise NotImplementedError

    def is_decodable(self, elements: Iterable[CodedElement]) -> bool:
        """Whether the given elements contain ``k`` distinct indices."""
        indices = {e.index for e in elements if e is not None}
        return len(indices) >= self.k

    # ------------------------------------------------------------ cost model
    def fragment_size(self, value_size: int) -> int:
        """Size in bytes of one coded element for a value of ``value_size`` bytes."""
        if self.k == 1:
            return value_size
        return -(-value_size // self.k)  # ceil division

    def storage_overhead(self) -> float:
        """Total storage across all servers in units of the value size (``n/k``)."""
        return self.n / self.k

    def parameters(self) -> Dict[str, int]:
        """The ``(n, k)`` parameters as a dict (used in reports)."""
        return {"n": self.n, "k": self.k}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}[n={self.n}, k={self.k}]"
