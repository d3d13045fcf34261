"""Replication as the degenerate ``[n, 1]`` erasure code.

Replication-based configurations (ABD, LDR) store the whole value at every
server.  Expressing replication through the :class:`~repro.erasure.interface.ErasureCode`
interface lets the rest of the stack (DAPs, cost accounting, reconfiguration)
treat replicated and erasure-coded configurations uniformly: a "coded
element" is simply a full copy of the value and ``k = 1`` copies suffice to
"decode".
"""

from __future__ import annotations

from typing import Iterable, List

from repro.common.errors import DecodeError
from repro.common.values import Value
from repro.erasure.interface import CodedElement, ErasureCode


class ReplicationCode(ErasureCode):
    """Full replication across ``n`` servers (an ``[n, 1]`` MDS code)."""

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("replication needs at least one server")
        self.n = n
        self.k = 1

    def encode(self, value: Value,
               known: Iterable[CodedElement] = ()) -> List[CodedElement]:
        """Return ``n`` identical full copies of the value (``known`` saves nothing)."""
        return [
            CodedElement(index=i, payload=value.payload,
                         original_size=value.size, label=value.label)
            for i in range(self.n)
        ]

    def decode(self, elements: Iterable[CodedElement]) -> Value:
        """Return the value from any single copy."""
        for element in elements:
            if element is None:
                continue
            return Value(payload=element.payload[: element.original_size],
                         label=element.label)
        raise DecodeError("no replica available to decode from")
