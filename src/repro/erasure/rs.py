"""Systematic Reed-Solomon ``[n, k]`` MDS code over GF(2^8).

The generator is a systematic ``n x k`` matrix built from a Vandermonde
matrix (:func:`repro.erasure.matrix.systematic_generator`); decoding inverts
the ``k x k`` submatrix of the ``k`` surviving fragments.  Any ``k`` of the
``n`` coded elements reconstruct the value, which is exactly the MDS
property the paper relies on.

Everything that touches value bytes is ``bytes`` slicing plus one primitive,
:func:`repro.erasure.gf256.gf_combine` (one output shard from one row of
coefficients):

* encode slices the ``k`` data elements out of the zero-padded payload (see
  :mod:`repro.erasure.striping` for the padding rule) and combines once per
  parity row, ``n - k`` times -- less the rows whose element the caller
  already holds and passes as ``known`` (a TREAS reader writing back what
  it decoded); :meth:`ReedSolomonCode.encode_one` computes only the element
  asked for, which is a slice for a data index;
* decode keeps every surviving data shard verbatim and combines once per
  *missing* data shard, with the matching row of the inverse.  When all
  ``k`` data shards survived no inverse is looked up at all;
* decode inverses are memoised, as immutable rows, in a bounded LRU keyed by
  the sorted surviving-index tuple -- TREAS reads repeatedly decode from the
  same quorum, so after the first decode the Gauss-Jordan elimination
  disappears from the hot path.

This is the stand-in for pyeclib/liberasurecode in the original deployment;
the storage and communication accounting (fragment size ``|v|/k``) is
identical, only raw encode/decode throughput differs (see
``benchmarks/bench_erasure.py``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.common.errors import DecodeError
from repro.common.lru import BoundedLRU
from repro.common.values import Value
from repro.erasure.gf256 import gf_combine
from repro.erasure.interface import CodedElement, ErasureCode
from repro.erasure.matrix import Matrix, matrix_invert, systematic_generator
from repro.erasure.striping import shard_length

# Generator matrices only depend on (n, k); cache them across code instances
# because deployments create one code object per configuration.
_GENERATOR_CACHE: Dict[Tuple[int, int], Matrix] = {}

#: Memoised decode matrices: ``(n, k, surviving indices) -> inverse``.
#: Shared across code instances (the key pins the generator) and bounded so
#: a sweep over many [n, k] settings cannot grow it without limit.
_DECODE_CACHE: BoundedLRU[Tuple[int, int, Tuple[int, ...]], Matrix] = (
    BoundedLRU(maxsize=256))


def decode_cache_info() -> Dict[str, int]:
    """Hit/miss counters and occupancy of the decode-inverse cache."""
    return _DECODE_CACHE.info()


def decode_cache_clear() -> None:
    """Drop every memoised decode inverse and reset the counters."""
    _DECODE_CACHE.clear()


class ReedSolomonCode(ErasureCode):
    """A systematic Reed-Solomon ``[n, k]`` code.

    Parameters
    ----------
    n:
        Number of coded elements (must equal the configuration's server count).
    k:
        Number of elements required to decode.  TREAS liveness requires
        ``k > n/3``; the constructor enforces only ``1 <= k <= n <= 255`` and
        leaves protocol-level constraints to the configuration validation.
    """

    def __init__(self, n: int, k: int) -> None:
        if not 1 <= k <= n:
            raise ValueError(f"invalid Reed-Solomon parameters [n={n}, k={k}]")
        if n > 255:
            raise ValueError("GF(2^8) Reed-Solomon supports at most 255 fragments")
        self.n = n
        self.k = k
        key = (n, k)
        if key not in _GENERATOR_CACHE:
            _GENERATOR_CACHE[key] = systematic_generator(n, k)
        self.generator = _GENERATOR_CACHE[key]
        # The generator is systematic: rows [0, k) are the identity, so only
        # the parity rows ever multiply anything.
        self._parity_rows = self.generator[k:]
        self._identity_indices = tuple(range(k))

    # ---------------------------------------------------------------- encode
    def _data_shards(self, payload: bytes) -> List[bytes]:
        """The ``k`` data elements: equal slices of the zero-padded payload."""
        length = shard_length(len(payload), self.k)
        padded = payload.ljust(length * self.k, b"\0")
        return [padded[i * length:(i + 1) * length] for i in range(self.k)]

    def encode(self, value: Value,
               known: Iterable[CodedElement] = ()) -> List[CodedElement]:
        """Encode ``value`` into ``n`` coded elements ``Φ_1(v) ... Φ_n(v)``.

        Data elements are always slices of the payload; a parity row is
        combined only when no element of ``known`` covers it.
        """
        data = self._data_shards(value.payload)
        size, label = value.size, value.label
        length = len(data[0])
        held: Dict[int, bytes] = {}
        for element in known:
            if not 0 <= element.index < self.n:
                raise ValueError(
                    f"known element index {element.index} out of range for [n={self.n}, k={self.k}]")
            if element.original_size != size or len(element.payload) != length:
                raise ValueError(
                    f"known element {element.index} ({element.size} B of a "
                    f"{element.original_size}-byte value) is not an element of this "
                    f"{size}-byte value under [n={self.n}, k={self.k}]")
            held[element.index] = element.payload
        shards = data + [held[index] if index in held else gf_combine(row, data)
                         for index, row in enumerate(self._parity_rows, self.k)]
        return [CodedElement(index=i, payload=shard, original_size=size, label=label)
                for i, shard in enumerate(shards)]

    def encode_one(self, value: Value, index: int) -> CodedElement:
        """Encode only ``Φ_index(v)``: a slice for a data index, one row otherwise."""
        index = range(self.n)[index]
        shards = self._data_shards(value.payload)
        payload = (shards[index] if index < self.k
                   else gf_combine(self._parity_rows[index - self.k], shards))
        return CodedElement(index=index, payload=payload,
                            original_size=value.size, label=value.label)

    # ---------------------------------------------------------------- decode
    def _decode_matrix(self, indices: Tuple[int, ...]) -> Matrix:
        """The inverse of the generator rows at ``indices`` (memoised, immutable)."""
        key = (self.n, self.k, indices)
        cached = _DECODE_CACHE.get(key)
        if cached is not None:
            return cached
        return _DECODE_CACHE.put(
            key, matrix_invert([self.generator[index] for index in indices]))

    def decode(self, elements: Iterable[CodedElement]) -> Value:
        """Reconstruct the value from any ``k`` distinct coded elements."""
        unique: Dict[int, CodedElement] = {}
        for element in elements:
            if element is None:
                continue
            if not 0 <= element.index < self.n:
                raise DecodeError(
                    f"coded element index {element.index} out of range for [n={self.n}, k={self.k}]"
                )
            unique.setdefault(element.index, element)
        if len(unique) < self.k:
            raise DecodeError(
                f"need {self.k} distinct coded elements to decode, got {len(unique)}"
            )
        chosen = [unique[i] for i in sorted(unique)][: self.k]
        sizes = {e.size for e in chosen}
        if len(sizes) > 1:
            raise DecodeError(f"inconsistent fragment sizes {sorted(sizes)}")
        original_sizes = {e.original_size for e in chosen}
        if len(original_sizes) > 1:
            raise DecodeError(
                f"fragments disagree on the original value size {sorted(original_sizes)}"
            )
        original_size = chosen[0].original_size
        if shard_length(original_size, self.k) != chosen[0].size:
            raise DecodeError(
                f"{chosen[0].size}-byte fragments cannot belong to a "
                f"{original_size}-byte value under [n={self.n}, k={self.k}]"
            )

        indices = tuple(e.index for e in chosen)
        shards = [e.payload for e in chosen]
        if indices != self._identity_indices:
            # Surviving data shards are taken verbatim (their inverse rows
            # are unit vectors); only the missing ones are recomputed.
            inverse = self._decode_matrix(indices)
            held = dict(zip(indices, shards))
            shards = [held[row] if row in held else gf_combine(inverse[row], shards)
                      for row in range(self.k)]
        payload = b"".join(shards)[:original_size]
        return Value(payload=payload, label=chosen[0].label)
