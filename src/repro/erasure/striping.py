"""How a value is cut into ``k`` equal shards.

Before Reed-Solomon encoding a value is divided into ``k`` data shards of
equal length (the paper: "v is divided into k elements v_1 ... v_k with each
element having size 1/k").  Values whose length is not a multiple of ``k``
are padded with zero bytes up to ``k * shard_length``; the original length
travels with every coded element so decoding can strip the padding, and a
fragment whose length is not ``shard_length(original_size, k)`` is rejected.
The slicing itself is plain ``bytes`` slicing in
:class:`repro.erasure.rs.ReedSolomonCode`.
"""

from __future__ import annotations


def shard_length(value_size: int, k: int) -> int:
    """Length of each of the ``k`` shards for a ``value_size``-byte value."""
    if k <= 0:
        raise ValueError("k must be positive")
    if value_size == 0:
        return 0
    return -(-value_size // k)  # ceil division
