"""Matrix operations over GF(2^8).

Reed-Solomon decoding reduces to inverting the submatrix of the generator
matrix formed by the rows of the surviving coded elements.  This module
provides that inversion (Gauss-Jordan elimination in the field), plus the
Vandermonde construction used to build a systematic generator matrix.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.common.errors import DecodeError
from repro.erasure.gf256 import gf_inverse, gf_mul, gf_pow

#: A GF(2^8) matrix: immutable rows of Python ints (the matrices here are at
#: most 255 x 255 and usually ``n x k`` with single-digit ``k``).
Matrix = Tuple[Tuple[int, ...], ...]


def identity_matrix(size: int) -> Matrix:
    """The ``size x size`` identity matrix over GF(2^8)."""
    return tuple(tuple(int(i == j) for j in range(size)) for i in range(size))


def vandermonde_matrix(rows: int, cols: int) -> Matrix:
    """The ``rows x cols`` Vandermonde matrix ``V[i, j] = (i+1)^j`` over GF(2^8).

    Using evaluation points ``1, 2, ..., rows`` (all distinct and non-zero for
    ``rows <= 255``) guarantees every ``cols x cols`` submatrix is invertible,
    which is the MDS property.
    """
    if rows > 255:
        raise ValueError("GF(2^8) Vandermonde construction supports at most 255 rows")
    return tuple(tuple(gf_pow(i + 1, j) for j in range(cols)) for i in range(rows))


def matrix_multiply(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    """Multiply two GF(2^8) matrices."""
    if len(a[0]) != len(b):
        raise ValueError(
            f"cannot multiply {len(a)}x{len(a[0])} by {len(b)}x{len(b[0])}")
    out = []
    for row in a:
        out_row = []
        for column in zip(*b):
            acc = 0
            for x, y in zip(row, column):
                acc ^= gf_mul(x, y)
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


def matrix_invert(matrix: Sequence[Sequence[int]]) -> Matrix:
    """Invert a square GF(2^8) matrix by Gauss-Jordan elimination.

    Raises
    ------
    DecodeError
        If the matrix is singular (which for Reed-Solomon means the chosen
        fragment subset cannot decode -- impossible for a true MDS generator,
        so it indicates corrupted input).
    """
    size = len(matrix)
    if any(len(row) != size for row in matrix):
        raise ValueError(
            f"cannot invert non-square matrix of shape {size}x{len(matrix[0])}")
    work = [list(row) for row in matrix]
    inverse = [list(row) for row in identity_matrix(size)]

    for col in range(size):
        # Find a pivot row with a non-zero entry in this column.
        pivot = None
        for row in range(col, size):
            if work[row][col] != 0:
                pivot = row
                break
        if pivot is None:
            raise DecodeError("singular matrix: fragment subset is not decodable")
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            inverse[col], inverse[pivot] = inverse[pivot], inverse[col]
        # Normalise the pivot row.
        pivot_value = work[col][col]
        if pivot_value != 1:
            inv_pivot = gf_inverse(pivot_value)
            work[col] = [gf_mul(x, inv_pivot) for x in work[col]]
            inverse[col] = [gf_mul(x, inv_pivot) for x in inverse[col]]
        # Eliminate the column from every other row.
        for row in range(size):
            factor = work[row][col]
            if row == col or factor == 0:
                continue
            work[row] = [x ^ gf_mul(factor, p) for x, p in zip(work[row], work[col])]
            inverse[row] = [x ^ gf_mul(factor, p)
                            for x, p in zip(inverse[row], inverse[col])]
    return tuple(tuple(row) for row in inverse)


def systematic_generator(n: int, k: int) -> Matrix:
    """Build a systematic ``n x k`` MDS generator matrix.

    The first ``k`` rows are the identity (so the first ``k`` coded elements
    are the data shards themselves) and the remaining ``n - k`` rows are
    parity rows derived from a Vandermonde matrix.  Systematisation is done
    by right-multiplying the full Vandermonde matrix with the inverse of its
    top ``k x k`` block, which preserves the MDS property.
    """
    if k <= 0 or n < k:
        raise ValueError(f"invalid code parameters [n={n}, k={k}]")
    vander = vandermonde_matrix(n, k)
    generator = matrix_multiply(vander, matrix_invert(vander[:k]))
    # Clean up: the top block must be exactly the identity.
    return identity_matrix(k) + generator[k:]
