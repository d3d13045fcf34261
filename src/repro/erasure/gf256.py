"""Arithmetic over the Galois field GF(2^8).

The field is realised as polynomials over GF(2) modulo the primitive
polynomial ``x^8 + x^4 + x^3 + x^2 + 1`` (0x11D), the conventional choice for
Reed-Solomon codes.  Scalar multiplication and division use log/antilog
tables of the generator ``α = 2``; they serve the small matrix algebra in
:mod:`repro.erasure.matrix`.

Bulk data goes through exactly one primitive, :func:`gf_combine`: the
GF-linear combination of equal-length byte strings with one row of
coefficients.  Multiplying a whole shard by a coefficient is a single
``bytes.translate`` through that coefficient's 256-byte multiplication
table (built on first use, at most 255 tables), and the products are
XOR-accumulated as numpy ``uint8`` views.  Coefficient 0 contributes
nothing and coefficient 1 contributes the shard itself, so the identity
rows of a systematic code cost no field arithmetic at all.

That XOR is the package's only use of numpy, which is therefore imported
by the first :func:`gf_combine` call that has two terms to add, not with
the module: a process that never runs Reed-Solomon never loads it.
"""

from __future__ import annotations

import functools
from typing import Sequence

#: numpy, bound once by the first :func:`gf_combine` that needs it.
np = None

#: The primitive polynomial x^8 + x^4 + x^3 + x^2 + 1.
PRIMITIVE_POLY = 0x11D
#: The multiplicative generator used to build the log tables.
GENERATOR = 2
#: Field order.
FIELD_SIZE = 256


def _build_tables() -> tuple:
    """Build exponentiation and logarithm tables for GF(2^8)."""
    exp = [0] * (2 * FIELD_SIZE)
    log = [0] * FIELD_SIZE
    x = 1
    for i in range(FIELD_SIZE - 1):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & 0x100:
            x ^= PRIMITIVE_POLY
    # Duplicate so that exp[log[a] + log[b]] needs no modular reduction.
    for i in range(FIELD_SIZE - 1, 2 * FIELD_SIZE):
        exp[i] = exp[i - (FIELD_SIZE - 1)]
    return exp, log


EXP_TABLE, LOG_TABLE = _build_tables()


def gf_add(a: int, b: int) -> int:
    """Addition in GF(2^8) (XOR)."""
    return (a ^ b) & 0xFF


def gf_mul(a: int, b: int) -> int:
    """Multiplication in GF(2^8) via log tables."""
    if a == 0 or b == 0:
        return 0
    return EXP_TABLE[LOG_TABLE[a] + LOG_TABLE[b]]


def gf_div(a: int, b: int) -> int:
    """Division in GF(2^8); raises ``ZeroDivisionError`` for ``b == 0``."""
    if b == 0:
        raise ZeroDivisionError("division by zero in GF(2^8)")
    if a == 0:
        return 0
    return EXP_TABLE[(LOG_TABLE[a] - LOG_TABLE[b]) % (FIELD_SIZE - 1)]


def gf_pow(a: int, power: int) -> int:
    """Exponentiation ``a ** power`` in GF(2^8)."""
    if power == 0:
        return 1
    if a == 0:
        return 0
    return EXP_TABLE[(LOG_TABLE[a] * power) % (FIELD_SIZE - 1)]


def gf_inverse(a: int) -> int:
    """Multiplicative inverse of ``a``; raises for ``a == 0``."""
    if a == 0:
        raise ZeroDivisionError("zero has no inverse in GF(2^8)")
    return EXP_TABLE[(FIELD_SIZE - 1) - LOG_TABLE[a]]


@functools.lru_cache(maxsize=None)
def _mul_table(coefficient: int) -> bytes:
    """The ``bytes.translate`` table ``x -> coefficient * x`` (``coefficient != 0``)."""
    log_c = LOG_TABLE[coefficient]
    return bytes([0] + [EXP_TABLE[log_c + LOG_TABLE[x]] for x in range(1, FIELD_SIZE)])


def gf_combine(coefficients: Sequence[int], shards: Sequence[bytes]) -> bytes:
    """The GF(2^8)-linear combination ``sum_c coefficients[c] * shards[c]``.

    ``shards`` are equal-length byte strings and ``coefficients`` one field
    element per shard.  This is the only function in the package that
    multiplies bulk data by field coefficients: a parity element is one
    call with a generator row, a lost data shard one call with a row of the
    decode inverse.  A zero coefficient skips its shard, a one uses it as
    is, anything else is one ``bytes.translate`` through the coefficient's
    multiplication table.
    """
    if len(coefficients) != len(shards):
        raise ValueError(
            f"{len(coefficients)} coefficients for {len(shards)} shards")
    if len({len(shard) for shard in shards}) > 1:
        raise ValueError("shards must have equal lengths")
    terms = [shard if c == 1 else shard.translate(_mul_table(c))
             for c, shard in zip(coefficients, shards) if c != 0]
    if not terms:
        return bytes(len(shards[0])) if shards else b""
    if len(terms) == 1:
        return bytes(terms[0])
    global np
    if np is None:
        import numpy as np
    acc = np.frombuffer(terms[0], dtype=np.uint8) ^ np.frombuffer(terms[1], dtype=np.uint8)
    for term in terms[2:]:
        acc ^= np.frombuffer(term, dtype=np.uint8)
    return acc.tobytes()
