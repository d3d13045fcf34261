"""Unit and property-based tests for the erasure-coding substrate.

The differential oracle for the data path lives here: :func:`oracle_combine`
is a scalar double loop over :func:`gf_mul`, and :func:`oracle_encode` /
:func:`oracle_decode` are the textbook generator-matrix and inverse-matrix
products built on it.  Production code must agree with them byte for byte.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from typing import List, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import DecodeError
from repro.common.values import Value
from repro.erasure.gf256 import (
    FIELD_SIZE,
    gf_add,
    gf_combine,
    gf_div,
    gf_inverse,
    gf_mul,
    gf_pow,
)
from repro.erasure.matrix import (
    identity_matrix,
    matrix_invert,
    matrix_multiply,
    systematic_generator,
    vandermonde_matrix,
)
from repro.erasure.interface import CodedElement
from repro.erasure.replication import ReplicationCode
from repro.erasure.rs import (ReedSolomonCode, decode_cache_clear,
                              decode_cache_info)
from repro.erasure.striping import shard_length

field_elements = st.integers(0, 255)
nonzero_elements = st.integers(1, 255)
#: ``[n, k]`` with ``1 <= k <= min(n, 8)`` and ``n <= 12``.
code_parameters = st.integers(1, 12).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(1, min(n, 8))))


def oracle_combine(coefficients: Sequence[int], shards: Sequence[bytes]) -> bytes:
    """``out[i] = XOR_c coefficients[c] * shards[c][i]``, one scalar at a time."""
    out = bytearray(len(shards[0]) if shards else 0)
    for coefficient, shard in zip(coefficients, shards):
        for position, byte in enumerate(shard):
            out[position] ^= gf_mul(int(coefficient), byte)
    return bytes(out)


def oracle_encode(n: int, k: int, payload: bytes) -> List[bytes]:
    """All ``n`` fragments: generator matrix times the zero-padded data shards."""
    length = shard_length(len(payload), k)
    padded = payload + bytes(length * k - len(payload))
    data = [padded[i * length:(i + 1) * length] for i in range(k)]
    return [oracle_combine(row, data) for row in systematic_generator(n, k)]


def oracle_decode(n: int, k: int, fragments: Sequence[CodedElement]) -> bytes:
    """The full inverse-matrix product over ``k`` fragments, padding stripped."""
    indices = [fragment.index for fragment in fragments]
    generator = systematic_generator(n, k)
    inverse = matrix_invert([generator[index] for index in indices])
    payloads = [fragment.payload for fragment in fragments]
    data = b"".join(oracle_combine(row, payloads) for row in inverse)
    return data[: fragments[0].original_size]


#: Run in a child interpreter (this one has numpy loaded long ago).
_NUMPY_PROBE = """
import sys
import repro, repro.erasure.rs
assert "numpy" not in sys.modules, "import repro loads numpy"

from repro import ShardSpec, StoreDeployment, StoreSpec, Value
store = StoreDeployment(StoreSpec(shards=(ShardSpec(dap="abd", num_servers=5),) * 3, seed=0))
for index in range(20):
    store.put(f"key{index}", Value.of_size(64, label=f"v{index}"))
    assert store.get(f"key{index}").label == f"v{index}"
assert "numpy" not in sys.modules, "an ABD-only store run loads numpy"

code = repro.erasure.rs.ReedSolomonCode(6, 4)
value = Value.of_size(4096)
assert code.decode(code.encode(value)[2:]).payload == value.payload
assert "numpy" in sys.modules, "Reed-Solomon parity no longer goes through numpy"
"""


def test_numpy_loads_only_where_reed_solomon_runs(run_in_child):
    """``import repro`` and a replication-only run never pay for numpy.

    Its one use is the XOR in :func:`gf_combine`; importing it with the
    package cost every process ~13 MB of resident memory and ~0.1 s.
    """
    run_in_child(_NUMPY_PROBE)


class TestGF256:
    @given(field_elements, field_elements)
    def test_addition_is_commutative_and_self_inverse(self, a, b):
        assert gf_add(a, b) == gf_add(b, a)
        assert gf_add(gf_add(a, b), b) == a

    @given(field_elements, field_elements, field_elements)
    def test_multiplication_associative(self, a, b, c):
        assert gf_mul(gf_mul(a, b), c) == gf_mul(a, gf_mul(b, c))

    @given(field_elements, field_elements, field_elements)
    def test_distributivity(self, a, b, c):
        assert gf_mul(a, gf_add(b, c)) == gf_add(gf_mul(a, b), gf_mul(a, c))

    @given(nonzero_elements)
    def test_inverse(self, a):
        assert gf_mul(a, gf_inverse(a)) == 1

    @given(field_elements, nonzero_elements)
    def test_division_inverts_multiplication(self, a, b):
        assert gf_div(gf_mul(a, b), b) == a

    def test_zero_division_raises(self):
        with pytest.raises(ZeroDivisionError):
            gf_div(5, 0)
        with pytest.raises(ZeroDivisionError):
            gf_inverse(0)

    def test_multiplicative_identity(self):
        for a in range(FIELD_SIZE):
            assert gf_mul(a, 1) == a
            assert gf_mul(a, 0) == 0

    @given(nonzero_elements, st.integers(0, 10))
    def test_pow_matches_repeated_multiplication(self, a, exponent):
        expected = 1
        for _ in range(exponent):
            expected = gf_mul(expected, a)
        assert gf_pow(a, exponent) == expected

    @given(field_elements, st.binary(min_size=0, max_size=64))
    def test_table_multiplication_matches_scalar(self, scalar, data):
        assert gf_combine([scalar], [data]) == bytes(gf_mul(scalar, x) for x in data)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(field_elements, st.binary(min_size=17, max_size=17)),
                    min_size=0, max_size=8))
    def test_combine_matches_oracle(self, terms):
        coefficients = [c for c, _ in terms]
        shards = [shard for _, shard in terms]
        assert gf_combine(coefficients, shards) == oracle_combine(coefficients, shards)

    def test_combine_rejects_malformed_input(self):
        with pytest.raises(ValueError):
            gf_combine([1, 2], [b"ab"])
        with pytest.raises(ValueError):
            gf_combine([1, 2], [b"ab", b"abc"])

    def test_combine_never_aliases_mutable_input(self):
        shard = bytearray(b"abc")
        out = gf_combine([1], [shard])
        shard[0] = 0
        assert out == b"abc" and type(out) is bytes


class TestMatrices:
    def test_identity_inverts_to_itself(self):
        eye = identity_matrix(4)
        assert matrix_invert(eye) == eye

    @pytest.mark.parametrize("size", [1, 2, 3, 5])
    def test_inverse_times_matrix_is_identity(self, size):
        matrix = vandermonde_matrix(size, size)
        inverse = matrix_invert(matrix)
        assert matrix_multiply(inverse, matrix) == identity_matrix(size)

    def test_singular_matrix_rejected(self):
        singular = ((0, 0, 0),) * 3
        with pytest.raises(DecodeError):
            matrix_invert(singular)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            matrix_invert(((0, 0, 0),) * 2)

    @pytest.mark.parametrize("n,k", [(3, 2), (5, 3), (7, 5), (9, 6)])
    def test_systematic_generator_every_k_rows_invertible(self, n, k):
        generator = systematic_generator(n, k)
        assert generator[:k] == identity_matrix(k)
        for rows in itertools.combinations(range(n), k):
            submatrix = [generator[row] for row in rows]
            matrix_invert(submatrix)  # must not raise: MDS property

    def test_vandermonde_too_large(self):
        with pytest.raises(ValueError):
            vandermonde_matrix(300, 2)


class TestStriping:
    def test_shard_length_ceil(self):
        assert shard_length(10, 3) == 4
        assert shard_length(9, 3) == 3
        assert shard_length(0, 3) == 0

    def test_shard_length_invalid_k(self):
        with pytest.raises(ValueError):
            shard_length(10, 0)

    # The padding rule, observed through encode/decode: the k data fragments
    # are equal slices of the zero-padded payload and decode strips the pad.
    @staticmethod
    def _round_trip(payload: bytes, k: int) -> List[bytes]:
        code = ReedSolomonCode(k + 2, k)
        elements = code.encode(Value(payload=payload, label="pad"))
        shards = [element.payload for element in elements[:k]]
        length = shard_length(len(payload), k)
        assert [len(shard) for shard in shards] == [length] * k
        assert all(element.size == length for element in elements)
        assert b"".join(shards) == payload + bytes(k * length - len(payload))
        assert code.decode(elements[:k]).payload == payload
        assert code.decode(elements[2:]).payload == payload
        return shards

    @given(st.binary(min_size=0, max_size=200), st.integers(1, 8))
    def test_split_join_round_trip(self, payload, k):
        self._round_trip(payload, k)

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_empty_payload_round_trip(self, k):
        assert self._round_trip(b"", k) == [b""] * k

    @given(st.integers(2, 9), st.data())
    def test_payload_shorter_than_k(self, k, data):
        payload = data.draw(st.binary(min_size=1, max_size=k - 1))
        shards = self._round_trip(payload, k)
        assert all(len(shard) == 1 for shard in shards)

    @given(st.integers(1, 8), st.integers(1, 6), st.integers(1, 200))
    def test_non_multiple_of_k_round_trip(self, k, remainder, scale):
        size = k * scale + (remainder % k if k > 1 else 0)
        self._round_trip(bytes(i % 251 for i in range(size)), k)

    @given(st.integers(1, 8), st.integers(1, 200))
    def test_exact_multiple_of_k_has_no_padding(self, k, scale):
        payload = bytes(i % 256 for i in range(k * scale))
        assert b"".join(self._round_trip(payload, k)) == payload


class TestReedSolomon:
    @pytest.mark.parametrize("n,k", [(3, 2), (5, 3), (6, 4), (9, 6), (11, 7)])
    def test_any_k_fragments_decode(self, n, k):
        code = ReedSolomonCode(n, k)
        value = Value(payload=bytes(range(256)) * 4, label="payload")
        elements = code.encode(value)
        assert len(elements) == n
        for subset in itertools.combinations(elements, k):
            decoded = code.decode(subset)
            assert decoded.payload == value.payload

    def test_fragment_size_is_value_size_over_k(self):
        code = ReedSolomonCode(6, 3)
        value = Value.of_size(999)
        elements = code.encode(value)
        assert all(e.size == 333 for e in elements)
        assert code.fragment_size(999) == 333

    def test_fewer_than_k_fragments_rejected(self):
        code = ReedSolomonCode(5, 3)
        elements = code.encode(Value.of_size(100))
        with pytest.raises(DecodeError):
            code.decode(elements[:2])

    def test_duplicate_indices_do_not_count_twice(self):
        code = ReedSolomonCode(5, 3)
        elements = code.encode(Value.of_size(90))
        with pytest.raises(DecodeError):
            code.decode([elements[0], elements[0], elements[0]])

    def test_inconsistent_fragment_sizes_rejected(self):
        code = ReedSolomonCode(4, 2)
        good = code.encode(Value.of_size(100))
        bad = code.encode(Value.of_size(50))
        with pytest.raises(DecodeError):
            code.decode([good[0], bad[1]])

    def test_out_of_range_index_rejected(self):
        code = ReedSolomonCode(4, 2)
        elements = ReedSolomonCode(6, 2).encode(Value.of_size(100))
        with pytest.raises(DecodeError):
            code.decode([elements[5], elements[4]])

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ReedSolomonCode(2, 3)
        with pytest.raises(ValueError):
            ReedSolomonCode(0, 0)
        with pytest.raises(ValueError):
            ReedSolomonCode(300, 100)

    @pytest.mark.parametrize("n,k", [(6, 4), (3, 1)])
    def test_stored_bytes_are_n_over_k_times_the_value(self, n, k):
        code = ReedSolomonCode(n, k)
        elements = code.encode(Value.of_size(4000))
        assert all(e.size == code.fragment_size(4000) for e in elements)
        assert sum(e.size for e in elements) == 4000 * n // k

    def test_elements_are_numbered_by_server_slot(self):
        code = ReedSolomonCode(5, 3)
        assert (code.n, code.k) == (5, 3)
        elements = code.encode(Value.of_size(30))
        assert [e.index for e in elements] == [0, 1, 2, 3, 4]
        assert all(e.original_size == 30 for e in elements)

    def test_empty_value(self):
        code = ReedSolomonCode(5, 3)
        elements = code.encode(Value(payload=b"", label="empty"))
        assert code.decode(elements[:3]).payload == b""

    def test_label_preserved(self):
        code = ReedSolomonCode(4, 2)
        elements = code.encode(Value.of_size(10, label="hello"))
        assert code.decode(elements[2:]).label == "hello"

    @settings(max_examples=25, deadline=None)
    @given(st.binary(min_size=0, max_size=512), st.integers(2, 9))
    def test_round_trip_property(self, payload, n):
        k = max(1, (2 * n) // 3)
        code = ReedSolomonCode(n, k)
        value = Value(payload=payload, label="prop")
        elements = code.encode(value)
        # decode from the last k elements (a mix of data and parity shards)
        assert code.decode(elements[n - k:]).payload == payload


class TestOracleEquivalence:
    """``encode`` / ``encode_one`` / ``decode`` against the scalar oracle."""

    @staticmethod
    def _payload(size: int, seed: int = 0) -> bytes:
        return random.Random(seed).randbytes(size)

    @settings(max_examples=60, deadline=None)
    @given(code_parameters, st.binary(min_size=0, max_size=96))
    def test_encode_is_byte_identical(self, parameters, payload):
        n, k = parameters
        elements = ReedSolomonCode(n, k).encode(Value(payload=payload, label="eq"))
        assert [e.index for e in elements] == list(range(n))
        assert all(e.original_size == len(payload) and e.label == "eq"
                   for e in elements)
        assert [e.payload for e in elements] == oracle_encode(n, k, payload)

    @pytest.mark.parametrize("n,k", [(1, 1), (3, 2), (6, 4), (12, 8)])
    def test_encode_edge_lengths(self, n, k):
        code = ReedSolomonCode(n, k)
        for size in sorted({0, 1, max(k - 1, 0), k, k + 1, 7 * k + 3}):
            payload = self._payload(size, seed=size)
            fragments = [e.payload for e in code.encode(Value(payload=payload))]
            assert fragments == oracle_encode(n, k, payload), size

    @pytest.mark.parametrize("n,k", [(6, 4), (12, 8)])
    def test_encode_64_kib(self, n, k):
        payload = self._payload(64 * 1024)
        fragments = [e.payload for e in ReedSolomonCode(n, k).encode(Value(payload=payload))]
        assert fragments == oracle_encode(n, k, payload)

    @settings(max_examples=40, deadline=None)
    @given(code_parameters, st.binary(min_size=0, max_size=96))
    def test_encode_one_equals_encode(self, parameters, payload):
        n, k = parameters
        code = ReedSolomonCode(n, k)
        value = Value(payload=payload, label="one")
        assert [code.encode_one(value, i) for i in range(n)] == code.encode(value)

    def test_encode_one_rejects_out_of_range_index(self):
        code = ReedSolomonCode(6, 4)
        with pytest.raises(IndexError):
            code.encode_one(Value.of_size(10), 6)

    @pytest.mark.parametrize("size", [0, 1, 3, 4, 1023, 4096])
    def test_every_subset_of_6_4_decodes_cold_and_warm(self, size):
        n, k = 6, 4
        code = ReedSolomonCode(n, k)
        payload = self._payload(size, seed=size)
        elements = code.encode(Value(payload=payload, label="sub"))
        for subset in itertools.combinations(elements, k):
            decode_cache_clear()
            cold = code.decode(subset)
            warm = code.decode(subset)
            assert cold.payload == warm.payload == payload
            assert oracle_decode(n, k, subset) == payload
            assert cold.label == "sub"

    def test_one_missing_shard_of_64_kib_decodes(self):
        code = ReedSolomonCode(6, 4)
        payload = self._payload(64 * 1024, seed=1)
        elements = code.encode(Value(payload=payload))
        for lost in range(4):
            survivors = [e for e in elements if e.index != lost][:4]
            assert code.decode(survivors).payload == payload


class TestEncodeWithKnownElements:
    """``encode(value, known)``: same elements, fewer of them computed."""

    @staticmethod
    def _subsets(elements, k):
        """Every subset for a narrow code; for a wide one every parity subset,
        alone and with one or all data elements (only parity rows can differ)."""
        def powerset(pool):
            return itertools.chain.from_iterable(
                itertools.combinations(pool, size) for size in range(len(pool) + 1))

        if len(elements) <= 6:
            return powerset(elements)
        return (data + parity
                for data in ((), tuple(elements[1:2]), tuple(elements[:k]))
                for parity in powerset(elements[k:]))

    @pytest.mark.parametrize("n,k", [(6, 4), (12, 8), (5, 5), (3, 1)])
    def test_equals_plain_encode_for_every_subset(self, n, k):
        code = ReedSolomonCode(n, k)
        for size in sorted({0, 1, k - 1, k, 4096, 7 * k + 3}):
            value = Value(payload=random.Random(size).randbytes(size), label="known")
            elements = code.encode(value)
            for known in self._subsets(elements, k):
                assert code.encode(value, known=known) == elements, (size, known)

    @settings(max_examples=60, deadline=None)
    @given(code_parameters, st.binary(min_size=0, max_size=96), st.data())
    def test_equals_plain_encode_for_random_payloads_and_subsets(self, parameters, payload, data):
        n, k = parameters
        code = ReedSolomonCode(n, k)
        value = Value(payload=payload, label="known")
        elements = code.encode(value)
        known = data.draw(st.lists(st.sampled_from(elements), unique_by=lambda e: e.index))
        assert code.encode(value, known=known) == elements
        assert [e.payload for e in code.encode(value, known=known)] == oracle_encode(n, k, payload)

    def test_known_data_elements_change_nothing(self):
        code = ReedSolomonCode(6, 4)
        value = Value.of_size(1000, label="x")
        elements = code.encode(value)
        # Data elements are slices of the payload whatever ``known`` says.
        forged = [dataclasses.replace(e, payload=bytes(e.size)) for e in elements[:4]]
        assert code.encode(value, known=forged) == elements

    def test_known_elements_accept_any_iterable(self):
        code = ReedSolomonCode(6, 4)
        value = Value.of_size(1000, label="x")
        elements = code.encode(value)
        by_index = {e.index: e for e in elements[1:]}
        assert code.encode(value, by_index.values()) == elements
        assert code.encode(value, iter(elements[4:])) == elements

    @pytest.mark.parametrize("change,match", [
        (dict(index=6), "out of range"),
        (dict(index=-1), "out of range"),
        (dict(original_size=999), "not an element of this 1000-byte value"),
        (dict(payload=bytes(249)), "not an element of this 1000-byte value"),
        (dict(payload=bytes(251)), "not an element of this 1000-byte value"),
    ])
    @pytest.mark.parametrize("position", [0, 5])
    def test_known_element_of_another_value_is_rejected(self, change, match, position):
        code = ReedSolomonCode(6, 4)
        value = Value.of_size(1000, label="x")
        elements = code.encode(value)
        bad = dataclasses.replace(elements[position], **change)
        with pytest.raises(ValueError, match=match):
            code.encode(value, known=[*elements[:3], bad])

    def test_known_elements_of_a_different_size_value_are_rejected(self):
        code = ReedSolomonCode(6, 4)
        with pytest.raises(ValueError, match="not an element"):
            code.encode(Value.of_size(1000), known=code.encode(Value.of_size(996)))


class TestDecodeInverseCache:
    @pytest.fixture(autouse=True)
    def _fresh_cache(self):
        decode_cache_clear()
        yield
        decode_cache_clear()

    def test_differential_cached_vs_uncached(self):
        """Every survivor subset decodes identically with and without the cache.

        The uncached reference inverts the submatrix from scratch per call
        and multiplies it out with the scalar oracle; the cached path must
        return byte-identical payloads for every subset, cold and warm.
        """
        n, k = 6, 4
        code = ReedSolomonCode(n, k)
        value = Value(payload=bytes(range(256)) * 3 + b"tail", label="diff")
        elements = code.encode(value)
        for subset in itertools.combinations(elements, k):
            reference = oracle_decode(n, k, subset)
            # Cached decode, cold then warm.
            assert code.decode(subset).payload == reference == value.payload
            assert code.decode(subset).payload == reference

    def test_repeated_quorum_hits_cache(self):
        code = ReedSolomonCode(6, 4)
        elements = code.encode(Value.of_size(4096, label="x"))
        survivors = elements[2:]  # mixes data and parity rows
        for _ in range(5):
            code.decode(survivors)
        info = decode_cache_info()
        assert info["misses"] == 1
        assert info["hits"] == 4

    def test_all_data_shards_skip_matrix_entirely(self):
        # The identity survivor set needs neither an inverse nor a matmul.
        code = ReedSolomonCode(6, 4)
        elements = code.encode(Value.of_size(1000, label="x"))
        decoded = code.decode(elements[:4])
        assert decoded.size == 1000
        info = decode_cache_info()
        assert info["hits"] == 0 and info["misses"] == 0

    def test_cache_shared_across_instances(self):
        value = Value.of_size(100)
        first = ReedSolomonCode(6, 4)
        second = ReedSolomonCode(6, 4)
        survivors = first.encode(value)[2:]
        first.decode(survivors)
        second.decode(survivors)
        info = decode_cache_info()
        assert info["misses"] == 1 and info["hits"] == 1

    def test_distinct_codes_do_not_collide(self):
        # [6, 4] and [5, 4] share surviving-index tuples; the (n, k) in the
        # key must keep their (different) generators apart.
        value = Value.of_size(64)
        big, small = ReedSolomonCode(6, 4), ReedSolomonCode(5, 4)
        survivors_big = big.encode(value)[2:]
        survivors_small = small.encode(value)[1:]
        assert big.decode(survivors_big).payload == value.payload
        assert small.decode(survivors_small).payload == value.payload
        assert decode_cache_info()["misses"] == 2

    def test_cache_is_bounded(self):
        # C(14, 3) = 364 distinct survivor sets > the 256-entry bound, so the
        # LRU must evict; only the identity set (0, 1, 2) skips the cache.
        code = ReedSolomonCode(14, 3)
        elements = code.encode(Value.of_size(30))
        for subset in itertools.combinations(elements, 3):
            assert code.decode(subset).size == 30
        info = decode_cache_info()
        assert info["misses"] == 363
        assert info["size"] == info["maxsize"]

    def test_clear_resets_counters(self):
        code = ReedSolomonCode(5, 3)
        survivors = code.encode(Value.of_size(9))[2:]
        code.decode(survivors)
        code.decode(survivors)
        decode_cache_clear()
        info = decode_cache_info()
        assert info == {"hits": 0, "misses": 0, "size": 0,
                        "maxsize": info["maxsize"]}

    def test_cached_inverse_cannot_be_mutated(self):
        # One object serves every later decode of this survivor set, so it
        # must not be editable through what _decode_matrix hands out.
        code = ReedSolomonCode(6, 4)
        value = Value.of_size(64, label="x")
        survivors = code.encode(value)[2:]
        inverse = code._decode_matrix((2, 3, 4, 5))
        assert isinstance(inverse, tuple)
        assert all(isinstance(row, tuple) for row in inverse)
        assert all(type(c) is int for row in inverse for c in row)
        with pytest.raises(TypeError):
            inverse[0][0] ^= 1
        with pytest.raises(TypeError):
            inverse[0] = inverse[1]
        assert code._decode_matrix((2, 3, 4, 5)) is inverse
        assert code.decode(survivors).payload == value.payload


class TestReplication:
    def test_every_copy_is_the_full_value(self):
        code = ReplicationCode(4)
        value = Value.of_size(77, label="x")
        elements = code.encode(value)
        assert len(elements) == 4
        assert all(e.size == 77 for e in elements)

    def test_known_copies_save_nothing_and_change_nothing(self):
        code = ReplicationCode(4)
        value = Value.of_size(77, label="x")
        elements = code.encode(value)
        assert code.encode(value, known=elements[1:3]) == elements
        assert code.encode(value, known=()) == elements

    def test_decode_from_any_single_copy(self):
        code = ReplicationCode(3)
        value = Value.of_size(50, label="x")
        elements = code.encode(value)
        for element in elements:
            assert code.decode([element]).payload == value.payload

    def test_decode_with_no_copies(self):
        with pytest.raises(DecodeError):
            ReplicationCode(3).decode([])

    def test_one_copy_is_enough_to_decode(self):
        code = ReplicationCode(3)
        assert code.k == 1
        value = Value.of_size(5, label="x")
        assert code.decode(code.encode(value)[2:]).label == "x"

    def test_stored_bytes_are_n_copies_of_the_value(self):
        code = ReplicationCode(5)
        elements = code.encode(Value.of_size(40))
        assert code.fragment_size(40) == 40
        assert sum(e.size for e in elements) == 5 * 40

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ReplicationCode(0)
