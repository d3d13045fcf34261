"""Decode error-path coverage for the Reed-Solomon code.

The chaos layer feeds decoders whatever survives crashes, duplication and
partitions, so every malformed-input path must fail loudly (a
:class:`~repro.common.errors.DecodeError`) rather than reconstruct garbage.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.common.errors import DecodeError
from repro.common.values import Value
from repro.erasure.interface import CodedElement
from repro.erasure.rs import ReedSolomonCode


@pytest.fixture
def code() -> ReedSolomonCode:
    return ReedSolomonCode(6, 4)


@pytest.fixture
def elements(code):
    return code.encode(Value.of_size(1000, label="payload"))


class TestDecodeErrorPaths:
    def test_index_above_range_rejected(self, code, elements):
        bad = dataclasses.replace(elements[0], index=code.n)
        with pytest.raises(DecodeError, match="out of range"):
            code.decode([bad, *elements[1:4]])

    def test_negative_index_rejected(self, code, elements):
        bad = dataclasses.replace(elements[0], index=-1)
        with pytest.raises(DecodeError, match="out of range"):
            code.decode([bad, *elements[1:4]])

    def test_fewer_than_k_elements_rejected(self, code, elements):
        with pytest.raises(DecodeError, match="need 4 distinct"):
            code.decode(elements[:3])

    def test_no_elements_rejected(self, code):
        with pytest.raises(DecodeError, match="need 4 distinct"):
            code.decode([])

    def test_duplicated_indices_do_not_count_toward_k(self, code, elements):
        # Four elements, but only three distinct indices: a duplicated reply
        # (e.g. from the chaos Duplicate fault) must not satisfy the quorum.
        with pytest.raises(DecodeError, match="need 4 distinct"):
            code.decode([elements[0], elements[0], elements[1], elements[2]])

    def test_duplicates_alongside_k_distinct_still_decode(self, code, elements):
        decoded = code.decode([elements[0], elements[0], *elements[1:4]])
        assert decoded.size == 1000
        assert decoded.label == "payload"

    def test_none_entries_are_ignored(self, code, elements):
        decoded = code.decode([None, *elements[:4]])
        assert decoded.size == 1000
        with pytest.raises(DecodeError, match="need 4 distinct"):
            code.decode([None, None, *elements[:3]])

    def test_inconsistent_fragment_sizes_rejected(self, code, elements):
        bad = dataclasses.replace(elements[0], payload=elements[0].payload + b"x")
        with pytest.raises(DecodeError, match="inconsistent fragment sizes"):
            code.decode([bad, *elements[1:4]])

    def test_disagreeing_original_sizes_rejected(self, code, elements):
        bad = dataclasses.replace(elements[0], original_size=999)
        with pytest.raises(DecodeError, match="disagree on the original value size"):
            code.decode([bad, *elements[1:4]])

    def test_overstated_original_size_rejected(self, code):
        # Four 10-byte fragments can only carry a 37..40-byte value; the
        # parent accepted the relabelling and returned a 40-byte Value.
        fragments = code.encode(Value.of_size(40, label="v"))
        assert {f.size for f in fragments} == {10}
        relabelled = [dataclasses.replace(f, original_size=1000) for f in fragments]
        for subset in (relabelled[:4], relabelled[2:]):
            with pytest.raises(DecodeError, match="cannot belong"):
                code.decode(subset)

    def test_understated_original_size_rejected(self, code):
        # ... and original_size=3 silently truncated the value to 3 bytes.
        fragments = code.encode(Value.of_size(40, label="v"))
        relabelled = [dataclasses.replace(f, original_size=3) for f in fragments]
        for subset in (relabelled[:4], relabelled[2:]):
            with pytest.raises(DecodeError, match="cannot belong"):
                code.decode(subset)

    @pytest.mark.parametrize("original_size", [37, 38, 39, 40])
    def test_every_size_the_fragments_can_carry_is_accepted(self, code, original_size):
        value = Value.of_size(original_size, label="v")
        fragments = code.encode(value)
        assert {f.size for f in fragments} == {10}
        assert code.decode(fragments[2:]).payload == value.payload

    def test_empty_value_still_decodes(self, code):
        fragments = code.encode(Value(payload=b"", label="empty"))
        assert {(f.size, f.original_size) for f in fragments} == {(0, 0)}
        for subset in (fragments[:4], fragments[2:]):
            assert code.decode(subset).payload == b""
        nonempty = [dataclasses.replace(f, original_size=1) for f in fragments]
        with pytest.raises(DecodeError, match="cannot belong"):
            code.decode(nonempty[:4])

    def test_mixed_parity_and_data_fragments_with_bad_index(self, code, elements):
        # A parity fragment whose index was corrupted into the valid range
        # but duplicates another fragment's index reduces the distinct count.
        bad = dataclasses.replace(elements[5], index=elements[1].index)
        with pytest.raises(DecodeError, match="need 4 distinct"):
            code.decode([bad, elements[1], elements[2], elements[3]])


class TestDecodeRecovery:
    @pytest.mark.parametrize("drop", range(6))
    def test_any_single_fragment_loss_is_recoverable(self, code, elements, drop):
        survivors = [e for e in elements if e.index != drop]
        decoded = code.decode(survivors)
        assert decoded.size == 1000

    def test_parity_only_subset_decodes(self, code, elements):
        # Worst case for the decode matrix: no systematic fragment survives.
        # [6, 4] has only 2 parity fragments, so take both plus two data ones.
        subset = [elements[4], elements[5], elements[0], elements[1]]
        assert code.decode(subset).size == 1000
