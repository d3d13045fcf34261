"""Unit tests for tags and tag-value pairs."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.common.ids import writer_id
from repro.common.tags import BOTTOM_TAG, Tag, TagValue, max_tag, max_tag_value
from repro.common.values import Value


def tag(z: int, w: int | None = None) -> Tag:
    return Tag(z=z, writer=None if w is None else writer_id(w))


class TestTagOrdering:
    def test_bottom_tag_is_smallest(self):
        assert BOTTOM_TAG < tag(0, 0)
        assert BOTTOM_TAG < tag(1, 0)
        assert not tag(0, 0) < BOTTOM_TAG

    def test_initial_tag_is_zero_with_no_writer(self):
        assert BOTTOM_TAG == Tag(z=0, writer=None)
        assert max_tag([]) is BOTTOM_TAG
        assert BOTTOM_TAG.increment(writer_id(0)) == tag(1, 0)

    def test_integer_part_dominates(self):
        assert tag(1, 5) < tag(2, 0)
        assert tag(2, 0) > tag(1, 5)

    def test_writer_breaks_ties(self):
        assert tag(3, 0) < tag(3, 1)
        assert tag(3, 1) > tag(3, 0)

    def test_equal_tags(self):
        assert tag(3, 1) == tag(3, 1)
        assert tag(3, 1) <= tag(3, 1)
        assert tag(3, 1) >= tag(3, 1)

    @given(st.integers(0, 100), st.integers(0, 5), st.integers(0, 100), st.integers(0, 5))
    def test_order_is_total_and_antisymmetric(self, z1, w1, z2, w2):
        a, b = tag(z1, w1), tag(z2, w2)
        assert (a < b) or (b < a) or (a == b)
        if a < b:
            assert not b < a

    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 4)), min_size=1, max_size=20))
    def test_max_tag_is_maximum(self, pairs):
        tags = [tag(z, w) for z, w in pairs]
        maximum = max_tag(tags)
        assert all(maximum >= t for t in tags)
        assert maximum in tags


class TestTagIncrement:
    def test_increment_bumps_integer(self):
        w = writer_id(2)
        incremented = tag(4, 0).increment(w)
        assert incremented.z == 5
        assert incremented.writer == w

    def test_increment_is_strictly_larger(self):
        base = tag(7, 3)
        assert base.increment(writer_id(0)) > base
        assert BOTTOM_TAG.increment(writer_id(0)) > BOTTOM_TAG

    def test_concurrent_increments_are_distinct(self):
        base = tag(1, 0)
        a = base.increment(writer_id(1))
        b = base.increment(writer_id(2))
        assert a != b
        assert (a < b) or (b < a)


class TestMaxHelpers:
    def test_max_tag_empty_defaults_to_bottom(self):
        assert max_tag([]) == BOTTOM_TAG

    def test_max_tag_empty_with_default(self):
        default = tag(9, 1)
        assert max_tag([], default=default) == default

    def test_max_tag_value(self):
        pairs = [
            TagValue(tag(1, 0), Value.from_text("a")),
            TagValue(tag(3, 0), Value.from_text("b")),
            TagValue(tag(2, 0), Value.from_text("c")),
        ]
        assert max_tag_value(pairs).value.as_text() == "b"

    def test_max_tag_value_empty(self):
        assert max_tag_value([]) is None
        sentinel = TagValue(BOTTOM_TAG, Value.from_text("x"))
        assert max_tag_value([], default=sentinel) is sentinel


class TestTagValue:
    def test_ordering_follows_tags(self):
        low = TagValue(tag(1, 0), Value.from_text("low"))
        high = TagValue(tag(2, 0), Value.from_text("high"))
        assert low < high
        assert high > low
        assert low <= high and high >= low

    def test_frozen(self):
        pair = TagValue(tag(1, 0), Value.from_text("x"))
        with pytest.raises(AttributeError):
            pair.tag = tag(2, 0)  # type: ignore[misc]
