"""BKD numeric index tests."""

from hypothesis import given
from hypothesis import strategies as st

from repro.logblock.bkd import BkdIndex, BkdIndexBuilder


def build(values, is_float=False, leaf_size=16) -> BkdIndex:
    builder = BkdIndexBuilder(is_float=is_float, leaf_size=leaf_size)
    for row_id, value in enumerate(values):
        builder.add(row_id, value)
    return builder.build()


class TestQueries:
    def test_eq(self):
        index = build([5, 3, 5, None, 1])
        assert list(index.eq_rows(5)) == [0, 2]
        assert list(index.eq_rows(99)) == []

    def test_range_inclusive(self):
        index = build([10, 20, 30, 40])
        assert list(index.range_rows(low=20, high=30)) == [1, 2]

    def test_range_exclusive(self):
        index = build([10, 20, 30, 40])
        assert list(index.range_rows(low=20, high=30, low_inclusive=False)) == [2]
        assert list(index.range_rows(low=20, high=30, high_inclusive=False)) == [1]

    def test_open_ends(self):
        index = build([10, 20, 30])
        assert list(index.range_rows(low=20)) == [1, 2]
        assert list(index.range_rows(high=20)) == [0, 1]
        assert list(index.range_rows()) == [0, 1, 2]

    def test_empty_index(self):
        index = build([None, None])
        assert list(index.range_rows(low=0)) == []
        assert index.min_value() is None

    def test_min_max(self):
        index = build([7, 2, 9])
        assert index.min_value() == 2
        assert index.max_value() == 9

    def test_floats(self):
        index = build([1.5, 2.5, 3.5], is_float=True)
        assert list(index.range_rows(low=2.0, high=3.0)) == [1]

    def test_bitset_form(self):
        index = build([10, 20, 30])
        bits = index.range_bitset(low=15)
        assert list(bits) == [1, 2]
        assert len(bits) == 3

    def test_leaf_structure(self):
        index = build(list(range(100)), leaf_size=16)
        assert index.leaf_count == 7  # ceil(100/16)
        assert index.point_count == 100
        assert build([None, None]).leaf_count == 0
        assert build(list(range(32)), leaf_size=16).leaf_count == 2


class TestSerialization:
    def test_roundtrip_int(self):
        index = build([5, None, 3, 8])
        decoded = BkdIndex.from_bytes(index.to_bytes())
        assert decoded.row_count == 4
        assert list(decoded.eq_rows(3)) == [2]

    def test_roundtrip_float(self):
        index = build([1.25, -2.5], is_float=True)
        decoded = BkdIndex.from_bytes(index.to_bytes())
        assert list(decoded.eq_rows(-2.5)) == [1]

    def test_decoded_points_are_read_only_views(self):
        """No copy is made of the payload, so nothing may write to it."""
        decoded = BkdIndex.from_bytes(bytearray(build([5, 3, 8]).to_bytes()))
        for points in (decoded._values, decoded._rows):
            assert not points.flags.writeable and points.base is not None
        assert decoded.to_bytes() == build([5, 3, 8]).to_bytes()


values_strategy = st.lists(
    st.one_of(st.none(), st.integers(min_value=-1000, max_value=1000)),
    max_size=200,
)


class TestProperties:
    @given(
        values_strategy,
        st.integers(min_value=-1000, max_value=1000),
        st.integers(min_value=0, max_value=500),
    )
    def test_range_matches_brute_force(self, values, low, width):
        high = low + width
        index = build(values)
        expected = sorted(
            row_id
            for row_id, value in enumerate(values)
            if value is not None and low <= value <= high
        )
        assert list(index.range_rows(low=low, high=high)) == expected

    @given(values_strategy)
    def test_serialization_preserves_queries(self, values):
        index = build(values)
        decoded = BkdIndex.from_bytes(index.to_bytes())
        assert list(decoded.range_rows()) == list(index.range_rows())
