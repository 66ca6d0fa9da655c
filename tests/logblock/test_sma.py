"""Small Materialized Aggregates tests, including pruning soundness."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.logblock.schema import ColumnType
from repro.logblock.sma import Sma, SmaTable, compute_sma, compute_sma_arrays, merge_smas


def roundtrip(sma: Sma) -> Sma:
    """``sma`` through the meta's column-wise table, between two others."""
    table = SmaTable.from_smas([Sma(7, 8, 2, 0), sma, Sma("x", "y", 1, 0)])
    return table.sma(1, sma.row_count)


class TestCompute:
    def test_basic(self):
        sma = compute_sma([3, 1, 4, 1, 5], ColumnType.INT64)
        assert sma.min_value == 1
        assert sma.max_value == 5
        assert sma.row_count == 5
        assert sma.null_count == 0

    def test_nulls_excluded(self):
        sma = compute_sma([None, 2, None], ColumnType.INT64)
        assert sma.min_value == 2
        assert sma.max_value == 2
        assert sma.null_count == 2

    def test_all_null(self):
        sma = compute_sma([None, None], ColumnType.STRING)
        assert sma.all_null
        assert sma.min_value is None

    def test_empty(self):
        sma = compute_sma([], ColumnType.INT64)
        assert sma.row_count == 0
        assert not sma.all_null

    def test_strings(self):
        sma = compute_sma(["banana", "apple", "cherry"], ColumnType.STRING)
        assert sma.min_value == "apple"
        assert sma.max_value == "cherry"

    @pytest.mark.parametrize(
        "values",
        [[math.nan, 2.0, 3.0], [2.0, math.nan, 3.0], [None, math.nan, 3.0, 2.0, math.nan]],
    )
    def test_nan_is_a_value_but_no_bound(self, values):
        """Wherever the NaN sits — first used to poison both bounds."""
        sma = compute_sma(values, ColumnType.FLOAT64)
        assert (sma.min_value, sma.max_value) == (2.0, 3.0)
        assert sma.null_count == values.count(None)
        assert math.isnan(sma.sum_value)
        assert sma.may_contain_eq(2.0) and sma.may_contain_range(low=2.5)

    def test_only_nans_bound_nothing(self):
        sma = compute_sma([math.nan, None, math.nan], ColumnType.FLOAT64)
        assert (sma.min_value, sma.max_value, sma.null_count) == (None, None, 1)
        assert not sma.all_null and not sma.may_contain_eq(1.0)

    def test_nan_bounds_of_an_old_block_prune_nothing(self):
        """A v4 meta written while a leading NaN still became the bounds."""
        old = roundtrip(Sma(math.nan, math.nan, 3, 0, math.nan))
        assert (old.min_value, old.max_value) == (-math.inf, math.inf)
        assert old.may_contain_eq(2.0) and old.may_contain_range(high=-1e300)


class TestPruning:
    def test_eq_inside_and_outside(self):
        sma = compute_sma([10, 20, 30], ColumnType.INT64)
        assert sma.may_contain_eq(20)
        assert sma.may_contain_eq(10)
        assert not sma.may_contain_eq(5)
        assert not sma.may_contain_eq(31)

    def test_range_overlap(self):
        sma = compute_sma([10, 30], ColumnType.INT64)
        assert sma.may_contain_range(low=5, high=15)
        assert sma.may_contain_range(low=25)
        assert sma.may_contain_range(high=12)
        assert not sma.may_contain_range(low=31)
        assert not sma.may_contain_range(high=9)

    def test_exclusive_bounds(self):
        sma = compute_sma([10, 30], ColumnType.INT64)
        assert not sma.may_contain_range(low=30, low_inclusive=False)
        assert sma.may_contain_range(low=30, low_inclusive=True)
        assert not sma.may_contain_range(high=10, high_inclusive=False)
        assert sma.may_contain_range(high=10, high_inclusive=True)

    def test_all_null_prunes_everything(self):
        sma = compute_sma([None], ColumnType.INT64)
        assert not sma.may_contain_eq(1)
        assert not sma.may_contain_range(low=0)


class TestSum:
    """Per-column sums feeding the SUM/AVG pushdown."""

    def test_int_sum(self):
        sma = compute_sma([3, 1, 4, None, 5], ColumnType.INT64)
        assert sma.sum_value == 13

    def test_float_sum(self):
        sma = compute_sma([1.5, None, 2.25], ColumnType.FLOAT64)
        assert sma.sum_value == pytest.approx(3.75)

    def test_timestamp_sum(self):
        sma = compute_sma([10, 20], ColumnType.TIMESTAMP)
        assert sma.sum_value == 30

    def test_non_numeric_has_no_sum(self):
        assert compute_sma(["a", "b"], ColumnType.STRING).sum_value is None
        assert compute_sma([True, False], ColumnType.BOOL).sum_value is None

    def test_all_null_sum_is_zero(self):
        sma = compute_sma([None, None], ColumnType.INT64)
        assert sma.sum_value == 0
        assert sma.all_null

    def test_merge_sums(self):
        merged = merge_smas(
            [compute_sma([1, 2], ColumnType.INT64), compute_sma([3], ColumnType.INT64)]
        )
        assert merged.sum_value == 6

    def test_merge_with_a_child_without_sum_loses_sum(self):
        # A child carries no sum (it left int64): the merge can't either.
        merged = merge_smas(
            [compute_sma([1, 2], ColumnType.INT64), Sma(3, 3, 1, 0, None)]
        )
        assert merged.sum_value is None
        assert merged.row_count == 3

    def test_merge_empty_has_no_sum(self):
        assert merge_smas([]).sum_value is None

    def test_serialization_with_and_without_sum(self):
        for sma in (Sma(1, 9, 4, 1, 17), Sma(1, 9, 4, 1, None)):
            assert roundtrip(sma) == sma


    @pytest.mark.parametrize("sign", (1, -1))
    def test_sum_past_int64_is_dropped_not_raised(self, sign):
        # 3 * 2**62 does not fit the stored int64; min/max still do.
        values = [sign * 2**62] * 3
        slow = compute_sma(values, ColumnType.TIMESTAMP)
        fast = compute_sma_arrays(
            np.array(values, dtype=np.int64), np.zeros(3, dtype=bool), ColumnType.TIMESTAMP
        )
        assert slow == fast == Sma(sign * 2**62, sign * 2**62, 3, 0, None)
        assert roundtrip(slow) == slow

    def test_int64_extremes_are_kept(self):
        for total in (2**63 - 1, -(2**63)):
            sma = compute_sma([total], ColumnType.INT64)
            assert sma.sum_value == total
            assert roundtrip(sma) == sma

    def test_merge_drops_a_sum_past_int64(self):
        half = compute_sma([2**62], ColumnType.INT64)
        assert merge_smas([half]).sum_value == 2**62
        merged = merge_smas([half, half])
        assert merged.sum_value is None
        assert roundtrip(merged) == merged


class TestMerge:
    def test_merge_covers_all(self):
        parts = [
            compute_sma([1, 5], ColumnType.INT64),
            compute_sma([None, 10], ColumnType.INT64),
            compute_sma([-3], ColumnType.INT64),
        ]
        merged = merge_smas(parts)
        assert merged.min_value == -3
        assert merged.max_value == 10
        assert merged.row_count == 5
        assert merged.null_count == 1

    def test_merge_empty(self):
        merged = merge_smas([])
        assert merged.row_count == 0


class TestSerialization:
    """Every value kind through the meta's column-wise table."""

    def test_int(self):
        assert roundtrip(Sma(-5, 10, 3, 0)) == Sma(-5, 10, 3, 0)

    def test_float(self):
        assert roundtrip(Sma(-1.5, 2.25, 2, 0)) == Sma(-1.5, 2.25, 2, 0)

    def test_string(self):
        assert roundtrip(Sma("a", "z", 9, 1)) == Sma("a", "z", 9, 1)

    def test_bool(self):
        assert roundtrip(Sma(False, True, 2, 0)) == Sma(False, True, 2, 0)

    def test_none(self):
        assert roundtrip(Sma(None, None, 4, 4)) == Sma(None, None, 4, 4)


values_strategy = st.lists(
    st.one_of(st.none(), st.integers(min_value=-(10**9), max_value=10**9)),
    min_size=1,
    max_size=100,
)


class TestSoundnessProperties:
    """The SMA must never prune a region that actually contains a match.

    This is the invariant the entire data-skipping strategy rests on.
    """

    @given(values_strategy, st.integers(min_value=-(10**9), max_value=10**9))
    def test_eq_soundness(self, values, needle):
        sma = compute_sma(values, ColumnType.INT64)
        actually_present = needle in [v for v in values if v is not None]
        if actually_present:
            assert sma.may_contain_eq(needle)

    @given(
        values_strategy,
        st.integers(min_value=-(10**9), max_value=10**9),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_range_soundness(self, values, low, width):
        high = low + width
        sma = compute_sma(values, ColumnType.INT64)
        has_match = any(v is not None and low <= v <= high for v in values)
        if has_match:
            assert sma.may_contain_range(low=low, high=high)

    @given(values_strategy)
    def test_serialization_roundtrip(self, values):
        sma = compute_sma(values, ColumnType.INT64)
        assert roundtrip(sma) == sma

    @given(values_strategy)
    def test_sum_exactness(self, values):
        # The recorded sum must equal the true sum of non-null values —
        # the SUM pushdown returns it verbatim.
        sma = compute_sma(values, ColumnType.INT64)
        assert sma.sum_value == sum(v for v in values if v is not None)
