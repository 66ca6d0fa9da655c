"""Numeric index tests: probes against brute force and the member layout."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.logblock.bkd import BkdIndex, BkdIndexBuilder
from repro.logblock.inverted import uint_for
from repro.logblock.pruning import EqPredicate, RangePredicate, evaluate_predicates

from tests.conftest import make_rows, write_logblock
from tests.logblock.test_writer_reader import reader_for


def build(values, is_float=False) -> BkdIndex:
    builder = BkdIndexBuilder(is_float=is_float)
    for row_id, value in enumerate(values):
        builder.add(row_id, value)
    return builder.build()


def rows(index: BkdIndex, *interval, **bounds) -> list[int] | None:
    hits = index.range_rows(*interval, **bounds)
    return None if hits is None else sorted(hits.tolist())


class TestQueries:
    def test_a_literal_it_cannot_compare_is_left_to_the_scan(self):
        """A str against an int column fails before any index is read;
        the index itself declines it, and a
        float index declines an int no float64 holds."""
        assert build([10, 20]).range_rows("10", "10") is None
        assert build([1.0, 2.0], is_float=True).in_rows([1, (1 << 53) + 1]) is None
        reader = reader_for(write_logblock(make_rows(50)))
        for predicate in (EqPredicate("latency", "12"), RangePredicate("latency", high="12")):
            with pytest.raises(TypeError):
                evaluate_predicates(reader, [predicate])


class TestLayout:
    def test_a_constant_column_stores_no_value_bytes(self):
        index = build([7] * 50 + [None])
        assert (index.width, index.term_count, index.rows) == (0, 1, None)
        assert len(index.to_bytes()) < 16

    def test_values_in_row_order_store_no_postings(self):
        ts = [1_600_000_000_000_000 + 3 * i for i in range(300)]
        index = build(ts)
        assert (index.width, index.term_count, index.rows, index.row_width) == (1, 300, None, None)
        assert rows(index, ts[5], ts[9]) == [5, 6, 7, 8, 9]
        assert index._values.dtype == np.uint16  # widened to the span when opened
        assert build(ts[::-1]).rows.dtype == np.uint16
        wide = BkdIndexBuilder(is_float=False)  # row ids past 2**16 - 1 take four bytes
        wide.add_many(0, np.arange(1 << 16, -1, -1), np.zeros((1 << 16) + 1, bool))
        assert BkdIndex.from_bytes(wide.build().to_bytes()).rows[:2].tolist() == [1 << 16, 65535]

    @pytest.mark.parametrize(
        "span, width", [(1, 1), (255, 1), (256, 2), (1 << 16, 4), (1 << 40, 8), ((1 << 64) - 1, 8)]
    )
    def test_value_gaps_take_the_narrowest_width(self, span, width):
        low = -(1 << 63) if span >> 63 else -5  # the widest span is all of int64
        index = build([low, low + span])
        assert index.width == width and rows(index, low + span, low + span) == [1]
        decoded = BkdIndex.from_bytes(index.to_bytes())
        assert decoded._values.dtype == index._values.dtype
        assert decoded.to_bytes() == index.to_bytes()

    def test_values_store_the_gaps_between_neighbours(self):
        index = build([1000 * i for i in range(200)])  # a span of two bytes, gaps of two
        assert (index.width, index._values.dtype) == (2, np.uint32)
        assert build([10 * i for i in range(200)]).width == 1

    def test_row_ids_of_a_two_valued_column_take_one_byte(self):
        """Each value's row ids are gaps after its first: a column that
        alternates stores a byte a row, whatever the row count."""
        for n in (300, 70_000):
            builder = BkdIndexBuilder(is_float=False)
            builder.add_many(0, np.arange(n) % 2, np.zeros(n, bool))
            index = builder.build()
            assert (index.term_count, index.row_width, index.rows.dtype) == (2, 1, uint_for(n))
            assert len(index.to_bytes()) < n + 24  # a header of under 24 bytes
            decoded = BkdIndex.from_bytes(index.to_bytes())
            assert np.array_equal(decoded.rows, index.rows) and decoded.rows.dtype == uint_for(n)
            assert decoded.range_rows(1, 1)[:3].tolist() == [1, 3, 5]

    def test_nan_is_one_term_after_infinity(self):
        values = [math.nan, 1.0, math.inf, math.nan, -0.0, 0.0]
        index = build(values, is_float=True)
        assert index.term_count == 4  # 0.0 and -0.0 are one value
        assert rows(index, low=0.0) == [1, 2, 4, 5]
        assert rows(index) == list(range(6))
        assert rows(index, math.nan, math.nan) == []


@st.composite
def columns(draw, kind: str) -> tuple[list, bool, list]:
    """A column of ``kind`` in some order, with nulls, and probes for it."""
    special = [math.nan, 0.0, -0.0, math.inf, -math.inf, 2.5]
    element = {
        "int": st.integers(-(1 << 63), (1 << 63) - 1) | st.integers(-40, 40),
        "float": st.floats(allow_nan=True) | st.sampled_from(special),
        "bool": st.booleans(),
    }[kind]
    values = draw(st.lists(element | st.none(), max_size=60))
    order = draw(st.sampled_from(["sorted", "shuffled", "constant", "two-valued"]))
    present = [value for value in values if value is not None]
    if order == "sorted":
        present.sort(key=lambda v: (v != v, v))
    elif order == "constant" and present:
        present = [present[0]] * len(present)
    elif order == "two-valued" and present:
        present = [present[row % 2 if len(present) > 1 else 0] for row in range(len(present))]
    it = iter(present)
    values = [None if value is None else next(it) for value in values]
    edges = [0, 1, -1, 1 << 70, -(1 << 70), (1 << 53) + 1]
    probes = draw(st.lists(element | st.sampled_from(special + edges), min_size=1, max_size=4))
    return values, kind == "float", [*probes, *present[:2]]


@pytest.mark.parametrize("kind", ["int", "float", "bool"])
@given(st.data(), st.booleans(), st.booleans())
def test_every_probe_equals_brute_force_and_the_decoded_index(
    kind, data, low_inclusive, high_inclusive
):
    values, is_float, probes = data.draw(columns(kind))
    ours = build(values, is_float)
    decoded = BkdIndex.from_bytes(ours.to_bytes())
    assert decoded.to_bytes() == ours.to_bytes()
    assert decoded.nbytes == ours.nbytes  # what the object cache is charged
    present = [(row, value) for row, value in enumerate(values) if value is not None]

    def brute(keep) -> list[int]:
        return [row for row, value in present if keep(value)]

    def lows(value, low):
        return low is None or (value >= low if low_inclusive else value > low)

    def highs(value, high):
        return high is None or (value <= high if high_inclusive else value < high)

    def declined(*bounds) -> bool:
        """A float index declines an int no float64 holds (not a NaN bound: it admits nothing)."""
        bounds = [bound for bound in bounds if bound is not None]
        if not is_float or any(bound != bound for bound in bounds):
            return False
        return any(not isinstance(bound, float) and float(bound) != bound for bound in bounds)

    for low in [None, *probes]:
        for high in [None, *probes]:
            within = brute(lambda v: lows(v, low) and highs(v, high))
            expected = None if declined(low, high) else within
            for index in (ours, decoded):
                got = rows(index, low, high, low_inclusive, high_inclusive)
                assert got == expected, (low, high)  # None: the scan answers
    expected = None if any(map(declined, probes)) else brute(lambda v: any(v == p for p in probes))
    for index in (ours, decoded):
        hits = index.in_rows(probes)  # a probe given twice gives its rows twice
        assert (None if hits is None else sorted(set(hits.tolist()))) == expected
