"""Data-skipping tests: pruning must never change query results."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.errors import QueryError
from repro.logblock.pruning import (
    EqPredicate,
    InPredicate,
    MatchPredicate,
    NePredicate,
    PruneStats,
    RangePredicate,
    column_mask,
    evaluate_predicates,
    object_column,
    validate_predicate_types,
)
from repro.logblock.schema import request_log_schema
from repro.logblock.tokenizer import tokenize

from tests.conftest import make_rows, write_logblock
from tests.logblock.test_writer_reader import reader_for
from tests.oracle import matches


def brute_force(rows, predicates):
    return [i for i, row in enumerate(rows) if all(matches(p, row) for p in predicates)]


def mask(predicate, values: list) -> list[bool]:
    """``column_mask`` over ``values`` as an object column."""
    return column_mask(predicate, object_column(values)).tolist()


class TestPredicateEvaluation:
    def test_eq(self):
        p = EqPredicate("ip", "10.0.0.1")
        assert mask(p, ["10.0.0.1", "10.0.0.2", None]) == [True, False, False]

    def test_ne(self):
        p = NePredicate("ip", "x")
        assert mask(p, ["y", "x", None]) == [True, False, False]

    def test_range(self):
        p = RangePredicate("latency", low=10, high=20)
        assert mask(p, [10, 20, 9, 21]) == [True, True, False, False]
        exclusive = RangePredicate("latency", low=10, high=20, low_inclusive=False, high_inclusive=False)
        assert mask(exclusive, [10, 20, 15]) == [False, False, True]

    def test_in(self):
        p = InPredicate("api", ("/a", "/b"))
        assert mask(p, ["/a", "/c"]) == [True, False]

    def test_match(self):
        p = MatchPredicate("log", "error timeout")
        assert mask(p, ["big error timeout here", "error only", None]) == [True, False, False]


class TestEvaluateOnBlock:
    @pytest.fixture
    def rows(self):
        return make_rows(400, seed=5)

    @pytest.fixture
    def reader(self, rows):
        return reader_for(write_logblock(rows, block_rows=64))

    @pytest.mark.parametrize("use_skipping", [True, False])
    @pytest.mark.parametrize("use_indexes", [True, False])
    def test_all_modes_agree_with_brute_force(self, rows, reader, use_skipping, use_indexes):
        predicates = [
            EqPredicate("ip", "192.168.0.4"),
            RangePredicate("latency", low=100, high=400),
            MatchPredicate("log", "status ok"),
        ]
        mask = evaluate_predicates(
            reader, predicates, use_skipping=use_skipping, use_indexes=use_indexes
        )
        assert np.flatnonzero(mask).tolist() == brute_force(rows, predicates)

    def test_column_pruned_short_circuits(self, reader):
        stats = PruneStats()
        mask = evaluate_predicates(
            reader, [RangePredicate("latency", low=10_000)], stats=stats
        )
        assert not mask.any()
        assert stats.columns_pruned == 1
        assert stats.blocks_scanned == 0

    def test_block_pruning_on_sorted_column(self, rows, reader):
        """ts is sorted so most blocks should prune on a narrow range."""
        stats = PruneStats()
        mid = rows[200]["ts"]
        mask = evaluate_predicates(
            reader,
            [RangePredicate("ts", low=mid, high=mid)],
            use_indexes=False,
            stats=stats,
        )
        assert mask.sum() == 1
        assert stats.blocks_pruned > 0
        assert stats.blocks_scanned <= 2

    def test_index_path_counts_lookups(self, reader):
        stats = PruneStats()
        evaluate_predicates(reader, [EqPredicate("ip", "192.168.0.1")], stats=stats)
        assert stats.index_lookups == 1

    def test_ne_predicate_scans(self, rows, reader):
        predicates = [NePredicate("api", "/api/v0")]
        mask = evaluate_predicates(reader, predicates)
        assert np.flatnonzero(mask).tolist() == brute_force(rows, predicates)

    def test_in_predicate_via_index(self, rows, reader):
        predicates = [InPredicate("ip", ("192.168.0.1", "192.168.0.2"))]
        mask = evaluate_predicates(reader, predicates)
        assert np.flatnonzero(mask).tolist() == brute_force(rows, predicates)

    def test_validate_unknown_column(self, reader):
        with pytest.raises(QueryError):
            validate_predicate_types(
                request_log_schema(), [EqPredicate("nope", 1)]
            )

    def test_validate_match_on_numeric(self):
        with pytest.raises(QueryError):
            validate_predicate_types(
                request_log_schema(), [MatchPredicate("latency", "x")]
            )


predicate_strategy = st.one_of(
    st.integers(min_value=0, max_value=9).map(
        lambda i: EqPredicate("ip", f"192.168.0.{i}")
    ),
    st.tuples(
        st.integers(min_value=0, max_value=500), st.integers(min_value=0, max_value=500)
    ).map(lambda lw: RangePredicate("latency", low=lw[0], high=lw[0] + lw[1])),
    st.sampled_from(["ok", "error", "rid_5", "took"]).map(
        lambda term: MatchPredicate("log", term)
    ),
    st.booleans().map(lambda b: EqPredicate("fail", b)),
    st.integers(min_value=0, max_value=2).map(
        lambda i: NePredicate("api", f"/api/v{i}")
    ),
)


@settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(
    predicates=st.lists(predicate_strategy, min_size=1, max_size=4),
    seed=st.integers(min_value=0, max_value=5),
)
def test_property_skipping_never_changes_results(predicates, seed):
    """THE data-skipping invariant: with and without skipping/indexes,
    the matched row set is identical, and equals brute force."""
    rows = make_rows(150, seed=seed)
    reader = reader_for(write_logblock(rows, block_rows=32))
    expected = brute_force(rows, predicates)
    for use_skipping, use_indexes in [(True, True), (True, False), (False, False)]:
        mask = evaluate_predicates(
            reader, predicates, use_skipping=use_skipping, use_indexes=use_indexes
        )
        assert np.flatnonzero(mask).tolist() == expected


def test_match_tokens_present_in_generated_logs():
    """Sanity: the terms used in the property test occur in the corpus."""
    rows = make_rows(100)
    all_tokens = set()
    for row in rows:
        all_tokens.update(tokenize(row["log"]))
    assert {"ok", "took"} <= all_tokens
