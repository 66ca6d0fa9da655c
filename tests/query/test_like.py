"""LIKE 'prefix%' support: parsing, pruning, index path, end to end."""

import numpy as np
import pytest

from repro.common.errors import SqlParseError
from repro.logblock.pruning import (
    PrefixPredicate,
    PruneStats,
    column_mask,
    evaluate_predicates,
    object_column,
)
from repro.logblock.schema import ColumnType
from repro.query.ast import Like
from repro.query.kernels import filter_chunk
from repro.rowstore.batch import RowBatch
from repro.query.sql import parse_sql

from tests.conftest import make_rows, write_logblock
from tests.logblock.test_writer_reader import reader_for


class TestParsing:
    def test_prefix_pattern(self):
        q = parse_sql("SELECT a FROM t WHERE api LIKE '/api/v1/%'")
        assert q.where == Like("api", "/api/v1/")

    def test_bare_percent_matches_everything(self):
        q = parse_sql("SELECT a FROM t WHERE api LIKE '%'")
        assert q.where == Like("api", "")

    @pytest.mark.parametrize(
        "pattern", ["abc", "%abc", "a%c", "a_c%", "a%b%"]
    )
    def test_non_prefix_patterns_rejected(self, pattern):
        with pytest.raises(SqlParseError):
            parse_sql(f"SELECT a FROM t WHERE api LIKE '{pattern}'")

    def test_non_string_literal_rejected(self):
        with pytest.raises(SqlParseError):
            parse_sql("SELECT a FROM t WHERE api LIKE 5")


class TestPrefixPredicate:
    def test_evaluate(self):
        p = PrefixPredicate("api", "/api/v1")
        values = ["/api/v1/items", "/API/V1/items", "/api/v2/items", None]
        # Case-sensitive (SQL); a null matches nothing.
        assert column_mask(p, object_column(values)).tolist() == [True, False, False, False]

    def test_row_eval_matches_predicate(self):
        expr = Like("api", "/api/v1")
        rows = [{"api": "/api/v1/x"}, {"api": "/API/V1/x"}, {"api": "/apiv1"}, {"api": None}]
        assert filter_chunk(expr, RowBatch.from_dicts(rows)).to_dicts() == rows[:1]

    def test_sma_pruning_sound_on_mixed_case(self):
        from repro.logblock.sma import compute_sma

        # 'B' < 'a' in code-point order; pruning must stay sound.
        sma = compute_sma(["B", "a"], ColumnType.STRING)
        assert PrefixPredicate("x", "B").may_match_sma(sma, ColumnType.STRING)
        assert PrefixPredicate("x", "a").may_match_sma(sma, ColumnType.STRING)
        assert not PrefixPredicate("x", "b").may_match_sma(sma, ColumnType.STRING)
        assert not PrefixPredicate("x", "0").may_match_sma(sma, ColumnType.STRING)


class TestOnLogBlock:
    @pytest.fixture
    def data(self):
        rows = make_rows(300, seed=3)
        return rows, reader_for(write_logblock(rows, block_rows=64))

    def test_index_path_matches_brute_force(self, data):
        rows, reader = data
        predicate = PrefixPredicate("ip", "192.168.0.1")  # matches .1 only (single octet pool)
        stats = PruneStats()
        mask = evaluate_predicates(reader, [predicate], stats=stats)
        expected = [i for i, r in enumerate(rows) if r["ip"].startswith("192.168.0.1")]
        assert np.flatnonzero(mask).tolist() == expected
        assert stats.index_lookups == 1  # answered from the inverted index

    def test_scan_path_matches_index_path(self, data):
        rows, reader = data
        predicate = PrefixPredicate("ip", "192.168.0.")
        with_index = evaluate_predicates(reader, [predicate], use_indexes=True)
        without_index = evaluate_predicates(reader, [predicate], use_indexes=False)
        assert np.array_equal(with_index, without_index)
        assert with_index.sum() == len(rows)  # all ips share the prefix

    def test_tokenized_column_falls_back_to_scan(self, data):
        rows, reader = data
        predicate = PrefixPredicate("log", "GET /api")
        stats = PruneStats()
        mask = evaluate_predicates(reader, [predicate], stats=stats)
        expected = [
            i for i, r in enumerate(rows) if r["log"].lower().startswith("get /api")
        ]
        assert np.flatnonzero(mask).tolist() == expected
        assert stats.index_lookups == 0  # tokenized: no whole-value terms


class TestEndToEnd:
    def test_like_through_logstore(self):
        from repro.cluster.config import small_test_config
        from repro.cluster.logstore import LogStore

        store = LogStore.create(config=small_test_config())
        rows = make_rows(200, tenant_id=1)
        store.put(1, rows)
        store.flush_all()
        result = store.query(
            "SELECT ip FROM request_log WHERE tenant_id = 1 AND ip LIKE '192.168.0.1%'"
        )
        expected = [r for r in rows if r["ip"].startswith("192.168.0.1")]
        assert len(result.rows) == len(expected)

    def test_like_on_realtime_rows(self):
        from repro.cluster.config import small_test_config
        from repro.cluster.logstore import LogStore

        store = LogStore.create(config=small_test_config())
        rows = make_rows(100, tenant_id=1)
        store.put(1, rows)  # not flushed: realtime only
        result = store.query(
            "SELECT api FROM request_log WHERE tenant_id = 1 AND api LIKE '/api/v1%'"
        )
        expected = [r for r in rows if r["api"].startswith("/api/v1")]
        assert len(result.rows) == len(expected)

    def test_like_on_numeric_rejected(self):
        from repro.cluster.config import small_test_config
        from repro.cluster.logstore import LogStore
        from repro.common.errors import QueryError

        store = LogStore.create(config=small_test_config())
        store.put(1, make_rows(5, tenant_id=1))
        with pytest.raises(QueryError):
            store.query("SELECT ts FROM request_log WHERE tenant_id = 1 AND latency LIKE '1%'")
