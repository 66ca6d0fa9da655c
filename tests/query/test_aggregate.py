"""Aggregation tests: the fold of a column chunk, held against the
per-row fold (``tests.oracle.fold``), and the shared result tail."""

import pytest

from repro.common.errors import QueryError
from repro.query.aggregate import Aggregator, result_rows
from repro.query.sql import parse_sql
from repro.rowstore.batch import RowBatch

from tests.oracle import fold


ROWS = [
    {"ip": "a", "latency": 10},
    {"ip": "a", "latency": 30},
    {"ip": "b", "latency": 20},
    {"ip": "b", "latency": None},
    {"ip": None, "latency": 5},
]


def folded(sql: str, rows: list[dict]) -> Aggregator:
    """An aggregator that folded ``rows`` as one chunk, checked against
    the per-row fold of the same rows."""
    agg = Aggregator(parse_sql(sql))
    agg.consume_many(RowBatch.from_dicts(rows))
    assert agg.results() == fold(parse_sql(sql), rows)
    return agg


class TestAggregates:
    def test_count_star(self):
        agg = folded("SELECT COUNT(*) FROM t", ROWS)
        assert agg.results() == [{"COUNT(*)": 5}]

    def test_count_column_skips_nulls(self):
        agg = folded("SELECT COUNT(latency) FROM t", ROWS)
        assert agg.results() == [{"COUNT(latency)": 4}]

    def test_sum_avg_min_max(self):
        agg = folded("SELECT SUM(latency), AVG(latency), MIN(latency), MAX(latency) FROM t", ROWS)
        row = agg.results()[0]
        assert row["SUM(latency)"] == 65
        assert row["AVG(latency)"] == pytest.approx(65 / 4)
        assert row["MIN(latency)"] == 5
        assert row["MAX(latency)"] == 30

    def test_empty_input_yields_zero_row(self):
        agg = Aggregator(parse_sql("SELECT COUNT(*), SUM(latency) FROM t"))
        assert agg.results() == [{"COUNT(*)": 0, "SUM(latency)": None}]

    def test_empty_grouped_input_yields_no_rows(self):
        agg = Aggregator(parse_sql("SELECT ip, COUNT(*) FROM t GROUP BY ip"))
        assert agg.results() == []

    def test_group_by(self):
        agg = folded("SELECT ip, COUNT(*) FROM t GROUP BY ip", ROWS)
        rows = agg.results()
        by_ip = {r["ip"]: r["COUNT(*)"] for r in rows}
        assert by_ip == {"a": 2, "b": 2, None: 1}

    def test_group_by_sorted_with_none_last(self):
        agg = folded("SELECT ip, COUNT(*) FROM t GROUP BY ip", ROWS)
        ips = [r["ip"] for r in agg.results()]
        assert ips == ["a", "b", None]

    def test_top_n(self):
        agg = folded(
            "SELECT ip, COUNT(*) FROM t GROUP BY ip ORDER BY COUNT(*) DESC LIMIT 1",
            ROWS + [{"ip": "a", "latency": 1}],
        )
        assert agg.results() == [{"ip": "a", "COUNT(*)": 3}]

    def test_non_aggregate_rejected(self):
        with pytest.raises(QueryError):
            Aggregator(parse_sql("SELECT ip FROM t"))


class TestMerge:
    def test_partial_merge_equals_global(self):
        """Broker-side merge of shard partials must equal one-pass agg."""
        query = parse_sql(
            "SELECT ip, COUNT(*), SUM(latency), MIN(latency), MAX(latency), AVG(latency) "
            "FROM t GROUP BY ip"
        )
        left = Aggregator(query)
        left.consume_many(RowBatch.from_dicts(ROWS[:2]))
        right = Aggregator(query)
        right.consume_many(RowBatch.from_dicts(ROWS[2:]))
        left.merge(right)
        assert left.results() == fold(query, ROWS)

    def test_merge_disjoint_groups(self):
        query = parse_sql("SELECT ip, COUNT(*) FROM t GROUP BY ip")
        left = Aggregator(query)
        left.consume_many(RowBatch.from_dicts([{"ip": "x"}]))
        right = Aggregator(query)
        right.consume_many(RowBatch.from_dicts([{"ip": "y"}]))
        left.merge(right)
        assert {r["ip"] for r in left.results()} == {"x", "y"}

    def test_merge_keeps_nan_groups_apart(self):
        query = parse_sql("SELECT f, COUNT(*) FROM t GROUP BY f")
        nan = float("nan")
        left, right = Aggregator(query), Aggregator(query)
        left.consume_many(RowBatch.from_dicts([{"f": nan}, {"f": 1.0}]))
        right.consume_many(RowBatch.from_dicts([{"f": nan}, {"f": 1.0}]))
        left.merge(right)
        # 1.0 once, each NaN a group of its own.
        assert sorted(row["COUNT(*)"] for row in left.results()) == [1, 1, 2]


class TestChunkForms:
    """A chunk's columns enter as the blocks they archive as; every
    form folds like the per-row fold."""

    def test_empty_chunk_returns_at_once(self):
        agg = Aggregator(parse_sql("SELECT COUNT(*), MIN(x) FROM t"))
        agg.consume_many(RowBatch())
        assert agg.results() == [{"COUNT(*)": 0, "MIN(x)": None}]

    @pytest.mark.parametrize(
        "values",
        [
            [3, None, -(2**63), 2**63 - 1, 3],  # ints with a null
            [2**64, 5, None, 2**64],  # an int beyond int64: ranked, exact
            [1, 2.5, None, 1.0],  # ints and floats: the FLOAT64 block
            [True, None, False, True],
            ["b", None, "a", "b"],
            [None, None],
        ],
    )
    def test_value_list_forms(self, values):
        rows = [{"k": i % 2, "x": value} for i, value in enumerate(values)]
        for sql in (
            "SELECT COUNT(x), MIN(x), MAX(x), COUNT(DISTINCT x) FROM t",
            "SELECT x, COUNT(*) FROM t GROUP BY x",
            "SELECT k, MIN(x), MAX(x) FROM t GROUP BY k",
        ):
            folded(sql, rows)

    def test_sum_of_ranked_values_sums_the_numbers(self):
        rows = [{"x": 2**64}, {"x": 1}, {"x": None}]
        agg = folded("SELECT SUM(x), AVG(x) FROM t", rows)
        assert agg.results() == [{"SUM(x)": float(2**64 + 1), "AVG(x)": float(2**64 + 1) / 2}]


class TestOrderLimit:
    @staticmethod
    def result(sql: str, latencies: list) -> list[dict]:
        rows = [{"latency": value, "ip": f"ip{i}"} for i, value in enumerate(latencies)]
        return result_rows(parse_sql(sql), RowBatch.from_dicts(rows))

    def test_order_asc(self):
        rows = self.result("SELECT latency FROM t ORDER BY latency", [3, 1, None])
        assert rows == [{"latency": 1}, {"latency": 3}, {"latency": None}]

    def test_order_desc_limit(self):
        rows = self.result("SELECT latency FROM t ORDER BY latency DESC LIMIT 2", [3, 1, 9])
        assert rows == [{"latency": 9}, {"latency": 3}]

    def test_no_order(self):
        assert len(self.result("SELECT latency FROM t LIMIT 2", [3, 1, 9])) == 2

    def test_orders_by_a_column_it_does_not_project(self):
        rows = self.result("SELECT ip FROM t ORDER BY latency DESC", [3, 1, 9])
        assert rows == [{"ip": "ip2"}, {"ip": "ip0"}, {"ip": "ip1"}]

    def test_only_kept_rows_become_dicts(self):
        before = RowBatch.dicts_built
        rows = self.result("SELECT * FROM t ORDER BY latency LIMIT 2", list(range(50)))
        assert len(rows) == 2 and RowBatch.dicts_built - before == 2
