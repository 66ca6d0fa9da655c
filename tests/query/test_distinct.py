"""COUNT(DISTINCT) / APPROX_COUNT_DISTINCT and HyperLogLog tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import QueryError, SqlParseError
from repro.query.aggregate import Aggregator
from repro.query.distinct import ExactDistinct, HyperLogLog
from repro.query.sql import parse_sql
from repro.rowstore.batch import RowBatch

from tests.oracle import fold


class TestHyperLogLog:
    def test_empty(self):
        assert HyperLogLog().estimate() == 0

    def test_exact_for_tiny_sets(self):
        sketch = HyperLogLog()
        for i in range(10):
            sketch.add(f"v{i}")
        assert sketch.estimate() == 10  # linear-counting regime is exact-ish

    def test_duplicates_ignored(self):
        sketch = HyperLogLog()
        for _ in range(1000):
            sketch.add("same")
        assert sketch.estimate() == 1

    @pytest.mark.parametrize("true_count", [100, 1_000, 50_000])
    def test_accuracy_within_error_bound(self, true_count):
        sketch = HyperLogLog(precision=12)  # ~1.6% stderr
        for i in range(true_count):
            sketch.add(f"item-{i}")
        estimate = sketch.estimate()
        assert abs(estimate - true_count) / true_count < 0.06  # ~4 sigma

    def test_merge_equals_union(self):
        left = HyperLogLog()
        right = HyperLogLog()
        for i in range(2000):
            left.add(f"a{i}")
        for i in range(1000, 3000):
            right.add(f"a{i}")  # 1000 overlap → union 3000
        left.merge(right)
        combined = left.estimate()
        assert abs(combined - 3000) / 3000 < 0.06

    def test_merge_precision_mismatch(self):
        with pytest.raises(QueryError):
            HyperLogLog(precision=10).merge(HyperLogLog(precision=12))

    def test_serialization_roundtrip(self):
        sketch = HyperLogLog()
        for i in range(500):
            sketch.add(i)
        decoded = HyperLogLog.from_bytes(sketch.to_bytes())
        assert decoded.estimate() == sketch.estimate()

    def test_bad_precision(self):
        with pytest.raises(QueryError):
            HyperLogLog(precision=2)

    @given(st.sets(st.integers(), max_size=300))
    @settings(max_examples=20, deadline=None)
    def test_property_never_wildly_wrong(self, values):
        sketch = HyperLogLog()
        for value in values:
            sketch.add(value)
        estimate = sketch.estimate()
        if len(values) == 0:
            assert estimate == 0
        else:
            assert 0.7 * len(values) <= estimate <= 1.3 * len(values)


class TestExactDistinct:
    def test_counts_and_merges(self):
        left = ExactDistinct()
        right = ExactDistinct()
        for v in ("a", "b", "a"):
            left.add(v)
        for v in ("b", "c"):
            right.add(v)
        left.merge(right)
        assert left.estimate() == 3


class TestSqlIntegration:
    ROWS = [
        {"ip": "a", "api": "/x"},
        {"ip": "a", "api": "/y"},
        {"ip": "b", "api": "/x"},
        {"ip": "c", "api": "/x"},
        {"ip": None, "api": "/x"},
    ]

    def test_count_distinct_parsing(self):
        q = parse_sql("SELECT COUNT(DISTINCT ip) FROM t")
        assert q.select[0].distinct
        assert q.select[0].label() == "COUNT(DISTINCT ip)"

    @staticmethod
    def results(sql: str, rows: list[dict]) -> list[dict]:
        """The chunk fold of ``rows``, checked against the per-row fold."""
        agg = Aggregator(parse_sql(sql))
        agg.consume_many(RowBatch.from_dicts(rows))
        assert agg.results() == fold(parse_sql(sql), rows)
        return agg.results()

    def test_count_distinct(self):
        rows = self.results("SELECT COUNT(DISTINCT ip) FROM t", self.ROWS)
        assert rows == [{"COUNT(DISTINCT ip)": 3}]  # nulls excluded

    def test_count_distinct_group_by(self):
        rows = self.results("SELECT api, COUNT(DISTINCT ip) FROM t GROUP BY api", self.ROWS)
        by_api = {r["api"]: r["COUNT(DISTINCT ip)"] for r in rows}
        assert by_api == {"/x": 3, "/y": 1}

    def test_approx_count_distinct(self):
        rows = self.results("SELECT APPROX_COUNT_DISTINCT(ip) FROM t", self.ROWS)
        assert rows == [{"APPROX_COUNT_DISTINCT(ip)": 3}]

    def test_nan_counts_once_per_row_and_zero_once(self):
        """A NaN equals nothing, itself included; -0.0 equals 0.0."""
        nan = float("nan")
        rows = [{"f": value} for value in (nan, nan, None, -0.0, 0.0, nan)]
        sql = "SELECT COUNT(DISTINCT f), APPROX_COUNT_DISTINCT(f) FROM t"
        assert self.results(sql, rows) == [
            {"COUNT(DISTINCT f)": 4, "APPROX_COUNT_DISTINCT(f)": 2}
        ]

    def test_merge_across_shards(self):
        query = parse_sql("SELECT COUNT(DISTINCT ip), APPROX_COUNT_DISTINCT(api) FROM t")
        left = Aggregator(query)
        left.consume_many(RowBatch.from_dicts(self.ROWS[:2]))
        right = Aggregator(query)
        right.consume_many(RowBatch.from_dicts(self.ROWS[2:]))
        left.merge(right)
        row = left.results()[0]
        assert row["COUNT(DISTINCT ip)"] == 3
        assert row["APPROX_COUNT_DISTINCT(api)"] == 2

    def test_distinct_only_for_count(self):
        with pytest.raises(SqlParseError):
            parse_sql("SELECT SUM(DISTINCT latency) FROM t")

    def test_empty_input(self):
        agg = Aggregator(parse_sql("SELECT COUNT(DISTINCT ip) FROM t"))
        assert agg.results() == [{"COUNT(DISTINCT ip)": 0}]

    def test_end_to_end_unique_ips(self):
        """The §1 question: how many unique IPs accessed this tenant?"""
        from repro.cluster.config import small_test_config
        from repro.cluster.logstore import LogStore
        from tests.conftest import make_rows

        store = LogStore.create(config=small_test_config())
        rows = make_rows(300, tenant_id=1)
        store.put(1, rows)
        store.flush_all()
        result = store.query(
            "SELECT COUNT(DISTINCT ip), APPROX_COUNT_DISTINCT(ip) "
            "FROM request_log WHERE tenant_id = 1"
        )
        true_count = len({r["ip"] for r in rows})
        row = result.rows[0]
        assert row["COUNT(DISTINCT ip)"] == true_count
        assert abs(row["APPROX_COUNT_DISTINCT(ip)"] - true_count) <= max(
            1, 0.05 * true_count
        )
