"""Full-system integration tests: the paper's pipeline end to end."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.config import small_test_config
from repro.cluster.logstore import LogStore
from repro.query.planner import format_timestamp
from repro.workload import LogRecordGenerator, WorkloadConfig

from tests.conftest import BASE_TS, MICROS, make_rows


@pytest.fixture(scope="module")
def loaded_store():
    """A store with a realistic multi-tenant dataset, archived to OSS."""
    store = LogStore.create(config=small_test_config())
    generator = LogRecordGenerator(WorkloadConfig(n_tenants=10, theta=0.99, seed=11))
    by_tenant: dict[int, list[dict]] = {}
    for row in generator.dataset(BASE_TS, duration_s=7200, total_rows=15_000):
        by_tenant.setdefault(row["tenant_id"], []).append(row)
    for tenant_id, rows in by_tenant.items():
        store.put(tenant_id, rows)
    store.flush_all()
    return store, by_tenant


class TestQueryEquivalence:
    """Queries through the full stack match brute force over the corpus."""

    def test_time_range(self, loaded_store):
        store, by_tenant = loaded_store
        lo = BASE_TS + 600 * MICROS * 1000 // 1000
        hi = BASE_TS + 3600 * MICROS
        result = store.query(
            "SELECT ts FROM request_log WHERE tenant_id = 1 "
            f"AND ts >= '{format_timestamp(lo)}' AND ts <= '{format_timestamp(hi)}'"
        )
        expected = [r for r in by_tenant[1] if lo <= r["ts"] <= hi]
        # format_timestamp truncates to seconds; re-derive the bound it used.
        assert len(result.rows) == len(
            [r for r in by_tenant[1]
             if (lo // MICROS) * MICROS <= r["ts"] <= (hi // MICROS) * MICROS]
        ) or len(result.rows) == len(expected)

    def test_latency_threshold(self, loaded_store):
        store, by_tenant = loaded_store
        result = store.query(
            "SELECT latency FROM request_log WHERE tenant_id = 2 AND latency >= 200"
        )
        expected = [r for r in by_tenant[2] if r["latency"] >= 200]
        assert len(result.rows) == len(expected)

    def test_fulltext(self, loaded_store):
        store, by_tenant = loaded_store
        result = store.query(
            "SELECT log FROM request_log WHERE tenant_id = 1 AND MATCH(log, 'status error')"
        )
        from repro.logblock.tokenizer import tokenize

        expected = [
            r for r in by_tenant[1]
            if {"status", "error"} <= set(tokenize(r["log"]))
        ]
        assert len(result.rows) == len(expected)

    def test_combined_filters(self, loaded_store):
        store, by_tenant = loaded_store
        result = store.query(
            "SELECT log FROM request_log WHERE tenant_id = 1 "
            "AND latency BETWEEN 50 AND 500 AND fail = 'false'"
        )
        expected = [
            r for r in by_tenant[1]
            if 50 <= r["latency"] <= 500 and r["fail"] is False
        ]
        assert len(result.rows) == len(expected)

    def test_bi_aggregation(self, loaded_store):
        """The §1 motivating query: which IPs accessed this API most."""
        store, by_tenant = loaded_store
        result = store.query(
            "SELECT ip, COUNT(*) FROM request_log WHERE tenant_id = 1 "
            "GROUP BY ip ORDER BY COUNT(*) DESC LIMIT 5"
        )
        counts: dict[str, int] = {}
        for row in by_tenant[1]:
            counts[row["ip"]] = counts.get(row["ip"], 0) + 1
        expected_top = sorted(counts.values(), reverse=True)[:5]
        assert [r["COUNT(*)"] for r in result.rows] == expected_top

    def test_order_by_a_column_the_select_list_drops(self):
        store = LogStore.create(config=small_test_config())
        rows = make_rows(300, tenant_id=1, seed=76)
        store.put(1, rows[:270])
        store.flush_all()
        store.put(1, rows[270:])
        result = store.query(
            "SELECT ts FROM request_log WHERE tenant_id = 1 ORDER BY latency DESC LIMIT 5"
        )
        assert result.realtime_rows == 30  # archived and realtime rows ranked together
        latency = {row["ts"]: row["latency"] for row in rows}
        assert [latency[row["ts"]] for row in result.rows] == sorted(latency.values())[::-1][:5]
        assert all(list(row) == ["ts"] for row in result.rows)

    def test_repeat_query_faster_via_cache(self, loaded_store):
        """§6.3.2: 'when the same query is executed the second time, it
        will be [much] faster than the first time.'"""
        store, _by_tenant = loaded_store
        sql = (
            "SELECT log FROM request_log WHERE tenant_id = 3 AND latency >= 100"
        )
        store.cache.clear()
        first = store.query(sql)
        second = store.query(sql)
        assert second.rows == first.rows
        assert second.latency_s < first.latency_s / 2


class TestLifecycle:
    def test_write_archive_query_expire_cycle(self):
        store = LogStore.create(config=small_test_config())
        store.register_tenant(1, retention_s=1800)
        store.register_tenant(2, retention_s=None)
        for tenant in (1, 2):
            store.put(tenant, make_rows(500, tenant_id=tenant, seed=tenant))
        store.flush_all()
        assert store.total_archived_bytes() > 0

        # Both tenants queryable.
        for tenant in (1, 2):
            result = store.query(
                f"SELECT COUNT(*) FROM request_log WHERE tenant_id = {tenant}"
            )
            assert result.rows == [{"COUNT(*)": 500}]

        # Expire tenant 1's data; tenant 2 unaffected.
        now_ts = BASE_TS + 3600 * MICROS
        report = store.sweep_expired(now_ts=now_ts)
        assert report.tenants_touched == {1}
        assert store.query(
            "SELECT COUNT(*) FROM request_log WHERE tenant_id = 1"
        ).rows == [{"COUNT(*)": 0}]
        assert store.query(
            "SELECT COUNT(*) FROM request_log WHERE tenant_id = 2"
        ).rows == [{"COUNT(*)": 500}]

    def test_oss_objects_per_tenant_prefix(self):
        store = LogStore.create(config=small_test_config())
        store.put(7, make_rows(100, tenant_id=7))
        store.put(8, make_rows(100, tenant_id=8))
        store.flush_all()
        assert store.oss.list(store.config.bucket, "tenants/7/")
        assert store.oss.list(store.config.bucket, "tenants/8/")


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(
    threshold=st.integers(min_value=0, max_value=500),
    seed=st.integers(min_value=0, max_value=3),
)
def test_property_archived_equals_realtime_results(threshold, seed):
    """A query must return the same rows whether the data is still in
    the row store or already archived to OSS — the two-phase write path
    must be invisible to readers."""
    rows = make_rows(300, tenant_id=1, seed=seed)
    sql = (
        "SELECT ts FROM request_log WHERE tenant_id = 1 "
        f"AND latency >= {threshold}"
    )

    fresh = LogStore.create(config=small_test_config())
    fresh.put(1, rows)
    realtime_result = fresh.query(sql)

    archived = LogStore.create(config=small_test_config())
    archived.put(1, rows)
    archived.flush_all()
    archived_result = archived.query(sql)

    assert sorted(r["ts"] for r in realtime_result.rows) == sorted(
        r["ts"] for r in archived_result.rows
    )
