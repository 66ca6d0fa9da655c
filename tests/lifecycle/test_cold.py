"""Cold tiering through the full stack: same answers, fewer bytes."""

import pytest

from repro.cluster.config import small_test_config
from repro.cluster.logstore import LogStore
from repro.meta.catalog import TIER_COLD, TIER_HOT, Catalog
from repro.meta.persistence import (
    load_catalog_into,
    rebuild_catalog_from_store,
    save_catalog,
)

from tests.conftest import BASE_TS, MICROS, make_rows

HOUR_US = 3_600 * MICROS


@pytest.fixture
def store():
    store = LogStore.create(
        config=small_test_config(cold_target_rows=200)
    )
    store.register_tenant(1)
    store.register_tenant(2)
    store.put(1, make_rows(600, tenant_id=1))
    store.put(2, make_rows(200, tenant_id=2, seed=9))
    store.flush_all()
    return store


def demote(store, tenant_id=1, cold_age="1h", hours_later=2):
    """Age the tenant's data past cold_age and run the background tick."""
    store.set_retention(tenant_id, cold_age=cold_age)
    # The virtual clock starts before the corpus timestamps; jump past
    # the newest row (600 one-second steps) plus the requested age.
    target_s = BASE_TS / MICROS + 600 + hours_later * 3_600
    store.clock.sleep(max(0.0, target_s - store.clock.now()))
    store.run_background_tasks()


QUERIES = (
    "SELECT COUNT(*) FROM request_log WHERE tenant_id = 1",
    "SELECT ts, api, latency, log FROM request_log WHERE tenant_id = 1",
    "SELECT api, COUNT(*) FROM request_log WHERE tenant_id = 1 GROUP BY api",
    "SELECT log FROM request_log WHERE tenant_id = 1 AND MATCH(log, 'status error')",
    "SELECT latency FROM request_log WHERE tenant_id = 1 AND latency >= 400",
)


class TestIdenticalAnswers:
    def test_every_query_shape_matches_hot_results(self, store):
        hot = [store.query(sql).rows for sql in QUERIES]
        demote(store)
        info = store.catalog.tenant(1)
        assert {b.tier for b in info.blocks} == {TIER_COLD}
        cold = [store.query(sql).rows for sql in QUERIES]
        for hot_rows, cold_rows in zip(hot, cold):
            assert cold_rows == hot_rows

    def test_other_tenant_stays_hot(self, store):
        demote(store, tenant_id=1)
        assert {b.tier for b in store.catalog.tenant(2).blocks} == {TIER_HOT}

    def test_cold_segments_shrink_storage(self, store):
        hot_bytes = sum(b.size_bytes for b in store.catalog.tenant(1).blocks)
        demote(store)
        cold_bytes = sum(b.size_bytes for b in store.catalog.tenant(1).blocks)
        assert cold_bytes < hot_bytes
        # The catalog's virtual member paths share one real segment object.
        segments = store.catalog.segment_paths()
        assert len(segments) >= 1
        for block in store.catalog.tenant(1).blocks:
            assert block.segment_path in segments
            assert block.path.startswith(block.segment_path + "#")


class TestObservability:
    def test_explain_annotates_tier(self, store):
        sql = "SELECT log FROM request_log WHERE tenant_id = 1"
        assert "cold" not in store.explain(sql)
        demote(store)
        plan = store.explain(sql)
        assert "tier=cold" in plan
        assert "cold (tar-packed segment members)" in plan

    def test_query_stats_count_cold_blocks(self, store):
        sql = "SELECT ts FROM request_log WHERE tenant_id = 1"
        assert store.query(sql).stats.cold_blocks_visited == 0
        demote(store)
        result = store.query(sql)
        assert result.stats.cold_blocks_visited > 0

    def test_system_tenants_split_tiers(self, store):
        demote(store)
        admin = store.connect_admin(store.issue_admin_token())
        rows = admin.execute(
            "SELECT tenant_id, hot_blocks, cold_blocks FROM _system.tenants"
        ).rows
        by_id = {row["tenant_id"]: row for row in rows}
        assert by_id[1]["hot_blocks"] == 0 and by_id[1]["cold_blocks"] > 0
        assert by_id[2]["cold_blocks"] == 0 and by_id[2]["hot_blocks"] > 0

    def test_lifecycle_metrics_present(self, store):
        demote(store)
        counters = store.obs.registry.snapshot().counters
        assert sum(counters["logstore_lifecycle_ticks_total"].values()) >= 1
        assert sum(counters["logstore_lifecycle_cold_repacks_total"].values()) >= 1


class TestColdPersistence:
    def test_snapshot_roundtrip_keeps_tier_fields(self, store):
        demote(store)
        save_catalog(store.catalog, store.oss, store.config.bucket)
        fresh = Catalog(store.schema)
        assert load_catalog_into(fresh, store.oss, store.config.bucket)
        restored = fresh.blocks_for(1)
        assert restored == store.catalog.blocks_for(1)
        assert {entry.tier for entry in restored} == {TIER_COLD}
        assert fresh.tenant(1).cold_age_s == store.catalog.tenant(1).cold_age_s
        # Segment refcounts come back, so expiry still deletes correctly.
        segment = next(iter(fresh.segment_paths()))
        assert fresh.segment_refcount(segment) == len(restored)

    def test_rebuild_by_scan_recovers_cold_members(self, store):
        demote(store)
        original = {b.path: b for b in store.catalog.all_blocks()}
        fresh = Catalog(store.schema)
        fresh.register_tenant(1)
        fresh.register_tenant(2)
        count = rebuild_catalog_from_store(fresh, store.oss, store.config.bucket)
        assert count == len(original)
        rebuilt = {b.path: b for b in fresh.all_blocks()}
        assert rebuilt.keys() == original.keys()
        for path, entry in rebuilt.items():
            source = original[path]
            assert entry.tier == source.tier
            assert entry.row_count == source.row_count
            assert (entry.min_ts, entry.max_ts) == (source.min_ts, source.max_ts)
            assert entry.segment_path == source.segment_path
