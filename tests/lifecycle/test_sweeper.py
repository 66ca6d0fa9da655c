"""ExpirySweeper and the janitor: zero-read expiry, O(expired) scans,
and one orphan queue for every retirer."""

import pytest

from repro.builder.builder import DataBuilder
from repro.builder.compaction import Compactor
from repro.cluster.config import small_test_config
from repro.cluster.logstore import LogStore
from repro.common.clock import VirtualClock
from repro.lifecycle.cold import ColdCompactor
from repro.lifecycle.sweeper import ExpirySweeper
from repro.meta.backup import BackupTask
from repro.meta.catalog import TIER_COLD, Catalog
from repro.meta.janitor import Janitor
from repro.obs.context import Observability
from repro.oss.costmodel import free
from repro.oss.metered import MeteredObjectStore
from repro.oss.store import InMemoryObjectStore
from repro.rowstore.memtable import MemTable

from tests.conftest import BASE_TS, MICROS, make_rows

BUCKET = "test"
HOUR_US = 3_600 * MICROS


def archive(schema, store, catalog, tenant_id, count, start_ts, **builder_kw):
    """Rows → sealed memtable → LogBlocks on OSS, via the real builder."""
    builder_kw.setdefault("block_rows", 32)
    builder_kw.setdefault("target_rows", 64)
    builder = DataBuilder(
        schema, catalog,
        Janitor(catalog, store, BUCKET), **builder_kw,
    )
    memtable = MemTable()
    for row in make_rows(count, tenant_id=tenant_id, start_ts=start_ts):
        memtable.append(row)
    memtable.seal()
    builder.archive_memtable(memtable, "s0-0")
    return builder


def sweeper_over(catalog, store):
    return ExpirySweeper(catalog, Janitor(catalog, store, BUCKET))


class FailingDeleteStore:
    """Pass-through wrapper whose DELETEs fail while armed (and whose
    PUTs fail once ``puts_allowed`` is used up, when it is set)."""

    def __init__(self, inner):
        self._inner = inner
        self.failures_left = 0
        self.puts_allowed = None

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def delete(self, bucket, key):
        if self.failures_left > 0:
            self.failures_left -= 1
            raise RuntimeError("injected delete failure")
        return self._inner.delete(bucket, key)

    def put(self, bucket, key, data):
        if self.puts_allowed is not None:
            if self.puts_allowed <= 0:
                raise RuntimeError("injected put failure")
            self.puts_allowed -= 1
        return self._inner.put(bucket, key, data)


class TestZeroReadExpiry:
    @pytest.mark.parametrize("already_gone", [0, 1])
    def test_sweep_issues_no_gets(self, free_store, schema, already_gone):
        """Also: a bystander tenant without a TTL keeps every block, and
        an object already gone from OSS still counts as expired."""
        catalog = Catalog(schema)
        for tenant_id in (1, 2):
            catalog.register_tenant(tenant_id)
            archive(schema, free_store, catalog, tenant_id, 256, BASE_TS)
        bystander = {entry.path for entry in catalog.tenant(2).blocks}
        n_blocks = len(catalog.tenant(1).blocks)
        assert n_blocks > 1
        catalog.set_retention(1, 3_600.0)
        for entry in catalog.tenant(1).blocks[:already_gone]:
            free_store.delete(BUCKET, entry.path)

        sweeper = sweeper_over(catalog, free_store)
        before = free_store.stats.snapshot()
        report = sweeper.sweep(BASE_TS + 256 * MICROS + 2 * HOUR_US)
        after = free_store.stats.snapshot()

        assert report.blocks_expired == n_blocks
        assert report.bytes_reclaimed > 0
        assert report.tenants_touched == {1}
        # The defining property: expiry is metadata-only on the read
        # side — not one OSS GET, not one decoded byte.
        assert after.get_requests == before.get_requests
        assert after.bytes_read == before.bytes_read
        assert after.delete_requests - before.delete_requests == n_blocks - already_gone
        assert catalog.tenant(1).blocks == []
        assert catalog.tenant(1).expired_blocks_total == n_blocks
        assert {entry.path for entry in catalog.tenant(2).blocks} == bystander
        assert {s.key for s in free_store.list(BUCKET, "tenants/")} == bystander

    def test_partial_overlap_keeps_block(self, free_store, schema):
        catalog = Catalog(schema)
        catalog.register_tenant(1)
        archive(schema, free_store, catalog, 1, 64, BASE_TS, target_rows=64)
        catalog.set_retention(1, 3_600.0)
        sweeper = sweeper_over(catalog, free_store)
        # Cutoff lands inside the block's [min_ts, max_ts]: rows age out
        # at block granularity, so the straddling block survives.
        report = sweeper.sweep(BASE_TS + 32 * MICROS + HOUR_US)
        assert report.blocks_expired == 0
        assert len(catalog.tenant(1).blocks) == 1

    def test_sweep_is_idempotent(self, free_store, schema):
        catalog = Catalog(schema)
        catalog.register_tenant(1)
        archive(schema, free_store, catalog, 1, 128, BASE_TS)
        catalog.set_retention(1, 3_600.0)
        sweeper = sweeper_over(catalog, free_store)
        now_ts = BASE_TS + 128 * MICROS + 2 * HOUR_US
        first = sweeper.sweep(now_ts)
        assert first.blocks_expired > 0
        again = sweeper.sweep(now_ts)
        assert again.blocks_expired == 0
        assert again.entries_examined == 0


class TestScanCostBound:
    def test_examined_entries_match_expired_count(self, free_store, schema):
        """Satellite: expiry work is O(expired blocks), not O(catalog)."""
        catalog = Catalog(schema)
        for tenant_id in (1, 2, 3):
            catalog.register_tenant(tenant_id)
            # One block per 32 rows; tenant 3 never gets a TTL.
            archive(
                schema, free_store, catalog, tenant_id, 1_280,
                BASE_TS, target_rows=32,
            )
        total_blocks = len(catalog.all_blocks())
        assert total_blocks >= 120
        catalog.set_retention(1, 3_600.0)
        catalog.set_retention(2, 1_000 * 3_600.0)  # nothing expired yet

        # Expire only tenant 1's oldest blocks: cutoff after ~160 rows.
        now_ts = BASE_TS + 160 * MICROS + HOUR_US
        candidates, examined = catalog.expired_candidates(now_ts)
        assert 0 < len(candidates) <= 5
        assert all(entry.tenant_id == 1 for entry in candidates)
        # The bisect examines exactly the expired prefix — the other
        # 100+ catalog entries are never touched.
        assert examined == len(candidates)

        sweeper = sweeper_over(catalog, free_store)
        report = sweeper.sweep(now_ts)
        assert report.blocks_expired == len(candidates)
        assert report.entries_examined == len(candidates)
        assert report.entries_examined < total_blocks / 10

    def test_no_retention_examines_nothing(self, free_store, schema):
        catalog = Catalog(schema)
        catalog.register_tenant(1)
        archive(schema, free_store, catalog, 1, 256, BASE_TS)
        _candidates, examined = catalog.expired_candidates(BASE_TS + 100 * HOUR_US)
        assert examined == 0


def loaded_store():
    """Tenants 1 and 2 archived as five 100-row blocks each over a
    FailingDeleteStore, with tenant 1's blobs in the caches."""
    flaky = FailingDeleteStore(InMemoryObjectStore())
    store = LogStore.create(
        config=small_test_config(seal_rows=200, target_rows_per_logblock=100),
        backend=flaky,
    )
    for tenant_id in (1, 2):
        store.register_tenant(tenant_id)
        rows = make_rows(500, tenant_id=tenant_id, seed=tenant_id)
        for start in range(0, 500, 100):
            store.put(tenant_id, rows[start : start + 100])
        store.flush_all()
        assert len(store.catalog.tenant(tenant_id).blocks) == 5
    store.query("SELECT ts, log FROM request_log WHERE tenant_id = 1")
    return store, flaky


def listed(store) -> set[str]:
    return {
        stat.key
        for stat in store.oss.list(store.config.bucket, "tenants/")
        if stat.key.endswith((".lgb", ".seg"))
    }


def catalog_objects(store) -> set[str]:
    return {entry.object_path for entry in store.catalog.all_blocks()}


def cached_blobs(store) -> set[str]:
    tiers = (store.cache.objects, store.cache.blocks.memory, store.cache.blocks.ssd)
    return {key[1] for tier in tiers for key in tier._entries}


AFTER_TENANT_1_US = BASE_TS + 500 * MICROS + 2 * HOUR_US


def fail_archive(store, flaky):
    flaky.puts_allowed = 1  # a 200-row memtable is two blocks: the second PUT fails
    store.put(1, make_rows(200, tenant_id=1, seed=7, start_ts=BASE_TS + 600 * MICROS))
    with pytest.raises(RuntimeError, match="injected put failure"):
        store.flush_all()


def compact(store, _flaky):
    Compactor(
        store.schema, store.catalog,
        codec=store.config.codec, block_rows=store.config.block_rows,
        small_threshold_rows=500, target_rows=1_000, janitor=store.janitor,
    ).compact_tenant(1)


def cool(store, _flaky):
    store.set_retention(1, cold_age="1h")
    store.cold_compact(AFTER_TENANT_1_US)


def expire(store, _flaky):
    store.set_retention(1, ttl="1h")
    store.sweep_expired(AFTER_TENANT_1_US)


def offboard(store, _flaky):
    assert not store.offboard_tenant(1, export=False).verified


def migrate(store, _flaky):
    destination = MeteredObjectStore(InMemoryObjectStore(), free(), VirtualClock())
    BackupTask(
        store.catalog, store.oss, store.config.bucket, janitor=store.janitor
    ).migrate_tenant(1, Catalog(store.schema), destination, "cluster-b")


class TestOrphanSweeping:
    @pytest.mark.parametrize(
        "retire", [fail_archive, compact, cool, expire, offboard, migrate]
    )
    def test_failed_delete_lands_in_the_one_queue(self, retire):
        """Every retirer's failed DELETE is queued with the store's
        janitor, leaves no cache key behind, and one sweep after heal
        makes the catalog and the OSS listing agree again."""
        store, flaky = loaded_store()
        flaky.failures_left = 1_000
        retire(store, flaky)
        strays = listed(store) - catalog_objects(store)
        assert strays and strays <= set(store.janitor.orphans)
        assert not cached_blobs(store) & set(store.janitor.orphans)

        flaky.failures_left = 0
        flaky.puts_allowed = None
        store.janitor.sweep()
        assert store.janitor.orphans == []
        assert listed(store) == catalog_objects(store)

    def test_sweep_expired_with_one_failed_delete(self):
        """Regression: one DELETE failing over five expired blocks still
        expires all five and leaves no untracked object."""
        store, flaky = loaded_store()
        store.set_retention(1, ttl="1h")
        flaky.failures_left = 1
        report = store.sweep_expired(AFTER_TENANT_1_US)
        assert report.blocks_expired == 5
        assert store.catalog.tenant(1).blocks == []
        assert store.catalog.tenant(1).expired_blocks_total == 5
        counters = store.registry.snapshot()
        assert counters.counter_total("logstore_lifecycle_expired_blocks_total") == 5
        assert listed(store) - catalog_objects(store) - set(store.janitor.orphans) == set()
        assert listed(store) == catalog_objects(store)

    def test_compactor_orphans_drain_through_the_sweep(self, free_store, schema):
        """Satellite: compaction leftovers converge on the next expiry
        sweep through the shared janitor, observable in the lifecycle
        counter."""
        catalog = Catalog(schema)
        catalog.register_tenant(1)
        flaky = FailingDeleteStore(free_store)
        # Many small blocks so compaction has inputs to retire.
        archive(schema, flaky, catalog, 1, 200, BASE_TS, target_rows=25)
        small_blocks = len(catalog.tenant(1).blocks)
        assert small_blocks > 1

        obs = Observability.noop()
        janitor = Janitor(catalog, flaky, BUCKET, obs=obs)
        compactor = Compactor(
            schema, catalog,
            small_threshold_rows=50, target_rows=400, janitor=janitor,
        )
        flaky.failures_left = small_blocks  # every input retire fails
        results = compactor.compact_all()
        assert results and len(janitor.orphans) == small_blocks

        flaky.failures_left = 0  # store healed
        report = ExpirySweeper(catalog, janitor, obs=obs).sweep(BASE_TS)
        assert report.orphans_swept == small_blocks
        assert janitor.orphans == []
        counters = obs.registry.snapshot().counters
        assert sum(counters["logstore_lifecycle_orphans_swept_total"].values()) == small_blocks
        # The retired inputs are really gone from the bucket.
        stored = {stat.key for stat in free_store.list(BUCKET, "tenants/")}
        assert stored == {entry.path for entry in catalog.tenant(1).blocks}

    def test_own_delete_failures_queue_and_retry(self, free_store, schema):
        catalog = Catalog(schema)
        catalog.register_tenant(1)
        flaky = FailingDeleteStore(free_store)
        archive(schema, flaky, catalog, 1, 64, BASE_TS, target_rows=64)
        catalog.set_retention(1, 3_600.0)
        janitor = Janitor(catalog, flaky, BUCKET)
        flaky.failures_left = 10
        report = ExpirySweeper(catalog, janitor).sweep(BASE_TS + 64 * MICROS + 2 * HOUR_US)
        # Catalog-first ordering: the entry is gone even though the
        # object DELETE failed; the object waits in the orphan queue.
        assert report.blocks_expired == 1
        assert catalog.tenant(1).blocks == []
        assert len(janitor.orphans) == 1
        flaky.failures_left = 0
        assert janitor.sweep() == 1
        assert janitor.orphans == []
        assert not [s for s in free_store.list(BUCKET, "tenants/")]


class TestColdSegments:
    def make_cold_tenant(self, free_store, schema):
        catalog = Catalog(schema)
        catalog.register_tenant(1)
        archive(schema, free_store, catalog, 1, 192, BASE_TS, target_rows=64)
        catalog.set_cold_age(1, 1.0)
        # 192 rows at 64 rows per cold member → one segment, 3 members.
        cold = ColdCompactor(
            catalog,
            Janitor(catalog, free_store, BUCKET), target_rows=64,
        )
        results = cold.repack_all(BASE_TS + 192 * MICROS + HOUR_US)
        assert any(r.repacked for r in results)
        return catalog

    def test_compaction_leaves_cold_members_alone(self, free_store, schema):
        """Hot compaction takes hot blocks only: a cold member is no
        object of its own.  Found by the reference model: a compaction
        after a cold repack read a member's path and raised NoSuchKey."""
        catalog = self.make_cold_tenant(free_store, schema)
        compactor = Compactor(schema, catalog, Janitor(catalog, free_store, BUCKET))
        assert compactor.candidates(1) == []
        assert compactor.compact_all() == []

    def test_segment_survives_until_last_member_expires(self, free_store, schema):
        catalog = self.make_cold_tenant(free_store, schema)
        info = catalog.tenant(1)
        members = sorted(
            (b for b in info.blocks if b.tier == TIER_COLD),
            key=lambda b: b.min_ts,
        )
        assert len(members) == 3
        segment = members[0].segment_path
        assert catalog.segment_refcount(segment) == len(members)
        catalog.set_retention(1, 3_600.0)

        sweeper = sweeper_over(catalog, free_store)
        # Expire only the first member's rows: the shared segment object
        # must survive while siblings still reference it.
        mid = sweeper.sweep(members[0].max_ts + HOUR_US + 1)
        assert mid.blocks_expired >= 1
        assert mid.segments_deleted == 0
        assert catalog.segment_refcount(segment) > 0
        stored = {stat.key for stat in free_store.list(BUCKET, "tenants/")}
        assert segment in stored

        final = sweeper.sweep(members[-1].max_ts + HOUR_US + 1)
        assert final.segments_deleted == 1
        assert catalog.segment_refcount(segment) == 0
        stored = {stat.key for stat in free_store.list(BUCKET, "tenants/")}
        assert segment not in stored

    def test_cold_expiry_reads_nothing(self, free_store, schema):
        catalog = self.make_cold_tenant(free_store, schema)
        catalog.set_retention(1, 3_600.0)
        sweeper = sweeper_over(catalog, free_store)
        before = free_store.stats.snapshot()
        report = sweeper.sweep(BASE_TS + 192 * MICROS + 2 * HOUR_US)
        after = free_store.stats.snapshot()
        assert report.blocks_expired == 3
        assert after.get_requests == before.get_requests
        assert after.bytes_read == before.bytes_read


class TestReconcile:
    def test_unreferenced_objects_removed(self, free_store, schema):
        catalog = Catalog(schema)
        catalog.register_tenant(1)
        archive(schema, free_store, catalog, 1, 64, BASE_TS, target_rows=64)
        free_store.put(BUCKET, "tenants/000001/stray-0-0.lgb", b"orphaned bytes")
        free_store.put(BUCKET, "tenants/000001/unrelated.txt", b"not a block")
        removed = Janitor(catalog, free_store, BUCKET).reconcile()
        assert removed == 1
        stored = {stat.key for stat in free_store.list(BUCKET, "tenants/")}
        assert "tenants/000001/stray-0-0.lgb" not in stored
        assert "tenants/000001/unrelated.txt" in stored  # not ours to touch
        assert {entry.path for entry in catalog.tenant(1).blocks} <= stored
