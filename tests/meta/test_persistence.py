"""Catalog persistence + restart/disaster-recovery tests."""

import pytest

from repro.chaos.oss_faults import ChaosObjectStore
from repro.cluster.config import small_test_config
from repro.cluster.logstore import LogStore
from repro.common.clock import VirtualClock
from repro.common.errors import CatalogError
from repro.logblock.schema import ColumnSpec, ColumnType, request_log_schema
from repro.meta.catalog import Catalog
from repro.meta.persistence import (
    load_catalog_into,
    rebuild_catalog_from_store,
    restore_catalog,
    save_catalog,
    serialize_catalog,
)
from repro.oss.store import InMemoryObjectStore

from tests.conftest import make_rows


def loaded_cluster(backend=None):
    store = LogStore.create(config=small_test_config(), backend=backend)
    store.register_tenant(1, name="alpha", retention_s=3600)
    store.register_tenant(2, name="beta")
    store.put(1, make_rows(300, tenant_id=1))
    store.put(2, make_rows(100, tenant_id=2))
    store.flush_all()
    return store


class TestSnapshotRoundtrip:
    def test_serialize_restore(self):
        store = loaded_cluster()
        fresh = Catalog(request_log_schema())
        restore_catalog(fresh, serialize_catalog(store.catalog))
        assert (fresh.tenant(1).name, fresh.tenant(1).retention_s) == ("alpha", 3600)
        assert fresh.all_blocks() == store.catalog.all_blocks()
        assert fresh.tenant_usage(2) == store.catalog.tenant_usage(2)

    def test_schema_evolution_survives(self):
        store = loaded_cluster()
        store.catalog.add_column(ColumnSpec("region", ColumnType.STRING))
        fresh = Catalog(request_log_schema())
        restore_catalog(fresh, serialize_catalog(store.catalog))
        assert "region" in fresh.schema.column_names()
        assert fresh.schema_version == store.catalog.schema_version

    def test_restore_requires_empty(self):
        store = loaded_cluster()
        with pytest.raises(CatalogError):
            restore_catalog(store.catalog, serialize_catalog(store.catalog))


class TestSnapshotsInStore:
    def test_save_load(self):
        store = loaded_cluster()
        key = store.persist_catalog()
        assert store.oss.exists(store.config.bucket, key)
        fresh = Catalog(request_log_schema())
        assert load_catalog_into(fresh, store.oss, store.config.bucket)
        assert len(fresh.blocks_for(1)) == len(store.catalog.blocks_for(1))

    def test_newest_snapshot_wins(self):
        store = loaded_cluster()
        store.persist_catalog()
        store.register_tenant(9, name="late")
        store.persist_catalog()
        fresh = Catalog(request_log_schema())
        load_catalog_into(fresh, store.oss, store.config.bucket)
        assert fresh.tenant(9).name == "late"

    def test_old_snapshots_pruned(self):
        store = loaded_cluster()
        for _ in range(6):
            store.persist_catalog()
        snapshots = store.oss.list(store.config.bucket, "_meta/catalog/")
        assert len(snapshots) == 3  # KEEP_SNAPSHOTS

    def test_load_without_snapshot_returns_false(self):
        inner = InMemoryObjectStore()
        inner.create_bucket("b")
        fresh = Catalog(request_log_schema())
        from repro.oss.costmodel import free
        from repro.oss.metered import MeteredObjectStore
        metered = MeteredObjectStore(inner, free(), VirtualClock())
        assert not load_catalog_into(fresh, metered, "b")


class TestClusterRestart:
    def test_attach_restores_queries(self):
        backend = InMemoryObjectStore()
        store = loaded_cluster(backend=backend)
        store.persist_catalog()
        counts_before = store.query(
            "SELECT COUNT(*) FROM request_log WHERE tenant_id = 1"
        ).rows

        # "Restart": a brand-new cluster over the same bucket.
        reopened = LogStore.attach(backend, config=small_test_config())
        counts_after = reopened.query(
            "SELECT COUNT(*) FROM request_log WHERE tenant_id = 1"
        ).rows
        assert counts_after == counts_before
        assert reopened.catalog.tenant(1).retention_s == 3600

    def test_attach_without_snapshot_rebuilds_by_scan(self):
        backend = InMemoryObjectStore()
        store = loaded_cluster(backend=backend)
        # No persist_catalog(): the reopened cluster must scan OSS.
        reopened = LogStore.attach(backend, config=small_test_config())
        result = reopened.query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 1")
        assert result.rows == [{"COUNT(*)": 300}]
        # Lifecycle metadata is defaulted (blocks don't carry it).
        assert reopened.catalog.tenant(1).retention_s is None

    def test_failed_archive_after_restart_keeps_the_pre_restart_block(self):
        """A restarted cluster's shards count seals from zero again, so a
        new table reuses the pre-restart table's source — but its bytes,
        and so its key, differ: the first post-restart flush succeeds
        and leaves the pre-restart object alone."""
        backend = InMemoryObjectStore()
        config = small_test_config(use_raft=False)
        store = LogStore.create(config=config, backend=backend)
        first = make_rows(1, tenant_id=1)[0]
        store.put(1, [first])
        store.flush_all()
        store.persist_catalog()
        bucket = config.bucket
        (original_key,) = [stat.key for stat in backend.list(bucket, "tenants/1/")]
        original_bytes = backend.get(bucket, original_key)

        reopened = LogStore.attach(backend, config=config)
        second = dict(first, log="GET /api/v9 after the restart")
        reopened.put(1, [second])
        assert reopened.flush_all().rows_archived == 1
        assert backend.get(bucket, original_key) == original_bytes
        logs = reopened.query("SELECT log FROM request_log WHERE tenant_id = 1").rows
        assert sorted(row["log"] for row in logs) == sorted([first["log"], second["log"]])
        assert reopened.pending_rows() == 0

    def test_retried_put_after_restart_keeps_the_pre_restart_row(self):
        """A post-restart table whose first PUT attempt fails: the retry
        must neither overwrite the pre-restart block (taking it for a
        torn upload) nor register a path twice."""
        backend = ChaosObjectStore(InMemoryObjectStore(), VirtualClock())
        config = small_test_config(use_raft=False)
        store = LogStore.create(config=config, backend=backend)
        first = make_rows(1, tenant_id=1)[0]
        store.put(1, [first])
        store.flush_all()
        store.persist_catalog()
        (original_key,) = [stat.key for stat in backend.list(config.bucket, "tenants/1/")]
        original_bytes = backend.get(config.bucket, original_key)

        reopened = LogStore.attach(backend, config=config)
        second = dict(first, log="GET /api/v9 after the restart")  # same ts
        reopened.put(1, [second])
        backend.fail_next(1)
        reopened.flush_all()
        assert reopened.janitor.upload_stats.retries == 1
        assert backend.get(config.bucket, original_key) == original_bytes
        logs = reopened.query("SELECT log FROM request_log WHERE tenant_id = 1").rows
        assert sorted(row["log"] for row in logs) == sorted([first["log"], second["log"]])
        count = reopened.query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 1")
        assert count.rows == [{"COUNT(*)": 2}]


class TestRebuildByScan:
    def test_rebuild_matches_original(self):
        store = loaded_cluster()
        fresh = Catalog(request_log_schema())
        count = rebuild_catalog_from_store(fresh, store.oss, store.config.bucket)
        assert count == len(store.catalog.all_blocks())
        for tenant in (1, 2):
            original = store.catalog.blocks_for(tenant)
            rebuilt = fresh.blocks_for(tenant)
            assert [b.path for b in rebuilt] == [b.path for b in original]
            assert [b.row_count for b in rebuilt] == [b.row_count for b in original]
            assert [(b.min_ts, b.max_ts) for b in rebuilt] == [
                (b.min_ts, b.max_ts) for b in original
            ]

    def test_rebuild_requires_empty_map(self):
        store = loaded_cluster()
        with pytest.raises(CatalogError):
            rebuild_catalog_from_store(store.catalog, store.oss, store.config.bucket)

    def test_rebuild_skips_a_torn_object_and_reconcile_deletes_it(self):
        """A half-written ``.lgb`` still carries its whole meta at the
        head; registering it would count its rows twice and make every
        read of the tenant fail on the missing bytes."""
        backend = InMemoryObjectStore()
        store = loaded_cluster(backend=backend)
        bucket = store.config.bucket
        (key,) = [stat.key for stat in backend.list(bucket, "tenants/1/")]
        blob = backend.get(bucket, key)
        torn_key = key.replace(".lgb", "-torn.lgb")
        backend.put(bucket, torn_key, blob[: len(blob) // 2])

        reopened = LogStore.attach(backend, config=small_test_config())
        assert [entry.path for entry in reopened.catalog.blocks_for(1)] == [key]
        result = reopened.query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 1")
        assert result.rows == [{"COUNT(*)": 300}]
        assert len(reopened.query("SELECT log FROM request_log WHERE tenant_id = 1").rows) == 300
        assert reopened.janitor.reconcile() == 1
        assert not backend.exists(bucket, torn_key) and backend.exists(bucket, key)

    def test_rebuild_ignores_non_block_objects(self):
        store = loaded_cluster()
        store.oss.put(store.config.bucket, "tenants/1/notes.txt", b"hello")
        fresh = Catalog(request_log_schema())
        count = rebuild_catalog_from_store(fresh, store.oss, store.config.bucket)
        assert count == len(store.catalog.all_blocks())
