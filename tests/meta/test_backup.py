"""Backup / restore / migration task tests."""

import pytest

from repro.builder.builder import DataBuilder
from repro.cluster.config import small_test_config
from repro.cluster.logstore import LogStore
from repro.common.clock import VirtualClock
from repro.common.errors import CatalogError, TenantNotFound
from repro.logblock.reader import LogBlockReader
from repro.logblock.schema import request_log_schema
from repro.meta.backup import BackupTask, manifest_key
from repro.meta.catalog import TIER_COLD, TIER_HOT, Catalog
from repro.meta.janitor import Janitor
from repro.oss.costmodel import free
from repro.oss.metered import MeteredObjectStore
from repro.oss.store import InMemoryObjectStore
from repro.rowstore.memtable import MemTable
from repro.tarpack.reader import PackReader

from tests.conftest import BASE_TS, MICROS, make_rows


def fresh_store(bucket="test"):
    store = MeteredObjectStore(InMemoryObjectStore(), free(), VirtualClock())
    store.create_bucket(bucket)
    return store


def tiered_store() -> LogStore:
    """Tenant 1 with cold blocks (one segment) and a hot one; tenant 2 hot."""
    store = LogStore.create(config=small_test_config(cold_target_rows=200))
    store.register_tenant(1, name="tiered", retention_s=86_400)
    store.put(1, make_rows(600, tenant_id=1))
    store.put(2, make_rows(200, tenant_id=2, seed=9))
    store.flush_all()
    store.set_retention(1, cold_age="1h")
    store.cold_compact(BASE_TS + 700 * MICROS + 3_600 * MICROS)
    store.put(1, make_rows(100, tenant_id=1, seed=3))
    store.flush_all()
    return store


@pytest.fixture
def source():
    catalog = Catalog(request_log_schema())
    store = fresh_store()
    builder = DataBuilder(
        request_log_schema(), catalog, Janitor(catalog, store, "test"),
        codec="zlib", block_rows=64, target_rows=80,
    )
    for tenant in (1, 2):
        catalog.register_tenant(tenant, name=f"t{tenant}", retention_s=3600)
        table = MemTable()
        table.append_many(make_rows(200, tenant_id=tenant, seed=tenant))
        table.seal()
        builder.archive_memtable(table, "s0-0")
    return catalog, store, BackupTask(catalog, store, "test", Janitor(catalog, store, "test"))


class TestBackup:
    def test_copies_all_blocks_and_manifest(self, source):
        catalog, _store, task = source
        destination = fresh_store("vault")
        report = task.backup_tenant(1, destination, "vault")
        assert report.blocks_copied == len(catalog.blocks_for(1))
        assert report.bytes_copied > 0
        assert destination.exists("vault", manifest_key(1))
        for entry in catalog.blocks_for(1):
            assert destination.exists("vault", entry.path)

    def test_other_tenant_not_copied(self, source):
        catalog, _store, task = source
        destination = fresh_store("vault")
        task.backup_tenant(1, destination, "vault")
        assert destination.list("vault", "tenants/2/") == []

    def test_idempotent_rerun(self, source):
        _catalog, _store, task = source
        destination = fresh_store("vault")
        task.backup_tenant(1, destination, "vault")
        second = task.backup_tenant(1, destination, "vault")
        assert second.blocks_copied == 0
        assert second.blocks_skipped > 0

    def test_unknown_tenant(self, source):
        _catalog, _store, task = source
        with pytest.raises(TenantNotFound):
            task.backup_tenant(404, fresh_store("vault"), "vault")


class TestRestore:
    def test_into_fresh_cluster(self, source):
        catalog, store, task = source
        vault = fresh_store("vault")
        task.backup_tenant(1, vault, "vault")

        new_catalog = Catalog(request_log_schema())
        new_store = fresh_store("newcluster")
        report = BackupTask.restore_tenant(
            vault, "vault", 1, new_catalog, new_store, "newcluster"
        )
        assert report.blocks_copied == len(catalog.blocks_for(1))
        restored = new_catalog.blocks_for(1)
        assert [b.path for b in restored] == [b.path for b in catalog.blocks_for(1)]
        # Data is byte-identical and readable.
        entry = restored[0]
        reader = LogBlockReader(PackReader(new_store, "newcluster", entry.path))
        original = LogBlockReader(PackReader(store, "test", entry.path))
        assert reader.read_column("log") == original.read_column("log")

    def test_cold_tier_round_trip(self):
        """Backup and restore copy a cold segment once; entries keep
        their tier and segment window."""
        store = tiered_store()
        original = store.catalog.blocks_for(1)
        assert {entry.tier for entry in original} == {TIER_COLD, TIER_HOT}
        task = BackupTask(store.catalog, store.oss, store.config.bucket, store.janitor)
        vault = fresh_store("vault")
        backup = task.backup_tenant(1, vault, "vault")
        restored = LogStore.create(config=small_test_config())
        report = task.restore_tenant(vault, "vault", 1, restored.catalog, restored.oss, "logstore")
        objects = {entry.object_path for entry in original}
        assert backup.blocks_copied == report.blocks_copied == len(objects) < len(original)
        assert restored.catalog.blocks_for(1) == original
        assert restored.catalog.tenant(1).cold_age_s == 3_600
        for sql in ("SELECT COUNT(*)", "SELECT ts, log"):
            sql += " FROM request_log WHERE tenant_id = 1 AND latency >= 0"
            assert restored.query(sql).rows == store.query(sql).rows

    def test_restore_refuses_overwrite(self, source):
        catalog, store, task = source
        vault = fresh_store("vault")
        task.backup_tenant(1, vault, "vault")
        with pytest.raises(CatalogError):
            BackupTask.restore_tenant(vault, "vault", 1, catalog, store, "test")


class TestMigration:
    def test_moves_tenant_between_clusters(self, source):
        catalog, store, task = source
        blocks_before = len(catalog.blocks_for(1))
        assert store.list("test", "tenants/1/")
        new_catalog = Catalog(request_log_schema())
        new_store = fresh_store("cluster-b")
        report = task.migrate_tenant(1, new_catalog, new_store, "cluster-b")
        # Backup already landed the objects; restore registers them all.
        assert report.blocks_copied + report.blocks_skipped == blocks_before
        # Source is purged; destination is complete; tenant 2 untouched.
        with pytest.raises(TenantNotFound):
            catalog.tenant(1)
        assert store.list("test", "tenants/1/") == []
        assert len(new_catalog.blocks_for(1)) == blocks_before
        assert new_catalog.tenant(1).retention_s == 3600
        assert len(catalog.blocks_for(2)) > 0

    def test_migrate_keep_source(self, source):
        catalog, _store, task = source
        new_catalog = Catalog(request_log_schema())
        new_store = fresh_store("cluster-b")
        task.migrate_tenant(1, new_catalog, new_store, "cluster-b", purge_source=False)
        assert len(catalog.blocks_for(1)) > 0
