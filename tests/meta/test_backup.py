"""Backup / restore / migration task tests."""

import pytest

from repro.builder.builder import DataBuilder
from repro.common.clock import VirtualClock
from repro.common.errors import CatalogError, TenantNotFound
from repro.logblock.reader import LogBlockReader
from repro.logblock.schema import request_log_schema
from repro.meta.backup import BackupTask
from repro.meta.catalog import Catalog
from repro.meta.janitor import Janitor
from repro.oss.costmodel import free
from repro.oss.metered import MeteredObjectStore
from repro.oss.store import InMemoryObjectStore
from repro.rowstore.memtable import MemTable
from repro.tarpack.reader import PackReader

from tests.conftest import make_rows


def fresh_store(bucket="test"):
    store = MeteredObjectStore(InMemoryObjectStore(), free(), VirtualClock())
    store.create_bucket(bucket)
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
        assert destination.exists("vault", "_backup/1/manifest.json")
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
