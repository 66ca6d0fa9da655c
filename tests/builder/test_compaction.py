"""Compactor: merge small LogBlocks, preserve rows, reclaim objects."""

import pytest

from repro.builder.builder import DataBuilder
from repro.builder.compaction import CompactionResult, Compactor
from repro.common.errors import BuildError
from repro.logblock.reader import LogBlockReader
from repro.logblock.schema import request_log_schema
from repro.meta.catalog import Catalog
from repro.meta.janitor import Janitor
from repro.rowstore.memtable import MemTable
from repro.tarpack.reader import PackReader

from tests.conftest import make_rows


@pytest.fixture
def catalog():
    return Catalog(request_log_schema())


def archive_batches(store, catalog, tenant_id: int, batches: int, rows_each: int):
    """Archive several small memtables → many small LogBlocks."""
    builder = DataBuilder(
        request_log_schema(), catalog, Janitor(catalog, store, "test"),
        codec="zlib", block_rows=64, target_rows=1_000,
    )
    for batch in range(batches):
        table = MemTable()
        table.append_many(
            make_rows(rows_each, tenant_id=tenant_id, seed=batch,
                      start_ts=1_600_000_000_000_000 + batch * 10_000_000_000)
        )
        table.seal()
        builder.archive_memtable(table, f"s0-{batch}")


def tenant_rows(store, catalog, tenant_id: int) -> list[dict]:
    rows = []
    for entry in catalog.blocks_for(tenant_id):
        reader = LogBlockReader(PackReader(store, "test", entry.path))
        names = reader.meta().schema.column_names()
        columns = {name: reader.read_column(name) for name in names}
        rows.extend(
            {name: columns[name][i] for name in names} for i in range(reader.row_count)
        )
    return sorted(rows, key=lambda r: r["ts"])


def make_compactor(store, catalog, **overrides) -> Compactor:
    params = dict(
        codec="zlib", block_rows=64, small_threshold_rows=500, target_rows=2_000,
    )
    params.update(overrides)
    return Compactor(
        request_log_schema(), catalog,
        Janitor(catalog, store, "test"), **params,
    )


class TestCompactTenant:
    def test_preserves_rows_and_shrinks_block_count(self, free_store, catalog):
        archive_batches(free_store, catalog, tenant_id=1, batches=8, rows_each=200)
        before_rows = tenant_rows(free_store, catalog, 1)
        before_blocks = len(catalog.blocks_for(1))
        assert before_blocks == 8

        result = make_compactor(free_store, catalog).compact_tenant(1)

        assert result.blocks_before == 8
        assert result.blocks_after == 1
        assert result.rows_rewritten == 1_600
        assert result.bytes_before > 0 and result.bytes_after > 0
        assert len(catalog.blocks_for(1)) == 1
        assert tenant_rows(free_store, catalog, 1) == before_rows

    def test_superseded_objects_deleted_from_store(self, free_store, catalog):
        archive_batches(free_store, catalog, tenant_id=1, batches=4, rows_each=100)
        old_paths = [b.path for b in catalog.blocks_for(1)]
        make_compactor(free_store, catalog).compact_tenant(1)
        for path in old_paths:
            assert not free_store.exists("test", path)
        # Everything left under the tenant directory is in the catalog.
        on_store = {s.key for s in free_store.list("test", "tenants/1/")}
        in_catalog = {b.path for b in catalog.blocks_for(1)}
        assert on_store == in_catalog

    def test_accounting_matches_catalog(self, free_store, catalog):
        archive_batches(free_store, catalog, tenant_id=1, batches=5, rows_each=150)
        make_compactor(free_store, catalog).compact_tenant(1)
        total_bytes, total_rows = catalog.tenant_usage(1)
        assert total_rows == 750
        assert total_bytes == sum(b.size_bytes for b in catalog.blocks_for(1))

    def test_large_blocks_left_alone(self, free_store, catalog):
        archive_batches(free_store, catalog, tenant_id=1, batches=3, rows_each=900)
        result = make_compactor(free_store, catalog).compact_tenant(1)
        assert result == CompactionResult(tenant_id=1)
        assert len(catalog.blocks_for(1)) == 3

    def test_single_small_block_not_rewritten(self, free_store, catalog):
        archive_batches(free_store, catalog, tenant_id=1, batches=1, rows_each=100)
        result = make_compactor(free_store, catalog).compact_tenant(1)
        assert not result.compacted
        assert result.rows_rewritten == 0

    def test_respects_target_rows_splitting(self, free_store, catalog):
        archive_batches(free_store, catalog, tenant_id=1, batches=6, rows_each=400)
        result = make_compactor(
            free_store, catalog, small_threshold_rows=500, target_rows=1_000
        ).compact_tenant(1)
        assert result.blocks_after == 3  # 2400 rows at 1000/block
        assert [b.row_count for b in catalog.blocks_for(1)] == [1_000, 1_000, 400]

    def test_other_tenants_untouched(self, free_store, catalog):
        archive_batches(free_store, catalog, tenant_id=1, batches=4, rows_each=100)
        archive_batches(free_store, catalog, tenant_id=2, batches=4, rows_each=100)
        before = catalog.blocks_for(2)
        make_compactor(free_store, catalog).compact_tenant(1)
        assert catalog.blocks_for(2) == before

    def test_compact_all_covers_every_tenant(self, free_store, catalog):
        for tenant in (1, 2):
            archive_batches(free_store, catalog, tenant_id=tenant, batches=3, rows_each=100)
        results = make_compactor(free_store, catalog).compact_all()
        assert [r.tenant_id for r in results] == [1, 2]
        assert all(r.compacted for r in results)


class TestParameterValidation:
    def test_target_must_cover_threshold(self, free_store, catalog):
        with pytest.raises(BuildError):
            make_compactor(free_store, catalog, small_threshold_rows=5_000, target_rows=1_000)

    def test_threshold_must_be_positive(self, free_store, catalog):
        with pytest.raises(BuildError):
            make_compactor(free_store, catalog, small_threshold_rows=0)
