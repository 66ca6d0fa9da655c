"""DataBuilder: archive→read round-trips and BuildReport semantics."""

import re

import pytest

from repro.builder.builder import BuildReport, DataBuilder, TenantBuildStats
from repro.common.errors import BuildError
from repro.logblock.reader import LogBlockReader
from repro.logblock.schema import request_log_schema
from repro.meta.catalog import Catalog, LogBlockEntry
from repro.meta.janitor import Janitor
from repro.rowstore.memtable import MemTable
from repro.tarpack.reader import PackReader

from tests.conftest import make_rows


def sealed_memtable(rows_per_tenant: dict[int, int], seed: int = 0) -> MemTable:
    table = MemTable()
    for tenant_id, count in rows_per_tenant.items():
        table.append_many(make_rows(count, tenant_id=tenant_id, seed=seed + tenant_id))
    table.seal()
    return table


def read_all_rows(store, bucket: str, entry: LogBlockEntry) -> list[dict]:
    reader = LogBlockReader(PackReader(store, bucket, entry.path))
    names = reader.meta().schema.column_names()
    columns = {name: reader.read_column(name) for name in names}
    return [{name: columns[name][i] for name in names} for i in range(reader.row_count)]


@pytest.fixture
def catalog():
    return Catalog(request_log_schema())


@pytest.fixture
def builder(free_store, catalog):
    return DataBuilder(
        request_log_schema(), catalog, Janitor(catalog, free_store, "test"),
        codec="zlib", block_rows=64, target_rows=150,
    )


class TestArchiveRoundTrip:
    def test_rows_in_equals_rows_out_per_tenant(self, builder, free_store, catalog):
        table = sealed_memtable({1: 400, 2: 130, 7: 151})
        report = builder.archive_memtable(table, "s0-0")
        assert report.rows_archived == 681
        for tenant_id, expected_count in ((1, 400), (2, 130), (7, 151)):
            got = []
            for entry in catalog.blocks_for(tenant_id):
                got.extend(read_all_rows(free_store, "test", entry))
            expected = sorted(
                make_rows(expected_count, tenant_id=tenant_id, seed=tenant_id),
                key=lambda r: r["ts"],
            )
            assert got == expected

    def test_target_rows_chunking(self, builder, catalog):
        builder.archive_memtable(sealed_memtable({1: 400}), "s0-0")
        blocks = catalog.blocks_for(1)
        assert [b.row_count for b in blocks] == [150, 150, 100]
        assert all(b.min_ts <= b.max_ts for b in blocks)

    def test_paths_match_catalog_rebuild_layout(self, builder, free_store, catalog):
        builder.archive_memtable(sealed_memtable({3: 10}), "s0-0")
        (entry,) = catalog.blocks_for(3)
        assert re.match(r"^tenants/3/.+\.lgb$", entry.path)
        assert free_store.exists("test", entry.path)
        assert entry.size_bytes == free_store.head("test", entry.path).size

    def test_unsealed_memtable_rejected(self, builder):
        table = MemTable()
        table.append_many(make_rows(5))
        with pytest.raises(BuildError):
            builder.archive_memtable(table, "s0-0")

    def test_empty_memtable_counts_as_converted(self, builder, catalog):
        table = MemTable()
        table.seal()
        report = builder.archive_memtable(table, "s0-0")
        assert report.memtables_converted == 1
        assert report.blocks_written == 0
        assert catalog.all_blocks() == []

    def test_report_accumulates_across_memtables(self, builder):
        report = BuildReport()
        builder.archive_memtable(sealed_memtable({1: 100}), "s0-0", report)
        builder.archive_memtable(sealed_memtable({1: 100}, seed=50), "s0-1", report)
        assert report.memtables_converted == 2
        assert report.rows_archived == 200
        assert report.per_tenant[1].rows_archived == 200
        assert len(report.entries) == report.blocks_written

    def test_per_tenant_breakdown_sums_to_totals(self, builder):
        report = builder.archive_memtable(sealed_memtable({1: 200, 2: 300}), "s0-0")
        assert set(report.per_tenant) == {1, 2}
        assert sum(s.rows_archived for s in report.per_tenant.values()) == report.rows_archived
        assert sum(s.bytes_uploaded for s in report.per_tenant.values()) == report.bytes_uploaded
        assert sum(s.blocks_written for s in report.per_tenant.values()) == report.blocks_written

    def test_build_and_upload_times_recorded(self, builder):
        report = builder.archive_memtable(sealed_memtable({1: 300}), "s0-0")
        assert report.build_s > 0
        assert report.upload_s > 0


class TestBuildReportMerge:
    def test_merge_sums_counters_and_concatenates_entries(self):
        left = BuildReport(
            memtables_converted=1, blocks_written=2, rows_archived=10,
            bytes_uploaded=100, upload_retries=1, build_s=0.5, upload_s=0.25,
        )
        left.tenant(1).rows_archived = 10
        entry = LogBlockEntry(1, 0, 9, "tenants/1/a.lgb", 100, 10)
        left.entries.append(entry)
        right = BuildReport(
            memtables_converted=2, blocks_written=3, rows_archived=20,
            bytes_uploaded=200, upload_retries=2, build_s=1.0, upload_s=0.75,
        )
        right.tenant(1).rows_archived = 5
        right.tenant(2).rows_archived = 15

        merged = left.merge(right)
        assert merged is left
        assert merged.memtables_converted == 3
        assert merged.blocks_written == 5
        assert merged.rows_archived == 30
        assert merged.bytes_uploaded == 300
        assert merged.upload_retries == 3
        assert merged.build_s == pytest.approx(1.5)
        assert merged.upload_s == pytest.approx(1.0)
        assert merged.per_tenant[1].rows_archived == 15
        assert merged.per_tenant[2].rows_archived == 15
        assert merged.entries == [entry]

    def test_merge_empty_is_identity(self):
        report = BuildReport(rows_archived=7)
        report.merge(BuildReport())
        assert report.rows_archived == 7

    def test_tenant_stats_refuse_cross_tenant_merge(self):
        with pytest.raises(BuildError):
            TenantBuildStats(1).merge(TenantBuildStats(2))


class TestSchemaAuthority:
    def test_archives_under_live_catalog_schema(self, free_store):
        from repro.logblock.schema import ColumnSpec, ColumnType

        catalog = Catalog(request_log_schema())
        builder = DataBuilder(
            request_log_schema(), catalog,
            Janitor(catalog, free_store, "test"),
            codec="zlib", block_rows=64,
        )
        catalog.add_column(ColumnSpec("region", ColumnType.STRING))
        builder.archive_memtable(sealed_memtable({1: 10}), "s0-0")
        (entry,) = catalog.blocks_for(1)
        rows = read_all_rows(free_store, "test", entry)
        assert all(row["region"] is None for row in rows)
