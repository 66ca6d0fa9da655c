"""Row store (memtable + store) tests."""

import pytest

from repro.common.errors import RowStoreError
from repro.rowstore.memtable import MemTable
from repro.rowstore.store import RowStore

from tests.conftest import BASE_TS, MICROS, make_rows


class TestMemTable:
    def test_append_and_len(self):
        table = MemTable()
        table.append_many(make_rows(5))
        assert len(table) == 5

    def test_requires_ts_and_tenant(self):
        table = MemTable()
        with pytest.raises(RowStoreError):
            table.append({"tenant_id": 1})
        with pytest.raises(RowStoreError):
            table.append({"ts": 5})

    def test_scan_orders_by_timestamp(self):
        table = MemTable()
        rows = make_rows(10)
        for row in reversed(rows):  # append out of order
            table.append(row)
        scanned = list(table.scan())
        assert [r["ts"] for r in scanned] == sorted(r["ts"] for r in rows)

    def test_scan_range_inclusive(self):
        table = MemTable()
        table.append_many(make_rows(10))
        lo = BASE_TS + 2 * MICROS
        hi = BASE_TS + 5 * MICROS
        scanned = list(table.scan(min_ts=lo, max_ts=hi))
        assert [r["ts"] for r in scanned] == [lo, lo + MICROS, lo + 2 * MICROS, hi]

    def test_scan_by_tenant(self):
        table = MemTable()
        table.append_many(make_rows(5, tenant_id=1))
        table.append_many(make_rows(5, tenant_id=2))
        assert all(r["tenant_id"] == 2 for r in table.scan(tenant_id=2))
        assert len(list(table.scan(tenant_id=2))) == 5

    def test_sealed_rejects_appends(self):
        table = MemTable()
        table.append_many(make_rows(1))
        table.seal()
        with pytest.raises(RowStoreError):
            table.append(make_rows(1)[0])

    def test_ts_range(self):
        table = MemTable()
        assert table.ts_range() is None
        table.append_many(make_rows(3))
        assert table.ts_range() == (BASE_TS, BASE_TS + 2 * MICROS)

    def test_rows_by_tenant_in_ts_order(self):
        table = MemTable()
        rows1 = make_rows(4, tenant_id=1)
        rows2 = make_rows(3, tenant_id=2)
        for pair in zip(rows2, rows1):  # interleave
            table.append(pair[0])
            table.append(pair[1])
        table.append(rows1[3])
        grouped = table.rows_by_tenant()
        assert [r["ts"] for r in grouped[1]] == [r["ts"] for r in rows1]
        assert [r["ts"] for r in grouped[2]] == [r["ts"] for r in rows2]

    def test_approx_bytes_grows(self):
        table = MemTable()
        before = table.approx_bytes
        table.append_many(make_rows(10))
        assert table.approx_bytes > before

    def test_tenants(self):
        table = MemTable()
        table.append_many(make_rows(2, tenant_id=7))
        table.append_many(make_rows(2, tenant_id=9))
        assert table.tenants() == {7, 9}


class TestRowStore:
    def test_seal_on_row_threshold(self):
        store = RowStore(seal_rows=10)
        store.append_many(make_rows(25))
        assert len(store.take_sealed()) == 2
        assert len(store.active) == 5
        assert store.row_count() == 25

    def test_seal_on_byte_threshold(self):
        store = RowStore(seal_rows=10**9, seal_bytes=2000)
        store.append_many(make_rows(100))
        assert len(store.take_sealed()) >= 1

    def test_take_sealed_removes(self):
        """``take_sealed`` is a snapshot; only a drop removes tables."""
        store = RowStore(seal_rows=10)
        store.append_many(make_rows(25))
        taken = store.take_sealed()
        assert len(taken) == 2
        assert store.take_sealed() == taken and store.row_count() == 25
        taken.clear()  # the caller's list is its own
        assert len(store.take_sealed()) == 2
        store.drop_sealed_prefix(1)
        assert len(store.take_sealed()) == 1 and store.sealed_dropped == 1
        assert store.row_count() == 15  # the other sealed table and the active one

    def test_scan_spans_sealed_and_active(self):
        store = RowStore(seal_rows=10)
        rows = make_rows(25)
        store.append_many(rows)
        scanned = list(store.scan())
        assert len(scanned) == 25
        assert {r["ts"] for r in scanned} == {r["ts"] for r in rows}

    def test_seal_active_empty_returns_none(self):
        store = RowStore()
        assert store.seal_active() is None

    def test_total_ingested_counter(self):
        store = RowStore(seal_rows=5)
        store.append_many(make_rows(12))
        store.take_sealed()
        assert store.total_rows_ingested == 12

    def test_tenants_across_tables(self):
        store = RowStore(seal_rows=3)
        store.append_many(make_rows(4, tenant_id=1))
        store.append_many(make_rows(4, tenant_id=2))
        assert store.tenants() == {1, 2}

    def test_bad_thresholds(self):
        with pytest.raises(RowStoreError):
            RowStore(seal_rows=0)
        with pytest.raises(RowStoreError):
            RowStore(seal_bytes=0)
