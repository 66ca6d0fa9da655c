"""Differential tests: bulk append_many vs the per-row append path."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import InvalidBatchError, RowStoreError
from repro.rowstore.batch import RowBatch
from repro.rowstore.memtable import MemTable
from repro.rowstore.store import RowStore

from tests.conftest import make_rows, rowstore_state


def store_pair(**kwargs):
    return RowStore(**kwargs), RowStore(**kwargs)


def append_per_row(store: RowStore, rows) -> None:
    for row in rows:
        store.append(row)


class TestMemTableBulk:
    def test_append_extends_columns_and_reads_order_only_the_new_rows(self):
        """An append extends the table's own lists (the batch's stay
        untouched); the next read folds only the new rows into the
        vectors an earlier read already ordered."""
        table = MemTable()
        rows = make_rows(50, tenant_id=1)
        first, second = RowBatch.admit(rows[:25]), RowBatch.admit(rows[25:])
        table.append_many(first)
        assert list(table.scan()) == rows[:25]
        table.append_many(second)
        assert len(table._ts) == 25  # nothing ordered before a reader asks
        assert list(table.scan()) == rows and len(table._ts) == 50
        assert (len(first), len(second)) == (25, 25)
        assert first.to_dicts() + second.to_dicts() == rows

    def test_empty_batch_changes_nothing(self):
        table = MemTable()
        table.append_many(make_rows(10, tenant_id=1))
        assert table.append_many([]) == 0
        assert (len(table), len(list(table.scan()))) == (10, 10)

    def test_new_keys_widen_the_table_with_nulls(self):
        table = MemTable()
        table.append_many([{"tenant_id": 1, "ts": 2, "a": "x"}])
        table.append_many([{"tenant_id": 1, "ts": 1, "b": 7}])
        assert list(table.scan()) == [
            {"tenant_id": 1, "ts": 1, "a": None, "b": 7},
            {"tenant_id": 1, "ts": 2, "a": "x", "b": None},
        ]
        assert table.approx_bytes == 2 * (len("tenant_id") + 8 + len("ts") + 8 + 1) + 1 + 8

    def test_sealed_rejects_batch(self):
        table = MemTable()
        table.seal()
        with pytest.raises(RowStoreError):
            table.append_many(make_rows(3, tenant_id=1))
        assert len(table) == 0

    def test_invalid_row_rejects_whole_batch(self):
        """All-or-nothing: a bad row anywhere leaves the table untouched."""
        rows = make_rows(5, tenant_id=1)
        table = MemTable()
        table.append_many(rows)
        before = (list(table.scan()), table.approx_bytes)

        bad = dict(rows[2])
        del bad["ts"]
        with pytest.raises(InvalidBatchError, match="ts"):
            table.append_many(rows[:2] + [bad] + rows[3:])
        with pytest.raises(InvalidBatchError, match="ts"):
            table.append(bad)

        assert (list(table.scan()), table.approx_bytes) == before

    def test_missing_tenant_column(self):
        table = MemTable()
        with pytest.raises(RowStoreError, match="tenant"):
            table.append_many([{"ts": 1}])


class TestRowStoreBulkDifferential:
    @pytest.mark.parametrize("seal_rows", [1, 3, 7, 100, 10_000])
    def test_same_seal_boundaries(self, seal_rows):
        rows = make_rows(40, tenant_id=1)
        bulk, per_row = store_pair(seal_rows=seal_rows, seal_bytes=1 << 30)
        bulk.append_many(rows)
        append_per_row(per_row, rows)
        assert rowstore_state(bulk) == rowstore_state(per_row)

    def test_byte_threshold_boundaries(self):
        rows = make_rows(60, tenant_id=1)
        bulk, per_row = store_pair(seal_rows=10_000, seal_bytes=2_000)
        bulk.append_many(rows)
        append_per_row(per_row, rows)
        assert len(bulk.take_sealed()) >= 1  # the threshold actually fired
        assert rowstore_state(bulk) == rowstore_state(per_row)

    def test_incremental_batches(self):
        bulk, per_row = store_pair(seal_rows=17, seal_bytes=1 << 30)
        for seed in range(5):
            rows = make_rows(13, tenant_id=seed + 1, seed=seed)
            bulk.append_many(rows)
            append_per_row(per_row, rows)
        assert rowstore_state(bulk) == rowstore_state(per_row)

    def test_invalid_row_appends_nothing(self):
        """A bad row past several seal boundaries still rejects the whole
        batch: no row, no seal, no counter moves."""
        rows = make_rows(12, tenant_id=1)
        bad = dict(rows[7])
        del bad["tenant_id"]
        batch = rows[:7] + [bad] + rows[8:]

        store = RowStore(seal_rows=3, seal_bytes=1 << 30)
        store.append_many(rows[:2])
        before = rowstore_state(store)
        with pytest.raises(InvalidBatchError, match="tenant_id"):
            store.append_many(batch)
        with pytest.raises(InvalidBatchError, match="tenant_id"):
            store.append(bad)
        assert rowstore_state(store) == before

    @settings(max_examples=30, deadline=None)
    @given(
        seal_rows=st.integers(min_value=1, max_value=25),
        seal_bytes=st.integers(min_value=200, max_value=5_000),
        sizes=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=5),
    )
    def test_fuzz_equivalence(self, seal_rows, seal_bytes, sizes):
        bulk, per_row = store_pair(seal_rows=seal_rows, seal_bytes=seal_bytes)
        for seed, size in enumerate(sizes):
            rows = make_rows(size, tenant_id=1, seed=seed)
            bulk.append_many(rows)
            append_per_row(per_row, rows)
        assert rowstore_state(bulk) == rowstore_state(per_row)
