"""Shard-level WAL durability and crash recovery tests."""

import pytest

from repro.cluster.shard import Shard
from repro.common.clock import VirtualClock
from repro.wal.log import MemorySegmentBackend

from tests.conftest import BASE_TS, MICROS, make_rows


def make_shard(backend=None, seal_rows=1000):
    return Shard(
        shard_id=0,
        worker_id="w0",
        capacity_rps=10_000,
        seal_rows=seal_rows,
        seal_bytes=1 << 30,
        clock=VirtualClock(),
        wal_backend=backend,
    )


class TestWalWritePath:
    def test_writes_land_in_wal(self):
        backend = MemorySegmentBackend()
        shard = make_shard(backend)
        shard.write(make_rows(50, tenant_id=1))
        assert shard._wal.next_sequence == 1
        shard.write(make_rows(10, tenant_id=2))
        assert shard._wal.next_sequence == 2

    def test_empty_batch_skips_wal(self):
        shard = make_shard()
        shard.write([])
        assert shard._wal.next_sequence == 0


class TestCrashRecovery:
    def test_rows_recovered_after_crash(self):
        backend = MemorySegmentBackend()
        shard = make_shard(backend)
        rows = make_rows(120, tenant_id=1)
        shard.write(rows)
        # "Crash": rebuild the shard from the surviving WAL backend.
        recovered = make_shard(backend)
        assert recovered.rowstore.row_count() == 120
        assert sorted(r["ts"] for r in recovered.rowstore.scan()) == sorted(
            r["ts"] for r in rows
        )

    def test_recovery_preserves_sealed_structure(self):
        backend = MemorySegmentBackend()
        shard = make_shard(backend, seal_rows=50)
        shard.write(make_rows(120, tenant_id=1))
        assert len(shard.rowstore.take_sealed()) == 2
        recovered = make_shard(backend, seal_rows=50)
        assert recovered.rowstore.row_count() == 120
        assert len(recovered.rowstore.take_sealed()) == 2

    def test_checkpoint_truncates_and_recovers(self):
        backend = MemorySegmentBackend()
        shard = make_shard(backend)
        shard.write(make_rows(60, tenant_id=1))
        shard.checkpoint()
        more = make_rows(40, tenant_id=1, start_ts=BASE_TS + 100 * MICROS)
        shard.write(more)
        recovered = make_shard(backend)
        assert recovered.rowstore.row_count() == 100

    def test_checkpoint_with_small_segments_reclaims_space(self):
        from repro.wal.log import WriteAheadLog

        backend = MemorySegmentBackend()
        shard = make_shard(backend)
        shard._wal = WriteAheadLog(backend, segment_bytes=1024)
        for i in range(20):
            shard.write(make_rows(20, tenant_id=1, start_ts=BASE_TS + i * MICROS))
        bytes_before = shard._wal.total_bytes()
        shard.checkpoint()
        # Old segments containing pre-checkpoint batches are gone; the
        # WAL now holds (roughly) just the checkpoint state.
        assert len(backend.segments()) <= 2
        recovered = make_shard(backend)
        assert recovered.rowstore.row_count() == 400

    def test_fresh_shard_no_wal_noop(self):
        shard = make_shard()
        assert shard.rowstore.row_count() == 0

    def test_explicit_seal_survives_crash(self):
        """Regression: an explicit (below-threshold) seal must be WAL-
        logged.  Replay re-derives only *threshold* seals from batch
        records, so an unlogged flush seal would vanish on recovery and
        shift every later seal boundary."""
        backend = MemorySegmentBackend()
        shard = make_shard(backend)
        shard.write(make_rows(50, tenant_id=1))
        shard.seal_active()  # flush path: 50 rows, well below seal_rows
        shard.write(make_rows(80, tenant_id=1, start_ts=BASE_TS + 100 * MICROS))
        recovered = make_shard(backend)
        assert recovered.rowstore.row_count() == 130
        assert len(recovered.rowstore.take_sealed()) == 1
        assert len(recovered.rowstore.take_sealed()[0]) == 50

    def test_explicit_seal_then_archive_recovers(self):
        """Regression: without a durable seal record, the drain's
        target exceeds the replayed sealed list and recovery raises,
        making acked rows in the WAL unrecoverable."""
        backend = MemorySegmentBackend()
        shard = make_shard(backend)
        shard.write(make_rows(50, tenant_id=1))
        shard.seal_active()
        shard.finish_archive(len(shard.take_sealed()))  # logs the drain
        shard.write(make_rows(50, tenant_id=1, start_ts=BASE_TS + 100 * MICROS))
        recovered = make_shard(backend)
        assert recovered.pending_rows() == 50
        assert len(recovered.rowstore.take_sealed()) == 0

    def test_empty_active_seal_logs_nothing(self):
        backend = MemorySegmentBackend()
        shard = make_shard(backend)
        shard.seal_active()
        assert shard._wal.next_sequence == 0


class TestClusterCheckpointTask:
    def test_checkpoint_all_covers_every_shard(self):
        from repro.cluster.config import small_test_config
        from repro.cluster.logstore import LogStore

        store = LogStore.create(config=small_test_config())
        store.put(1, make_rows(100, tenant_id=1))
        results = store.checkpoint_all()
        assert set(results) == set(range(store.config.n_shards))
        # Queries still work after checkpointing.
        count = store.query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 1")
        assert count.rows == [{"COUNT(*)": 100}]
