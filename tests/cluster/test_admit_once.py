"""The admit-once write path at cluster level: a bad batch is rejected
whole before anything is logged, plain and replicated shards build the
same row stores from the same puts, crash recovery reproduces them, and
ingest metering is unchanged."""

import pytest

from repro import LogStore, small_test_config
from repro.cluster.shard import Shard
from repro.common.clock import VirtualClock
from repro.common.errors import InvalidBatchError
from repro.wal.log import MemorySegmentBackend

from tests.conftest import make_rows, rowstore_state


def all_shards(store):
    return sorted(
        (s for w in store.workers.values() for s in w.shards.values()),
        key=lambda s: s.shard_id,
    )


def poisoned(rows):
    bad = dict(rows[len(rows) // 2])
    del bad["ts"]
    return rows[: len(rows) // 2] + [bad] + rows[len(rows) // 2 + 1 :]


def rebuild_plain(shard, backend):
    """The chaos harness's plain-shard crash seam: a new process over
    the surviving WAL segments (``crash_and_rebuild_plain_shard``)."""
    return Shard(
        shard.shard_id, shard.worker_id, shard.capacity_rps,
        shard.seal_rows, shard.seal_bytes, shard._clock, wal_backend=backend,
    )


class TestPoisonPillBatch:
    def test_plain_shard_rejects_whole_batch_and_wal_stays_replayable(self):
        backends = {}

        def factory(name):
            return backends.setdefault(name, MemorySegmentBackend())

        store = LogStore.create(config=small_test_config(wal_backend_factory=factory))
        store.put(1, make_rows(20, tenant_id=1))
        before = store.pending_rows()

        with pytest.raises(InvalidBatchError, match="ts"):
            store.put(1, poisoned(make_rows(10, tenant_id=1, seed=1)))
        with pytest.raises(InvalidBatchError, match="ts"):
            store.put_nowait(1, poisoned(make_rows(10, tenant_id=1, seed=1)))
        assert store.pending_rows() == before

        store.put(1, make_rows(5, tenant_id=1, seed=2))  # the next put works
        assert store.pending_rows() == before + 5
        for shard in all_shards(store):
            rebuilt = rebuild_plain(shard, backends[f"shard{shard.shard_id}"])
            assert rowstore_state(rebuilt.rowstore) == rowstore_state(shard.rowstore)

    def test_shard_level_write_validates_before_the_wal(self):
        backend = MemorySegmentBackend()
        shard = Shard(0, "w0", 10_000, 1000, 1 << 30, VirtualClock(), wal_backend=backend)
        shard.write(make_rows(4))
        with pytest.raises(InvalidBatchError):
            shard.write(poisoned(make_rows(6, seed=1)))
        assert shard._wal.next_sequence == 1 and shard.pending_rows() == 4
        assert rebuild_plain(shard, backend).pending_rows() == 4

    def test_raft_shard_keeps_accepting_puts(self):
        store = LogStore.create(
            config=small_test_config(use_raft=True, group_commit=True)
        )
        store.put(1, make_rows(20, tenant_id=1))
        with pytest.raises(InvalidBatchError, match="ts"):
            store.put(1, poisoned(make_rows(10, tenant_id=1, seed=1)))
        with pytest.raises(InvalidBatchError, match="ts"):
            store.put_nowait(1, poisoned(make_rows(10, tenant_id=1, seed=1)))
        store.settle_writes()
        store.put(1, make_rows(5, tenant_id=1, seed=2))
        store.clock.advance(0.5)  # heartbeats carry commit to followers
        assert store.pending_rows() == 25
        for shard in all_shards(store):
            shard.verify_raft_consistency()
            stores = [shard.replica_store(n.node_id) for n in shard.raft.full_replicas()]
            assert all(rowstore_state(s) == rowstore_state(stores[0]) for s in stores)


def seeded_ingest(store, nowait=False):
    """12 batches over 3 tenants; every fourth one ragged, with ``bytes``
    and ``None`` values (the per-row admission path)."""
    put = store.put_nowait if nowait else store.put
    for seed in range(12):
        tenant = seed % 3 + 1
        rows = make_rows(40 + 7 * seed, tenant_id=tenant, seed=seed)
        if seed % 4 == 0:
            rows[1]["trace"] = b"\x00" * seed
            rows[2]["log"] = None
        put(tenant, rows)
    store.settle_writes()


class TestPlainVersusRaft:
    CONFIG = dict(n_workers=2, shards_per_worker=1, seal_rows=64)

    def test_same_puts_build_identical_replica_stores(self):
        plain = LogStore.create(config=small_test_config(**self.CONFIG))
        raft = LogStore.create(
            config=small_test_config(use_raft=True, group_commit=True, **self.CONFIG)
        )
        seeded_ingest(plain)
        seeded_ingest(raft, nowait=True)  # batches coalesce into shared entries
        raft.clock.advance(0.5)
        sealed = 0
        for plain_shard, raft_shard in zip(all_shards(plain), all_shards(raft)):
            expected = rowstore_state(plain_shard.rowstore)
            sealed += len(expected[1])
            stats = raft_shard.write_stats
            if stats.batches_coalesced:
                assert stats.groups_committed < stats.batches_coalesced
            for node in raft_shard.raft.full_replicas():
                assert rowstore_state(raft_shard.replica_store(node.node_id)) == expected
        assert sealed >= 4  # batches crossed seal_rows on the way

    def test_replica_crash_recover_reproduces_the_row_store(self):
        raft = LogStore.create(
            config=small_test_config(use_raft=True, group_commit=True, **self.CONFIG)
        )
        seeded_ingest(raft, nowait=True)
        raft.clock.advance(0.5)
        for shard in all_shards(raft):
            follower = next(
                n for n in shard.raft.full_replicas() if n is not shard.raft.leader()
            )
            expected = rowstore_state(shard.replica_store(follower.node_id))
            shard.crash_replica(follower.node_id)
            shard.recover_replica(follower.node_id)  # fresh store, WAL replay
            raft.clock.advance(1.0)
            assert rowstore_state(shard.replica_store(follower.node_id)) == expected
            shard.verify_raft_consistency()

    def test_plain_crash_recover_reproduces_the_row_store(self):
        backends = {}
        plain = LogStore.create(
            config=small_test_config(
                wal_backend_factory=lambda name: backends.setdefault(
                    name, MemorySegmentBackend()
                ),
                **self.CONFIG,
            )
        )
        seeded_ingest(plain)
        for shard in all_shards(plain):
            rebuilt = rebuild_plain(shard, backends[f"shard{shard.shard_id}"])
            assert rowstore_state(rebuilt.rowstore) == rowstore_state(shard.rowstore)


def test_usage_meter_bytes_match_the_parent_commit():
    """``_system.tenants.bytes_ingested`` is in the admission estimate's
    unit; these integers were read off the commit before ``RowBatch``
    (per-row ``approx_rows_bytes`` in ``Broker._dispatch``)."""
    store = LogStore.create(config=small_test_config())
    seeded_ingest(store)
    usage = {t: store.obs.meter.usage(t) for t in (1, 2, 3)}
    assert {t: u.bytes_ingested for t, u in usage.items()} == {
        1: 38805, 2: 42614, 3: 46426,
    }
    assert {t: u.rows_ingested for t, u in usage.items()} == {1: 286, 2: 314, 3: 342}
