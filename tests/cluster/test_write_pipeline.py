"""End-to-end write pipeline: group commit, quorum acks, BFC, crashes."""

import pytest

from repro.cluster.config import small_test_config
from repro.cluster.logstore import LogStore
from repro.cluster.shard import Shard
from repro.common.clock import VirtualClock
from repro.common.errors import BackpressureError, RaftError

from tests.conftest import make_rows


def raft_store(**overrides):
    config = small_test_config(
        n_workers=2,
        shards_per_worker=1,
        use_raft=True,
        group_commit=True,
        **overrides,
    )
    return LogStore.create(config=config)


def shard_of(store, shard_id):
    for worker in store.workers.values():
        if shard_id in worker.shards:
            return worker.shards[shard_id]
    raise KeyError(shard_id)


def make_shard(**kwargs):
    clock = VirtualClock()
    shard = Shard(
        0,
        "worker-0",
        capacity_rps=10_000.0,
        seal_rows=100_000,
        seal_bytes=1 << 30,
        clock=clock,
        use_raft=True,
        group_commit=True,
        group_commit_batches=8,
        **kwargs,
    )
    return shard, clock


class TestGroupCommitEndToEnd:
    def test_batches_coalesce_into_fewer_raft_entries(self):
        store = raft_store()
        dispatched = store.put_nowait(1, make_rows(10, tenant_id=1))
        for seed in range(1, 8):
            store.put_nowait(1, make_rows(10, tenant_id=1, seed=seed))
        store.settle_writes()
        store.clock.advance(0.2)  # heartbeats carry commit to followers

        [shard_id] = dispatched
        stats = shard_of(store, shard_id).write_stats
        assert stats.batches_coalesced == 8
        assert stats.groups_committed < stats.batches_coalesced
        assert stats.rows_committed == 80
        assert stats.mean_group_size() > 1.0

        result = store.query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 1")
        assert result.rows == [{"COUNT(*)": 80}]
        for worker in store.workers.values():
            for shard in worker.shards.values():
                shard.verify_raft_consistency()

    def test_synchronous_put_still_works(self):
        store = raft_store()
        store.put(1, make_rows(100, tenant_id=1))
        result = store.query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 1")
        assert result.rows == [{"COUNT(*)": 100}]

    def test_flush_all_archives_rows_still_queued_by_put_nowait(self):
        """Five batches below the group threshold and no settle_writes():
        flush_all() settles them ahead of the seal and archives them,
        and pending_rows() counted them while they were queued."""
        store = raft_store()
        for seed in range(5):
            store.put_nowait(1, make_rows(50, tenant_id=1, seed=seed))
        assert store.pending_rows() == 250
        report = store.flush_all()
        assert report.rows_archived == 250
        assert store.pending_rows() == 0
        result = store.query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 1")
        assert result.rows == [{"COUNT(*)": 250}]

    def test_leaderless_flush_all_keeps_queued_rows_unacked(self):
        """A seal / archive / checkpoint with no leader must not drop a
        queued group: the rows stay pending, the client's barrier fails
        until a leader is back, and then every row commits."""
        store = raft_store()
        dispatched = store.put_nowait(1, make_rows(50, tenant_id=1))
        [shard_id] = dispatched
        group = shard_of(store, shard_id).raft
        for node_id in group.nodes:
            group.stop_node(node_id)
        store.flush_all()
        assert store.pending_rows() == 50
        with pytest.raises(RaftError):
            store.settle_writes()
        assert store.pending_rows() == 50  # the failed flush kept the group
        for node_id in group.nodes:
            group.restart_node(node_id)
        store.settle_writes()
        assert store.flush_all().rows_archived == 50
        result = store.query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 1")
        assert result.rows == [{"COUNT(*)": 50}]

    def test_failed_barrier_is_retried_by_the_next_one(self):
        """The leader took the group but no quorum acked it: the barrier
        fails, and the next one still waits for that shard's rows."""
        store = raft_store()
        dispatched = store.put_nowait(1, make_rows(50, tenant_id=1))
        [shard_id] = dispatched
        group = shard_of(store, shard_id).raft
        followers = [n for n in group.nodes if n != group.leader().node_id]
        for node_id in followers:
            group.stop_node(node_id)
        with pytest.raises(RaftError):
            store.settle_writes()
        for node_id in followers:
            group.restart_node(node_id)
        store.settle_writes()
        result = store.query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 1")
        assert result.rows == [{"COUNT(*)": 50}]

    def test_checkpoint_settles_queued_rows_first(self):
        store = raft_store()
        dispatched = store.put_nowait(1, make_rows(30, tenant_id=1))
        [shard_id] = dispatched
        shard = shard_of(store, shard_id)
        index = shard.checkpoint()
        assert index == shard.raft.leader().persistent.snapshot_index > 0
        assert shard.pending_rows() == 30

    def test_backpressure_surfaces_to_broker(self):
        store = raft_store()
        dispatched = store.put(1, make_rows(10, tenant_id=1))
        [shard_id] = dispatched
        leader = shard_of(store, shard_id).raft.leader()
        leader.sync_queue._max_bytes = 1  # nothing further fits
        with pytest.raises(BackpressureError):
            store.put(1, make_rows(10, tenant_id=1, seed=1))


class TestBackpressureUnderPipelining:
    def test_slow_apply_throttles_group_size_without_loss(self):
        """§4.2: a follower with a saturated apply queue flags its
        replies; the leader's throttle shrinks the admitted group size.
        Once the slow replica recovers, every admitted row is there."""
        shard, _clock = make_shard()
        group = shard.raft
        leader = group.leader()
        follower = next(n for n in group.full_replicas() if n is not leader)
        follower.apply_queue._max_items = 2
        stalled_drain = follower._drain_apply_queue
        follower._drain_apply_queue = lambda limit=None: None  # apply stalls

        admitted = 0
        for i in range(32):
            try:
                shard.write_async(make_rows(5, tenant_id=1, seed=i))
                admitted += 5
            except BackpressureError:
                pass
            if i % 8 == 7:
                try:
                    shard.settle_writes(timeout_s=2.0)
                except BackpressureError:
                    pass

        assert leader.backpressure.throttle < 1.0
        assert shard._group_queue.effective_max_batches() < 8
        assert admitted > 0

        # Recovery: apply drains again, the window settles, nothing lost.
        follower._drain_apply_queue = stalled_drain
        shard.settle_writes()
        group.settle(1.0)
        shard.verify_raft_consistency()
        leader_rows = shard._replica_stores[leader.node_id].total_rows_ingested
        assert leader_rows == admitted

    def test_throttle_recovers_after_pressure_clears(self):
        shard, _clock = make_shard()
        group = shard.raft
        leader = group.leader()
        leader.backpressure.penalize()
        assert leader.backpressure.throttle < 1.0
        shard.write(make_rows(10, tenant_id=1))
        group.settle(1.0)  # calm replication rounds recover additively
        assert leader.backpressure.throttle > 0.5


class TestLeaderCrashMidWindow:
    def test_crash_and_recovery_loses_nothing(self):
        shard, _clock = make_shard()
        group = shard.raft
        total = 0
        for i in range(5):
            shard.write(make_rows(20, tenant_id=1, seed=i))
            total += 20
        for i in range(5, 10):  # these stay in flight when the leader dies
            shard.write_async(make_rows(20, tenant_id=1, seed=i))
            total += 20

        crashed = group.stop_leader()
        shard.settle_writes(timeout_s=30.0)
        group.restart_node(crashed)
        group.settle(1.0)

        shard.verify_raft_consistency()
        for node in group.full_replicas():
            rows = shard._replica_stores[node.node_id].total_rows_ingested
            assert rows == total, node.node_id
        assert shard.write_stats.rows_committed == total
