"""Unit tests for GroupCommitQueue and ReplicationPipeline."""

import pickle

import pytest

from repro.common.clock import VirtualClock
from repro.common.errors import BackpressureError, NotLeaderError, RaftError
from repro.obs.recorders import WritePathStats
from repro.raft.group import RaftGroup
from repro.raft.group_commit import GroupCommitQueue, ReplicationPipeline


class TestGroupCommitQueue:
    def make(self, **kwargs):
        flushed = []
        queue = GroupCommitQueue(flushed.append, **kwargs)
        return queue, flushed

    def test_flushes_at_max_batches(self):
        queue, flushed = self.make(max_batches=3)
        queue.offer([1])
        queue.offer([2])
        assert flushed == []
        queue.offer([3])
        assert flushed == [[[1], [2], [3]]]
        assert len(queue) == 0

    def test_flushes_at_max_bytes(self):
        queue, flushed = self.make(max_batches=100, max_bytes=5, size_of=len)
        queue.offer([1, 2, 3])
        assert flushed == []
        queue.offer([4, 5])
        assert flushed == [[[1, 2, 3], [4, 5]]]

    def test_partial_group_waits_for_threshold_or_barrier(self):
        """No timer flushes a group: it goes out at a threshold, or at
        the barrier's explicit flush with whatever has arrived."""
        queue, flushed = self.make(max_batches=2)
        queue.offer([1])
        queue.offer([2])  # threshold flush
        queue.offer([3])
        assert flushed == [[[1], [2]]]
        assert list(queue) == [[3]]
        assert queue.flush() is True  # the barrier
        assert flushed == [[[1], [2]], [[3]]]
        assert queue.flush() is False  # nothing left to flush

    def test_throttle_shrinks_effective_group(self):
        throttle = {"value": 1.0}
        queue, flushed = self.make(max_batches=8, throttle_fn=lambda: throttle["value"])
        assert queue.effective_max_batches() == 8
        throttle["value"] = 0.25
        assert queue.effective_max_batches() == 2
        throttle["value"] = 0.01
        assert queue.effective_max_batches() == 1  # never below one
        queue.offer([1])  # flushes immediately at effective max 1
        assert flushed == [[[1]]]

    def test_admission_gate_rejects_without_buffering(self):
        def admit(batch):
            raise BackpressureError("full")

        queue, _flushed = self.make(admit=admit)
        with pytest.raises(BackpressureError):
            queue.offer([1])
        assert len(queue) == 0

    def test_flush_backpressure_restashes_in_order(self):
        calls = {"n": 0}
        flushed = []

        def flush_fn(batches):
            calls["n"] += 1
            if calls["n"] == 1:
                raise BackpressureError("replication stalled")
            flushed.append(batches)

        queue = GroupCommitQueue(flush_fn, max_batches=2)
        queue.offer([1])
        queue.offer([2])  # triggers flush; error absorbed, group kept
        assert flushed == []
        assert len(queue) == 2
        assert queue.flush() is True
        assert flushed == [[[1], [2]]]
        assert queue.stats.groups_committed == 1
        assert queue.stats.batches_coalesced == 2

    def test_explicit_flush_propagates_backpressure(self):
        def flush_fn(batches):
            raise BackpressureError("stalled")

        queue = GroupCommitQueue(flush_fn, max_batches=10)
        queue.offer([1])
        with pytest.raises(BackpressureError):
            queue.flush()
        assert len(queue) == 1  # nothing lost

    def test_flush_without_leader_keeps_group(self):
        """A group whose proposal found no leader was never proposed: it
        stays queued, in order, for the barrier to retry."""
        def flush_fn(batches):
            raise NotLeaderError("no leader", None)

        queue = GroupCommitQueue(flush_fn, max_batches=10)
        queue.offer([1])
        queue.offer([2])
        with pytest.raises(NotLeaderError):
            queue.flush()
        assert list(queue) == [[1], [2]]
        assert queue.pending_bytes == 2

    def test_stats(self):
        queue, _flushed = self.make(max_batches=2)
        for i in range(6):
            queue.offer([i])
        stats = queue.stats
        assert stats.groups_committed == 3
        assert stats.batches_coalesced == 6
        assert stats.mean_group_size() == 2.0
        assert len(stats.group_sizes) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            GroupCommitQueue([].append, max_batches=0)
        with pytest.raises(ValueError):
            GroupCommitQueue([].append, max_bytes=0)


def make_group(clock, seed=0):
    applied = {}

    def apply_factory(node_id):
        rows = applied.setdefault(node_id, [])

        def cb(entry):
            rows.extend(pickle.loads(entry.command))

        return cb

    group = RaftGroup("g0", clock, apply_factory, seed=seed)
    group.wait_for_leader()
    return group, applied


class TestReplicationPipeline:
    def test_window_is_bounded(self):
        clock = VirtualClock()
        group, _ = make_group(clock)
        pipe = ReplicationPipeline(group, clock, depth=3)
        for i in range(10):
            pipe.submit(pickle.dumps([i]))
            assert len(pipe) <= 3
        assert pipe.stats.inflight_peak == 3
        pipe.settle()
        assert len(pipe) == 0
        assert len(pipe.stats.commit_latency) == 10

    def test_settle_reaches_quorum_then_all(self):
        clock = VirtualClock()
        group, applied = make_group(clock)
        pipe = ReplicationPipeline(group, clock, depth=4, ack="quorum")
        index = pipe.submit(pickle.dumps(["row"]))
        pipe.settle()
        assert group.committed_quorum(index)
        group.settle(0.2)  # heartbeats propagate commit to followers
        assert group.committed_everywhere(index)
        full = [n.node_id for n in group.full_replicas()]
        assert all(applied[node_id] == ["row"] for node_id in full)

    def test_all_ack_mode(self):
        clock = VirtualClock()
        group, _ = make_group(clock)
        pipe = ReplicationPipeline(group, clock, depth=2, ack="all")
        index = pipe.submit(pickle.dumps(["x"]))
        pipe.settle()
        assert group.committed_everywhere(index)

    def test_leader_crash_mid_window_reproposes(self):
        clock = VirtualClock()
        group, applied = make_group(clock)
        pipe = ReplicationPipeline(group, clock, depth=8, settle_timeout_s=30.0)
        payloads = [[f"row-{i}"] for i in range(6)]
        for payload in payloads[:3]:
            pipe.submit(pickle.dumps(payload))
        pipe.settle()  # first three durable
        for payload in payloads[3:]:
            pipe.submit(pickle.dumps(payload))
        group.stop_leader()  # crash with three proposals in flight
        pipe.settle()  # re-elect + (maybe) re-propose + commit
        group.settle(0.5)
        live_full = [
            n for n in group.full_replicas() if not n._stopped
        ]
        for node in live_full:
            rows = applied[node.node_id]
            # every admitted payload survives, in submission order
            assert rows == [row for payload in payloads for row in payload]

    def test_unknown_ack_mode(self):
        clock = VirtualClock()
        group, _ = make_group(clock)
        with pytest.raises(RaftError):
            ReplicationPipeline(group, clock, ack="paxos")
        with pytest.raises(ValueError):
            ReplicationPipeline(group, clock, depth=0)
