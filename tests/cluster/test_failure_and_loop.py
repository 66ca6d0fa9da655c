"""Worker-failure recovery (§3) and the live hotspot loop (§4.1.3)."""

import pytest

from repro.cluster.config import small_test_config
from repro.cluster.logstore import LogStore
from repro.common.errors import ClusterError, WorkerNotFound

from tests.conftest import BASE_TS, MICROS, make_rows


@pytest.fixture
def store():
    return LogStore.create(config=small_test_config())


class TestWorkerFailure:
    def test_shards_rehosted(self, store):
        victim = "worker-0"
        victim_shards = set(store.workers[victim].shards)
        moves = store.fail_worker(victim)
        assert set(moves) == victim_shards
        assert victim not in store.workers
        for shard_id, new_worker in moves.items():
            assert shard_id in store.workers[new_worker].shards

    def test_data_survives_failure(self, store):
        store.put(1, make_rows(200, tenant_id=1))
        # Find the worker holding tenant 1's data and fail it.
        shard_id = next(iter(store.controller.routing.rule_for(1).shards()))
        victim = store.controller.topology.shard_worker[shard_id]
        store.fail_worker(victim)
        result = store.query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 1")
        assert result.rows == [{"COUNT(*)": 200}]

    def test_writes_continue_after_failure(self, store):
        store.put(1, make_rows(50, tenant_id=1))
        store.fail_worker("worker-1")
        store.put(1, make_rows(50, tenant_id=1, start_ts=BASE_TS + 100 * MICROS))
        result = store.query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 1")
        assert result.rows == [{"COUNT(*)": 100}]

    def test_topology_reflects_failure(self, store):
        store.fail_worker("worker-2")
        topology = store.controller.topology
        assert "worker-2" not in topology.workers
        assert len(topology.shards) == 8  # all shards still placed
        assert set(topology.shard_worker.values()) <= set(store.workers)

    def test_rehosting_is_balanced(self, store):
        store.fail_worker("worker-0")
        shard_counts = [len(w.shards) for w in store.workers.values()]
        assert max(shard_counts) - min(shard_counts) <= 1

    def test_unknown_worker(self, store):
        with pytest.raises(WorkerNotFound):
            store.fail_worker("worker-99")

    def test_cannot_fail_last_worker(self):
        store = LogStore.create(config=small_test_config(n_workers=1))
        with pytest.raises(ClusterError):
            store.fail_worker("worker-0")

    def test_rebalance_works_after_failure(self, store):
        from repro.workload import tenant_traffic

        store.fail_worker("worker-3")
        capacity = store.controller.topology.total_worker_capacity()
        event = store.rebalance(tenant_traffic(20, 0.99, capacity * 0.6))
        assert event.rebalanced or not event.hot_shards


class TestHotspotLoop:
    def test_loop_fires_on_schedule(self, store):
        store.start_hotspot_loop()
        store.put(1, make_rows(100, tenant_id=1))
        interval = store.config.monitor_interval_s
        store.clock.advance(interval * 2.5)
        assert len(store.hotspot_loop.events) == 2

    def test_loop_uses_live_counters(self, store):
        store.start_hotspot_loop()
        # Hammer one tenant hard enough that its shard runs hot:
        # capacity is 10k rps/worker; 300s window → need >> 1.5k rps.
        interval = store.config.monitor_interval_s
        rows = make_rows(2000, tenant_id=1)
        for _ in range(3):
            store.put(1, rows)
        # The loop turns the meter's counters into rates over the window.
        rates = store.hotspot_loop.window_rates(window_s=1.0)
        assert rates[1] == 6000
        # Counters reset per window.
        assert store.hotspot_loop.window_rates(window_s=1.0)[1] == 0

    def test_loop_rebalances_hot_tenant(self):
        # Short monitor window so a modest row count yields a hot rate:
        # worker capacity is 10k rps, shard ~3k rps; we write ~6k rps.
        config = small_test_config(monitor_interval_s=5.0)
        store = LogStore.create(config=config)
        store.start_hotspot_loop()
        interval = config.monitor_interval_s
        rows = make_rows(1500, tenant_id=1)
        steps = 20
        for _ in range(steps):
            store.put(1, rows)
            for row in rows:
                row["ts"] += MICROS  # keep timestamps advancing
            store.clock.advance(interval / steps * 0.999)
        store.clock.advance(interval * 0.01)
        assert store.hotspot_loop.events, "loop should have fired"
        event = store.hotspot_loop.events[0]
        assert event.hot_shards, "the tenant's shard should run hot"
        rule = store.controller.routing.rule_for(1)
        assert rule is not None and rule.route_count > 1

    def test_start_idempotent(self, store):
        store.start_hotspot_loop()
        store.start_hotspot_loop()
        store.clock.advance(store.config.monitor_interval_s * 1.5)
        assert len(store.hotspot_loop.events) == 1

    def test_stop(self, store):
        store.start_hotspot_loop()
        store.hotspot_loop.stop()
        store.clock.advance(store.config.monitor_interval_s * 3)
        assert store.hotspot_loop.events == []
