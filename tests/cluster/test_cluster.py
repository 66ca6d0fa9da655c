"""Cluster layer tests: config, shard, broker write/query, controller."""

import pytest

from repro.cluster.config import LogStoreConfig, small_test_config
from repro.cluster.controller import build_topology
from repro.cluster.logstore import LogStore
from repro.common.errors import ConfigError
from repro.workload import tenant_traffic

from tests.conftest import BASE_TS, MICROS, make_rows


class TestConfig:
    def test_defaults_match_paper(self):
        config = LogStoreConfig()
        assert config.n_workers == 24  # §6 testbed
        assert config.alpha == 0.85  # §4.1.1
        assert config.prefetch_threads == 32  # §6.3.2
        assert config.monitor_interval_s == 300.0  # §4.1.3

    def test_validation(self):
        with pytest.raises(ConfigError):
            LogStoreConfig(n_workers=0)
        with pytest.raises(ConfigError):
            LogStoreConfig(alpha=0)
        with pytest.raises(ConfigError):
            LogStoreConfig(balancer="magic")
        with pytest.raises(ConfigError):
            LogStoreConfig(replicas=2, wal_only_replicas=2)

    def test_shard_worker_mapping(self):
        config = small_test_config(n_workers=2, shards_per_worker=3)
        assert config.n_shards == 6
        assert config.worker_of_shard(0) == "worker-0"
        assert config.worker_of_shard(5) == "worker-1"

    def test_topology_build(self):
        config = small_test_config(n_workers=2, shards_per_worker=2)
        topo = build_topology(config)
        assert len(topo.shards) == 4
        assert len(topo.workers) == 2
        assert topo.alpha == config.alpha


@pytest.fixture
def store():
    return LogStore.create(config=small_test_config())


class TestWritePath:
    def test_put_routes_to_one_shard_initially(self, store):
        dispatched = store.put(1, make_rows(100, tenant_id=1))
        assert len(dispatched) == 1
        assert sum(dispatched.values()) == 100

    def test_put_validates_tenant(self, store):
        with pytest.raises(ValueError):
            store.put(2, make_rows(5, tenant_id=1))

    def test_pending_rows_until_archive(self, store):
        store.put(1, make_rows(50, tenant_id=1))
        assert store.pending_rows() == 50
        store.flush_all()
        assert store.pending_rows() == 0

    def test_background_task_archives_only_sealed(self, store):
        store.put(1, make_rows(2500, tenant_id=1))  # seal_rows = 2000
        report = store.run_background_tasks()
        assert report.rows_archived == 2000
        assert store.pending_rows() == 500


class TestQueryPath:
    def test_realtime_visibility_before_archive(self, store):
        """§2: 'real-time data visibility' — rows are queryable before
        they ever reach OSS."""
        store.put(1, make_rows(50, tenant_id=1))
        result = store.query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 1")
        assert result.rows == [{"COUNT(*)": 50}]
        assert result.realtime_rows == 50
        assert result.archived_rows == 0

    def test_merged_realtime_and_archived(self, store):
        store.put(1, make_rows(50, tenant_id=1))
        store.flush_all()
        more = make_rows(30, tenant_id=1, start_ts=BASE_TS + 100 * MICROS)
        store.put(1, more)
        result = store.query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 1")
        assert result.rows == [{"COUNT(*)": 80}]
        assert result.realtime_rows == 30

    def test_query_latency_measured(self, store):
        store.put(1, make_rows(100, tenant_id=1))
        store.flush_all()
        result = store.query("SELECT log FROM request_log WHERE tenant_id = 1 AND latency >= 100")
        assert result.latency_s > 0  # OSS round trips were charged

    def test_aggregation_end_to_end(self, store):
        rows = make_rows(200, tenant_id=1)
        store.put(1, rows)
        store.flush_all()
        result = store.query(
            "SELECT ip, COUNT(*) FROM request_log WHERE tenant_id = 1 "
            "GROUP BY ip ORDER BY COUNT(*) DESC LIMIT 3"
        )
        assert len(result.rows) == 3
        expected = {}
        for row in rows:
            expected[row["ip"]] = expected.get(row["ip"], 0) + 1
        top = sorted(expected.values(), reverse=True)[:3]
        assert [r["COUNT(*)"] for r in result.rows] == top

    def test_cross_tenant_isolation(self, store):
        store.put(1, make_rows(40, tenant_id=1))
        store.put(2, make_rows(60, tenant_id=2))
        store.flush_all()
        r1 = store.query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 1")
        r2 = store.query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 2")
        assert r1.rows == [{"COUNT(*)": 40}]
        assert r2.rows == [{"COUNT(*)": 60}]


class TestRebalanceIntegration:
    def test_rebalance_spreads_hot_tenant(self, store):
        traffic = tenant_traffic(10, 0.99, 20_000.0)
        event = store.rebalance(traffic)
        assert event.rebalanced
        rule = store.controller.routing.rule_for(1)
        assert rule.route_count > 1

    def test_reads_still_complete_after_rebalance(self, store):
        store.put(1, make_rows(100, tenant_id=1))
        store.rebalance(tenant_traffic(10, 0.99, 20_000.0))
        store.put(1, make_rows(100, tenant_id=1, start_ts=BASE_TS + 200 * MICROS))
        result = store.query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 1")
        assert result.rows == [{"COUNT(*)": 200}]

    def test_writes_split_after_rebalance(self, store):
        store.rebalance(tenant_traffic(10, 0.99, 20_000.0))
        dispatched = store.put(1, make_rows(1000, tenant_id=1))
        assert len(dispatched) > 1


class TestExpiryIntegration:
    def test_expiry_only_hits_old_blocks(self, store):
        store.register_tenant(5, retention_s=100)
        old = make_rows(50, tenant_id=5, start_ts=BASE_TS)
        new = make_rows(50, tenant_id=5, start_ts=BASE_TS + 3600 * MICROS)
        store.put(5, old)
        store.flush_all()
        store.put(5, new)
        store.flush_all()
        report = store.sweep_expired(now_ts=BASE_TS + 3650 * MICROS)
        assert report.blocks_expired == 1
        result = store.query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 5")
        assert result.rows == [{"COUNT(*)": 50}]


class TestRaftMode:
    def test_raft_backed_shard_write_and_query(self):
        config = small_test_config(n_workers=1, shards_per_worker=1, use_raft=True)
        store = LogStore.create(config=config)
        store.put(1, make_rows(20, tenant_id=1))
        store.clock.advance(1.0)  # let replication settle
        result = store.query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 1")
        assert result.rows == [{"COUNT(*)": 20}]
        shard = store.workers["worker-0"].shards[0]
        shard.verify_raft_consistency()
        assert shard.raft is not None
        assert len(shard.raft.wal_only_replicas()) == 1

    def test_reads_under_a_wal_only_leader_see_acked_rows(self):
        """A WAL-only replica may win an election; reads then come from
        a full follower, which must first apply what the leader acked.
        Found by the reference model: the acked rows read 0, and a flush
        left them pending."""
        config = small_test_config(n_workers=1, shards_per_worker=1, use_raft=True)
        store = LogStore.create(config=config)
        shard = store.workers["worker-0"].shards[0]
        (witness,) = shard.raft.wal_only_replicas()
        witness._start_election()
        store.clock.advance(0.05)
        assert shard.raft.leader() is witness
        store.put(1, make_rows(30, tenant_id=1))
        count = "SELECT COUNT(*) FROM request_log WHERE tenant_id = 1"
        assert store.query(count).rows == [{"COUNT(*)": 30}]
        store.flush_all()
        assert store.pending_rows() == 0
        assert store.query(count).rows == [{"COUNT(*)": 30}]
