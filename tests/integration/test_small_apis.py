"""Coverage for small public API surfaces not exercised elsewhere."""

from repro.cache.multilevel import MultiLevelCache
from repro.cluster.config import small_test_config
from repro.cluster.logstore import LogStore
from repro.common.clock import VirtualClock
from repro.raft.backpressure import BackpressureController, BoundedQueue
from repro.raft.group import RaftGroup
from repro.workload import tenant_traffic

from tests.conftest import make_rows, write_logblock
from tests.logblock.test_writer_reader import reader_for


class TestCacheSummary:
    def test_oss_reads_equals_full_misses(self):
        cache = MultiLevelCache(memory_bytes=1 << 20, ssd_bytes=1 << 22)
        cache.blocks.get(("b", "k", 0, 10))  # memory miss + ssd miss
        summary = cache.summary()
        assert summary.oss_reads == summary.ssd_misses == 1


class TestReaderHasIndex:
    def test_indexed_and_plain_columns(self):
        from repro.logblock.schema import ColumnSpec, ColumnType, IndexType, TableSchema
        from repro.logblock.writer import LogBlockWriter
        from repro.oss.store import InMemoryObjectStore
        from repro.logblock.reader import LogBlockReader
        from repro.tarpack.reader import PackReader

        schema = TableSchema(
            "t",
            (
                ColumnSpec("tenant_id", ColumnType.INT64),
                ColumnSpec("ts", ColumnType.TIMESTAMP),
                ColumnSpec("raw", ColumnType.STRING, IndexType.NONE),
            ),
        )
        writer = LogBlockWriter(schema, codec="zlib")
        writer.append({"tenant_id": 1, "ts": 1, "raw": "x"})
        store = InMemoryObjectStore()
        store.create_bucket("b")
        store.put("b", "k", writer.finish())
        reader = LogBlockReader(PackReader(store, "b", "k"))
        assert reader.has_index("ts")
        assert not reader.has_index("raw")


class TestBackpressureSmallApis:
    def test_add_queue_and_pending_bytes(self):
        primary = BoundedQueue("a", max_items=10, max_bytes=100)
        controller = BackpressureController([primary])
        extra = BoundedQueue("b", max_items=2, max_bytes=100)
        controller.add_queue(extra)
        extra.push(b"12345")
        assert extra.pending_bytes == 5
        extra.push(b"xy")
        # The added queue's saturation now drives the controller.
        assert controller.worst_saturation() == 1.0


class TestRaftGroupSmallApis:
    def test_stop_restart_and_wal_bytes(self):
        clock = VirtualClock()
        group = RaftGroup("g", clock, lambda _n: (lambda _e: None), n_replicas=3)
        group.propose(b"x")
        sizes = group.wal_bytes()
        assert set(sizes) == set(group.nodes)
        assert all(size > 0 for size in sizes.values())
        victim = next(iter(group.nodes))
        group.stop_node(victim)
        assert group.nodes[victim]._stopped
        group.restart_node(victim)
        assert not group.nodes[victim]._stopped


class TestLogStoreSampleTraffic:
    def test_sample_reflects_routes(self):
        store = LogStore.create(config=small_test_config())
        traffic = tenant_traffic(5, 0.5, 1000.0)
        sample = store.sample_traffic(traffic)
        assert sample.tenant_traffic == traffic
        for tenant_id, flows in sample.route_traffic.items():
            assert abs(sum(flows.values()) - traffic[tenant_id]) < 1e-6


class TestSimulationResultAccessors:
    def test_mean_and_stddev_accessors(self):
        from repro.cluster.simulation import SimulationResult, WindowMetrics

        result = SimulationResult()
        result.windows.append(
            WindowMetrics(0.0, 100.0, 90.0, 0.0, 0.01, 5)
        )
        result.windows.append(
            WindowMetrics(10.0, 100.0, 110.0, 0.0, 0.02, 5)
        )
        assert result.mean_throughput_rps() == 100.0
        result.shard_accesses.record(0, 10)
        result.shard_accesses.record(1, 20)
        result.worker_accesses.record("w0", 30)
        assert result.shard_access_stddev() == 5.0
        assert result.worker_access_stddev() == 0.0
