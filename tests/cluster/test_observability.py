"""End-to-end observability: counters reconcile with the work done,
write traces show the full replication chain, reports stay consistent."""

import pytest

from repro.cluster.config import small_test_config
from repro.cluster.logstore import LogStore
from repro.common.errors import BackpressureError
from repro.flow.router import RouteRule
from repro.obs.tracing import span_chain

from tests.conftest import make_rows

SQL_T1 = (
    "SELECT log FROM request_log WHERE tenant_id = 1 "
    "AND ts >= '2020-11-11 00:00:00' AND ts < '2020-11-11 01:00:00'"
)


def build_store(**overrides):
    return LogStore.create(config=small_test_config(**overrides))


class TestCounterReconciliation:
    def test_tenant_write_rows_match_ingest(self):
        store = build_store()
        store.put(1, make_rows(300, tenant_id=1))
        store.put(2, make_rows(120, tenant_id=2, seed=5))
        store.put(1, make_rows(80, tenant_id=1, seed=9))
        report = store.metrics_report()
        assert report.total_write_rows() == 500
        assert report.tenant_write_rows() == {1: 380.0, 2: 120.0}

    def test_tenant_read_rows_match_query_results(self):
        store = build_store()
        store.put(1, make_rows(200, tenant_id=1))
        store.flush_all()
        result = store.query(SQL_T1)
        assert len(result.rows) == 200
        report = store.metrics_report()
        assert report.total_read_rows() == 200
        assert report.tenant_read_rows() == {1: 200.0}
        assert report.queries_served() == 1

    def test_shard_rows_sum_to_total(self):
        store = build_store()
        store.put(1, make_rows(250, tenant_id=1))
        store.put(2, make_rows(150, tenant_id=2, seed=3))
        report = store.metrics_report()
        assert sum(report.shard_write_rows().values()) == 400
        # Figure 13/14 stddev readouts are derivable from the same data.
        assert report.tenant_write_stddev() == 50.0  # stddev of [250, 150]
        assert report.shard_access_stddev() >= 0.0

    def test_cache_and_oss_gauges(self):
        store = build_store()
        store.put(1, make_rows(400, tenant_id=1))
        store.flush_all()
        store.query(SQL_T1)  # cold: misses
        store.query(SQL_T1)  # warm: hits
        report = store.metrics_report()
        assert 0.0 < report.cache_hit_rate() <= 1.0
        assert report.oss_bytes_read() > 0
        assert report.oss_bytes_written() > 0
        headline = report.headline()
        assert headline["write_rows"] == 400
        assert headline["queries"] == 2


class TestCountingPoint:
    """Rows enter a tenant's account once, where the broker dispatched
    them; the hotspot loop windows the same counter."""

    def test_a_refused_batch_is_counted_nowhere(self):
        store = build_store(
            n_workers=2, shards_per_worker=1, use_raft=True, group_commit=True
        )
        [shard_id] = store.put(1, make_rows(10, tenant_id=1))
        worker = store.workers[store.controller.topology.shard_worker[shard_id]]
        worker.shards[shard_id].raft.leader().sync_queue._max_bytes = 1
        with pytest.raises(BackpressureError):
            store.put(1, make_rows(10, tenant_id=1, seed=1))
        assert store.obs.meter.usage(1).rows_ingested == 10
        assert store.metrics_report().tenant_write_rows() == {1: 10.0}
        assert store.hotspot_loop.window_rates(window_s=1.0) == {1: 10.0}

    def test_pieces_admitted_before_a_refused_piece_are_counted(self):
        store = build_store(
            n_workers=2, shards_per_worker=1, use_raft=True, group_commit=True
        )
        store.put(1, make_rows(10, tenant_id=1))
        open_shard, full_shard = sorted(store.controller.topology.shard_worker)
        store.controller.routing.set_rule(
            RouteRule.from_dict(1, {open_shard: 0.5, full_shard: 0.5})
        )
        worker = store.workers[store.controller.topology.shard_worker[full_shard]]
        worker.shards[full_shard].raft.leader().sync_queue._max_bytes = 1
        before = store.obs.meter.usage(1).bytes_ingested
        batch = store._admit(1, make_rows(10, tenant_id=1, seed=1))
        with pytest.raises(BackpressureError):
            store.put(1, batch)
        admitted, _refused = batch.split([5, 5])
        usage = store.obs.meter.usage(1)
        assert usage.rows_ingested == 15
        assert usage.bytes_ingested == before + admitted.nbytes
        assert store.metrics_report().tenant_write_rows() == {1: 15.0}
        assert store.hotspot_loop.window_rates(window_s=1.0) == {1: 15.0}

    def test_an_all_tenants_query_is_billed_to_no_tenant(self):
        store = build_store()
        store.put(1, make_rows(100, tenant_id=1))
        store.put(2, make_rows(50, tenant_id=2, seed=2))
        store.flush_all()
        result = store.query("SELECT log FROM request_log WHERE ts >= '2020-11-11 00:00:00'")
        assert len(result.rows) == 150
        report = store.metrics_report()
        assert report.tenant_read_rows() == {}
        assert report.total_read_rows() == 0
        assert [usage.rows_returned for usage in store.obs.meter.all_usage()] == [0, 0]


class TestWriteTrace:
    def test_quorum_write_chain(self):
        store = build_store(
            n_workers=2,
            shards_per_worker=1,
            use_raft=True,
            group_commit=True,
        )
        store.put(7, make_rows(64, tenant_id=7))
        trace = store.last_trace("broker.write")
        assert trace is not None
        assert trace.attrs["tenant"] == 7
        assert span_chain(
            trace, ["broker.write", "group_commit", "raft.replicate", "wal.flush"]
        )
        commit = trace.find("group_commit")
        assert "shard" in commit.attrs

    def test_plain_write_traced(self):
        store = build_store()
        store.put(3, make_rows(32, tenant_id=3))
        trace = store.last_trace("broker.write")
        assert span_chain(trace, ["broker.write", "shard.write"])
        assert store.dump_last_trace("broker.write").startswith("broker.write ")

    def test_tracing_disabled_records_nothing(self):
        store = build_store(tracing_enabled=False)
        store.put(1, make_rows(16, tenant_id=1))
        assert store.last_trace() is None
        assert store.dump_last_trace() == "(no traces recorded)"
        # Counters keep working without the tracer.
        assert store.metrics_report().total_write_rows() == 16


class TestQueryTrace:
    def test_query_trace_has_scan_stages(self):
        store = build_store()
        store.put(1, make_rows(200, tenant_id=1))
        store.flush_all()
        store.query(SQL_T1)
        trace = store.last_trace("broker.query")
        names = {span.name for span in trace.walk()}
        assert "broker.plan" in names
        assert "broker.archived_scan" in names
        assert "oss.get" in names  # cold read hits the object store

    def test_warm_query_shows_cache_hits(self):
        """A repeat query is served from the caches, and says by which
        tier: everything it touches is a decoded object by now, so it
        never reaches the byte-range caches (no ``cache.hit`` span) or
        the object store."""
        store = build_store()
        store.put(1, make_rows(200, tenant_id=1))
        store.flush_all()
        cold = store.query(SQL_T1)
        assert cold.cache_misses > 0
        warm = store.query(SQL_T1)
        names = [span.name for span in store.last_trace("broker.query").walk()]
        assert "oss.get" not in names
        assert warm.cache_misses == 0 and warm.oss_requests == 0
        assert warm.cache_hits > 0
        assert warm.object_hits == warm.cache_hits
        assert warm.memory_hits == warm.ssd_hits == 0


class TestSlowQueryLog:
    def test_threshold_zero_logs_everything(self):
        store = build_store(slow_query_s=0.0)
        store.put(1, make_rows(100, tenant_id=1))
        store.flush_all()
        store.query(SQL_T1)
        entries = store.slow_queries.entries()
        assert len(entries) == 1
        assert entries[0].tenant_id == 1
        assert entries[0].rows_returned == 100
        assert entries[0].latency_s > 0.0

    def test_default_threshold_quiet_for_fast_queries(self):
        store = build_store()
        store.put(1, make_rows(50, tenant_id=1))
        store.query(SQL_T1)
        assert store.slow_queries.entries() == []


class TestHotspotLoopIntegration:
    def test_monitor_window_rates_source_from_registry(self):
        store = build_store()
        store.put(1, make_rows(600, tenant_id=1))
        store.put(2, make_rows(200, tenant_id=2, seed=4))
        rates = store.hotspot_loop.window_rates(window_s=10.0)
        assert rates == {1: 60.0, 2: 20.0}
        # Window consumed: a second read over an idle window is zero.
        assert store.hotspot_loop.window_rates(window_s=10.0) == {1: 0.0, 2: 0.0}
        # The cumulative registry totals are untouched by windowing.
        assert store.metrics_report().tenant_write_rows() == {1: 600.0, 2: 200.0}

    def test_run_once_consumes_live_counters(self):
        store = build_store()
        store.put(1, make_rows(500, tenant_id=1))
        store.clock.advance(10.0)
        event = store.hotspot_loop.run_once()
        assert event is not None
        assert store.hotspot_loop.events == [event]
