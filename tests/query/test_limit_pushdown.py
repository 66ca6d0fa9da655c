"""LIMIT pushdown: early termination across LogBlocks — and the one
block loop every executor entry point drives, serial against overlapped."""

from dataclasses import replace

import pytest

from repro.builder.builder import DataBuilder
from repro.cache.multilevel import CachingRangeReader, MultiLevelCache
from repro.common.clock import VirtualClock
from repro.common.utils import wave_elapsed
from repro.logblock.schema import request_log_schema
from repro.meta.catalog import Catalog
from repro.meta.janitor import Janitor
from repro.oss.costmodel import oss_default
from repro.oss.metered import MeteredObjectStore
from repro.oss.store import InMemoryObjectStore
from repro.query.dedup import DedupSpec
from repro.query.executor import BlockExecutor, ExecutionOptions
from repro.query.planner import QueryPlanner
from repro.query.sql import parse_sql
from repro.rowstore.memtable import MemTable

from tests.conftest import make_rows


def make_env(options=None, clock=None, rows_per_logblock=100):
    catalog = Catalog(request_log_schema())
    store = MeteredObjectStore(InMemoryObjectStore(), oss_default(), clock or VirtualClock())
    store.create_bucket("b")
    builder = DataBuilder(
        request_log_schema(), catalog, Janitor(catalog, store, "b"),
        codec="zlib", block_rows=64, target_rows=rows_per_logblock,  # 6 blocks
    )
    rows = make_rows(6 * rows_per_logblock, tenant_id=1)
    table = MemTable()
    table.append_many(rows)
    table.seal()
    builder.archive_memtable(table, "s0-0")
    cache = MultiLevelCache(memory_bytes=1 << 22, ssd_bytes=1 << 24)
    executor = BlockExecutor(
        CachingRangeReader(store, cache), "b", options or ExecutionOptions()
    )
    return rows, QueryPlanner(catalog), executor


@pytest.fixture
def env():
    return make_env()


class TestPlanHint:
    def test_limit_without_order_sets_hint(self, env):
        _rows, planner, _executor = env
        plan = planner.plan(parse_sql(
            "SELECT ts FROM request_log WHERE tenant_id = 1 LIMIT 5"
        ))
        assert plan.row_limit == 5

    def test_order_by_disables_pushdown(self, env):
        _rows, planner, _executor = env
        plan = planner.plan(parse_sql(
            "SELECT ts FROM request_log WHERE tenant_id = 1 ORDER BY ts LIMIT 5"
        ))
        assert plan.row_limit is None

    def test_aggregate_disables_pushdown(self, env):
        _rows, planner, _executor = env
        plan = planner.plan(parse_sql(
            "SELECT COUNT(*) FROM request_log WHERE tenant_id = 1 LIMIT 5"
        ))
        assert plan.row_limit is None


class TestEarlyTermination:
    def test_stops_after_enough_rows(self, env):
        _rows, planner, executor = env
        plan = planner.plan(parse_sql(
            "SELECT ts FROM request_log WHERE tenant_id = 1 LIMIT 10"
        ))
        assert len(plan.blocks) == 6
        got, stats = executor.execute(plan)
        assert len(got) >= 10
        assert stats.blocks_visited == 1  # first block already had 100 matches

    def test_visits_more_blocks_for_selective_predicates(self, env):
        rows, planner, executor = env
        # fail=true is rare (~5%): several blocks may be needed for 10 rows.
        plan = planner.plan(parse_sql(
            "SELECT ts FROM request_log WHERE tenant_id = 1 AND fail = 'true' LIMIT 10"
        ))
        got, stats = executor.execute(plan)
        expected_total = sum(1 for r in rows if r["fail"])
        assert len(got) >= min(10, expected_total)
        assert 1 <= stats.blocks_visited <= 6

    def test_limit_larger_than_data_visits_all(self, env):
        _rows, planner, executor = env
        plan = planner.plan(parse_sql(
            "SELECT ts FROM request_log WHERE tenant_id = 1 LIMIT 100000"
        ))
        got, stats = executor.execute(plan)
        assert len(got) == 600
        assert stats.blocks_visited == 6

    def test_results_respect_final_limit(self, env):
        """The broker-side result tail still trims to the limit."""
        from repro.query.aggregate import result_rows

        _rows, planner, executor = env
        parsed = parse_sql("SELECT ts FROM request_log WHERE tenant_id = 1 LIMIT 7")
        plan = planner.plan(parsed)
        got, _stats = executor.execute(plan)
        assert len(result_rows(parsed, got)) == 7

    def test_realtime_shard_short_circuit(self):
        """The broker stops scanning row stores once LIMIT is satisfied."""
        from repro.cluster.config import small_test_config
        from repro.cluster.logstore import LogStore

        store = LogStore.create(config=small_test_config())
        # Several tenants → realtime rows land on several distinct shards.
        for tenant in (1, 2, 3, 4):
            store.put(tenant, make_rows(100, tenant_id=tenant, seed=tenant))
        shards = {
            shard_id: shard
            for worker in store.workers.values()
            for shard_id, shard in worker.shards.items()
        }
        populated = [s for s, sh in shards.items() if sh.pending_rows() > 3]
        assert len(populated) > 1, "need several populated shards to show early stop"

        # A tenant-less scan walks every topology shard; LIMIT stops it.
        before = {s: sh.access_count.value for s, sh in shards.items()}
        result = store.query("SELECT log FROM request_log LIMIT 3")
        assert len(result.rows) == 3
        scanned = [s for s, sh in shards.items() if sh.access_count.value > before[s]]
        assert len(scanned) < len(shards)

        # ORDER BY disables the short-circuit: every shard must
        # contribute before the global sort, so all of them are scanned.
        before = {s: sh.access_count.value for s, sh in shards.items()}
        result = store.query("SELECT ts FROM request_log ORDER BY ts LIMIT 3")
        assert len(result.rows) == 3
        scanned = [s for s, sh in shards.items() if sh.access_count.value > before[s]]
        assert len(scanned) == len(shards)

    def test_realtime_limit_larger_than_data(self):
        """A LIMIT above the row count still returns everything."""
        from repro.cluster.config import small_test_config
        from repro.cluster.logstore import LogStore

        store = LogStore.create(config=small_test_config())
        store.put(1, make_rows(100, tenant_id=1))
        result = store.query("SELECT log FROM request_log WHERE tenant_id = 1 LIMIT 5000")
        assert len(result.rows) == 100

    def test_io_benefit(self, env):
        """Pushdown reads far fewer bytes; with serial (no-overlap)
        execution the latency benefit is direct too."""
        _rows, planner, executor = env
        store = executor._reader.store
        clock = store.clock

        executor.cache.clear()
        plan_limited = planner.plan(parse_sql(
            "SELECT log FROM request_log WHERE tenant_id = 1 LIMIT 5"
        ))
        bytes_before = store.stats.bytes_read
        executor.execute(plan_limited)
        limited_bytes = store.stats.bytes_read - bytes_before

        executor.cache.clear()
        plan_full = planner.plan(parse_sql(
            "SELECT log FROM request_log WHERE tenant_id = 1"
        ))
        bytes_before = store.stats.bytes_read
        executor.execute(plan_full)
        full_bytes = store.stats.bytes_read - bytes_before
        assert limited_bytes < full_bytes / 2

        # Serial execution (prefetch off → blocks don't overlap): the
        # saved blocks translate directly into saved latency.
        serial = BlockExecutor(
            executor._reader, "b", ExecutionOptions(use_prefetch=False)
        )
        serial.cache.clear()
        start = clock.now()
        serial.execute(plan_limited)
        limited_time = clock.now() - start
        serial.cache.clear()
        start = clock.now()
        serial.execute(plan_full)
        full_time = clock.now() - start
        assert limited_time < full_time / 2


class RecordingClock(VirtualClock):
    """Keeps every collector the block loop opened."""

    def __init__(self):
        super().__init__()
        self.collectors = []

    def deferred(self):
        self.collectors.append(super().deferred())
        return self.collectors[-1]


class SerialClock(VirtualClock):
    """A clock with no overlap model (like WallClock): the loop serialises."""

    collectors = ()

    @property
    def deferred(self):
        raise AttributeError("no overlap model")


# Each sink yields (answer, stats) after every pass it makes through the loop.
def rows_sink(executor, plan):
    chunk, stats = executor.execute(plan)
    yield chunk.to_dicts(), stats


def aggregate_sink(executor, plan):
    aggregator, stats = executor.execute_aggregate(plan)
    yield aggregator.results(), stats


def dedup_sink(executor, plan):
    plan = replace(plan, dedup=DedupSpec("ip", "latency"))
    dedup, stats = executor.execute_dedup(plan)
    yield len(dedup), stats
    yield executor.materialize_dedup(plan, dedup, stats).to_dicts(), stats


SELECTIVE = "FROM request_log WHERE tenant_id = 1 AND latency >= 100"
SINKS = {
    "rows": (rows_sink, f"SELECT ts, log {SELECTIVE}", {}),
    "rows-limit": (
        rows_sink,
        "SELECT ts FROM request_log WHERE tenant_id = 1 AND fail = 'true' LIMIT 40",
        {},
    ),
    "agg": (aggregate_sink, f"SELECT ip, COUNT(*), AVG(latency) {SELECTIVE} GROUP BY ip", {}),
    "dedup": (dedup_sink, f"SELECT ip, latency, log {SELECTIVE}", {}),
}


class TestOneLoopEverySink:
    """Overlap changes when the clock moves, never what is read or answered."""

    def drive(self, clock, name, use_prefetch):
        sink, sql, extra = SINKS[name]
        options = ExecutionOptions(use_prefetch=use_prefetch, prefetch_threads=2, **extra)
        # LogBlocks past the 8 KiB head read, so that members are prefetched.
        _rows, planner, executor = make_env(options, clock, rows_per_logblock=500)
        passes = []
        for answer, stats in sink(executor, planner.plan(parse_sql(sql))):
            passes.append((clock.now(), [c.total for c in clock.collectors]))
        return answer, stats, passes

    @pytest.mark.parametrize("use_prefetch", [False, True])
    @pytest.mark.parametrize("name", SINKS)
    def test_serial_and_overlapped_agree(self, name, use_prefetch):
        answer, stats, overlapped = self.drive(RecordingClock(), name, use_prefetch)
        serial_answer, serial_stats, serial = self.drive(SerialClock(), name, use_prefetch)
        assert answer == serial_answer and answer
        assert stats == serial_stats  # prefetch counters included
        assert (stats.prefetch_requests > 0) == use_prefetch
        if name == "rows-limit":
            assert 1 < stats.blocks_visited < 6  # stopped mid-plan
        if not use_prefetch:
            assert overlapped == serial and not overlapped[-1][1]
            return
        # One collector per item, and per pass through the loop the two
        # clocks differ by exactly what the waves overlapped.
        opened, saved = 0, 0.0
        for (at, collected), (serial_at, _none) in zip(overlapped, serial):
            charges = collected[opened:]
            assert len(charges) >= 2
            opened = len(collected)
            saved += sum(charges) - wave_elapsed(charges, 2)
            assert serial_at - at == pytest.approx(saved, rel=1e-9)
        assert saved > 0
        assert len(overlapped[0][1]) == stats.blocks_visited
