"""Block executor tests: correctness and optimization equivalence."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.builder.builder import DataBuilder
from repro.cache.multilevel import CachingRangeReader, MultiLevelCache
from repro.logblock.schema import ColumnSpec, ColumnType, request_log_schema
from repro.logblock.writer import index_member
from repro.meta.catalog import Catalog
from repro.meta.janitor import Janitor
from repro.query.executor import BlockExecutor, ExecutionOptions, filter_realtime_rows
from repro.query.planner import QueryPlanner, format_timestamp
from repro.query.sql import parse_sql
from repro.rowstore.memtable import MemTable
from repro.tarpack.reader import PackReader

from tests.conftest import BASE_TS, MICROS, make_rows


@pytest.fixture
def env(free_store):
    catalog = Catalog(request_log_schema())
    builder = DataBuilder(
        request_log_schema(), catalog, Janitor(catalog, free_store, "test"),
        codec="zlib", block_rows=64, target_rows=150,
    )
    rows = {}
    for tenant in (1, 2):
        tenant_rows = make_rows(400, tenant_id=tenant, seed=tenant)
        rows[tenant] = tenant_rows
        table = MemTable()
        table.append_many(tenant_rows)
        table.seal()
        builder.archive_memtable(table, "s0-0")
    cache = MultiLevelCache(memory_bytes=1 << 22, ssd_bytes=1 << 24)
    reader = CachingRangeReader(free_store, cache)
    planner = QueryPlanner(catalog)
    return rows, planner, reader


def brute(rows, fn, columns):
    return [
        {c: r[c] for c in columns}
        for r in rows
        if fn(r)
    ]


class TestCorrectness:
    def test_paper_query_shape(self, env):
        rows, planner, reader = env
        executor = BlockExecutor(reader, "test")
        lo = format_timestamp(BASE_TS + 50 * MICROS)
        hi = format_timestamp(BASE_TS + 250 * MICROS)
        plan = planner.plan(parse_sql(
            f"SELECT log FROM request_log WHERE tenant_id = 1 AND ts >= '{lo}' "
            f"AND ts <= '{hi}' AND ip = '192.168.0.1' AND latency >= 100 AND fail = 'false'"
        ))
        got, stats = executor.execute(plan)
        expected = brute(
            rows[1],
            lambda r: BASE_TS + 50 * MICROS <= r["ts"] <= BASE_TS + 250 * MICROS
            and r["ip"] == "192.168.0.1"
            and r["latency"] >= 100
            and r["fail"] is False,
            ["log"],
        )
        assert got.to_dicts() == expected
        assert stats.blocks_visited >= 1

    def test_tenant_isolation(self, env):
        rows, planner, reader = env
        executor = BlockExecutor(reader, "test")
        plan = planner.plan(parse_sql("SELECT log FROM request_log WHERE tenant_id = 2"))
        got, _stats = executor.execute(plan)
        assert len(got) == 400
        expected_logs = {r["log"] for r in rows[2]}
        assert all(r["log"] in expected_logs for r in got)

    def test_or_across_columns(self, env):
        rows, planner, reader = env
        executor = BlockExecutor(reader, "test")
        plan = planner.plan(parse_sql(
            "SELECT ts FROM request_log WHERE tenant_id = 1 "
            "AND (ip = '192.168.0.1' OR latency >= 450)"
        ))
        got, _ = executor.execute(plan)
        expected = brute(
            rows[1],
            lambda r: r["ip"] == "192.168.0.1" or r["latency"] >= 450,
            ["ts"],
        )
        assert sorted(r["ts"] for r in got) == sorted(r["ts"] for r in expected)

    def test_not(self, env):
        rows, planner, reader = env
        executor = BlockExecutor(reader, "test")
        plan = planner.plan(parse_sql(
            "SELECT ts FROM request_log WHERE tenant_id = 1 AND NOT ip = '192.168.0.1'"
        ))
        got, _ = executor.execute(plan)
        expected = [r for r in rows[1] if r["ip"] != "192.168.0.1"]
        assert len(got) == len(expected)

    def test_match_fulltext(self, env):
        rows, planner, reader = env
        executor = BlockExecutor(reader, "test")
        plan = planner.plan(parse_sql(
            "SELECT log FROM request_log WHERE tenant_id = 1 AND MATCH(log, 'status error')"
        ))
        got, _ = executor.execute(plan)
        expected = [r for r in rows[1] if "error" in r["log"].split()]
        assert len(got) == len(expected)

    def test_no_where(self, env):
        rows, planner, reader = env
        executor = BlockExecutor(reader, "test")
        plan = planner.plan(parse_sql("SELECT ts FROM request_log WHERE tenant_id = 1"))
        got, _ = executor.execute(plan)
        assert len(got) == 400


class TestOptimizationEquivalence:
    """All optimization combinations must return identical results."""

    @pytest.mark.parametrize("skipping", [True, False])
    @pytest.mark.parametrize("prefetch", [True, False])
    @pytest.mark.parametrize("indexes", [True, False])
    def test_all_combinations(self, env, skipping, prefetch, indexes):
        rows, planner, reader = env
        options = ExecutionOptions(
            use_skipping=skipping, use_prefetch=prefetch, use_indexes=indexes
        )
        executor = BlockExecutor(reader, "test", options)
        plan = planner.plan(parse_sql(
            "SELECT ts, log FROM request_log WHERE tenant_id = 1 "
            "AND latency BETWEEN 100 AND 300 AND MATCH(log, 'ok')"
        ))
        got, _ = executor.execute(plan)
        expected = brute(
            rows[1],
            lambda r: 100 <= r["latency"] <= 300 and "ok" in r["log"].split(),
            ["ts", "log"],
        )
        assert sorted(r["ts"] for r in got) == sorted(r["ts"] for r in expected)


class TestRealtimeFilter:
    def test_projection_and_filter(self, env):
        _rows, planner, _reader = env
        plan = planner.plan(parse_sql(
            "SELECT log FROM request_log WHERE tenant_id = 1 AND latency >= 400"
        ))
        realtime = make_rows(20, tenant_id=1, seed=99)
        got = filter_realtime_rows(plan, realtime).project(plan.output_columns).to_dicts()
        expected = [{"log": r["log"]} for r in realtime if r["latency"] >= 400]
        assert got == expected

    def test_no_where_passes_all(self, env):
        _rows, planner, _reader = env
        plan = planner.plan(parse_sql("SELECT ts FROM request_log WHERE tenant_id = 1"))
        realtime = make_rows(5, tenant_id=1)
        assert len(filter_realtime_rows(plan, realtime)) == 5


class TestSmaShortCircuitFetchesNoIndex:
    """A column the block's SMA decides costs no GET, inflate or decode.

    One tenant's 3 000 rows in one LogBlock: ``tenant_id = 1`` and a
    ``ts`` window covering the block are both answered from the meta,
    so neither index is ever decoded, and the bytes of ``idx/ts`` are
    never asked for — checked against every ranged GET the store
    serves.  (``idx/tenant_id`` compresses into the pack's speculative
    head chunk, where bytes are free; its cost was inflate + decode.)
    """

    N = 3_000

    @pytest.fixture
    def corpus(self, free_store, monkeypatch):
        catalog = Catalog(request_log_schema())
        builder = DataBuilder(
            request_log_schema(), catalog,
            Janitor(catalog, free_store, "test"),
            codec="zlib", block_rows=1024, target_rows=4_000,
        )
        rows = make_rows(self.N, tenant_id=1, seed=3)
        # Row i at up to half a second past second i: evenly spaced
        # stamps would store idx/ts as a few hundred bytes of equal gaps,
        # inside the head chunk.
        jitter = random.Random(3)
        for row in rows:
            row["ts"] += jitter.randrange(MICROS // 2)
        table = MemTable()
        table.append_many(rows)
        table.seal()
        builder.archive_memtable(table, "s0-0")
        (entry,) = catalog.blocks_for(1)

        pack = PackReader(free_store, "test", entry.path)
        extents = {
            column: pack.member_extent(index_member(column)) for column in ("ts", "latency")
        }
        # Not inside the head chunk, or reading them would be free and
        # the GET assertions vacuous.
        assert all(start + n > PackReader.HEAD_CHUNK for start, n in extents.values())

        fetched: list[tuple[int, int]] = []
        get_range = free_store.get_range
        get_ranges_parallel = free_store.get_ranges_parallel

        def recording_get_range(bucket, key, start, length):
            fetched.append((start, length))
            return get_range(bucket, key, start, length)

        def recording_get_ranges_parallel(bucket, key, ranges, threads=1):
            fetched.extend(ranges)
            return get_ranges_parallel(bucket, key, ranges, threads)

        monkeypatch.setattr(free_store, "get_range", recording_get_range)
        monkeypatch.setattr(free_store, "get_ranges_parallel", recording_get_ranges_parallel)

        def run(sql, **options):
            """``(rows, stats, fetched(column), decoded(column))`` of one cold query."""
            fetched.clear()
            cache = MultiLevelCache(memory_bytes=1 << 22, ssd_bytes=1 << 24)
            executor = BlockExecutor(
                CachingRangeReader(free_store, cache),
                "test",
                # No gap merging: a merged GET may span a member nobody asked for.
                ExecutionOptions(prefetch_merge_gap=0, **options),
            )
            got, stats = executor.execute(QueryPlanner(catalog).plan(parse_sql(sql)))

            def was_fetched(column: str) -> bool:
                lo, length = extents[column]
                return any(start <= lo and lo + length <= start + n for start, n in fetched)

            def was_decoded(column: str) -> bool:
                return cache.objects.contains(("test", entry.path, index_member(column)))

            return got.to_dicts(), stats, was_fetched, was_decoded

        return rows, catalog, run

    def window(self, first: int, last: int) -> str:
        return (
            f"ts >= '{format_timestamp(BASE_TS + first * MICROS)}' "
            f"AND ts <= '{format_timestamp(BASE_TS + last * MICROS)}'"
        )

    def test_covering_window_reads_neither_tenant_nor_ts_index(self, corpus):
        rows, _catalog, run = corpus
        sql = (
            "SELECT log FROM request_log WHERE tenant_id = 1 "
            f"AND {self.window(0, self.N)} AND latency >= 250"
        )
        got, stats, fetched, decoded = run(sql)
        assert not fetched("ts")
        assert not decoded("tenant_id") and not decoded("ts")
        # The one predicate the meta cannot decide.
        assert fetched("latency") and decoded("latency")
        assert stats.prune.columns_short_circuited == 3  # tenant_id, ts >=, ts <=
        assert stats.prune.index_lookups == 1
        assert got == brute(rows, lambda r: r["latency"] >= 250, ["log"])

        # The Figure 15 baseline reads everything and agrees.
        baseline, baseline_stats, *_ = run(sql, use_skipping=False)
        assert baseline == got
        assert baseline_stats.prune.columns_short_circuited == 0

    def test_partial_window_still_reads_the_ts_index(self, corpus):
        rows, _catalog, run = corpus
        got, stats, fetched, decoded = run(
            f"SELECT ts FROM request_log WHERE tenant_id = 1 AND {self.window(100, 199)}"
        )
        assert fetched("ts") and decoded("ts") and not decoded("tenant_id")
        assert stats.prune.columns_short_circuited == 1
        low, high = BASE_TS + 100 * MICROS, BASE_TS + 199 * MICROS
        assert got == brute(rows, lambda r: low <= r["ts"] <= high, ["ts"]) and len(got) >= 99

    def test_window_outside_the_block_reads_no_index(self, corpus):
        _rows, _catalog, run = corpus
        got, stats, fetched, decoded = run(
            "SELECT ts FROM request_log WHERE tenant_id = 1 AND latency >= 0 "
            f"AND (ip = 'nowhere' OR {self.window(self.N + 10, self.N + 20)})"
        )
        assert got == []
        assert not fetched("ts") and not decoded("ts") and not decoded("tenant_id")
        assert stats.prune.columns_pruned >= 1

    def test_without_prefetch_the_lazy_reads_skip_them_too(self, corpus):
        _rows, _catalog, run = corpus
        got, stats, fetched, decoded = run(
            f"SELECT ts FROM request_log WHERE tenant_id = 1 AND {self.window(0, self.N)}",
            use_prefetch=False,
        )
        assert not fetched("ts") and not decoded("ts") and not decoded("tenant_id")
        assert stats.prune.index_lookups == 0
        assert len(got) == self.N

    def test_ddl_added_column_has_no_sma_to_consult(self, corpus):
        _rows, catalog, run = corpus
        catalog.add_column(ColumnSpec("region", ColumnType.STRING))
        got, *_ = run("SELECT ts FROM request_log WHERE tenant_id = 1 AND region = 'eu'")
        assert got == []
        got, stats, *_ = run("SELECT ts FROM request_log WHERE tenant_id = 1 AND region IS NULL")
        assert len(got) == self.N
        assert stats.prune.columns_short_circuited == 1


class TestASmallPackOpensInOneGet:
    """A LogBlock under the 8 KiB head chunk is read whole by its head
    read, since the executor knows its size: meta, Bloom, index and
    column blocks then cost no GET of their own."""

    def test_one_get_per_small_pack(self, free_store, monkeypatch):
        catalog = Catalog(request_log_schema())
        builder = DataBuilder(
            request_log_schema(), catalog, Janitor(catalog, free_store, "test"),
            codec="zlib", block_rows=64, target_rows=100,
        )
        rows = make_rows(60, tenant_id=1, seed=5)
        table = MemTable()
        table.append_many(rows)
        table.seal()
        builder.archive_memtable(table, "s0-0")
        (entry,) = catalog.blocks_for(1)
        assert entry.size_bytes < PackReader.HEAD_CHUNK

        fetched: list[tuple[int, int]] = []
        get_range = free_store.get_range

        def recording_get_range(bucket, key, start, length):
            fetched.append((start, length))
            return get_range(bucket, key, start, length)

        monkeypatch.setattr(free_store, "get_range", recording_get_range)
        monkeypatch.setattr(free_store, "get_ranges_parallel", None)  # nothing is prefetched
        cache = MultiLevelCache(memory_bytes=1 << 22, ssd_bytes=1 << 24)
        executor = BlockExecutor(CachingRangeReader(free_store, cache), "test")
        sql = "SELECT log FROM request_log WHERE tenant_id = 1 AND ip = '192.168.0.3'"
        got, stats = executor.execute(QueryPlanner(catalog).plan(parse_sql(sql)))

        assert got.to_dicts() == brute(rows, lambda r: r["ip"] == "192.168.0.3", ["log"])
        assert fetched == [(0, entry.size_bytes)]
        assert stats.prefetch_requests == 0 and stats.prune.index_lookups > 0
        decoded = {member for _bucket, path, member in cache.objects._entries if path == entry.path}
        assert {"meta", "bloom/ip", "idx/ip", "__pack_header__"} <= decoded
