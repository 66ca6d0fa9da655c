"""Aggregate pushdown tests: tier eligibility, zero-I/O catalog answers,
and differential equality against the per-row fold.

The acceptance bar for the fast path is *exact* result equality with
the per-row fold of the matched rows (``tests.oracle.fold``), and
between every set of tiers a plan allows, across full-match,
partial-match, empty-match and DDL-added-column blocks — plus hard
stats assertions that tier 1 never opens a pack.
"""

import random
from dataclasses import replace

import pytest

from repro.builder.builder import DataBuilder
from repro.cache.multilevel import CachingRangeReader, MultiLevelCache
from repro.common.clock import VirtualClock
from repro.common.errors import QueryError
from repro.logblock.schema import ColumnSpec, ColumnType, request_log_schema
from repro.meta.catalog import Catalog
from repro.meta.janitor import Janitor
from repro.oss.costmodel import free
from repro.oss.metered import MeteredObjectStore
from repro.oss.store import InMemoryObjectStore
from repro.query.executor import BlockExecutor, ExecutionOptions, PushdownCounters
from repro.query.planner import QueryPlanner, format_timestamp
from repro.query.sql import ParsedQuery, SelectItem, parse_sql
from repro.rowstore.memtable import MemTable

from tests.conftest import BASE_TS, MICROS, make_rows
from tests.oracle import fold

BUCKET = "agg"


def ts_literal(offset_s: int) -> str:
    return format_timestamp(BASE_TS + offset_s * MICROS)


class Env:
    """An archived corpus, its executor and the per-row reference."""

    def __init__(self, schema=None, block_rows=64, target_rows=200):
        self.schema = schema if schema is not None else request_log_schema()
        self.catalog = Catalog(self.schema)
        self.clock = VirtualClock()
        self.store = MeteredObjectStore(InMemoryObjectStore(), free(), self.clock)
        self.store.create_bucket(BUCKET)
        self.builder = DataBuilder(
            self.schema, self.catalog,
            Janitor(self.catalog, self.store, BUCKET),
            codec="zlib", block_rows=block_rows, target_rows=target_rows,
        )
        self.rows: list[dict] = []
        self.planner = QueryPlanner(self.catalog)
        self._executor = None

    def archive(self, rows: list[dict]) -> None:
        table = MemTable()
        table.append_many(rows)
        table.seal()
        self.builder.archive_memtable(table, "s0-0")
        self.rows.extend(rows)

    def executor(self) -> BlockExecutor:
        if self._executor is None:
            cache = MultiLevelCache(memory_bytes=1 << 22, ssd_bytes=1 << 24)
            self._executor = BlockExecutor(
                CachingRangeReader(self.store, cache), BUCKET, ExecutionOptions()
            )
        return self._executor

    def run(self, sql: str, catalog: bool = True, sma: bool = True):
        """The executor's answer; ``catalog`` / ``sma`` False take tier
        1 / tier 2 away from the plan."""
        plan = self.planner.plan(parse_sql(sql))
        pushdown = plan.agg_pushdown
        plan.agg_pushdown = replace(
            pushdown,
            catalog_eligible=pushdown.catalog_eligible and catalog,
            sma_eligible=pushdown.sma_eligible and sma,
        )
        aggregator, stats = self.executor().execute_aggregate(plan)
        return aggregator.results(), stats

    def reference(self, sql: str) -> list[dict]:
        """The per-row fold of the rows the query matches, read through
        a plain scan in the order the blocks store them."""
        parsed = parse_sql(sql)
        scan = ParsedQuery(
            table=parsed.table,
            select=[SelectItem(column=None, aggregate=None)],
            where=parsed.where,
            select_star=True,
        )
        chunk, _stats = self.executor().execute(self.planner.plan(scan))
        return fold(parsed, chunk.to_dicts())


@pytest.fixture(scope="module")
def env() -> Env:
    built = Env()
    built.archive(make_rows(600, tenant_id=1, seed=7))
    built.archive(make_rows(100, tenant_id=2, seed=8))
    # Additive DDL: blocks written above lack ``extra`` (reads as null);
    # the batch below archives under the evolved schema and carries it.
    built.catalog.add_column(ColumnSpec("extra", ColumnType.INT64))
    late = make_rows(200, tenant_id=1, seed=9, start_ts=BASE_TS + 600 * MICROS)
    for i, row in enumerate(late):
        row["extra"] = i if i % 3 else None
    built.archive(late)
    return built


class TestTier1CatalogOnly:
    """COUNT(*)/MIN(ts)/MAX(ts) over covered blocks never touch OSS."""

    SQL = (
        "SELECT COUNT(*), MIN(ts), MAX(ts) FROM request_log "
        f"WHERE tenant_id = 1 AND ts BETWEEN '{ts_literal(0)}' AND '{ts_literal(1000)}'"
    )

    def test_zero_requests_zero_bytes(self, env):
        gets_before = env.store.stats.get_requests
        rows, stats = env.run(self.SQL)
        # The acceptance criterion: catalog-only answers issue *zero*
        # prefetch requests and read zero bytes — no pack is opened.
        assert env.store.stats.get_requests == gets_before
        assert stats.prefetch_requests == 0
        assert stats.prefetch_bytes == 0
        assert stats.blocks_visited == 0
        assert stats.pushdown.agg_catalog_hits > 0
        assert stats.pushdown.agg_sma_blocks == 0
        assert stats.pushdown.agg_columnar_blocks == 0

    def test_answers_match_brute_force(self, env):
        rows, _stats = env.run(self.SQL)
        mine = [r["ts"] for r in env.rows if r["tenant_id"] == 1]
        assert rows == [
            {"COUNT(*)": len(mine), "MIN(ts)": min(mine), "MAX(ts)": max(mine)}
        ]

    def test_zero_virtual_time(self, env):
        before = env.clock.now()
        env.run(self.SQL)
        assert env.clock.now() == before

    def test_partial_coverage_falls_through(self, env):
        # A bound cutting through block interiors: uncovered blocks must
        # run a lower tier, and the count must stay exact.
        sql = (
            "SELECT COUNT(*) FROM request_log WHERE tenant_id = 1 "
            f"AND ts BETWEEN '{ts_literal(150)}' AND '{ts_literal(450)}'"
        )
        rows, stats = env.run(sql)
        expected = sum(
            1
            for r in env.rows
            if r["tenant_id"] == 1
            and BASE_TS + 150 * MICROS <= r["ts"] <= BASE_TS + 450 * MICROS
        )
        assert rows[0]["COUNT(*)"] == expected
        assert stats.pushdown.agg_catalog_hits >= 1  # interior blocks covered
        assert stats.blocks_visited >= 1  # boundary blocks were opened

    def test_strict_bound_not_overcounted(self, env):
        # ts < X must not count a row sitting exactly at X even when a
        # block's max_ts == X (covered_by must respect strictness).
        edge = ts_literal(100)
        sql = f"SELECT COUNT(*) FROM request_log WHERE tenant_id = 1 AND ts < '{edge}'"
        rows, _stats = env.run(sql)
        expected = sum(
            1
            for r in env.rows
            if r["tenant_id"] == 1 and r["ts"] < BASE_TS + 100 * MICROS
        )
        assert rows[0]["COUNT(*)"] == expected

    def test_non_ts_predicate_disables_tier1(self, env):
        sql = "SELECT COUNT(*) FROM request_log WHERE tenant_id = 1 AND latency >= 0"
        parsed = parse_sql(sql)
        plan = env.planner.plan(parsed)
        assert plan.agg_pushdown is not None
        assert not plan.agg_pushdown.catalog_eligible
        assert plan.agg_pushdown.sma_eligible


class TestTier2SmaFold:
    def test_full_match_blocks_fold_from_meta(self, env):
        sql = (
            "SELECT COUNT(*), SUM(latency), AVG(latency), MIN(latency), MAX(latency) "
            "FROM request_log WHERE tenant_id = 1 AND latency >= 0"
        )
        rows, stats = env.run(sql)
        latencies = [r["latency"] for r in env.rows if r["tenant_id"] == 1]
        assert rows[0]["COUNT(*)"] == len(latencies)
        assert rows[0]["SUM(latency)"] == sum(latencies)
        assert rows[0]["MIN(latency)"] == min(latencies)
        assert rows[0]["MAX(latency)"] == max(latencies)
        assert rows[0]["AVG(latency)"] == pytest.approx(sum(latencies) / len(latencies))
        # latency >= 0 matches every row of every block → all SMA-folded.
        assert stats.pushdown.agg_sma_blocks > 0
        assert stats.pushdown.agg_columnar_blocks == 0

    def test_ddl_added_column_reads_as_null(self, env):
        sql = "SELECT COUNT(extra), SUM(extra) FROM request_log WHERE tenant_id = 1"
        rows, _stats = env.run(sql)
        extras = [
            r.get("extra")
            for r in env.rows
            if r["tenant_id"] == 1 and r.get("extra") is not None
        ]
        assert rows[0]["COUNT(extra)"] == len(extras)
        assert rows[0]["SUM(extra)"] == sum(extras)


class TestTier3Columnar:
    def test_partial_match_uses_columnar(self, env):
        sql = (
            "SELECT COUNT(*), SUM(latency) FROM request_log "
            "WHERE tenant_id = 1 AND latency >= 250"
        )
        rows, stats = env.run(sql)
        matched = [
            r["latency"]
            for r in env.rows
            if r["tenant_id"] == 1 and r["latency"] >= 250
        ]
        assert rows[0]["COUNT(*)"] == len(matched)
        assert rows[0]["SUM(latency)"] == sum(matched)
        assert stats.pushdown.agg_columnar_blocks > 0

    def test_grouped_aggregate(self, env):
        sql = (
            "SELECT ip, COUNT(*), MAX(latency) FROM request_log "
            "WHERE tenant_id = 1 AND latency < 250 GROUP BY ip"
        )
        rows, stats = env.run(sql)
        groups: dict = {}
        for r in env.rows:
            if r["tenant_id"] == 1 and r["latency"] < 250:
                groups.setdefault(r["ip"], []).append(r["latency"])
        assert {row["ip"]: row["COUNT(*)"] for row in rows} == {
            k: len(v) for k, v in groups.items()
        }
        assert {row["ip"]: row["MAX(latency)"] for row in rows} == {
            k: max(v) for k, v in groups.items()
        }
        assert stats.pushdown.agg_columnar_blocks > 0

    def test_empty_match(self, env):
        sql = "SELECT COUNT(*), SUM(latency) FROM request_log WHERE tenant_id = 1 AND latency > 100000"
        rows, stats = env.run(sql)
        assert rows == [{"COUNT(*)": 0, "SUM(latency)": None}]
        assert stats.rows_matched == 0

    def test_distinct_goes_columnar(self, env):
        sql = "SELECT COUNT(DISTINCT ip) FROM request_log WHERE tenant_id = 1"
        parsed = parse_sql(sql)
        plan = env.planner.plan(parsed)
        assert not plan.agg_pushdown.catalog_eligible
        assert not plan.agg_pushdown.sma_eligible
        rows, stats = env.run(sql)
        assert rows[0]["COUNT(DISTINCT ip)"] == 10
        assert stats.pushdown.agg_columnar_blocks > 0


AGG_CHOICES = [
    "COUNT(*)",
    "COUNT(latency)",
    "COUNT(extra)",
    "SUM(latency)",
    "AVG(latency)",
    "MIN(latency)",
    "MAX(latency)",
    "SUM(extra)",
    "MIN(ts)",
    "MAX(ts)",
]
PREDICATE_CHOICES = [
    None,
    f"ts BETWEEN '{ts_literal(0)}' AND '{ts_literal(1000)}'",  # covers all
    f"ts BETWEEN '{ts_literal(120)}' AND '{ts_literal(480)}'",  # partial
    f"ts > '{ts_literal(700)}'",
    f"ts < '{ts_literal(0)}'",  # empty
    "latency >= 0",  # full match, non-ts
    "latency BETWEEN 100 AND 300",
    "latency > 100000",  # empty
    "ip = '192.168.0.3'",
    "fail = true",
    "extra >= 50",  # null on pre-DDL blocks
]
GROUP_CHOICES = [None, "ip", "api", "fail"]


class TestDifferential:
    """The tiered fold must return *exactly* the per-row fold's rows."""

    def test_randomized_queries_match_naive(self, env):
        rng = random.Random(20211111)
        for _ in range(60):
            aggs = rng.sample(AGG_CHOICES, rng.randint(1, 3))
            predicate = rng.choice(PREDICATE_CHOICES)
            group = rng.choice(GROUP_CHOICES)
            select = (([group] if group else []) + aggs)
            sql = f"SELECT {', '.join(select)} FROM request_log WHERE tenant_id = 1"
            if predicate:
                sql += f" AND ({predicate})"
            if group:
                sql += f" GROUP BY {group}"
            pushed, _stats = env.run(sql)
            assert pushed == env.reference(sql), sql

    def test_every_tier_agrees(self, env):
        sql = (
            "SELECT COUNT(*), MIN(ts), MAX(ts) FROM request_log "
            f"WHERE tenant_id = 1 AND ts BETWEEN '{ts_literal(100)}' AND '{ts_literal(700)}'"
        )
        arms = [env.run(sql, catalog=False, sma=False), env.run(sql, catalog=False), env.run(sql)]
        assert [stats.pushdown.agg_catalog_hits > 0 for _, stats in arms] == [False, False, True]
        assert [stats.pushdown.agg_sma_blocks > 0 for _, stats in arms] == [False, True, False]
        assert env.reference(sql) == arms[0][0] == arms[1][0] == arms[2][0]

    def test_every_tier_agrees_on_nan(self):
        """One NaN rule: a NaN is counted and summed but is no MIN/MAX,
        wherever it sits — per-row fold, SMA fold and array fold alike."""
        nan = float("nan")
        built = Env(block_rows=8, target_rows=1000)
        built.catalog.add_column(ColumnSpec("score", ColumnType.FLOAT64))
        rows = make_rows(48, tenant_id=1, seed=3)
        for i, row in enumerate(rows):
            row["score"] = float(i % 7) - 2.5
        rows[0]["score"] = nan  # first value of the column (and of /api/v0)
        rows[21]["score"] = nan  # in the middle of a block
        rows[30]["score"] = None
        for row in rows:
            if row["api"] == "/api/v2":
                row["score"] = nan  # an all-NaN group
        built.archive(rows)
        scores = [r["score"] for r in rows if r["score"] is not None and r["score"] == r["score"]]

        flat = "SELECT MIN(score), MAX(score), COUNT(score) FROM request_log WHERE tenant_id = 1"
        sma, columnar = built.run(flat), built.run(flat, sma=False)
        assert sma[1].pushdown.agg_sma_blocks == 1
        assert columnar[1].pushdown.agg_columnar_blocks == 1
        expected = [{"MIN(score)": min(scores), "MAX(score)": max(scores), "COUNT(score)": 47}]
        assert built.reference(flat) == sma[0] == columnar[0] == expected

        # Partial match: the tiered path folds the arrays.
        grouped = (
            "SELECT api, MIN(score), MAX(score), COUNT(score), SUM(score) FROM request_log "
            "WHERE tenant_id = 1 AND latency >= 0 GROUP BY api"
        )
        pushed = built.run(grouped)
        assert pushed[1].pushdown.agg_columnar_blocks == 1
        assert repr(pushed[0]) == repr(built.reference(grouped))
        by_api = {row["api"]: row for row in pushed[0]}
        assert by_api["/api/v2"]["MIN(score)"] is None and by_api["/api/v2"]["MAX(score)"] is None
        assert by_api["/api/v2"]["COUNT(score)"] == 16
        assert by_api["/api/v0"]["MIN(score)"] == -2.5  # not the NaN that came first
        assert by_api["/api/v0"]["SUM(score)"] != by_api["/api/v0"]["SUM(score)"]  # poisoned


class TestSumPastInt64:
    """A block's timestamp sum leaves int64 after ~5 700 rows of 2020
    µs timestamps.  Archiving it used to raise ``struct.error``; now
    the SMA carries no sum and SUM/AVG read the column instead."""

    @pytest.fixture(scope="class")
    def wide_env(self):
        built = Env()
        built.builder = DataBuilder(
            built.schema, built.catalog,
            Janitor(built.catalog, built.store, BUCKET),
            codec="zlib", block_rows=4096, target_rows=20_000,
        )
        built.archive(make_rows(10_000, tenant_id=1, seed=12))
        return built

    def test_one_block_whose_sum_overflows(self, wide_env):
        assert len(wide_env.catalog.blocks_for(1)) == 1
        assert sum(r["ts"] for r in wide_env.rows) >= 2**63

    def test_sum_avg_count_match_python(self, wide_env):
        sql = (
            "SELECT SUM(ts), AVG(ts), COUNT(ts), SUM(latency), COUNT(*) "
            "FROM request_log WHERE tenant_id = 1 AND latency >= 0"
        )
        rows, stats = wide_env.run(sql)
        assert rows == wide_env.reference(sql)
        ts = [r["ts"] for r in wide_env.rows]
        # The aggregator accumulates in float.
        assert rows[0]["SUM(ts)"] == pytest.approx(sum(ts), rel=1e-12)
        assert rows[0]["AVG(ts)"] == pytest.approx(sum(ts) / len(ts), rel=1e-12)
        assert rows[0]["COUNT(ts)"] == rows[0]["COUNT(*)"] == len(ts)
        assert rows[0]["SUM(latency)"] == sum(r["latency"] for r in wide_env.rows)
        # The missing ts sum sends the block to the columnar tier.
        assert stats.pushdown.agg_sma_blocks == 0

    def test_latency_alone_still_folds_from_the_sma(self, wide_env):
        sql = "SELECT SUM(latency) FROM request_log WHERE tenant_id = 1 AND latency >= 0"
        rows, stats = wide_env.run(sql)
        assert rows[0]["SUM(latency)"] == sum(r["latency"] for r in wide_env.rows)
        assert stats.pushdown.agg_sma_blocks == 1


class TestPlanTimeValidation:
    def test_sum_on_string_rejected(self, env):
        with pytest.raises(QueryError, match="SUM\\(ip\\) is not defined"):
            env.planner.plan(parse_sql("SELECT SUM(ip) FROM request_log WHERE tenant_id = 1"))

    def test_avg_on_bool_rejected(self, env):
        with pytest.raises(QueryError, match="AVG\\(fail\\) is not defined"):
            env.planner.plan(parse_sql("SELECT AVG(fail) FROM request_log WHERE tenant_id = 1"))

    def test_min_max_count_on_string_allowed(self, env):
        rows, _stats = env.run(
            "SELECT MIN(ip), MAX(ip), COUNT(ip) FROM request_log WHERE tenant_id = 2"
        )
        ips = [r["ip"] for r in env.rows if r["tenant_id"] == 2]
        assert rows == [
            {"MIN(ip)": min(ips), "MAX(ip)": max(ips), "COUNT(ip)": len(ips)}
        ]


class TestCounters:
    def test_pushdown_counters_merge_and_dict(self):
        first = PushdownCounters(agg_catalog_hits=1, agg_sma_blocks=2)
        second = PushdownCounters(agg_sma_blocks=1, agg_columnar_blocks=3)
        first.merge(second)
        assert first.as_dict() == {
            "agg_catalog_hits": 1,
            "agg_sma_blocks": 3,
            "agg_columnar_blocks": 3,
        }
