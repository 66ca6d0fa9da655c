"""Differential for WHERE trees over one archived LogBlock.

Every tree runs through the block executor with data skipping and the
indexes each on and off.  It must return the rows :func:`tests.oracle.
matches` keeps and the rows a realtime selection of the same rows
keeps.  The trees nest AND / OR / NOT over IS NULL and IS NOT NULL, a
column added by DDL after the block was written, a needle the Bloom
filter rules out, a leaf the column SMA proves and scan-only leaves
(``!=``, LIKE on a tokenized column).

The work each run does is pinned too: its prune counters and the
virtual time it charged.  An AND stops at an empty mask and an OR
evaluates every child, so these may change only with a deliberate
change to how a block is settled.
"""

import dataclasses

import pytest

from repro.builder.builder import DataBuilder
from repro.cache.multilevel import CachingRangeReader, MultiLevelCache
from repro.common.clock import VirtualClock
from repro.logblock.schema import ColumnSpec, ColumnType, request_log_schema
from repro.meta.catalog import Catalog
from repro.meta.janitor import Janitor
from repro.oss.costmodel import free
from repro.oss.metered import MeteredObjectStore
from repro.oss.store import InMemoryObjectStore
from repro.query.executor import BlockExecutor, ExecutionOptions, filter_realtime_rows
from repro.query.planner import QueryPlanner
from repro.query.sql import parse_sql
from repro.rowstore.memtable import MemTable

from tests.conftest import BASE_TS, MICROS, make_rows
from tests.oracle import matches

N_ROWS = 400
LOW_TS, HIGH_TS = BASE_TS + 100 * MICROS, BASE_TS + 180 * MICROS

TREES = {
    # ``tenant_id = 1`` is proved by the column SMA; IS NULL inside an OR.
    "sma_and_null": "tenant_id = 1 AND (ip = '192.168.0.3' OR latency IS NULL) "
    "AND NOT api = '/api/v1'",
    # A needle inside the SMA bounds that the Bloom filter rules out, IS
    # NULL of the DDL-added column, IS NOT NULL, !=.
    "bloom_and_ddl": "(ip = '192.168.0.35' OR region IS NULL) AND latency IS NOT NULL "
    "AND api != '/api/v2'",
    # The DDL-added column under NOT, a LIKE only a scan answers.
    "not_over_scans": "NOT (region = 'eu' OR log LIKE 'GET /api/v1%') "
    "AND (latency >= 400 OR fail = true)",
    "null_or_and": "ip IS NULL OR (api = '/api/v0' AND MATCH(log, 'error'))",
    "window_and_not": f"ts >= {LOW_TS} AND ts <= {HIGH_TS} "
    "AND NOT (ip = '192.168.0.45' OR latency < 50)",
    # The Bloom filter empties the AND: ``latency`` is never evaluated.
    "empty_and": "ip = '192.168.0.35' AND latency > 100",
    # The first child matches every row; the OR still evaluates the second.
    "full_or": "tenant_id = 1 OR ip = '192.168.0.3'",
}
MODES = [(skipping, indexes) for skipping in (True, False) for indexes in (True, False)]

# (tree, use_skipping, use_indexes) → (PruneStats fields in order, the
# virtual microseconds the query charged).
PINNED = {
    ("sma_and_null", True, True): ((0, 0, 7, 2, 0, 0, 1, 400), 2263),
    ("sma_and_null", True, False): ((0, 0, 21, 0, 0, 0, 1, 1200), 1723),
    ("sma_and_null", False, True): ((0, 0, 28, 0, 0, 0, 0, 1600), 1950),
    ("sma_and_null", False, False): ((0, 0, 28, 0, 0, 0, 0, 1600), 1950),
    ("bloom_and_ddl", True, True): ((0, 0, 14, 0, 1, 0, 0, 800), 1519),
    ("bloom_and_ddl", True, False): ((0, 0, 14, 0, 1, 0, 0, 800), 1519),
    ("bloom_and_ddl", False, True): ((0, 0, 21, 0, 0, 0, 0, 1200), 1755),
    ("bloom_and_ddl", False, False): ((0, 0, 21, 0, 0, 0, 0, 1200), 1755),
    ("not_over_scans", True, True): ((0, 0, 7, 2, 0, 0, 0, 400), 2328),
    ("not_over_scans", True, False): ((0, 0, 21, 0, 0, 0, 0, 1200), 1779),
    ("not_over_scans", False, True): ((0, 0, 21, 0, 0, 0, 0, 1200), 1779),
    ("not_over_scans", False, False): ((0, 0, 21, 0, 0, 0, 0, 1200), 1779),
    ("null_or_and", True, True): ((0, 0, 7, 2, 0, 0, 0, 400), 2313),
    ("null_or_and", True, False): ((0, 0, 21, 0, 0, 0, 0, 1200), 1773),
    ("null_or_and", False, True): ((0, 0, 21, 0, 0, 0, 0, 1200), 1773),
    ("null_or_and", False, False): ((0, 0, 21, 0, 0, 0, 0, 1200), 1773),
    ("window_and_not", True, True): ((0, 0, 0, 3, 1, 0, 0, 0), 2533),
    ("window_and_not", True, False): ((0, 5, 9, 0, 1, 7, 0, 528), 1322),
    ("window_and_not", False, True): ((0, 0, 28, 0, 0, 0, 0, 1600), 1945),
    ("window_and_not", False, False): ((0, 0, 28, 0, 0, 0, 0, 1600), 1945),
    ("empty_and", True, True): ((0, 0, 0, 0, 1, 0, 0, 0), 1000),
    ("empty_and", True, False): ((0, 0, 0, 0, 1, 0, 0, 0), 1000),
    ("empty_and", False, True): ((0, 0, 7, 0, 0, 0, 0, 400), 1235),
    ("empty_and", False, False): ((0, 0, 7, 0, 0, 0, 0, 400), 1235),
    ("full_or", True, True): ((0, 0, 0, 1, 0, 0, 1, 0), 1586),
    ("full_or", True, False): ((0, 0, 7, 0, 0, 0, 1, 400), 1319),
    ("full_or", False, True): ((0, 0, 14, 0, 0, 0, 0, 800), 1546),
    ("full_or", False, False): ((0, 0, 14, 0, 0, 0, 0, 800), 1546),
}


def corpus_rows() -> list[dict]:
    rows = make_rows(N_ROWS, seed=5)
    for i, row in enumerate(rows):
        if i % 9 == 0:
            row["latency"] = None
        if i % 13 == 0:
            row["ip"] = None
    return rows


@pytest.fixture(scope="module")
def corpus():
    """The rows, a planner over their one LogBlock and the store; each
    test reads it through caches of its own, so each pays its decodes."""
    clock = VirtualClock()
    store = MeteredObjectStore(InMemoryObjectStore(), free(), clock)
    store.create_bucket("test")
    catalog = Catalog(request_log_schema())
    builder = DataBuilder(
        request_log_schema(), catalog, Janitor(catalog, store, "test"),
        codec="zlib", block_rows=64, target_rows=N_ROWS,
    )
    rows = corpus_rows()
    table = MemTable()
    table.append_many(rows)
    table.seal()
    builder.archive_memtable(table, "s0-0")
    assert len(catalog.blocks_for(1)) == 1
    catalog.add_column(ColumnSpec("region", ColumnType.STRING))
    return rows, QueryPlanner(catalog), store


@pytest.mark.parametrize("skipping,indexes", MODES, ids=[f"skip{s:d}-idx{i:d}" for s, i in MODES])
@pytest.mark.parametrize("tree", list(TREES))
def test_a_tree_answers_like_the_oracle_and_a_realtime_selection(corpus, tree, skipping, indexes):
    rows, planner, store = corpus
    plan = planner.plan(parse_sql(f"SELECT ts FROM request_log WHERE {TREES[tree]}"))
    expected = [row["ts"] for row in rows if matches(plan.where, row)]
    assert expected or tree == "empty_and"

    executor = BlockExecutor(
        CachingRangeReader(store, MultiLevelCache(1 << 22)),
        "test",
        ExecutionOptions(use_skipping=skipping, use_indexes=indexes),
    )
    before = store.clock.now()
    got, stats = executor.execute(plan)
    charged = round((store.clock.now() - before) * 1e6)
    assert [row["ts"] for row in got.to_dicts()] == expected
    assert [row["ts"] for row in filter_realtime_rows(plan, rows)] == expected

    counters = dataclasses.astuple(stats.prune)
    assert (counters, charged) == PINNED[tree, skipping, indexes]


def test_a_leaf_the_index_cannot_answer_fetches_no_index():
    """``ip IS NOT NULL`` never reads ``idx/ip``: once the Bloom filter
    rules out the needle, a 4 000-row block fetches its meta and Bloom
    filter and nothing more — as for the needle alone."""
    clock = VirtualClock()
    store = MeteredObjectStore(InMemoryObjectStore(), free(), clock)
    store.create_bucket("test")
    catalog = Catalog(request_log_schema())
    builder = DataBuilder(
        request_log_schema(), catalog, Janitor(catalog, store, "test"),
        codec="zlib", block_rows=64, target_rows=4_000,
    )
    table = MemTable()
    table.append_many(make_rows(4_000, seed=5))
    table.seal()
    builder.archive_memtable(table, "s0-0")
    fetched = {}
    for where in ("ip = '192.168.0.35'", "ip = '192.168.0.35' AND ip IS NOT NULL"):
        plan = QueryPlanner(catalog).plan(parse_sql(f"SELECT ts FROM request_log WHERE {where}"))
        executor = BlockExecutor(CachingRangeReader(store, MultiLevelCache(1 << 22)), "test")
        got, stats = executor.execute(plan)
        assert got.to_dicts() == [] and stats.prune.index_lookups == 0
        fetched[where] = stats.prefetch_members_fetched, stats.prefetch_bytes
    assert set(fetched.values()) == {(2, 17_921)}  # meta + bloom/ip (3 / 18 057 B before)
