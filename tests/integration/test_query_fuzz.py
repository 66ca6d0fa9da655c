"""Randomized query fuzzing: the full SQL → plan → execute stack must
always agree with brute-force evaluation over the corpus."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.builder.builder import DataBuilder
from repro.cache.multilevel import CachingRangeReader, MultiLevelCache
from repro.common.clock import VirtualClock
from repro.logblock.schema import request_log_schema
from repro.meta.catalog import Catalog
from repro.meta.janitor import Janitor
from repro.oss.costmodel import free
from repro.oss.metered import MeteredObjectStore
from repro.oss.store import InMemoryObjectStore
from repro.query.executor import BlockExecutor, ExecutionOptions
from repro.query.planner import QueryPlanner, format_timestamp
from repro.query.sql import parse_sql
from repro.rowstore.memtable import MemTable

from tests.conftest import BASE_TS, MICROS, make_rows
from tests.oracle import fold


@pytest.fixture(scope="module")
def env():
    rows = make_rows(600, tenant_id=1, seed=13)
    catalog = Catalog(request_log_schema())
    store = MeteredObjectStore(InMemoryObjectStore(), free(), VirtualClock())
    store.create_bucket("fuzz")
    builder = DataBuilder(
        request_log_schema(), catalog, Janitor(catalog, store, "fuzz"),
        codec="zlib", block_rows=64, target_rows=200,
    )
    table = MemTable()
    table.append_many(rows)
    table.seal()
    builder.archive_memtable(table, "s0-0")
    cache = MultiLevelCache(memory_bytes=1 << 22, ssd_bytes=1 << 24)
    executor = BlockExecutor(CachingRangeReader(store, cache), "fuzz", ExecutionOptions())
    return rows, QueryPlanner(catalog), executor


def ts_literal(offset_s: int) -> str:
    return format_timestamp(BASE_TS + offset_s * MICROS)


clause_strategy = st.one_of(
    st.integers(0, 9).map(lambda i: (f"ip = '192.168.0.{i}'", lambda r, i=i: r["ip"] == f"192.168.0.{i}")),
    st.integers(0, 500).map(lambda v: (f"latency >= {v}", lambda r, v=v: r["latency"] >= v)),
    st.integers(0, 500).map(lambda v: (f"latency < {v}", lambda r, v=v: r["latency"] < v)),
    st.tuples(st.integers(0, 550), st.integers(0, 100)).map(
        lambda lw: (
            f"ts BETWEEN '{ts_literal(lw[0])}' AND '{ts_literal(lw[0] + lw[1])}'",
            lambda r, lo=lw[0], w=lw[1]: BASE_TS + lo * MICROS <= r["ts"] <= BASE_TS + (lo + w) * MICROS,
        )
    ),
    st.booleans().map(
        lambda b: (f"fail = {'true' if b else 'false'}", lambda r, b=b: r["fail"] is b)
    ),
    st.sampled_from(["ok", "error", "took"]).map(
        lambda t: (f"MATCH(log, '{t}')", lambda r, t=t: t in r["log"].split())
    ),
    st.integers(0, 2).map(
        lambda i: (f"api != '/api/v{i}'", lambda r, i=i: r["api"] != f"/api/v{i}")
    ),
    st.integers(0, 2).map(
        lambda i: (
            f"api IN ('/api/v{i}', '/api/v{(i + 1) % 3}')",
            lambda r, i=i: r["api"] in (f"/api/v{i}", f"/api/v{(i + 1) % 3}"),
        )
    ),
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    clauses=st.lists(clause_strategy, min_size=1, max_size=4),
    connective=st.sampled_from(["AND", "OR"]),
)
def test_fuzzed_queries_match_brute_force(env, clauses, connective):
    rows, planner, executor = env
    sql_parts = [sql for sql, _fn in clauses]
    predicates = [fn for _sql, fn in clauses]
    joined = f" {connective} ".join(f"({part})" for part in sql_parts)
    sql = f"SELECT ts FROM request_log WHERE tenant_id = 1 AND ({joined})"
    plan = planner.plan(parse_sql(sql))
    got, _stats = executor.execute(plan)

    if connective == "AND":
        expected = [r for r in rows if all(fn(r) for fn in predicates)]
    else:
        expected = [r for r in rows if any(fn(r) for fn in predicates)]
    assert sorted(r["ts"] for r in got) == sorted(r["ts"] for r in expected)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(clause=clause_strategy)
def test_fuzzed_negation(env, clause):
    rows, planner, executor = env
    sql_part, predicate = clause
    sql = f"SELECT ts FROM request_log WHERE tenant_id = 1 AND NOT ({sql_part})"
    plan = planner.plan(parse_sql(sql))
    got, _stats = executor.execute(plan)
    expected = [r for r in rows if not predicate(r)]
    assert sorted(r["ts"] for r in got) == sorted(r["ts"] for r in expected)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    group_col=st.sampled_from(["ip", "api", "fail"]),
    agg=st.sampled_from(["COUNT(*)", "SUM(latency)", "MIN(latency)", "MAX(latency)", "AVG(latency)"]),
)
def test_fuzzed_aggregates(env, group_col, agg):
    rows, planner, executor = env
    sql = (
        f"SELECT {group_col}, {agg} FROM request_log "
        f"WHERE tenant_id = 1 GROUP BY {group_col}"
    )
    parsed = parse_sql(sql)
    aggregator, _stats = executor.execute_aggregate(planner.plan(parsed))
    assert aggregator.results() == fold(parsed, rows)
    got = {row[group_col]: row[agg] for row in aggregator.results()}

    groups: dict = {}
    for row in rows:
        groups.setdefault(row[group_col], []).append(row["latency"])
    for key, latencies in groups.items():
        if agg == "COUNT(*)":
            assert got[key] == len(latencies)
        elif agg == "SUM(latency)":
            assert got[key] == sum(latencies)
        elif agg == "MIN(latency)":
            assert got[key] == min(latencies)
        elif agg == "MAX(latency)":
            assert got[key] == max(latencies)
        else:
            assert got[key] == pytest.approx(sum(latencies) / len(latencies))
