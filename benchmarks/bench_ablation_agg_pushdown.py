"""Ablation: the three-tier aggregate pushdown (catalog → SMA → columnar).

Runs the same aggregate workload under three plan configurations —
tier 3 only, tiers 2+3, tiers 1+2+3 — over the shared §6.3 corpus, and
checks the properties the fast path promises:

* results are *byte-identical* across every tier configuration;
* each added tier strictly reduces the bytes read from OSS and the
  virtual latency, and never raises prefetched bytes, with tier 1
  answering covered COUNT(*)/MIN(ts)/MAX(ts) queries from the LogBlock
  map at literally zero I/O.  (Prefetched bytes alone do not show tier
  1's saving: the SMAs tier 2 folds sit in the pack's head chunk, read
  when the pack is opened, not prefetched.)

An arm takes tiers away by clearing ``catalog_eligible`` /
``sma_eligible`` on each plan's ``AggPushdown``: a plan decision, not
an executor option.  Tier 3 — the columnar fold of the aggregated
columns — is what every aggregate falls through to.

Set ``BENCH_QUICK=1`` for the CI smoke variant (smaller corpus, same
assertions).
"""

import os
from dataclasses import replace

import pytest

from harness import BASE_TS, BUCKET, DATA_DURATION_S, build_dataset, emit, make_env

from repro.query.executor import ExecutionOptions
from repro.query.planner import format_timestamp
from repro.query.sql import parse_sql

MICROS = 1_000_000
QUICK = os.environ.get("BENCH_QUICK") == "1"

# Arm name → (catalog tier kept, SMA tier kept), fewest tiers first.
ARMS = {
    "tier 3 (columnar)": (False, False),
    "tiers 2+3 (+SMA)": (False, True),
    "tiers 1+2+3 (+catalog)": (True, True),
}


@pytest.fixture(scope="module")
def corpus():
    if QUICK:
        return build_dataset(n_tenants=20, total_rows=20_000)
    return build_dataset()


def workload(corpus) -> list[str]:
    """Aggregate queries over the corpus' largest tenants.

    Mixes the shapes each tier targets: fully time-covered catalog-only
    counts, full-match SMA folds (SUM/AVG), partially matched counts and
    a GROUP BY — so every tier transition has work to remove.
    """
    tenants = sorted(corpus.tenant_rows, key=corpus.tenant_rows.get, reverse=True)[:3]
    low = format_timestamp(BASE_TS)
    high = format_timestamp(BASE_TS + DATA_DURATION_S * MICROS)
    queries: list[str] = []
    for tenant in tenants:
        queries += [
            # tier 1: covered time range, catalog-only aggregates
            f"SELECT COUNT(*), MIN(ts), MAX(ts) FROM request_log "
            f"WHERE tenant_id = {tenant} AND ts BETWEEN '{low}' AND '{high}'",
            f"SELECT COUNT(*) FROM request_log WHERE tenant_id = {tenant}",
            # tier 2: full-match predicate, SUM/AVG need the v3 sums
            f"SELECT COUNT(*), SUM(latency), AVG(latency), MAX(latency) "
            f"FROM request_log WHERE tenant_id = {tenant} AND latency >= 1",
            # tier 3: partial match — COUNT(*) needs zero columns
            f"SELECT COUNT(*) FROM request_log "
            f"WHERE tenant_id = {tenant} AND latency BETWEEN 20 AND 60",
            f"SELECT ip, COUNT(*), AVG(latency) FROM request_log "
            f"WHERE tenant_id = {tenant} AND latency >= 40 GROUP BY ip",
        ]
    return queries


def run_arm(corpus, arm: str, queries: list[str]):
    catalog, sma = ARMS[arm]
    env = make_env(corpus, options=ExecutionOptions())
    results = []
    totals = {
        "oss_bytes": 0,
        "prefetch_bytes": 0,
        "prefetch_requests": 0,
        "blocks_visited": 0,
        "catalog_hits": 0,
        "sma_blocks": 0,
        "columnar_blocks": 0,
    }
    start = env.clock.now()
    for sql in queries:
        env.cache.clear()  # isolate per-query I/O from cross-query caching
        plan = env.planner.plan(parse_sql(sql))
        pushdown = plan.agg_pushdown
        plan.agg_pushdown = replace(
            pushdown,
            catalog_eligible=pushdown.catalog_eligible and catalog,
            sma_eligible=pushdown.sma_eligible and sma,
        )
        read_before = env.store.stats.bytes_read
        aggregator, stats = env.executor.execute_aggregate(plan)
        results.append(aggregator.results())
        totals["oss_bytes"] += env.store.stats.bytes_read - read_before
        totals["prefetch_bytes"] += stats.prefetch_bytes
        totals["prefetch_requests"] += stats.prefetch_requests
        totals["blocks_visited"] += stats.blocks_visited
        totals["catalog_hits"] += stats.pushdown.agg_catalog_hits
        totals["sma_blocks"] += stats.pushdown.agg_sma_blocks
        totals["columnar_blocks"] += stats.pushdown.agg_columnar_blocks
    totals["latency_s"] = env.clock.now() - start
    return results, totals


def test_agg_pushdown_ablation(corpus, capsys):
    queries = workload(corpus)
    arms = {arm: run_arm(corpus, arm, queries) for arm in ARMS}
    names = list(ARMS)

    # Correctness: every tier configuration returns identical results.
    baseline_results = arms[names[0]][0]
    for arm in names[1:]:
        assert arms[arm][0] == baseline_results, f"{arm} changed query results"

    # Each tier strictly removes I/O from this workload ...
    byte_series = [arms[arm][1]["oss_bytes"] for arm in names]
    for prev_arm, next_arm, prev_bytes, next_bytes in zip(
        names, names[1:], byte_series, byte_series[1:]
    ):
        assert next_bytes < prev_bytes, (
            f"{next_arm} did not reduce OSS bytes over {prev_arm} "
            f"({next_bytes} >= {prev_bytes})"
        )
        assert arms[next_arm][1]["prefetch_bytes"] <= arms[prev_arm][1]["prefetch_bytes"]

    # ... and each tier must also be strictly faster on the virtual clock.
    latency_series = [arms[arm][1]["latency_s"] for arm in names]
    for next_arm, prev_latency, next_latency in zip(
        names[1:], latency_series, latency_series[1:]
    ):
        assert next_latency < prev_latency, (
            f"{next_arm} did not reduce virtual latency "
            f"({next_latency} >= {prev_latency})"
        )

    lines = [
        "",
        "Ablation — three-tier aggregate pushdown "
        f"({len(queries)} queries, {corpus.n_blocks} LogBlocks"
        f"{', quick' if QUICK else ''})",
        f"{'configuration':<26} {'OSS MB':>9} {'pref MB':>9} {'reqs':>6} {'blocks':>7} "
        f"{'cat/sma/col':>16} {'latency':>9}",
    ]
    for arm in names:
        totals = arms[arm][1]
        tiers = f"{totals['catalog_hits']}/{totals['sma_blocks']}/{totals['columnar_blocks']}"
        lines.append(
            f"{arm:<26} {totals['oss_bytes'] / 1e6:>9.3f} "
            f"{totals['prefetch_bytes'] / 1e6:>9.3f} "
            f"{totals['prefetch_requests']:>6} {totals['blocks_visited']:>7} "
            f"{tiers:>16} {totals['latency_s']:>8.3f}s"
        )
    emit(capsys, *lines)


def test_tier1_is_free(corpus, capsys):
    """Covered COUNT(*) queries cost zero requests and zero bytes."""
    tenant = max(corpus.tenant_rows, key=corpus.tenant_rows.get)
    env = make_env(corpus, options=ExecutionOptions())
    plan = env.planner.plan(
        parse_sql(f"SELECT COUNT(*) FROM request_log WHERE tenant_id = {tenant}")
    )
    gets_before = env.store.stats.get_requests
    start = env.clock.now()
    aggregator, stats = env.executor.execute_aggregate(plan)
    assert aggregator.results() == [{"COUNT(*)": corpus.tenant_rows[tenant]}]
    assert env.store.stats.get_requests == gets_before
    assert stats.prefetch_requests == 0
    assert stats.prefetch_bytes == 0
    assert stats.blocks_visited == 0
    emit(
        capsys,
        "",
        f"tier 1: COUNT(*) over tenant {tenant} "
        f"({corpus.tenant_rows[tenant]} rows, {stats.pushdown.agg_catalog_hits} "
        f"LogBlocks) answered in {env.clock.now() - start:.6f}s virtual time "
        "with 0 GETs / 0 bytes",
    )
