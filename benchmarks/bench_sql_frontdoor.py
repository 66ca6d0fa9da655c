"""SQL front door: latest-version dedup vs naive window materialization.

The Dify-style workflow-log workload: every run's record is rewritten
(INSERT-as-UPDATE) as it moves queued → running → finished, and the
dashboard reads the *latest* row per run with the ROW_NUMBER window
idiom.  The semantic rewriter maps that idiom onto the
LatestVersionDedup operator, which scans only the narrow
``(run_id, version)`` columns and fetches the wide payload column for
winners alone — superseded versions never leave object storage.

This bench runs the same dashboard query as the broker plans it and as
the naive plan (the inner scan's every version through the store, then
ranked and filtered in Python) against an archived history whose wide trace payloads make the scan
bandwidth-bound (large LogBlocks over an OSS-like cost model), and
asserts:

* both plans return byte-identical rows;
* the rewritten plan prefetches >= 10x fewer bytes (full mode);
* the rewritten plan is >= 10x faster on the virtual clock (full mode).

Set ``BENCH_QUICK=1`` for the CI smoke variant: a smaller history over
the same machinery, where the per-request floor caps the speedup — it
asserts the same byte-identical property with relaxed (>= 2x) ratios.
The full run refreshes ``BENCH_frontdoor.json`` at the repo root.
"""

import hashlib
import json
import os

import pytest

from harness import emit

from repro.cluster.config import small_test_config
from repro.cluster.logstore import LogStore
from repro.oss.costmodel import OssCostModel
from repro.query.dedup import naive_scan_query, run_window_query
from repro.query.sql import parse_sql
from repro.rowstore.batch import RowBatch

QUICK = os.environ.get("BENCH_QUICK") == "1"
OUT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_frontdoor.json")

RUNS = 150 if QUICK else 500
VERSIONS = 8 if QUICK else 32
BATCH = 10  # rows per INSERT statement

DASHBOARD = (
    "SELECT run_id, status, trace FROM ("
    "SELECT *, ROW_NUMBER() OVER (PARTITION BY run_id ORDER BY version DESC) AS rn "
    "FROM workflow_runs) WHERE rn = 1 AND finished_at IS NOT NULL"
)


def trace_payload(seq: int) -> str:
    """~900 bytes of low-redundancy node-execution detail, so the trace
    column dominates LogBlock size the way real workflow traces do."""
    parts = []
    for i in range(14):
        digest = hashlib.sha256(f"trace:{seq}:{i}".encode()).hexdigest()
        parts.append(f"node-{i:02d} out={digest}")
    return " | ".join(parts)


@pytest.fixture(scope="module")
def loaded_store():
    """An archived workflow-run history, loaded through the front door.

    The cost model is bandwidth-bound (2 ms per request, 50 MB/s) and
    the builder packs the whole history into wide LogBlocks — the
    regime where full materialization pays for every byte it drags."""
    config = small_test_config(
        seal_rows=RUNS * VERSIONS,
        target_rows_per_logblock=RUNS * VERSIONS,
        oss_model=OssCostModel(
            request_latency_s=0.002,
            bandwidth_bytes_per_s=50e6,
            list_latency_s=0.004,
            concurrent_streams=32,
        ),
    )
    store = LogStore.create(config=config)
    session = store.connect(1, store.issue_token(1))
    session.execute(
        "CREATE TABLE workflow_runs ("
        "run_id STRING, status STRING, trace STRING, finished_at STRING, "
        "VERSION BY run_id)"
    )
    row_sql = "(?, ?, ?, ?)"
    insert = session.prepare(
        "INSERT INTO workflow_runs (run_id, status, trace, finished_at) VALUES "
        + ", ".join([row_sql] * BATCH)
    )
    params: list = []
    for seq in range(RUNS * VERSIONS):
        run = f"run-{seq % RUNS:04d}"
        final = seq // RUNS == VERSIONS - 1
        if final:
            status = "failed" if seq % 13 == 0 else "succeeded"
            finished = f"2020-11-11 01:{seq % 60:02d}"
        else:
            status = "queued" if seq < RUNS else "running"
            finished = None
        params += [run, status, trace_payload(seq), finished]
        if len(params) == BATCH * 4:
            insert.execute(params)
            params = []
    assert not params, "row count must be a multiple of the batch size"
    store.flush_all()
    return store, session


def run_naive(store, session):
    """The naive plan: ``(rows, the scan's result)`` of every version
    scanned, then the window ranked and filtered over that chunk."""
    store.cache.clear()  # both arms pay cold-cache I/O
    parsed = parse_sql(DASHBOARD)
    naive = store.query(naive_scan_query(parsed), tenant_scope=session.tenant_id)
    return run_window_query(parsed, RowBatch.from_dicts(naive.rows)), naive


def test_dashboard_rewrite_vs_naive(loaded_store, capsys):
    store, session = loaded_store
    store.cache.clear()
    fast = session.execute(DASHBOARD)
    rows, naive = run_naive(store, session)

    # Correctness first: the rewrite must never change the answer.
    assert fast.rows == rows
    assert repr(fast.rows) == repr(rows)
    assert len(fast.rows) == RUNS
    assert fast.plan.dedup is not None and "latest_by_key" in fast.plan.rewrites
    assert naive.plan.dedup is None and naive.plan.rewrites == []
    assert "latest_by_key" in session.explain(DASHBOARD)

    # The operator path touched every version but materialized winners only.
    assert fast.stats.dedup_candidates == RUNS * VERSIONS
    assert fast.stats.dedup_winners == RUNS

    byte_ratio = naive.bytes_fetched / max(1, fast.bytes_fetched)
    latency_ratio = naive.latency_s / max(1e-9, fast.latency_s)
    floor = 2.0 if QUICK else 10.0
    assert byte_ratio >= floor, (
        f"rewrite saved only {byte_ratio:.1f}x bytes "
        f"({naive.bytes_fetched} vs {fast.bytes_fetched}), need >= {floor}x"
    )
    assert latency_ratio >= floor, (
        f"rewrite saved only {latency_ratio:.1f}x latency "
        f"({naive.latency_s:.3f}s vs {fast.latency_s:.3f}s), need >= {floor}x"
    )

    headline = {
        "runs": RUNS,
        "versions_per_run": VERSIONS,
        "rows": RUNS * VERSIONS,
        "naive_bytes_fetched": naive.bytes_fetched,
        "rewrite_bytes_fetched": fast.bytes_fetched,
        "byte_ratio": round(byte_ratio, 2),
        "naive_latency_s": round(naive.latency_s, 4),
        "rewrite_latency_s": round(fast.latency_s, 4),
        "latency_ratio": round(latency_ratio, 2),
    }
    if not QUICK:
        with open(OUT_PATH, "w") as fh:
            json.dump(headline, fh, indent=2, sort_keys=True)
            fh.write("\n")

    mode = "quick" if QUICK else "full"
    emit(
        capsys,
        "",
        f"SQL front door — latest-version dedup vs naive window ({mode}: "
        f"{RUNS} runs x {VERSIONS} versions)",
        f"{'plan':<10} {'bytes fetched':>14} {'latency':>10} {'rows':>6}",
        f"{'naive':<10} {naive.bytes_fetched:>14,} {naive.latency_s:>9.3f}s "
        f"{len(rows):>6}",
        f"{'rewrite':<10} {fast.bytes_fetched:>14,} {fast.latency_s:>9.3f}s "
        f"{len(fast.rows):>6}",
        f"ratios: {byte_ratio:.1f}x fewer bytes, {latency_ratio:.1f}x faster "
        "(byte-identical rows)",
    )
