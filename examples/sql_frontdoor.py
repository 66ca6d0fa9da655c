#!/usr/bin/env python3
"""SQL front door: sessions, versioned tables, and the semantic rewriter.

Models the workload that motivated LogBase-style "log as database"
usage: an LLM-app platform (think Dify) logs every workflow run, and
each run's record is *updated* as it progresses — queued, running,
then succeeded or failed.  On an append-only log store an update is
just another INSERT with a greater version, and the dashboard query
"current state of every run" keeps only the newest row per run_id.

The walk-through:

1. connect an authenticated, tenant-scoped session;
2. CREATE TABLE ... VERSION BY run_id (INSERT-as-UPDATE semantics);
3. stream status transitions through prepared statements;
4. read the live dashboard with the ROW_NUMBER window idiom, and watch
   the semantic rewriter turn it into a latest-version dedup plan that
   fetches a fraction of the bytes the naive plan reads.

Run:  python examples/sql_frontdoor.py
"""

from repro import LogStore, small_test_config
from repro.query.dedup import naive_scan_query, run_window_query
from repro.query.sql import parse_sql
from repro.rowstore.batch import RowBatch

import hashlib

DASHBOARD = (
    "SELECT run_id, status, trace FROM ("
    "    SELECT *, ROW_NUMBER() OVER ("
    "        PARTITION BY run_id ORDER BY version DESC) AS rn"
    "    FROM workflow_runs"
    ") WHERE rn = 1 AND finished_at IS NOT NULL"
)


def trace_payload(seq: int) -> str:
    """A Dify-style node-execution trace: a few hundred bytes of
    low-redundancy detail per status transition."""
    digest = hashlib.sha256(f"trace:{seq}".encode()).hexdigest()
    return " ".join(f"node-{i}:{digest[i * 4:(i + 1) * 4]}" for i in range(16))


def main() -> None:
    store = LogStore.create(config=small_test_config())

    # -- 1. authenticate ----------------------------------------------------
    token = store.issue_token(1)
    session = store.connect(1, token)
    print(f"connected tenant 1 with token {token[:8]}...\n")

    # -- 2. versioned DDL ---------------------------------------------------
    schema = session.execute(
        "CREATE TABLE workflow_runs ("
        "    run_id STRING, app STRING, status STRING, trace STRING,"
        "    finished_at STRING, VERSION BY run_id)"
    )
    print(f"created {schema.name!r} with columns {schema.column_names()}")
    print("  (tenant_id/ts/version are system-managed)\n")

    # -- 3. INSERT-as-UPDATE ------------------------------------------------
    update = session.prepare(
        "INSERT INTO workflow_runs (run_id, app, status, trace, finished_at) "
        "VALUES (?, ?, ?, ?, ?)"
    )
    apps = ["chatbot", "rag-search", "summarizer"]
    runs, phases = 150, 12  # each run's record is rewritten 12 times
    for seq in range(runs * phases):
        run = f"run-{seq % runs:04d}"
        app = apps[seq % len(apps)]
        phase = seq // runs
        if phase < phases - 1:
            status = "queued" if phase == 0 else "running"
            update.execute((run, app, status, trace_payload(seq), None))
        else:
            status = "failed" if seq % 11 == 0 else "succeeded"
            update.execute((run, app, status, trace_payload(seq),
                            f"2020-11-11 00:{seq % 60:02d}"))
    store.flush_all()  # archive the history to (simulated) OSS
    print(f"streamed {runs * phases} status transitions across {runs} runs; "
          "archived to OSS\n")

    # -- 4. the dashboard query --------------------------------------------
    print("EXPLAIN of the dashboard query:")
    for line in session.explain(DASHBOARD).splitlines():
        print(f"  {line}")
    print()

    result = session.execute(DASHBOARD)
    failed = sum(1 for row in result.rows if row["status"] == "failed")
    print(
        f"dashboard: {len(result.rows)} finished runs "
        f"({failed} failed), latest state only"
    )
    print(f"  rewritten plan: {result.bytes_fetched:,} bytes fetched, "
          f"{result.latency_s * 1000:.1f} ms virtual latency")

    # Same query, naive window materialization: every version of every
    # column scanned, then ranked and filtered in Python.
    store.cache.clear()
    parsed = parse_sql(DASHBOARD)
    naive = store.query(naive_scan_query(parsed), tenant_scope=1)
    rows = run_window_query(parsed, RowBatch.from_dicts(naive.rows))
    print(f"  naive plan:     {naive.bytes_fetched:,} bytes fetched, "
          f"{naive.latency_s * 1000:.1f} ms virtual latency")
    assert rows == result.rows, "both plans must agree byte for byte"
    print(f"  identical rows; {naive.bytes_fetched / max(1, result.bytes_fetched):.1f}x "
          "fewer bytes with the semantic rewrite")


if __name__ == "__main__":
    main()
