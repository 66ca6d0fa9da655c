"""Differential tests: the dedup operator vs naive window materialization.

The whole point of the ``latest_by_key`` rewrite is that it changes the
*plan*, never the *answer*.  These tests run the same queries as the
broker plans them (LatestVersionDedup over narrow columns) and as the
naive plan (``tests.oracle.naive_window_query``: full materialization +
ROW_NUMBER ranking) and require byte-identical
rows — across archived blocks, realtime memtables, version ties, null
versions, post-filters, and aggregation over winners.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.config import small_test_config
from repro.cluster.logstore import LogStore
from repro.query.dedup import LatestVersionDedup, apply_window
from repro.query.sql import WindowFunc, parse_sql
from repro.rowstore.batch import RowBatch

from tests.oracle import naive_window_query

# -- pure-function differential: operator vs window ranking ---------------


def window_dedup_rows(rows: list[dict], key_column: str, version_column: str) -> list[dict]:
    """The operator's tournament over dict rows, in stream order."""
    dedup = LatestVersionDedup()
    for row in rows:
        dedup.offer(row.get(key_column), row.get(version_column), row)
    return [entry.payload for entry in dedup.winners()]


@settings(max_examples=300, deadline=None)
@given(
    triples=st.lists(
        st.tuples(
            st.integers(0, 5),  # key
            st.one_of(st.none(), st.integers(0, 4)),  # version (ties, nulls)
        ),
        max_size=40,
    )
)
def test_operator_matches_window_rank_one(triples):
    rows = [
        {"k": key, "v": version, "seq": seq}
        for seq, (key, version) in enumerate(triples)
    ]
    window = WindowFunc(partition_by="k", order_by="v", order_desc=True, alias="rn")
    ranked = apply_window(RowBatch.from_dicts(rows), window).to_dicts()
    naive = [dict(row) for row in ranked if row["rn"] == 1]
    for row in naive:
        row.pop("rn")
    # The naive path keeps original stream order; winners() orders by
    # the winning offer's stream position — identical by construction.
    assert window_dedup_rows(rows, "k", "v") == naive


def test_tie_goes_to_the_later_arrival():
    dedup = LatestVersionDedup()
    dedup.offer("k", 3, "first")
    dedup.offer("k", 3, "second")
    assert [entry.payload for entry in dedup.winners()] == ["second"]


def test_null_version_loses_to_any_value():
    dedup = LatestVersionDedup()
    dedup.offer("k", None, "null-later")
    dedup.offer("k", 0, "zero")
    dedup.offer("k", None, "null-again")
    assert [entry.payload for entry in dedup.winners()] == ["zero"]


def test_all_null_versions_keep_last_write():
    assert window_dedup_rows(
        [{"k": 1, "v": None, "tag": "a"}, {"k": 1, "v": None, "tag": "b"}], "k", "v"
    ) == [{"k": 1, "v": None, "tag": "b"}]


# -- full-stack differential: rewrite on vs off ---------------------------

CREATE = (
    "CREATE TABLE workflow_runs ("
    "run_id STRING, status STRING, elapsed INT64, finished_at STRING, "
    "VERSION BY run_id)"
)

QUERIES = [
    # plain latest
    "SELECT run_id, status FROM ("
    "SELECT *, ROW_NUMBER() OVER (PARTITION BY run_id ORDER BY version DESC) AS rn "
    "FROM workflow_runs) WHERE rn = 1",
    # post-filter on winners (must not resurrect older versions)
    "SELECT run_id, status FROM ("
    "SELECT *, ROW_NUMBER() OVER (PARTITION BY run_id ORDER BY version DESC) AS rn "
    "FROM workflow_runs) WHERE rn = 1 AND status = 'succeeded'",
    # IS NOT NULL post-filter (exercises notnull_pushdown too)
    "SELECT run_id, finished_at FROM ("
    "SELECT *, ROW_NUMBER() OVER (PARTITION BY run_id ORDER BY version DESC) AS rn "
    "FROM workflow_runs) WHERE rn = 1 AND finished_at IS NOT NULL",
    # inner predicate pushed to the scan
    "SELECT run_id, elapsed FROM ("
    "SELECT *, ROW_NUMBER() OVER (PARTITION BY run_id ORDER BY version DESC) AS rn "
    "FROM workflow_runs WHERE elapsed >= 10) WHERE rn = 1",
    # aggregate over winners
    "SELECT status, COUNT(*) FROM ("
    "SELECT *, ROW_NUMBER() OVER (PARTITION BY run_id ORDER BY version DESC) AS rn "
    "FROM workflow_runs) WHERE rn = 1 GROUP BY status",
    # order/limit over winners
    "SELECT run_id, elapsed FROM ("
    "SELECT *, ROW_NUMBER() OVER (PARTITION BY run_id ORDER BY version DESC) AS rn "
    "FROM workflow_runs) WHERE rn = 1 ORDER BY elapsed DESC LIMIT 5",
]


def _populate(store: LogStore, archive_midway: bool, updates: int = 120) -> None:
    session = store.connect(1, store.issue_token(1))
    update = session.prepare(
        "INSERT INTO workflow_runs (run_id, status, elapsed, finished_at) "
        "VALUES (?, ?, ?, ?)"
    )
    statuses = ["running", "running", "succeeded", "failed"]
    for seq in range(updates):
        run = f"run-{seq % 17}"
        status = statuses[seq % len(statuses)]
        finished = f"2020-11-11 00:{seq % 60:02d}" if status != "running" else None
        update.execute((run, status, (seq * 13) % 40, finished))
        if archive_midway and seq == 60:
            store.flush_all()
    # Version ties: explicit duplicate versions; the later write wins.
    tie = session.prepare(
        "INSERT INTO workflow_runs (run_id, status, elapsed, version) "
        "VALUES (?, ?, ?, ?)"
    )
    tie.execute(("run-3", "tied-first", 1, 10**15))
    tie.execute(("run-3", "tied-second", 2, 10**15))


def _run_both_ways(store: LogStore, sql: str):
    """The query as planned, and ``(rows, scan result)`` of its naive plan."""
    store.cache.clear()
    fast = store.query(sql, tenant_scope=1)
    store.cache.clear()
    return fast, naive_window_query(store, sql, tenant_scope=1)


@pytest.fixture(scope="module", params=["realtime", "archived", "mixed"])
def loaded_store(request):
    store = LogStore.create(config=small_test_config())
    store.create_table(CREATE)
    _populate(store, archive_midway=request.param == "mixed")
    if request.param == "archived":
        store.flush_all()
    return store


@pytest.mark.parametrize("sql", QUERIES)
def test_rewrite_and_naive_paths_are_byte_identical(loaded_store, sql):
    fast, (naive, _) = _run_both_ways(loaded_store, sql)
    assert fast.rows == naive
    assert repr(fast.rows) == repr(naive)
    assert fast.plan.dedup is not None
    assert "latest_by_key" in fast.plan.rewrites


def test_tied_versions_resolve_to_last_write(loaded_store):
    fast, (naive, _) = _run_both_ways(
        loaded_store,
        "SELECT status FROM ("
        "SELECT *, ROW_NUMBER() OVER (PARTITION BY run_id ORDER BY version DESC) AS rn "
        "FROM workflow_runs) WHERE rn = 1 AND run_id = 'run-3'",
    )
    assert fast.rows == naive == [{"status": "tied-second"}]


def test_rewrite_fetches_fewer_bytes_on_archived_data():
    store = LogStore.create(config=small_test_config(seal_rows=4_000))
    store.create_table(CREATE)
    # Enough versions in one LogBlock that it outgrows the 8 KiB head
    # read (a smaller one arrives whole, whatever the query reads of it).
    _populate(store, archive_midway=False, updates=4000)
    store.flush_all()
    sql = QUERIES[0]
    fast, (naive, scan) = _run_both_ways(store, sql)
    assert fast.rows == naive
    assert fast.bytes_fetched < scan.bytes_fetched


def test_unrewritable_window_still_matches_naive(loaded_store):
    # rn = 2 ("previous version") cannot take the dedup operator: the
    # broker runs the same full materialization as the naive plan.
    sql = (
        "SELECT run_id, status FROM ("
        "SELECT *, ROW_NUMBER() OVER (PARTITION BY run_id ORDER BY version DESC) AS rn "
        "FROM workflow_runs) WHERE rn = 2"
    )
    fast, (naive, _) = _run_both_ways(loaded_store, sql)
    assert fast.rows == naive
    assert fast.plan.dedup is None


def test_ascending_window_is_not_rewritten():
    parsed = parse_sql(
        "SELECT run_id FROM ("
        "SELECT *, ROW_NUMBER() OVER (PARTITION BY run_id ORDER BY version) AS rn "
        "FROM workflow_runs) WHERE rn = 1"
    )
    from repro.frontdoor.rewrite import SemanticRewriter

    _, applied = SemanticRewriter().rewrite(parsed)
    assert "latest_by_key" not in applied
