"""Guard: the write path builds no row dicts.

Every dict the system makes out of un-archived rows goes through
``RowBatch.iter_dicts``, which counts them.  The count must not move from
``put`` through seal, archive and checkpoint, nor across a SQL INSERT
whose result rows nobody reads; it moves only for a reader: the rows of
an ``InsertResult``, or the survivors of a realtime SELECT.  A query
builds dicts for its result rows only: no operator — aggregate fold,
dedup tournament, window ranking, ``_system`` filter — takes dicts.
"""

import repro.query.kernels
import repro.rowstore.batch
from repro import LogStore, small_test_config
from repro.rowstore import MemTable, RowBatch

from tests.conftest import make_rows
from tests.oracle import naive_window_query

INSERT = "INSERT INTO request_log (ts, ip, api, latency, fail, log) VALUES " + ", ".join(
    ["(?, ?, ?, ?, ?, ?)"] * 4
)


def params(seed: int) -> tuple:
    rows = make_rows(4, tenant_id=1, seed=seed)
    return tuple(row[c] for row in rows for c in ("ts", "ip", "api", "latency", "fail", "log"))


class DictsBuilt:
    """``with DictsBuilt() as built: ...; built.count`` — the delta."""

    def __enter__(self):
        self._before = RowBatch.dicts_built
        return self

    def __exit__(self, *exc):
        self.count = RowBatch.dicts_built - self._before


def test_put_seal_archive_checkpoint_build_no_dicts():
    for use_raft in (False, True):
        store = LogStore.create(config=small_test_config(use_raft=use_raft, seal_rows=150))
        with DictsBuilt() as built:
            for seed in range(4):
                store.put(1 + seed % 2, make_rows(100, tenant_id=1 + seed % 2, seed=seed))
            store.run_background_tasks()  # archives the threshold-sealed tables
            store.checkpoint_all()
            assert store.flush_all().rows_archived > 0
            store.checkpoint_all()
        assert built.count == 0 and store.pending_rows() == 0


def test_sql_insert_builds_dicts_only_when_its_rows_are_read():
    store = LogStore.create(config=small_test_config())
    session = store.connect(1, store.issue_token(1))
    with DictsBuilt() as built:
        session.execute(INSERT, params(0))  # cold: parsed text
        result = session.execute(INSERT, params(1))  # cached: parameters sliced into columns
        assert INSERT in store.sessions.statements and result.rows_inserted == 4
    assert built.count == 0
    with DictsBuilt() as built:
        assert [row["tenant_id"] for row in result.rows] == [1] * 4
        assert session.last_insert_rows == result.rows
    assert built.count == 12


def test_realtime_select_builds_dicts_for_survivors_only():
    store = LogStore.create(config=small_test_config())
    store.put(1, make_rows(200, tenant_id=1))
    with DictsBuilt() as built:
        result = store.query("SELECT log FROM request_log WHERE tenant_id = 1 AND latency >= 400")
    assert result.realtime_rows == len(result.rows) == built.count
    assert 0 < built.count < 200


def test_match_limit_scan_builds_dicts_for_the_returned_rows_only():
    store = LogStore.create(config=small_test_config())
    store.put(1, make_rows(200, tenant_id=1))
    with DictsBuilt() as built:
        result = store.query(
            "SELECT log FROM request_log WHERE tenant_id = 1 AND MATCH(log, 'GET') LIMIT 3"
        )
    assert len(result.rows) == 3
    assert built.count == 3  # MATCH reads the log column, not row dicts


def test_archived_top_k_builds_a_dict_per_returned_row_only():
    store = LogStore.create(config=small_test_config())
    store.put(1, make_rows(1500, tenant_id=1))
    store.flush_all()
    sql = "SELECT ts, latency FROM request_log WHERE tenant_id = 1 ORDER BY latency DESC LIMIT 10"
    with DictsBuilt() as built:
        result = store.query(sql)
    assert result.archived_rows == 1500 and result.realtime_rows == 0
    assert len(result.rows) == built.count == result.stats.rows_materialized == 10
    assert [row["latency"] for row in result.rows] == sorted(
        (row["latency"] for row in make_rows(1500, tenant_id=1)), reverse=True
    )[:10]
    assert "rows materialized: 10 of 1500 matched" in store.explain_analyze(sql)


def test_archived_group_by_builds_only_its_result_rows():
    store = LogStore.create(config=small_test_config())
    store.put(1, make_rows(1500, tenant_id=1))
    store.flush_all()
    with DictsBuilt() as built:
        result = store.query(
            "SELECT api, COUNT(*), AVG(latency) FROM request_log "
            "WHERE tenant_id = 1 AND latency >= 100 GROUP BY api"
        )
    assert result.stats.pushdown.agg_columnar_blocks > 0 and result.archived_rows > 1000
    # The three result rows are the aggregator's; no matched row became a dict.
    assert len(result.rows) == 3 and built.count == result.stats.rows_materialized == 0


def test_realtime_group_by_builds_only_its_result_rows():
    store = LogStore.create(config=small_test_config())
    store.put(1, make_rows(40, tenant_id=1))
    with DictsBuilt() as built:
        result = store.query(
            "SELECT api, COUNT(*), AVG(latency) FROM request_log WHERE tenant_id = 1 GROUP BY api"
        )
    assert result.realtime_rows == 40 and result.archived_rows == 0
    assert len(result.rows) == 3 and built.count == result.stats.rows_materialized == 0


LATEST = (
    "SELECT run_id, status FROM (SELECT *, ROW_NUMBER() OVER (PARTITION BY run_id "
    "ORDER BY version DESC) AS rn FROM runs) WHERE rn = 1"
)


def test_dedup_and_window_queries_build_dicts_for_their_result_rows_only():
    store = LogStore.create(config=small_test_config())
    store.create_table("CREATE TABLE runs (run_id STRING, status STRING, VERSION BY run_id)")
    insert = store.connect(1, store.issue_token(1)).prepare(
        "INSERT INTO runs (run_id, status) VALUES (?, ?)"
    )
    for seq in range(30):
        insert.execute((f"run-{seq % 4}", f"s{seq}"))
        if seq == 20:
            store.flush_all()  # winners and losers both archived and realtime
    naive, _ = naive_window_query(store, LATEST, tenant_scope=1)
    # ``rn <= 1`` means ``rn = 1`` but takes no rewrite: the window path.
    for sql, rewritten in ((LATEST, True), (LATEST.replace("rn = 1", "rn <= 1"), False)):
        with DictsBuilt() as built:
            result = store.query(sql, tenant_scope=1)
        assert ("latest_by_key" in result.plan.rewrites) == rewritten
        assert len(result.rows) == 4 and built.count == result.stats.rows_materialized == 4
        assert {row["run_id"]: row["status"] for row in result.rows}["run-3"] == "s27"
        assert result.rows == naive


def test_system_table_query_builds_only_its_result_rows():
    store = LogStore.create(config=small_test_config())
    store.put(1, make_rows(20, tenant_id=1))
    for _ in range(3):
        store.query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 1")
    with DictsBuilt() as built:
        result = store.query(
            "SELECT name, value FROM _system.metrics "
            "WHERE kind = 'counter' ORDER BY value DESC LIMIT 2"
        )
    assert len(result.rows) == 2 and built.count == 2


def test_the_row_dict_forms_are_gone():
    assert not hasattr(repro.query.kernels, "RowListBatch")
    assert not hasattr(repro.query.kernels, "filter_rows")
    assert not hasattr(repro.rowstore.batch, "_admit_rows")
    assert not hasattr(repro.rowstore.batch, "_row_nbytes")
    assert not hasattr(MemTable, "_view")
