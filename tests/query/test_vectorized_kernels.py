"""Differential tests: vectorized kernels ≡ interpreted ``evaluate_row``.

The vectorized scan layer is only allowed to be *fast* — never
*different*.  These tests pin byte-identical results between the
columnar kernels (:mod:`repro.query.kernels`) and the per-row
interpreter across every predicate shape (eq/range/IN/null/AND/OR/NOT),
null-heavy and empty batches, type edges (bools in INT64 columns, huge
ints, mixed types), realtime vs archived vs mixed data placement, the
argsort ORDER BY/LIMIT kernel, and the forced-fallback shapes
(MATCH / LIKE / mixed-type columns) that must take the interpreted path.
"""

import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.config import small_test_config
from repro.cluster.logstore import LogStore
from repro.logblock.schema import ColumnSpec, ColumnType, IndexType, TableSchema
from repro.query.aggregate import apply_order_limit
from repro.query.ast import (
    And,
    Between,
    CmpOp,
    Comparison,
    In,
    IsNull,
    Like,
    Match,
    Not,
    NotNull,
    Or,
)
from repro.query.executor import ExecutionStats, filter_realtime_rows
from repro.query.kernels import (
    VectorizeFallback,
    classify_expr,
    compile_expr,
    top_k_order,
)
from repro.query.sql import parse_sql
from repro.rowstore import RowBatch

from tests.conftest import make_rows

SCHEMA = TableSchema(
    name="t",
    columns=(
        ColumnSpec("i", ColumnType.INT64, IndexType.NONE),
        ColumnSpec("ts", ColumnType.TIMESTAMP, IndexType.NONE),
        ColumnSpec("f", ColumnType.FLOAT64, IndexType.NONE),
        ColumnSpec("b", ColumnType.BOOL, IndexType.NONE),
        ColumnSpec("s", ColumnType.STRING, IndexType.NONE),
    ),
)



def evaluate(expr, rows):
    """The compiled kernel's mask over ``rows`` as an (unadmitted)
    column batch: one value list per schema column, missing keys null."""
    names = tuple(SCHEMA.column_names())
    columns = [[row.get(name) for row in rows] for name in names]
    return compile_expr(expr).evaluate(RowBatch(names, columns), SCHEMA)


_INTS = st.integers(min_value=-(2**40), max_value=2**40)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False, width=32)
_STRINGS = st.sampled_from(["", "a", "ab", "abc", "b", "zz", "192.168.0.1"])

_VALUE_FOR = {
    "i": _INTS,
    "ts": st.integers(min_value=0, max_value=2**40),
    "f": _FLOATS,
    "b": st.booleans(),
    "s": _STRINGS,
}


def _maybe_null(strategy):
    return st.one_of(st.none(), strategy)


ROWS = st.lists(
    st.fixed_dictionaries(
        {column: _maybe_null(_VALUE_FOR[column]) for column in _VALUE_FOR}
    ),
    min_size=0,
    max_size=40,
)


def _leaf(column):
    value = _VALUE_FOR[column]
    ops = st.sampled_from(list(CmpOp))
    return st.one_of(
        st.builds(Comparison, st.just(column), ops, value),
        st.builds(
            Between,
            st.just(column),
            value,
            value,
        ),
        st.builds(
            In,
            st.just(column),
            st.lists(value, min_size=0, max_size=4).map(tuple),
        ),
        st.builds(IsNull, st.just(column)),
        st.builds(NotNull, st.just(column)),
    )


LEAVES = st.sampled_from(list(_VALUE_FOR)).flatmap(_leaf)

EXPRS = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.builds(lambda cs: And(tuple(cs)), st.lists(children, min_size=1, max_size=3)),
        st.builds(lambda cs: Or(tuple(cs)), st.lists(children, min_size=1, max_size=3)),
        st.builds(Not, children),
    ),
    max_leaves=8,
)


class TestKernelDifferential:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(rows=ROWS, expr=EXPRS)
    def test_mask_equals_evaluate_row(self, rows, expr):
        """Every predicate shape, nulls included, over a row batch."""
        mask = evaluate(expr, rows)
        expected = [bool(expr.evaluate_row(row)) for row in rows]
        assert mask.dtype == bool and len(mask) == len(rows)
        assert mask.tolist() == expected

    def test_empty_batch(self):
        expr = Comparison("i", CmpOp.GE, 5)
        mask = evaluate(expr, [])
        assert mask.tolist() == []

    def test_missing_keys_read_as_null(self):
        rows = [{}, {"i": 3}]
        assert evaluate(Comparison("i", CmpOp.GE, 1), rows).tolist() == [False, True]
        assert evaluate(IsNull("i"), rows).tolist() == [True, False]

    def test_not_matches_null_rows(self):
        """Boolean (not SQL 3-valued) semantics: NOT(eq) matches nulls."""
        rows = [{"s": None}, {"s": "x"}, {"s": "y"}]
        expr = Not(Comparison("s", CmpOp.EQ, "x"))
        mask = evaluate(expr, rows)
        assert mask.tolist() == [expr.evaluate_row(r) for r in rows] == [True, False, True]

    def test_string_kernels_on_object_arrays(self):
        rows = [{"s": v} for v in ["abc", None, "b", "", "ab"]]
        for expr in (
            Comparison("s", CmpOp.GE, "ab"),
            In("s", ("abc", "")),
            Comparison("s", CmpOp.NE, "b"),
        ):
            mask = evaluate(expr, rows)
            assert mask.tolist() == [expr.evaluate_row(r) for r in rows]

    def test_empty_in_matches_nothing(self):
        rows = [{"i": 1}, {"i": None}]
        mask = evaluate(In("i", ()), rows)
        assert mask.tolist() == [False, False]


class TestForcedFallbacks:
    def test_match_has_no_kernel(self):
        with pytest.raises(VectorizeFallback) as excinfo:
            compile_expr(Match("s", "hello world"))
        assert "no vector kernel" in excinfo.value.reason

    def test_like_prefix_has_no_kernel(self):
        with pytest.raises(VectorizeFallback):
            compile_expr(Like("s", "192.168."))

    def test_mixed_type_column_falls_back(self):
        rows = [{"i": 1}, {"i": "oops"}]
        with pytest.raises(VectorizeFallback) as excinfo:
            evaluate(Comparison("i", CmpOp.GE, 0), rows)
        assert "mixed-type" in excinfo.value.reason

    def test_bool_in_int_column_falls_back(self):
        rows = [{"i": True}]
        with pytest.raises(VectorizeFallback):
            evaluate(Comparison("i", CmpOp.GE, 0), rows)

    def test_int_beyond_int64_falls_back(self):
        rows = [{"i": 2**70}]
        with pytest.raises(VectorizeFallback):
            evaluate(Comparison("i", CmpOp.GE, 0), rows)

    def test_fallback_still_byte_identical_through_filter(self):
        """filter_realtime_rows: fallback shape ≡ the per-row oracle."""
        rows = make_rows(50, tenant_id=1)
        rows[7]["log"] = None
        store = _seeded_store()
        plan = store.brokers[0]._planner.plan(
            parse_sql(
                "SELECT log FROM request_log WHERE tenant_id = 1 AND MATCH(log, 'GET')"
            )
        )
        stats = ExecutionStats()
        got = filter_realtime_rows(rows=iter(rows), plan=plan, stats=stats).to_dicts()
        assert got == [{"log": row["log"]} for row in rows if plan.where.evaluate_row(row)]
        assert stats.realtime_rows_vectorized == 0
        assert stats.realtime_rows_interpreted == len(rows)
        assert any("no vector kernel" in r for r in stats.realtime_fallbacks)


class TestRealtimeFilterParity:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(min_value=0, max_value=50),
        limit=st.one_of(st.none(), st.integers(min_value=1, max_value=30)),
    )
    def test_filter_matches_the_per_row_oracle(self, seed, limit):
        rows = make_rows(40, tenant_id=1, seed=seed)
        for i in range(0, 40, 7):
            rows[i]["latency"] = None  # nulls in the predicate column
        store = _seeded_store()
        plan = store.brokers[0]._planner.plan(
            parse_sql(
                "SELECT ts, log FROM request_log "
                "WHERE tenant_id = 1 AND (latency >= 250 OR fail = 'true')"
            )
        )
        stats = ExecutionStats()
        got = filter_realtime_rows(plan, iter(rows), limit=limit, stats=stats).to_dicts()
        oracle = [
            {"ts": row["ts"], "log": row["log"]}
            for row in rows
            if plan.where.evaluate_row(row)
        ][:limit]
        assert json.dumps(got, sort_keys=True) == json.dumps(oracle, sort_keys=True)
        assert stats.realtime_rows_vectorized == len(rows)
        assert stats.realtime_rows_interpreted == 0


_STORE_CACHE = {}


def _seeded_store() -> LogStore:
    """One archived+realtime cluster, shared across tests (read-only)."""
    if "store" not in _STORE_CACHE:
        store = LogStore.create(config=small_test_config())
        archived = make_rows(600, tenant_id=1)
        realtime = make_rows(80, tenant_id=1, seed=3, start_ts=1_605_056_400_000_000)
        store.put(1, archived)
        store.put(2, make_rows(200, tenant_id=2, seed=7))
        store.flush_all()
        store.put(1, realtime)
        _STORE_CACHE["store"] = store
        _STORE_CACHE["tenant1_rows"] = archived + realtime
    return _STORE_CACHE["store"]


MIXED_QUERIES = [
    "SELECT * FROM request_log WHERE tenant_id = 1 AND latency >= 250",
    "SELECT ts, log FROM request_log WHERE tenant_id = 1 AND fail = 'true'",
    "SELECT ts FROM request_log WHERE tenant_id = 1 AND latency BETWEEN 100 AND 300",
    "SELECT ip, latency FROM request_log WHERE tenant_id = 1 AND ip = '192.168.0.3'",
    "SELECT ts FROM request_log WHERE tenant_id = 1 AND api IN ('/api/v0', '/api/v2')",
    "SELECT ts FROM request_log WHERE tenant_id = 1 AND MATCH(log, 'GET')",
    "SELECT ts FROM request_log WHERE tenant_id = 1 AND ip LIKE '192.168.0.%'",
    "SELECT ts, latency FROM request_log WHERE tenant_id = 1 "
    "AND latency >= 50 ORDER BY latency DESC LIMIT 17",
    "SELECT ts, latency FROM request_log WHERE tenant_id = 1 ORDER BY latency LIMIT 9",
    "SELECT ts FROM request_log WHERE tenant_id = 1 AND latency >= 490 LIMIT 3",
]


class TestMixedPlacementParity:
    """Archived + realtime data against the per-row interpreter and
    python ``sorted``, called directly."""

    @pytest.mark.parametrize("sql", MIXED_QUERIES)
    def test_queries_match_the_row_oracle(self, sql):
        store = _seeded_store()
        parsed = parse_sql(sql)
        got = store.query(sql).rows
        where = store.brokers[0]._planner.plan(parsed).where  # literals typed
        matches = [row for row in _STORE_CACHE["tenant1_rows"] if where.evaluate_row(row)]
        assert got and matches

        def projected(rows):
            return Counter(
                json.dumps({c: row[c] for c in got[0]}, sort_keys=True) for row in rows
            )

        assert not projected(got) - projected(matches)  # only matching rows
        limit = len(matches) if parsed.limit is None else parsed.limit
        assert len(got) == min(limit, len(matches))
        if parsed.order_by is not None:
            # Rows tied on the key may come in any stream order: pin the keys.
            keys = sorted(
                (row[parsed.order_by] for row in matches), reverse=parsed.order_desc
            )
            assert [row[parsed.order_by] for row in got] == keys[:limit]

    def test_counters_and_explain_surface(self):
        store = _seeded_store()
        result = store.query(
            "SELECT ts FROM request_log WHERE tenant_id = 1 AND latency >= 250"
        )
        assert result.stats.rows_evaluated_vectorized > 0
        text = store.explain(
            "SELECT ts FROM request_log WHERE tenant_id = 1 AND latency >= 250"
        )
        assert "vectorized: full" in text
        analyzed = store.explain_analyze(
            "SELECT ts FROM request_log WHERE tenant_id = 1 AND latency >= 250"
        )
        assert "== vectorized scan ==" in analyzed
        assert "rows evaluated vectorized:" in analyzed

    def test_explain_reports_fallback_reasons(self):
        store = _seeded_store()
        text = store.explain(
            "SELECT ts FROM request_log WHERE tenant_id = 1 AND MATCH(log, 'GET')"
        )
        assert "vectorized: partial" in text
        assert "no vector kernel" in text


class TestClassify:
    def test_full(self):
        info = classify_expr(Comparison("i", CmpOp.GE, 1), SCHEMA)
        assert info.mode == "full" and info.reasons == ()

    def test_partial_with_reason(self):
        info = classify_expr(
            And((Comparison("i", CmpOp.GE, 1), Match("s", "x"))), SCHEMA
        )
        assert info.mode == "partial"
        assert any("no vector kernel" in r for r in info.reasons)

    def test_none(self):
        info = classify_expr(Match("s", "x"), SCHEMA)
        assert info.mode == "none"

    def test_string_column_notes_archived_fallback(self):
        info = classify_expr(Comparison("s", CmpOp.EQ, "x"), SCHEMA)
        assert info.mode == "full"
        assert any("STRING" in r for r in info.reasons)


ORDER_KEYS = st.lists(
    st.one_of(st.none(), st.integers(min_value=-50, max_value=50)),
    min_size=0,
    max_size=60,
)


class TestTopK:
    @settings(max_examples=200, deadline=None)
    @given(
        keys=ORDER_KEYS,
        desc=st.booleans(),
        limit=st.one_of(st.none(), st.integers(min_value=0, max_value=70)),
    )
    def test_matches_stable_python_sort(self, keys, desc, limit):
        """Same order, null placement AND tie order as the python sort."""
        rows = [{"k": key, "row": index} for index, key in enumerate(keys)]
        expected = sorted(
            rows, key=lambda row: (row["k"] is None, row["k"]), reverse=desc
        )
        if limit is not None:
            expected = expected[:limit]
        order = top_k_order(keys, desc=desc, limit=limit)
        assert order is not None
        assert [rows[i] for i in order.tolist()] == expected

    # One pool per list: all-int and all-float lists take the typed path,
    # the rest the object path; NaN and ints beyond int64 must come back
    # ``None`` (the python sort) or right, never wrong.
    TYPED_POOLS = (
        st.integers(min_value=-(2**63), max_value=2**63 - 1),
        st.sampled_from([-(2**62), -3, 0, 7, 7, 2**53 + 1, 2**62]),
        st.floats(allow_nan=False),
        st.sampled_from([-1.5, -0.0, 0.0, 2.25, float("inf"), float("-inf")]),
        st.sampled_from([float("nan"), 1.0, 2.0]),
        st.sampled_from([True, False, 0, 1, 2]),
        st.sampled_from([2**70, -(2**70), 2**63, 5]),
        st.sampled_from([1, 2.0, 2, 0.5]),
    )

    @settings(max_examples=400, deadline=None)
    @given(
        keys=st.one_of(
            *(st.lists(st.one_of(st.none(), pool), max_size=40) for pool in TYPED_POOLS)
        ),
        desc=st.booleans(),
        limit=st.sampled_from([None, 0, 1, 5, 100]),
    )
    def test_typed_path_matches_stable_python_sort(self, keys, desc, limit):
        expected = sorted(
            range(len(keys)), key=lambda i: (keys[i] is None, keys[i]), reverse=desc
        )
        order = top_k_order(keys, desc=desc, limit=limit)
        present = [k for k in keys if k is not None]
        if order is None:
            assert any(k != k or not -(2**63) <= k < 2**63 for k in present)
            return
        assert not any(k != k for k in present)  # a NaN always falls back
        assert order.tolist() == (expected if limit is None else expected[:limit])

    def test_strings_and_floats(self):
        for keys in (["b", None, "a", "b", ""], [1.5, None, -2.0, 1.5]):
            order = top_k_order(keys, desc=True, limit=3)
            expected = sorted(
                range(len(keys)),
                key=lambda i: (keys[i] is None, keys[i]),
                reverse=True,
            )[:3]
            assert order.tolist() == expected

    def test_mixed_types_fall_back(self):
        assert top_k_order([1, "a", None], desc=False, limit=None) is None

    def test_apply_order_limit_parity(self):
        query = parse_sql(
            "SELECT ts FROM request_log WHERE tenant_id = 1 ORDER BY latency DESC LIMIT 5"
        )
        rows = [{"latency": v, "row": i} for i, v in enumerate([3, None, 9, 1, 9, None, 4])]
        expected = sorted(
            rows, key=lambda row: (row["latency"] is None, row["latency"]), reverse=True
        )[:5]
        assert apply_order_limit(query, rows) == expected
