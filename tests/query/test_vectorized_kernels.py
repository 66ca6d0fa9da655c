"""Differential tests: the column-mask evaluator ≡ the per-row oracle.

There is one evaluator (:mod:`repro.query.kernels` over
``column_mask``); it is held against :func:`tests.oracle.matches`
across every predicate shape (eq/range/IN/LIKE/MATCH/null/AND/OR/NOT),
null-heavy and empty batches, value lists and typed vectors, type edges
(bools in INT64 columns, huge ints, mixed types), realtime vs archived
vs mixed data placement, and the argsort ORDER BY/LIMIT kernel.
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
from repro.query.aggregate import result_rows
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
from repro.query.kernels import compile_expr, selection_columns, top_k_order
from repro.query.sql import parse_sql
from repro.rowstore.batch import RowBatch, RowSelection

from tests.conftest import make_rows
from tests.oracle import matches, order_key

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


_DTYPES = {int: np.int64, float: np.float64, bool: np.bool_}


def _as_memtable_holds(values: list):
    """A column of one kind and no null as the memtable holds it — an
    int64 / float64 / bool vector — else the value list (ints beyond
    int64 included)."""
    kinds = set(map(type, values))
    dtype = _DTYPES.get(kinds.pop()) if len(kinds) == 1 else None
    try:
        return values if dtype is None else np.array(values, dtype=dtype)
    except OverflowError:
        return values


def evaluate(expr, rows, typed=False):
    """The compiled tree's mask over ``rows`` as a realtime selection:
    one value list per schema column (missing keys null) or, ``typed``,
    a vector where the memtable would hold one."""
    names = tuple(SCHEMA.column_names())
    columns = [[row.get(name) for row in rows] for name in names]
    if typed:
        columns = [_as_memtable_holds(column) for column in columns]
    selection = RowSelection.of(RowBatch(names, columns))
    return compile_expr(expr)(selection_columns(selection))


def assert_oracle(expr, rows):
    """Both column forms give the oracle's answer, or both raise as it does."""
    try:
        expected = [matches(expr, row) for row in rows]
    except TypeError:
        for typed in (False, True):
            with pytest.raises(TypeError):
                evaluate(expr, rows, typed)
        return
    for typed in (False, True):
        mask = evaluate(expr, rows, typed)
        assert mask.dtype == bool and len(mask) == len(rows)
        assert mask.tolist() == expected, (expr, typed)


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
    def test_mask_equals_the_oracle(self, rows, expr):
        """Every predicate shape, nulls included, over a row batch."""
        assert_oracle(expr, rows)

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
        assert mask.tolist() == [matches(expr, r) for r in rows] == [True, False, True]

    def test_string_kernels_on_object_arrays(self):
        rows = [{"s": v} for v in ["abc", None, "b", "", "ab"]]
        for expr in (
            Comparison("s", CmpOp.GE, "ab"),
            In("s", ("abc", "")),
            Comparison("s", CmpOp.NE, "b"),
        ):
            assert_oracle(expr, rows)

    def test_empty_in_matches_nothing(self):
        rows = [{"i": 1}, {"i": None}]
        mask = evaluate(In("i", ()), rows)
        assert mask.tolist() == [False, False]


class TestShapesOnceInterpreted:
    """Shapes that once fell back to a per-row interpreter: each now
    has its kernel, held against the oracle."""

    TEXT = [{"s": v} for v in ["hello world", None, "Hello, big World!", "192.168.0.1", "world"]]

    def test_match(self):
        for query in ("hello world", "WORLD", "absent", ""):
            assert_oracle(Match("s", query), self.TEXT)

    def test_like_prefix(self):
        for prefix in ("192.168.", "hello", "", "Hello, b"):
            assert_oracle(Like("s", prefix), self.TEXT)

    def test_mixed_type_column(self):
        rows = [{"i": 1}, {"i": "oops"}, {"i": None}]
        for expr in (
            Comparison("i", CmpOp.EQ, 1),
            Comparison("i", CmpOp.NE, 1),
            In("i", (1, "oops")),
            Comparison("i", CmpOp.GE, 0),  # Python will not order "oops" and 0
        ):
            assert_oracle(expr, rows)

    def test_bool_in_int_column(self):
        rows = [{"i": True}, {"i": 1}, {"i": 2}, {"i": False}]
        for expr in (
            Comparison("i", CmpOp.GE, 1),
            Comparison("i", CmpOp.EQ, True),
            In("i", (0,)),
        ):
            assert_oracle(expr, rows)

    def test_int_beyond_int64(self):
        rows = [{"i": 2**70}, {"i": 5}, {"i": -(2**70)}]
        for expr in (
            Comparison("i", CmpOp.GE, 0),
            Comparison("i", CmpOp.EQ, 2**70),
            Between("i", -(2**64), 2**64),
        ):
            assert_oracle(expr, rows)
        assert_oracle(Comparison("i", CmpOp.LT, 2**70), [{"i": 5}, {"i": 2**63 - 1}])

    def test_match_through_the_realtime_filter(self):
        rows = make_rows(50, tenant_id=1)
        rows[7]["log"] = None
        store = _seeded_store()
        plan = store.brokers[0]._planner.plan(
            parse_sql(
                "SELECT log FROM request_log WHERE tenant_id = 1 AND MATCH(log, 'GET')"
            )
        )
        stats = ExecutionStats()
        got = filter_realtime_rows(rows=iter(rows), plan=plan, stats=stats)
        got = got.project(plan.output_columns).to_dicts()
        assert got == [{"log": row["log"]} for row in rows if matches(plan.where, row)]
        assert stats.realtime_rows_vectorized == len(rows)


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
        got = filter_realtime_rows(plan, iter(rows), limit=limit, stats=stats)
        got = got.project(plan.output_columns).to_dicts()
        oracle = [
            {"ts": row["ts"], "log": row["log"]}
            for row in rows
            if matches(plan.where, row)
        ][:limit]
        assert json.dumps(got, sort_keys=True) == json.dumps(oracle, sort_keys=True)
        assert stats.realtime_rows_vectorized == len(rows)


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
    """Archived + realtime data against the per-row oracle and python
    ``sorted``, called directly."""

    @pytest.mark.parametrize("sql", MIXED_QUERIES)
    def test_queries_match_the_row_oracle(self, sql):
        store = _seeded_store()
        parsed = parse_sql(sql)
        got = store.query(sql).rows
        where = store.brokers[0]._planner.plan(parsed).where  # literals typed
        matching = [row for row in _STORE_CACHE["tenant1_rows"] if matches(where, row)]
        assert got and matching

        def projected(rows):
            return Counter(
                json.dumps({c: row[c] for c in got[0]}, sort_keys=True) for row in rows
            )

        assert not projected(got) - projected(matching)  # only matching rows
        limit = len(matching) if parsed.limit is None else parsed.limit
        assert len(got) == min(limit, len(matching))
        if parsed.order_by is not None:
            # Rows tied on the key may come in any stream order: pin the keys.
            keys = sorted(
                (row[parsed.order_by] for row in matching), reverse=parsed.order_desc
            )
            assert [row[parsed.order_by] for row in got] == keys[:limit]

    def test_counters_and_explain_surface(self):
        store = _seeded_store()
        sql = "SELECT ts FROM request_log WHERE tenant_id = 1 AND latency >= 250"
        result = store.query(sql)
        assert result.stats.rows_evaluated_vectorized > 0
        assert result.stats.rows_evaluated_interpreted == 0
        assert "vectorized" not in store.explain(sql)
        analyzed = store.explain_analyze(sql)
        assert f"rows evaluated: {result.stats.rows_evaluated_vectorized} " in analyzed

    def test_match_is_evaluated_like_every_other_leaf(self):
        store = _seeded_store()
        sql = "SELECT ts FROM request_log WHERE tenant_id = 1 AND MATCH(log, 'GET')"
        result = store.query(sql)
        assert result.rows and result.stats.realtime_rows_vectorized > 0
        assert "fallback" not in store.explain_analyze(sql)


ORDER_KEYS = st.lists(
    st.one_of(st.none(), st.integers(min_value=-50, max_value=50)),
    min_size=0,
    max_size=60,
)


def reference_order(keys: list, desc: bool, limit: int | None) -> list[int]:
    """Row indices in the one result order: a stable sort on ``order_key``."""
    order = sorted(range(len(keys)), key=lambda i: order_key(keys[i]), reverse=desc)
    return order if limit is None else order[:limit]


class TestTopK:
    @settings(max_examples=200, deadline=None)
    @given(
        keys=ORDER_KEYS,
        desc=st.booleans(),
        limit=st.one_of(st.none(), st.integers(min_value=0, max_value=70)),
    )
    def test_matches_stable_python_sort(self, keys, desc, limit):
        """Same order, null placement AND tie order as the reference sort."""
        assert top_k_order(keys, desc=desc, limit=limit).tolist() == reference_order(
            keys, desc, limit
        )

    # One pool per list: all-int and all-float lists take the typed path,
    # the rest the object path; NaN, ±0.0, ±inf and ints beyond int64
    # are ranked like any other key.
    TYPED_POOLS = (
        st.integers(min_value=-(2**63), max_value=2**63 - 1),
        st.sampled_from([-(2**62), -3, 0, 7, 7, 2**53 + 1, 2**62]),
        st.floats(),
        st.sampled_from([-1.5, -0.0, 0.0, 2.25, float("inf"), float("-inf")]),
        st.sampled_from([float("nan"), 1.0, 2.0, float("inf")]),
        st.sampled_from([True, False, 0, 1, 2]),
        st.sampled_from([2**70, -(2**70), 2**63, 5]),
        st.sampled_from([1, 2.0, 2, 0.5, -0.0, 0, float("nan")]),
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
        assert top_k_order(keys, desc=desc, limit=limit).tolist() == reference_order(
            keys, desc, limit
        )

    def test_strings_and_floats(self):
        for keys in (["b", None, "a", "b", ""], [1.5, None, -2.0, 1.5]):
            order = top_k_order(keys, desc=True, limit=3)
            assert order.tolist() == reference_order(keys, True, 3)

    def test_nan_sorts_above_inf_and_nulls_last(self):
        nan = float("nan")
        keys = [2.0, nan, 1.0, None, nan, 0.5, float("inf"), -0.0, 0.0]
        ascending = [keys[i] for i in top_k_order(keys).tolist()]
        assert repr(ascending) == "[-0.0, 0.0, 0.5, 1.0, 2.0, inf, nan, nan, None]"
        # Descending: null, the NaNs, then values; ties in arrival order.
        assert top_k_order(keys, desc=True).tolist() == [3, 1, 4, 6, 0, 2, 5, 7, 8]

    def test_mixed_types_raise(self):
        with pytest.raises(TypeError, match="not supported between"):
            top_k_order([1, "a", None], desc=False, limit=None)

    def test_result_rows_parity(self):
        query = parse_sql(
            "SELECT * FROM request_log WHERE tenant_id = 1 ORDER BY latency DESC LIMIT 5"
        )
        rows = [{"latency": v, "row": i} for i, v in enumerate([3, None, 9, 1, 9, None, 4])]
        expected = sorted(rows, key=lambda row: order_key(row["latency"]), reverse=True)[:5]
        assert result_rows(query, RowBatch.from_dicts(rows)) == expected
