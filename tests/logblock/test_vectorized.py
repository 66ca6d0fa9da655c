"""Vectorized scan path tests (§8 future work, implemented): decoded
column blocks and the one leaf kernel, ``column_mask``, over them."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.strings import Strings
from repro.logblock.column import decode_block_arrays, encode_block
from repro.logblock.pruning import (
    EqPredicate,
    InPredicate,
    MatchPredicate,
    NePredicate,
    RangePredicate,
    column_mask,
    evaluate_predicates,
    object_column,
)
from repro.logblock.schema import ColumnType

from tests.conftest import make_rows, write_logblock
from tests.logblock.test_pruning import brute_force, predicate_strategy
from tests.logblock.test_writer_reader import reader_for


class TestDecodeArrays:
    def test_int_roundtrip(self):
        values = [1, None, -5, 7]
        encoded = encode_block(values, ColumnType.INT64)
        arrays = decode_block_arrays(encoded, ColumnType.INT64, 4)
        assert arrays is not None
        vector, nulls = arrays
        assert vector.dtype == np.int64
        assert list(nulls) == [False, True, False, False]
        assert vector[0] == 1 and vector[2] == -5

    def test_float_and_bool(self):
        floats = encode_block([1.5, None], ColumnType.FLOAT64)
        vector, nulls = decode_block_arrays(floats, ColumnType.FLOAT64, 2)
        assert vector[0] == 1.5 and nulls[1]
        bools = encode_block([True, False, None], ColumnType.BOOL)
        vector, nulls = decode_block_arrays(bools, ColumnType.BOOL, 3)
        assert bool(vector[0]) and not bool(vector[1]) and nulls[2]

    def test_strings_have_no_vector_form(self):
        encoded = encode_block(["a", "b"], ColumnType.STRING)
        decoded = decode_block_arrays(encoded, ColumnType.STRING, 2)
        assert isinstance(decoded, Strings)

    def test_timestamp(self):
        encoded = encode_block([100, 200], ColumnType.TIMESTAMP)
        vector, _nulls = decode_block_arrays(encoded, ColumnType.TIMESTAMP, 2)
        assert list(vector) == [100, 200]


class TestVectorizedMask:
    def _data(self):
        values = np.array([10, 20, 30, 40, 0], dtype=np.int64)
        nulls = np.array([False, False, False, False, True])
        return values, nulls

    def test_eq(self):
        values, nulls = self._data()
        mask = column_mask(EqPredicate("x", 20), (values, nulls))
        assert list(mask) == [False, True, False, False, False]

    def test_ne_excludes_nulls(self):
        values, nulls = self._data()
        mask = column_mask(NePredicate("x", 20), (values, nulls))
        assert list(mask) == [True, False, True, True, False]

    def test_range_bounds(self):
        values, nulls = self._data()
        mask = column_mask(RangePredicate("x", low=20, high=30), (values, nulls))
        assert list(mask) == [False, True, True, False, False]
        mask = column_mask(
            RangePredicate("x", low=20, high=30, low_inclusive=False, high_inclusive=False),
            (values, nulls),
        )
        assert not mask.any()

    def test_in(self):
        values, nulls = self._data()
        mask = column_mask(InPredicate("x", (10, 40, 99)), (values, nulls))
        assert list(mask) == [True, False, False, True, False]

    def test_typed_vector_meets_other_kinds_as_python_objects(self):
        values, nulls = self._data()
        # A str equals no int; an int beyond int64 is compared exactly.
        assert not column_mask(EqPredicate("x", "20"), (values, nulls)).any()
        assert list(column_mask(NePredicate("x", "20"), (values, nulls))) == [True] * 4 + [False]
        assert list(column_mask(RangePredicate("x", high=2**70), (values, nulls))) == [True] * 4 + [False]
        assert list(column_mask(InPredicate("x", (20, "x", 30.0)), (values, nulls))) == [
            False, True, True, False, False,
        ]
        with pytest.raises(TypeError):
            column_mask(RangePredicate("x", low="a"), (values, nulls))

    def test_match_over_strings(self):
        column = object_column(["GET /a took 5ms", None, "get took", "POST /a"])
        mask = column_mask(MatchPredicate("log", "took GET"), column)
        assert list(mask) == [True, False, True, False]


class TestEndToEndEquivalence:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        predicates=st.lists(predicate_strategy, min_size=1, max_size=3),
        seed=st.integers(min_value=0, max_value=4),
    )
    def test_scan_equals_the_per_value_oracle(self, predicates, seed):
        rows = make_rows(150, seed=seed)
        reader = reader_for(write_logblock(rows, block_rows=32))
        expected = brute_force(rows, predicates)
        for use_indexes in (True, False):
            mask = evaluate_predicates(reader, predicates, use_indexes=use_indexes)
            assert np.flatnonzero(mask).tolist() == expected

    def test_executor_scans_on_vectors(self):
        """BlockExecutor's scan path runs on vectors and answers like
        the per-row oracle."""
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
        from repro.query.planner import QueryPlanner
        from repro.query.sql import parse_sql
        from repro.rowstore.memtable import MemTable

        rows = make_rows(300, tenant_id=1)
        catalog = Catalog(request_log_schema())
        store = MeteredObjectStore(InMemoryObjectStore(), free(), VirtualClock())
        store.create_bucket("v")
        builder = DataBuilder(
            request_log_schema(), catalog,
            Janitor(catalog, store, "v"), codec="zlib", block_rows=64
        )
        table = MemTable()
        table.append_many(rows)
        table.seal()
        builder.archive_memtable(table, "s0-0")
        planner = QueryPlanner(catalog)
        sql = "SELECT ts FROM request_log WHERE tenant_id = 1 AND latency BETWEEN 50 AND 300"
        plan = planner.plan(parse_sql(sql))
        cache = MultiLevelCache(memory_bytes=1 << 22, ssd_bytes=1 << 24)
        executor = BlockExecutor(
            CachingRangeReader(store, cache), "v", ExecutionOptions(use_indexes=False)
        )
        got, stats = executor.execute(plan)
        assert stats.prune.rows_vectorized > 0
        expected = sorted(r["ts"] for r in rows if 50 <= r["latency"] <= 300)
        assert sorted(r["ts"] for r in got) == expected
