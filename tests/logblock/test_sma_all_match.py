"""SMA all-match short-circuit: a proof from metadata must be a proof.

``matches_all_sma`` lets ``evaluate_predicates`` answer a predicate
with zero reads.  Every test here holds the short-circuited answer
against the paths that do read: the column index, the block scan with
skipping off (``use_skipping=False``, the Figure 15 baseline), the same
rows filtered as a realtime selection, and the per-row oracle.
"""

import itertools
import math

import numpy as np
import pytest

from repro.cache.object_cache import ObjectCache
from repro.common.strings import Strings
from repro.logblock.pruning import (
    EqPredicate,
    InPredicate,
    NePredicate,
    PruneStats,
    RangePredicate,
    _index_mask,
    column_mask,
    evaluate_predicates,
)
from repro.logblock.reader import LogBlockReader
from repro.logblock.schema import ColumnSpec, ColumnType, IndexType, TableSchema
from repro.logblock.sma import Sma
from repro.logblock.writer import LogBlockWriter
from repro.query.kernels import selection_columns
from repro.rowstore.memtable import MemTable

from tests.logblock.test_writer_reader import V7_FIXTURE, golden_block, golden_corpus, reader_for
from tests.oracle import matches

SCHEMA = TableSchema(
    name="every_type",
    columns=(
        ColumnSpec("tenant", ColumnType.INT64),
        ColumnSpec("ts", ColumnType.TIMESTAMP),
        ColumnSpec("score", ColumnType.FLOAT64),
        ColumnSpec("flag", ColumnType.BOOL),
        ColumnSpec("host", ColumnType.STRING, IndexType.INVERTED, tokenize=False),
        ColumnSpec("msg", ColumnType.STRING, IndexType.INVERTED, tokenize=True),
        ColumnSpec("plain", ColumnType.INT64, IndexType.NONE),
    ),
)
N_ROWS = 150


def constant_rows(**overrides) -> list[dict]:
    """Rows whose every column but ``ts`` holds one value (min == max)."""
    row = {
        "tenant": 7,
        "score": 2.5,
        "flag": True,
        "host": "web-1",
        "msg": "disk full on web-1",
        "plain": 3,
    }
    rows = [{**row, "ts": 1_000 + i} for i in range(N_ROWS)]
    for column, values in overrides.items():
        for out, value in zip(rows, itertools.cycle(values)):
            out[column] = value
    return rows


def block_reader(rows, objects=None, decode_charge=None):
    """The rows as one LogBlock, read through the shared object cache
    ``objects`` when one is given."""
    writer = LogBlockWriter(SCHEMA, codec="zlib", block_rows=64)
    writer.append_many(rows)
    reader = reader_for(writer.finish())
    if objects is not None:
        reader = LogBlockReader(reader.pack, decode_charge=decode_charge)
        reader.attach_shared_cache(objects, "b")
    return reader


def literals_of(predicate) -> list:
    if isinstance(predicate, (EqPredicate, NePredicate)):
        return [predicate.value]
    if isinstance(predicate, InPredicate):
        return list(predicate.values)
    return [bound for bound in (predicate.low, predicate.high) if bound is not None]


def realtime(rows, predicate) -> list[int]:
    """Row ids the realtime path matches: ``rows`` appended to a
    memtable and read back as the selection a realtime scan returns
    (``ts`` order, which is row order here)."""
    table = MemTable(tenant_column="ts")  # ``tenant`` may be null here
    table.append_many(rows)
    column = selection_columns(table.scan())(predicate.column)
    return np.flatnonzero(column_mask(predicate, column)).tolist()


def every_path(reader, rows, predicate):
    """Row ids by the oracle, after checking every read path agrees:
    the block scan and SMA / index skipping, each on and off, and the
    same rows as a realtime selection.

    A path may refuse a ``str`` literal probed against numbers (or the
    reverse) with ``TypeError`` — python will not order them — but no
    path may answer it differently from the others.
    """
    column_is_str = reader.column(predicate.column).ctype is ColumnType.STRING
    orderable = all(isinstance(lit, str) == column_is_str for lit in literals_of(predicate))

    def attempt(run):
        try:
            return list(run())
        except TypeError:
            assert not orderable, predicate
            return None

    expected = attempt(lambda: [i for i, row in enumerate(rows) if matches(predicate, row)])
    for use_skipping, use_indexes in itertools.product((True, False), repeat=2):
        got = attempt(
            lambda: np.flatnonzero(
                evaluate_predicates(
                    reader, [predicate], use_skipping=use_skipping, use_indexes=use_indexes
                )
            )
        )
        if got is not None and expected is not None:
            assert got == expected, (predicate, use_skipping, use_indexes)
    got = attempt(lambda: realtime(rows, predicate))
    if got is not None and expected is not None:
        assert got == expected, (predicate, "realtime")
    if orderable:  # evaluate_predicates never takes the others to an index
        via_index = _index_mask(reader, predicate)
        assert via_index is None or np.flatnonzero(via_index).tolist() == expected, predicate
    return expected


def short_circuited(reader, predicate) -> bool:
    stats = PruneStats()
    evaluate_predicates(reader, [predicate], stats=stats)
    assert stats.columns_short_circuited in (0, 1)
    if stats.columns_short_circuited:
        assert stats.index_lookups == 0 and stats.blocks_scanned == 0
    return bool(stats.columns_short_circuited)


# Literals of every type, probed against columns of every type.
LITERALS = [7, 7.0, 6, 8, True, False, 1, 0, 1.0, 2.5, 2, 3, "web-1", "web-0", "7", "true", math.nan]


class TestDifferential:
    @pytest.fixture(scope="class")
    def rows(self):
        return constant_rows()

    @pytest.fixture(scope="class")
    def reader(self, rows):
        return block_reader(rows)

    @pytest.mark.parametrize("column", [c.name for c in SCHEMA.columns if c.name != "msg"])
    def test_eq_in_and_range_agree_with_every_read_path(self, rows, reader, column):
        for literal in LITERALS:
            every_path(reader, rows, EqPredicate(column, literal))
            every_path(reader, rows, NePredicate(column, literal))
            every_path(reader, rows, InPredicate(column, (literal,)))
            for inclusive in (True, False):
                every_path(reader, rows, RangePredicate(column, low=literal, low_inclusive=inclusive))
                every_path(reader, rows, RangePredicate(column, high=literal, high_inclusive=inclusive))
        for low, high in itertools.combinations([5, 7, 9, 999, 1_075, 1_149, 2_000], 2):
            every_path(reader, rows, RangePredicate(column, low=low, high=high))

    def test_in_lists(self, rows, reader):
        for values in [(7, 8), (6, 8), (7, True), (7.0,), ()]:
            every_path(reader, rows, InPredicate("tenant", values))
        for values in [("web-1", "web-2"), ("web-2",)]:
            every_path(reader, rows, InPredicate("host", values))
        # A list mixing str and numbers: each literal is tested under
        # ``==``, so the one of the column's kind matches every row —
        # but the SMA proves nothing about a mixed list.
        for predicate in (InPredicate("tenant", (7, "web-1")), InPredicate("host", ("web-1", 7))):
            assert every_path(reader, rows, predicate) == list(range(N_ROWS))
            assert not short_circuited(reader, predicate)

    def test_a_nan_bound_matches_nothing(self, rows, reader):
        for predicate in (
            RangePredicate("tenant", high=math.nan),
            RangePredicate("score", low=math.nan),
            RangePredicate("ts", low=0, high=math.nan),
        ):
            assert every_path(reader, rows, predicate) == []
            stats = PruneStats()
            assert not evaluate_predicates(reader, [predicate], stats=stats).any()
            assert stats.columns_pruned == 1  # the column SMA prunes it

    def test_what_is_proved_from_the_column_sma(self, reader):
        proved = [
            EqPredicate("tenant", 7),
            InPredicate("tenant", (3, 7)),
            RangePredicate("tenant", low=7, high=7),
            RangePredicate("ts", low=1_000, high=1_000 + N_ROWS - 1),
            RangePredicate("ts", low=999, low_inclusive=False),
            RangePredicate("ts", high=1_000 + N_ROWS, high_inclusive=False),
            EqPredicate("flag", True),
            EqPredicate("host", "web-1"),
            RangePredicate("host", low="web", high="web-2"),
            EqPredicate("plain", 3),
            RangePredicate("plain"),
        ]
        for predicate in proved:
            assert short_circuited(reader, predicate), predicate
        refused = [
            EqPredicate("tenant", 7.0),  # int column, float literal
            EqPredicate("tenant", True),
            EqPredicate("flag", 1),  # ``fail = 1`` is not ``fail = true``
            RangePredicate("flag", low=0),
            EqPredicate("score", 2.5),  # float bounds hide NaNs
            RangePredicate("score", low=0.0),
            RangePredicate("score", low=0),
            RangePredicate("ts", low=1_001),
            RangePredicate("ts", low=1_000, low_inclusive=False),
            RangePredicate("ts", high=1_000 + N_ROWS - 1, high_inclusive=False),
            InPredicate("tenant", (7, "7")),
            EqPredicate("host", "web-0"),
        ]
        for predicate in refused:
            assert not short_circuited(reader, predicate), predicate

    def test_skipping_off_never_short_circuits(self, reader):
        stats = PruneStats()
        mask = evaluate_predicates(
            reader, [EqPredicate("tenant", 7)], use_skipping=False, stats=stats
        )
        assert mask.sum() == N_ROWS
        assert stats.columns_short_circuited == 0 and stats.blocks_scanned > 0


class TestThroughASharedObjectCache:
    """``every_path`` again with the reader's decoded blocks, indexes and
    Bloom filters in a shared object cache: filling it, through a second
    reader that finds it warm, and through one too small to admit a
    block.  All column types and all three block forms (``msg`` is
    PLAIN here, ``host`` DICT)."""

    ROWS = constant_rows(
        tenant=[7, 7, 8, None],
        score=[2.5, 1.0, None, math.nan],
        flag=[True, False, None],
        host=["web-1", "web-2", None],
        msg=[f"disk {i} full on web-{i % 3}" for i in range(N_ROWS)],
        plain=[3, 4, None],
    )
    PREDICATES = [
        EqPredicate("tenant", 7),
        InPredicate("tenant", (8, 9)),
        RangePredicate("ts", low=1_010, high=1_100),
        EqPredicate("score", 2.5),
        InPredicate("score", (1.0, 2.5)),
        EqPredicate("flag", True),
        EqPredicate("flag", False),
        EqPredicate("host", "web-2"),
        InPredicate("host", ("web-1", "web-3")),
        RangePredicate("host", low="web-1", high="web-2", high_inclusive=False),
        EqPredicate("msg", "disk 5 full on web-2"),
        InPredicate("msg", ("disk 7 full on web-1", "absent")),
        RangePredicate("msg", low="disk 5", high="disk 6"),
        EqPredicate("plain", 4),
        RangePredicate("plain", low=4),
    ]

    def battery(self, reader):
        answers = [every_path(reader, self.ROWS, predicate) for predicate in self.PREDICATES]
        assert all(0 < len(answer) < N_ROWS for answer in answers)
        columns = [c.name for c in SCHEMA.columns]
        everything = reader.read_rows(range(N_ROWS), columns)
        for got, want in zip(everything, self.ROWS):
            assert all(got[c] == want[c] or (got[c] != got[c] and want[c] != want[c]) for c in columns)
        return answers

    def test_cold_then_warm_then_too_small(self):
        private = self.battery(block_reader(self.ROWS))

        objects = ObjectCache(1 << 24)
        charges: list[int] = []
        assert self.battery(block_reader(self.ROWS, objects=objects, decode_charge=charges.append)) == private
        blocks_cached = [key for key in objects._entries if key[2].startswith("col/")]
        n_blocks = -(-N_ROWS // 64)
        assert len(blocks_cached) == len(SCHEMA.columns) * n_blocks
        assert len(charges) >= len(blocks_cached)  # each decoded once (plus the indexes)

        # A second reader over the now-warm cache decodes nothing.
        del charges[:]
        warm = block_reader(self.ROWS, objects=objects, decode_charge=charges.append)
        assert self.battery(warm) == private
        assert charges == []
        shared = warm.read_block_arrays("msg", 0)
        assert isinstance(shared, Strings) and shared is objects.get(("b", "k", "col/5/0"))
        assert len(warm.read_block_arrays("host", 0)) == 3  # DICT

        # Too small to admit a block (or an index): every reader decodes
        # for itself, once, and answers the same.
        tiny = ObjectCache(2048)
        for _ in range(2):
            del charges[:]
            assert self.battery(block_reader(self.ROWS, objects=tiny, decode_charge=charges.append)) == private
            assert len(charges) >= len(blocks_cached)
            assert not any(key[2].startswith("col/") for key in tiny._entries)


class TestHazards:
    def test_a_null_in_the_column_defeats_the_proof(self):
        rows = constant_rows(tenant=[7] * 20 + [None], host=["web-1", None])
        reader = block_reader(rows)
        for predicate in (
            EqPredicate("tenant", 7),
            RangePredicate("tenant", low=0),
            EqPredicate("host", "web-1"),
        ):
            expected = every_path(reader, rows, predicate)
            assert 0 < len(expected) < N_ROWS
            assert not short_circuited(reader, predicate)

    def test_all_null_column(self):
        rows = constant_rows(tenant=[None], host=[None], score=[None])
        reader = block_reader(rows)
        for predicate in (
            EqPredicate("tenant", 7),
            RangePredicate("tenant"),
            InPredicate("host", ("web-1",)),
            RangePredicate("score", low=0.0),
        ):
            assert every_path(reader, rows, predicate) == []
            assert not short_circuited(reader, predicate)

    @pytest.mark.parametrize(
        "scores",
        [
            [2.5, math.nan],  # float bounds 2.5..2.5 over a NaN row
            [2, math.nan],  # int bounds over a NaN row: only the column type says float
            [-0.0, 0.0],
            [0, -0.0],
        ],
    )
    def test_float_columns_never_prove_a_full_match(self, scores):
        rows = constant_rows(score=scores)
        reader = block_reader(rows)
        for literal in (2.5, 2, 0, 0.0, -0.0):
            for predicate in (
                EqPredicate("score", literal),
                InPredicate("score", (literal,)),
                RangePredicate("score", low=literal),
                RangePredicate("score", high=literal),
            ):
                assert not short_circuited(reader, predicate), predicate
        # Literals inside the bounds, so every path reads.
        for literal in (0, 0.0, -0.0):
            every_path(reader, rows, EqPredicate("score", literal))
            every_path(reader, rows, RangePredicate("score", low=literal))

    @pytest.mark.parametrize("use_skipping", [True, False])
    def test_a_leading_nan_does_not_become_the_bounds(self, use_skipping):
        """``[nan, 2.0, 3.0]``: block 0 and the column lead with the NaN.
        Bounds taken from it pruned the block, and every match in it."""
        rows = constant_rows(score=[math.nan, 2.0, 3.0])
        reader = block_reader(rows)
        sma = reader.meta().column_sma("score")
        assert (sma.min_value, sma.max_value) == (2.0, 3.0)
        assert reader.meta().block_header("score", 0).sma.min_value == 2.0
        for predicate in (
            EqPredicate("score", 2.0),
            EqPredicate("score", 3.0),
            InPredicate("score", (2.0, 3.0)),
            EqPredicate("score", 2.5),
        ):
            expected = every_path(reader, rows, predicate)
            assert expected == [
                i for i, row in enumerate(rows) if row["score"] in literals_of(predicate)
            ]
            mask = evaluate_predicates(reader, [predicate], use_skipping=use_skipping)
            assert np.flatnonzero(mask).tolist() == expected
            assert not short_circuited(reader, predicate)

    @pytest.mark.parametrize("scores", [[2, math.nan, 2], [2, math.nan, 2, 2]])
    def test_nan_rows_are_not_claimed_by_int_bounds(self, scores):
        """FLOAT64 takes ints, as the floats it stores: bounds 2.0..2.0
        with a NaN between, probed with int literals.

        The NaN sum gives the column away, but the column type alone
        refuses the proof.
        """
        rows = constant_rows(score=scores)
        reader = block_reader(rows)
        sma = reader.meta().column_sma("score")
        assert repr((sma.min_value, sma.max_value)) == "(2.0, 2.0)"
        assert math.isnan(sma.sum_value)
        expected = [i for i, row in enumerate(rows) if row["score"] == 2]
        assert 0 < len(expected) < N_ROWS
        for predicate in (
            EqPredicate("score", 2),
            InPredicate("score", (2,)),
            RangePredicate("score", low=2, high=2),
            RangePredicate("score", low=0),
        ):
            assert not short_circuited(reader, predicate)
            for use_skipping in (True, False):
                mask = evaluate_predicates(reader, [predicate], use_skipping=use_skipping)
                assert np.flatnonzero(mask).tolist() == expected
            assert every_path(reader, rows, predicate) == expected

    @pytest.mark.parametrize("scores", [[2.5, math.nan], [2, math.nan, 2]])
    def test_ne_keeps_the_nan_rows_equal_bounds_hide(self, scores):
        """``score != 2.5`` over ``[2.5, nan]``: bounds 2.5..2.5 skip the
        NaN rows, which differ from 2.5 — equal float bounds prune nothing."""
        rows = constant_rows(score=scores)
        reader = block_reader(rows)
        expected = [i for i, row in enumerate(rows) if row["score"] != row["score"]]
        assert 0 < len(expected) < N_ROWS
        assert every_path(reader, rows, NePredicate("score", scores[0])) == expected
        # A non-float column still prunes on min == max == literal.
        stats = PruneStats()
        assert not evaluate_predicates(reader, [NePredicate("tenant", 7)], stats=stats).any()
        assert stats.columns_pruned == 1

    @pytest.mark.parametrize("version", [7, 8])
    def test_both_formats_in_the_read_window_prove_alike(self, version):
        """The committed v7 pack and the v8 writer's pack of the golden
        corpus: the SMAs either meta holds prove the same full matches."""
        rows = golden_corpus()
        reader = reader_for(V7_FIXTURE.read_bytes() if version == 7 else golden_block())
        assert reader.meta().version == version
        for predicate in (EqPredicate("tenant_id", 7), RangePredicate("ts", low=rows[0]["ts"])):
            assert every_path(reader, rows, predicate) == list(range(len(rows)))
            assert short_circuited(reader, predicate)
        for predicate in (EqPredicate("tenant_id", 8), EqPredicate("latency", 12)):
            every_path(reader, rows, predicate)
            assert not short_circuited(reader, predicate)


INT, STR, BOOL, FLOAT = ColumnType.INT64, ColumnType.STRING, ColumnType.BOOL, ColumnType.FLOAT64


class TestSmaProofs:
    def test_eq(self):
        sma = Sma(5, 5, 10, 0, 50)
        assert sma.all_eq_any(INT, (5,)) and sma.all_eq_any(INT, (4, 5))
        assert not sma.all_eq_any(INT, (4,)) and not sma.all_eq_any(INT, ())
        assert not sma.all_eq_any(INT, (5.0,)) and not sma.all_eq_any(INT, (True,))
        assert not sma.all_eq_any(INT, (5, "5"))
        assert not Sma(5, 6, 10, 0).all_eq_any(INT, (5, 6))
        assert not Sma(5, 5, 10, 1).all_eq_any(INT, (5,))
        assert not Sma(None, None, 0, 0).all_eq_any(INT, (5,))
        assert not Sma(None, None, 3, 3).all_eq_any(INT, (None,))

    def test_bool_and_int_do_not_mix(self):
        assert Sma(True, True, 4, 0).all_eq_any(BOOL, (True,))
        assert not Sma(True, True, 4, 0).all_eq_any(BOOL, (1,))
        assert not Sma(1, 1, 4, 0).all_eq_any(INT, (True,))

    def test_range(self):
        sma = Sma(10, 20, 8, 0, 120)
        assert sma.all_in_range(INT) and sma.all_in_range(INT, 10, 20)
        assert sma.all_in_range(INT, None, 20)
        assert not sma.all_in_range(INT, 11, 20) and not sma.all_in_range(INT, 10, 19)
        assert not sma.all_in_range(INT, 10, 20, low_inclusive=False)
        assert not sma.all_in_range(INT, 10, 20, high_inclusive=False)
        assert sma.all_in_range(INT, 9, 21, low_inclusive=False, high_inclusive=False)
        assert not sma.all_in_range(INT, 9.0, 21) and not sma.all_in_range(INT, "a", None)
        assert not Sma(10, 20, 8, 1).all_in_range(INT)
        assert Sma("a", "c", 3, 0).all_in_range(STR, "a", "c")
        assert not Sma("a", "c", 3, 0).all_in_range(STR, 0, None)

    def test_float_columns(self):
        assert not Sma(1.0, 1.0, 3, 0, 3.0).all_eq_any(FLOAT, (1.0,))
        assert not Sma(1.0, 2.0, 3, 0).all_in_range(FLOAT, 0.0, 5.0)
        # Int bounds, with the float sum of a v3 meta or without any (v2).
        assert not Sma(1, 1, 3, 0, 3.0).all_eq_any(FLOAT, (1,))
        assert not Sma(1, 1, 3, 0).all_eq_any(FLOAT, (1,))
        assert not Sma(1, 2, 3, 0).all_in_range(FLOAT, 0, 5)
        # An overflowed timestamp sum is None too and must not refuse.
        assert Sma(1, 2, 3, 0).all_in_range(ColumnType.TIMESTAMP, 0, 5)
