"""Differential test: the array fold ≡ the per-row fold.

``Aggregator.consume_columns`` folds decoded column blocks (tier 3) and,
through ``consume_many``, column chunks (realtime, ``_system``, winner
and window rows); ``tests.oracle.fold`` folds row dicts one value at a
time and is the reference.  Over every key type and block form the two
must give the same groups in the same order with the same values — SUM
included, because the fold seeds ``bincount`` with the running totals.
"""

import random

import numpy as np
import pytest

from repro.common.strings import Strings
from repro.logblock.schema import ColumnSpec, ColumnType, TableSchema
from repro.query.aggregate import Aggregator
from repro.query.sql import parse_sql
from repro.rowstore.batch import RowBatch

from tests.conftest import BASE_TS, MICROS
from tests.oracle import fold, matches
from tests.query.test_agg_pushdown import Env

NAN = float("nan")
SCHEMA = TableSchema(
    name="request_log",
    columns=(
        ColumnSpec("tenant_id", ColumnType.INT64),
        ColumnSpec("ts", ColumnType.TIMESTAMP),
        ColumnSpec("n", ColumnType.INT64),  # few values, nulls, ints past 2^53
        ColumnSpec("f", ColumnType.FLOAT64),  # nulls, one NaN object, -0.0 and 0.0
        ColumnSpec("fk", ColumnType.FLOAT64),  # a float key without NaN
        ColumnSpec("b", ColumnType.BOOL),
        ColumnSpec("d", ColumnType.STRING),  # low cardinality: DICT blocks
        ColumnSpec("p", ColumnType.STRING),  # high cardinality: PLAIN blocks
    ),
)
BIG = (2**53 + 1, 2**62 + 3, -(2**60) - 1)


def make(count: int, seed: int, start: int, extra: bool = False) -> list[dict]:
    rng = random.Random(seed)
    rows = []
    for i in range(count):
        row = {
            "tenant_id": 1,
            "ts": BASE_TS + (start + i) * MICROS,
            "n": rng.choice((None, 0, 1, 2, 3, 7) + BIG),
            "f": rng.choice((None, NAN, -0.0, 0.0, -0.5, 0.1, 0.3, 1e300, 2.5)),
            "fk": rng.choice((None, -1.5, 0.0, 2.25)),
            "b": rng.choice((None, True, False)),
            "d": rng.choice((None, "alpha", "beta", "gamma")),
            "p": rng.choice((None, f"p{rng.randrange(6)}", f"unique-{seed}-{i}")),
        }
        if extra:
            row["extra"] = rng.choice((None, 5, 6))
        rows.append(row)
    return rows


@pytest.fixture(scope="module")
def env() -> Env:
    """Three LogBlocks of several 16-row column blocks; the last one
    alone carries the DDL-added ``extra``."""
    built = Env(SCHEMA, block_rows=16, target_rows=120)
    built.archive(make(120, seed=1, start=0))
    built.archive(make(90, seed=2, start=120))
    built.catalog.add_column(ColumnSpec("extra", ColumnType.INT64))
    built.archive(make(100, seed=3, start=210, extra=True))
    return built


KEYS = (None, "n", "fk", "b", "d", "p", "extra")
VALUES = ("n", "f", "b", "d", "p", "extra")
PREDICATES = (
    "n >= 0",
    "n IS NULL OR b = true",
    "fk < 1.0",
    f"ts >= {BASE_TS + 30 * MICROS} AND ts < {BASE_TS + 250 * MICROS}",
    "d = 'alpha' OR d = 'gamma'",
    "ts >= 0",
    "n > 9000000000000000000",  # matches nothing
)


def random_query(rng: random.Random) -> str:
    key = rng.choice(KEYS)
    items = ["COUNT(*)"]
    for column in rng.sample(VALUES, rng.randint(1, 3)):
        numeric = column in ("n", "f", "extra")
        funcs = ["COUNT({})", "MIN({})", "MAX({})", "COUNT(DISTINCT {})", "APPROX_COUNT_DISTINCT({})"]
        if numeric:
            funcs += ["SUM({})", "AVG({})"]
        items += [func.format(column) for func in rng.sample(funcs, rng.randint(1, 3))]
    select = ", ".join(([key] if key else []) + items)
    sql = f"SELECT {select} FROM request_log WHERE tenant_id = 1 AND ({rng.choice(PREDICATES)})"
    if key:
        sql += f" GROUP BY {key}"
        if rng.random() < 0.3:  # ties: broken by first-seen group order
            sql += f" ORDER BY COUNT(*) {rng.choice(('ASC', 'DESC'))} LIMIT {rng.randint(1, 4)}"
    return sql


def test_both_string_forms_are_exercised(env):
    executor = env.executor()
    forms = {"d": set(), "p": set()}
    for entry in env.catalog.blocks_for(1):
        reader = executor._open_block(entry)
        for block in range(reader.meta().n_blocks):
            for column, seen in forms.items():
                seen.add(type(reader.read_block_arrays(column, block)))
    # (A short trailing block of ``d`` is PLAIN too.)
    assert tuple in forms["d"] and forms["p"] == {Strings}


def test_fold_equals_the_row_fold(env):
    rng = random.Random(23)
    folded_blocks = 0
    for _ in range(150):
        sql = random_query(rng)
        folded, stats = env.run(sql, sma=False)
        # repr: a NaN equals itself only by its text, -0.0 0.0 only by value.
        assert repr(folded) == repr(env.reference(sql)), sql
        folded_blocks += stats.pushdown.agg_columnar_blocks
    assert folded_blocks > 300


def test_chunk_fold_equals_the_row_fold(env):
    """A chunk of the rows as they were put — the NaN one object, nulls
    in every column — folds like the rows' dicts."""
    rng = random.Random(29)
    for _ in range(100):
        sql = random_query(rng)
        query = parse_sql(sql)
        rows = [row for row in env.rows if matches(query.where, row)]
        folded = Aggregator(query)
        folded.consume_many(RowBatch.from_dicts(rows))
        assert repr(folded.results()) == repr(fold(query, rows)), sql


def test_nan_group_keys_stay_one_group_each(env):
    """A NaN key equals no key, itself included: the row fold opens a
    group per NaN row, and so does the array fold."""
    sql = "SELECT f, COUNT(*), MAX(n) FROM request_log WHERE tenant_id = 1 AND n >= 0 GROUP BY f"
    folded, _ = env.run(sql)
    assert repr(folded) == repr(env.reference(sql))
    nan_groups = [row for row in folded if row["f"] is not None and row["f"] != row["f"]]
    assert len(nan_groups) > 1 and all(row["COUNT(*)"] == 1 for row in nan_groups)


def test_ints_past_2_53_keep_every_bit(env):
    sql = "SELECT MIN(n), MAX(n), COUNT(DISTINCT n), SUM(n) FROM request_log WHERE tenant_id = 1 AND b = true"
    (row,), stats = env.run(sql)
    values = [r["n"] for r in env.rows if r["b"] is True and r["n"] is not None]
    assert stats.pushdown.agg_columnar_blocks == 3
    assert row["MIN(n)"] == min(values) == BIG[2] and row["MAX(n)"] == max(values) == BIG[1]
    assert row["COUNT(DISTINCT n)"] == len(set(values))
    total = 0.0
    for value in values:
        total += value
    assert row["SUM(n)"] == total == pytest.approx(sum(values), rel=1e-12)


def test_consume_columns_takes_what_the_reader_decoded(env):
    """The unit-level contract: decoded blocks + in-block offsets in,
    the same states as the rows' dicts out."""
    query = parse_sql("SELECT d, COUNT(*), SUM(f), MIN(p), COUNT(DISTINCT b) FROM request_log GROUP BY d")
    executor = env.executor()
    entry = env.catalog.blocks_for(1)[0]
    reader = executor._open_block(entry)
    rng = random.Random(5)
    row_ids = sorted(rng.sample(range(reader.row_count), 70))
    matched = reader.select(np.array(row_ids))
    assert len(matched.groups) > 3
    folded = Aggregator(query)
    folded.consume_columns(
        {
            column: [reader.read_block_arrays(column, block) for block, _ in matched.groups]
            for column in ("d", "f", "p", "b")
        },
        [offsets for _, offsets in matched.groups],
    )
    rows = reader.read_rows(row_ids, ["d", "f", "p", "b"])
    assert repr(folded.results()) == repr(fold(query, rows))
    # Groups open in first-seen order.
    assert [key for key, _ in folded._groups] == list(dict.fromkeys(row["d"] for row in rows))
