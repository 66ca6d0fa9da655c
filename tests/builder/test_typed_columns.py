"""Typed memtable columns: the archive path's bytes, the realtime path's values.

The memtable keeps an INT / FLOAT / BOOL column as a numpy vector and a
STRING one as its NUL-joined blob plus offsets, and the data builder
hands the gathered vector or blob to the LogBlock writer as it is.
Whatever the batches held — admitted or read back from their payload,
framed ints of any width and base, nulls, ints in a FLOAT64 column,
empty, non-ASCII or NUL-holding text, keys the schema does not know, a
key set that grows mid-table, a key whose kind changes between batches,
tenants whose rows interleave — the LogBlocks written must be, member by
member, the bytes the per-value reference writer
(``LogBlockWriter(vectorized=False)``) makes of the same rows as dicts.
And no numpy value may leak out: realtime readers get Python ``int`` /
``float`` / ``bool`` / ``str``, and so do the catalog entries of an
archive.
"""

import math
import random
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import LogStore, small_test_config
from repro.builder.builder import DataBuilder
from repro.logblock.schema import ColumnSpec, ColumnType, TableSchema
from repro.logblock.writer import LogBlockWriter
from repro.meta.catalog import Catalog
from repro.meta.janitor import Janitor
from repro.meta.persistence import restore_catalog, serialize_catalog
from repro.oss.store import InMemoryObjectStore
from repro.rowstore import MemTable, RowBatch

from tests.conftest import make_rows
from tests.logblock.test_encode_kernels import unpack_members

SCHEMA = TableSchema(
    "typed",
    (
        ColumnSpec("tenant_id", ColumnType.INT64),
        ColumnSpec("ts", ColumnType.TIMESTAMP),
        ColumnSpec("i", ColumnType.INT64),
        ColumnSpec("f", ColumnType.FLOAT64),
        ColumnSpec("b", ColumnType.BOOL),
        ColumnSpec("s", ColumnType.STRING),
        ColumnSpec("msg", ColumnType.STRING, tokenize=True),
    ),
)
PYTHON_TYPES = {int, float, bool, str, type(None)}

# Per batch, how each key's values look: its kind on the wire follows.
# Bases and spans pick every frame width (0, 1, 2, 4, 8 bytes) with
# negative, zero and positive bases once a batch passes 256 rows.
BASES = (-(2**62), -70_000, -3, 0, 12, 2**40)
SPANS = (0, 200, 60_000, 2**31, 2**61)
SHAPES = {
    "i": ("ints", "ints with nulls", "absent"),
    "f": ("floats", "floats and ints", "ints", "floats with nulls", "absent"),
    "b": ("bools", "bools with nulls", "absent"),
    "s": ("text", "text with a NUL", "text with nulls", "absent"),
    "x": ("absent", "ints", "anything"),  # a key the schema does not know
}


def ints(rng: random.Random, count: int, base: int, span: int) -> list[int]:
    return [base + rng.randint(0, span) for _ in range(count)]


def column(rng: random.Random, key: str, shape: str, count: int, base: int, span: int) -> list:
    if key == "i" or (key == "x" and shape == "ints"):
        values = ints(rng, count, base, span)
    elif key == "f":
        values = [rng.choice((0.5, -0.0, 1e300, -2.25, math.nan, rng.random())) for _ in range(count)]
        if shape != "floats":
            values = [
                rng.randint(-9, 9) if shape == "ints" or rng.random() < 0.5 else value
                for value in values
            ]
    elif key == "b":
        values = [rng.random() < 0.5 for _ in range(count)]
    elif key == "s":
        values = [rng.choice(("a", "é", "日本", "", "ok")) for _ in range(count)]
        if shape == "text with a NUL":
            values[rng.randrange(count)] = "nul\0inside"
    else:
        values = [rng.choice((None, 1, "y", 2.5, b"z", [1])) for _ in range(count)]
    if shape.endswith("with nulls"):
        values = [None if rng.random() < 0.3 else value for value in values]
    return values


@st.composite
def tables(draw):
    """Batches of rows, each admitted or read back from its payload,
    with a read (widening what came before) after some of them."""
    batches = []
    for _ in range(draw(st.integers(1, 4))):
        rng = random.Random(draw(st.integers(0, 2**32)))
        count = draw(st.sampled_from([1, 9, 300]))
        base, span = draw(st.sampled_from(BASES)), draw(st.sampled_from(SPANS))
        tenant = draw(st.integers(1, 3))
        rows = [
            {"tenant_id": tenant, "ts": ts}
            for ts in ints(rng, count, draw(st.sampled_from(BASES)), draw(st.sampled_from(SPANS)))
        ]
        for key, shapes in SHAPES.items():
            shape = draw(st.sampled_from(shapes))
            if shape != "absent":
                for row, value in zip(rows, column(rng, key, shape, count, base, span)):
                    row[key] = value
        for row in rows:
            row["msg"] = rng.choice(("GET /x/{} took {}ms", "é 日本 {}/{}", "")).format(
                rng.randrange(50), rng.randrange(900)
            )
        batches.append((rows, draw(st.booleans()), draw(st.booleans())))
    return batches


def archive(table: MemTable) -> dict[int, list[dict[str, bytes]]]:
    """The builder's LogBlocks of ``table``, per tenant, member by member."""
    oss = InMemoryObjectStore()
    oss.create_bucket("b")
    catalog = Catalog(SCHEMA)
    builder = DataBuilder(
        SCHEMA, catalog, Janitor(catalog, oss, "b"),
        codec="zlib", block_rows=64, target_rows=250,
    )
    builder.archive_memtable(table, "s0-0")
    return {
        info.tenant_id: [unpack_members(oss.get("b", entry.path)) for entry in info.blocks]
        for info in catalog.tenants()
    }


def expected_blocks(rows: list[dict]) -> dict[int, list[dict[str, bytes]]]:
    """What the reference writer makes of each tenant's rows in ts order
    (ties by arrival), cut at the builder's target."""
    blocks: dict[int, list[dict[str, bytes]]] = {}
    for tenant in sorted({row["tenant_id"] for row in rows}):
        mine = sorted((row for row in rows if row["tenant_id"] == tenant), key=lambda r: r["ts"])
        for start in range(0, len(mine), 250):
            writer = LogBlockWriter(SCHEMA, codec="zlib", block_rows=64, vectorized=False)
            writer.append_many(mine[start : start + 250])
            blocks.setdefault(tenant, []).append(unpack_members(writer.finish()))
    return blocks


class TestArchivedBytes:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(tables())
    def test_typed_memtable_writes_the_row_writers_bytes(self, batches):
        table = MemTable()
        for rows, from_wire, read_after in batches:
            batch = RowBatch.admit(rows)
            table.append_many(RowBatch.from_bytes(batch.to_bytes()) if from_wire else batch)
            if read_after:
                table.scan()
        table.seal()
        assert archive(table) == expected_blocks([row for rows, _, _ in batches for row in rows])

    @pytest.mark.parametrize("from_wire", [False, True])
    def test_a_key_whose_kind_changes_becomes_a_list(self, from_wire):
        """INT, then ANY (a null), then FLOAT: the column falls back to
        Python values and still archives to the same bytes."""
        rows = [{"tenant_id": 1, "ts": t, "i": t * 3, "f": 1.5} for t in range(300)]
        rows += [{"tenant_id": 1, "ts": 300, "i": None, "f": 2}]
        rows += [{"tenant_id": 1, "ts": t, "i": 7, "f": 0.25} for t in range(301, 310)]
        table = MemTable()
        for piece in (rows[:300], rows[300:301], rows[301:]):
            batch = RowBatch.admit(piece)
            table.append_many(RowBatch.from_bytes(batch.to_bytes()) if from_wire else batch)
        table.seal()
        assert archive(table) == expected_blocks(rows)


def python_values(values) -> bool:
    return {type(value) for value in values} <= PYTHON_TYPES


class TestRealtimeValuesArePython:
    @pytest.mark.parametrize("from_wire", [False, True])
    def test_scan_column_take_and_dicts(self, from_wire):
        table = MemTable()
        for tenant in (1, 2):
            batch = RowBatch.admit(make_rows(300, tenant_id=tenant, seed=tenant))
            table.append_many(RowBatch.from_bytes(batch.to_bytes()) if from_wire else batch)
        selection = table.scan(tenant_id=2)
        for name in ("ts", "tenant_id", "latency", "fail", "ip"):
            values = selection.column(name)
            assert python_values(values) and values == [row[name] for row in selection]
        assert isinstance(selection.column("ts", typed=True), np.ndarray)
        chunk = selection.pick(np.arange(0, len(selection), 7)).project(
            ["ts", "latency", "fail", "ip", "nope"]
        )
        assert all(python_values(column) for column in chunk.columns)
        assert all(python_values(row.values()) for row in selection)
        assert all(python_values(row.values()) for row in chunk.to_dicts())

    def test_sql_select_over_unarchived_rows(self):
        store = LogStore.create(config=small_test_config(use_raft=False))
        store.put(4, make_rows(80, tenant_id=4))
        result = store.query(
            "SELECT ts, latency, fail, ip FROM request_log WHERE tenant_id = 4 AND latency >= 0"
        )
        assert len(result.rows) == 80 and result.realtime_rows == 80
        assert all(python_values(row.values()) for row in result.rows)


class TestCatalogEntriesArePython:
    @pytest.mark.parametrize("use_raft", [False, True])
    def test_entries_and_persistence(self, use_raft):
        store = LogStore.create(config=small_test_config(use_raft=use_raft))
        for tenant in (1, 2, 3):
            store.put(tenant, make_rows(120, tenant_id=tenant, seed=tenant))
        report = store.flush_all()
        assert report.rows_archived == 360
        for entry in store.catalog.all_blocks():
            for value in (entry.tenant_id, entry.min_ts, entry.max_ts, entry.row_count):
                assert type(value) is int
            assert re.fullmatch(
                rf"tenants/{entry.tenant_id}/s\d+-\d+-0000-[0-9a-f]{{16}}\.lgb", entry.path
            )
        restored = Catalog(store.catalog.schema)
        restore_catalog(restored, serialize_catalog(store.catalog))
        assert restored.all_blocks() == store.catalog.all_blocks()
