"""The row store's record codec: batch payloads and checkpoint states.

A payload is what a Raft entry or a plain shard's WAL record carries and
a state is what a checkpoint holds, so neither may turn damage into a
wrong answer (``tests/formats/test_corruption.py`` damages both).  A
round trip keeps every value *and its type*
(``True == 1 == 1.0`` would let a FLOAT64 column change its SMA kind, and
with it the stored bytes); equal tables give equal bytes however they
were chunked or read; and a replica applies a batch without decoding it.
"""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import LogStore, small_test_config
from repro.cluster.shard import _CMD_DRAIN_PREFIX, _CMD_SEAL, apply
from repro.common.errors import CorruptionError, InvalidBatchError
from repro.rowstore import RowBatch, RowStore
from repro.rowstore import memtable as memtable_module
from repro.rowstore.batch import BATCH_MAGIC

from tests.conftest import make_rows
from tests.rowstore.test_column_chunks import client_batches, same_batch, workloads


class Label(str):
    pass


class Code(int):
    pass


def every_kind(repeat: int = 1) -> RowBatch:
    """One column per encoding: INT at widths 0/1/2/4/8 (base 0 or the
    minimum), FLOAT, BOOL, STR, and ANY for nulls, mixed numbers, text
    with a NUL, a lone surrogate in an unknown key, big ints, bytes and
    nested values."""
    n = 6
    columns = {
        "tenant_id": [7] * n,
        "ts": [2**62 + i * 3_000_000_000 for i in range(n)],
        "w1": [-3, 0, 200, 5, 1, 9],
        "byte": [0, 3, 255, 7, 1, 2],
        "framed": [300, 301, 555, 302, 300, 310],
        "w2": [-40_000, 0, 1, 2, 3, 4],
        "w8": [-(2**63), 2**63 - 1, 0, 1, -1, 5],
        "f": [0.5, -0.0, math.inf, -math.inf, 1e300, 2.0],
        "b": [True, False, False, True, True, False],
        "s": ["", "é", "日本", "ascii", "a b", "x"],
        "nulls": [None, 1, None, "x", None, 2.5],
        "mixed": [1, 1.0, True, 2**70, -(2**80), None],
        "nul": ["a\0b", "c", "", "\0", "d", "e"],
        "surrogate": ["\ud800", "ok", "x", "y", "z", "w"],
        "blobs": [b"", b"\0\xff", bytearray(b"ba"), None, b"x", bytearray()],
        "nested": [[1, [2.5, None]], {"k": [True]}, {1: b"v", None: "n"}, [], {}, [[]]],
        "subclassed": [Label("l"), Code(3), "plain", 4, Label(""), Code(-1)],
    }
    return RowBatch.from_columns(
        tuple(columns), [column * repeat for column in columns.values()], 7
    )


LONG = 43  # 258 rows: past the 256 up to which ints stay int64


class TestRoundTrip:
    @pytest.mark.parametrize("repeat", [1, LONG])
    def test_every_kind_keeps_values_and_types(self, repeat):
        batch = every_kind(repeat)
        decoded = RowBatch.from_bytes(batch.to_bytes())
        assert same_batch(decoded, batch)
        assert decoded.to_bytes() == batch.to_bytes()
        # Subclasses are carried as their base types from admission on.
        assert {type(v) for v in batch.column("subclassed")} == {str, int}

    def test_nan_keeps_its_bits(self):
        nan = struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_DEAD_BEEF))[0]
        batch = RowBatch.from_columns(("tenant_id", "ts", "f"), [[1, 1], [1, 2], [nan, 1.5]])
        (back, _) = RowBatch.from_bytes(batch.to_bytes()).column("f")
        assert struct.pack("<d", back) == struct.pack("<d", nan)

    @settings(max_examples=150, deadline=None)
    @given(client_batches())
    def test_admitted_batches(self, rows):
        batch = RowBatch.admit(rows)
        assert same_batch(RowBatch.from_bytes(batch.to_bytes()), batch)

    @settings(max_examples=50, deadline=None)
    @given(workloads)
    def test_group_commit_join_is_the_batch_of_all_the_rows(self, batches):
        """``concat`` joins typed buffers where it can; its payload is
        the payload of the rows admitted as one batch."""
        merged = RowBatch.concat([RowBatch.admit(rows) for rows in batches])
        whole = RowBatch.admit([row for rows in batches for row in rows])
        assert merged.to_bytes() == whole.to_bytes()
        assert same_batch(RowBatch.from_bytes(merged.to_bytes()), whole)

    @pytest.mark.parametrize("rows, int_bytes", [(300, 1 + 2 + 8), (100, 1 + 8 + 8)])
    def test_constant_and_narrow_ints_cost_little(self, rows, int_bytes):
        """Per row: ``tenant_id`` costs nothing, ``fail`` one byte; a long
        batch frames ``latency`` (at most two bytes) and ``ts``, a short
        one keeps both as int64s."""
        found = make_rows(rows, tenant_id=3)
        payload = RowBatch.admit(found, 3).to_bytes()
        text = sum(len(r["ip"]) + len(r["api"]) + len(r["log"]) + 3 for r in found)
        assert len(payload) < text + rows * int_bytes + 256

    @pytest.mark.parametrize("value", [object(), (1,), {1}, 1j, [1, (2,)]])
    def test_values_outside_the_rule_are_refused(self, value):
        with pytest.raises(InvalidBatchError, match="has no durable form"):
            RowBatch.from_columns(("tenant_id", "ts", "x"), [[1], [1], [value]])


def state_of_three_tables() -> bytes:
    store = RowStore(seal_rows=4)
    store.append_many(RowBatch.admit(make_rows(9, tenant_id=1)))
    store.append_many(every_kind())
    store.drop_sealed_prefix(1)
    return store.serialize_state()


def decode_state(state: bytes) -> RowStore:
    store = RowStore(seal_rows=4)
    store.install_state(state)
    store.scan()  # decode every table
    return store


class TestByteStableState:
    def test_failed_install_changes_nothing(self):
        store = RowStore()
        store.append_many(RowBatch.admit(make_rows(5, tenant_id=2)))
        before = store.serialize_state()
        with pytest.raises(CorruptionError):
            store.install_state(state_of_three_tables()[:-1])
        assert store.serialize_state() == before

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 150), min_size=1, max_size=5), st.booleans())
    def test_equal_tables_give_equal_bytes(self, cuts, read):
        """However a table's rows arrived — one batch, several, or as
        replicated payloads — and whether or not a read decoded them;
        tables of more than 256 rows frame their ints."""
        rows = make_rows(sum(cuts), tenant_id=5)
        whole = RowStore(seal_rows=10**6)
        whole.append_many(RowBatch.admit(rows, 5))
        chunked, replicated = RowStore(seal_rows=10**6), RowStore(seal_rows=10**6)
        start = 0
        for cut in cuts:
            batch = RowBatch.admit(rows[start : start + cut], 5)
            chunked.append_many(batch)
            apply(replicated, batch.to_bytes())
            start += cut
            if read:
                chunked.scan()
        states = {store.serialize_state() for store in (whole, chunked, replicated)}
        assert len(states) == 1


class TestCommandRouting:
    @settings(max_examples=100, deadline=None)
    @given(client_batches())
    def test_no_payload_is_a_shard_command(self, rows):
        payload = RowBatch.admit(rows).to_bytes()
        assert payload.startswith(BATCH_MAGIC)
        assert payload != _CMD_SEAL and not payload.startswith(_CMD_DRAIN_PREFIX)
        store = RowStore()
        apply(store, payload)
        assert store.row_count() == len(rows)

    def test_unknown_command_is_corruption(self):
        with pytest.raises(CorruptionError):
            apply(RowStore(), b"\x02shard-nothing")


class TestLazyApply:
    def test_no_replica_decodes_a_column_through_an_archive(self):
        """Archiving decodes no column on any replica, the leader
        included: an entry's INT / FLOAT / BOOL buffers reach the
        LogBlock writer as vectors and its STRING ones as text, never as
        Python lists."""
        store = LogStore.create(config=small_test_config(use_raft=True, group_commit=True))
        before = RowBatch.columns_decoded
        for i in range(24):
            store.put_nowait(1 + i % 3, make_rows(50, tenant_id=1 + i % 3, seed=i))
            if i % 8 == 7:
                store.settle_writes()
        assert RowBatch.columns_decoded == before  # applied on every replica, decoded by none
        shards = [s for w in store.workers.values() for s in w.shards.values()]
        entries = sum(shard.write_stats.groups_committed for shard in shards)
        strings = sum(isinstance(v, str) for v in make_rows(1)[0].values())
        assert entries > 3 and strings == 3
        widened = []
        real_widen = memtable_module.widen_part
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                memtable_module, "widen_part",
                lambda part, count: widened.append(part[0]) or real_widen(part, count),
            )
            assert store.flush_all().rows_archived == 24 * 50
        assert RowBatch.columns_decoded == before
        assert len(widened) == entries * (len(make_rows(1)[0]) - strings)
