"""The column-chunk row store ≡ a plain list of dicts.

The oracle keeps what the row store used to keep — row dicts, appended
one at a time, sorted when read — and every observable of the real
store must agree with it: scan order (ts, ties by arrival), seal points,
``approx_bytes``, per-tenant archive groups, and every durable round
trip (payload, split/concat, plain-WAL replay, Raft replica apply,
checkpoint state).  Rows compare modulo nulls: a batch normalises its
rows to one key set, so a missing key and a null are the same row.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.shard import Shard
from repro.common.clock import VirtualClock
from repro.common.errors import InvalidBatchError, RowStoreError
from repro.rowstore import MemTable, RowBatch, RowStore
from repro.wal.log import MemorySegmentBackend

from tests.conftest import make_rows

_SIZED = (str, bytes, bytearray)


def normalised(rows: list[dict]) -> list[dict]:
    """A client batch as admitted: every row over the union of the keys."""
    names = list(dict.fromkeys(key for row in rows for key in row))
    return [{name: row.get(name) for name in names} for row in rows]


def row_bytes(row: dict) -> int:
    return sum(len(k) + (len(v) if isinstance(v, _SIZED) else 8) for k, v in row.items())


def canon(rows) -> list[dict]:
    return [{k: v for k, v in row.items() if v is not None} for row in rows]


def by_ts(rows: list[dict]) -> list[dict]:
    return sorted(rows, key=lambda row: row["ts"])  # stable: ties by arrival


class ListOracle:
    """Row-at-a-time model of ``RowStore``: dict lists, reference sizes."""

    def __init__(self, seal_rows: int, seal_bytes: int) -> None:
        self.seal_rows, self.seal_bytes = seal_rows, seal_bytes
        self.sealed: list[list[dict]] = []
        self.active: list[dict] = []
        self.active_bytes = 0
        self.total_bytes = 0
        self.total_rows = 0

    def put(self, rows: list[dict]) -> None:
        for row in normalised(rows):
            self.active.append(row)
            self.active_bytes += row_bytes(row)
            self.total_bytes += row_bytes(row)
            self.total_rows += 1
            if len(self.active) >= self.seal_rows or self.active_bytes >= self.seal_bytes:
                self.seal()

    def seal(self) -> None:
        if self.active:
            self.sealed.append(self.active)
            self.active, self.active_bytes = [], 0

    def state(self):
        return (
            self.total_rows,
            [canon(by_ts(table)) for table in self.sealed],
            canon(by_ts(self.active)),
            self.total_bytes,
        )

    def scan(self, min_ts=None, max_ts=None, tenant_id=None) -> list[dict]:
        return canon(
            row
            for table in self.sealed + [self.active]
            for row in by_ts(table)
            if (min_ts is None or row["ts"] >= min_ts)
            and (max_ts is None or row["ts"] <= max_ts)
            and (tenant_id is None or row["tenant_id"] == tenant_id)
        )


def state_of(store: RowStore):
    return (
        store.total_rows_ingested,
        [canon(table.scan()) for table in store.take_sealed()],
        canon(store.active.scan()),
        store.approx_bytes(),
    )


class Label(str):
    """A ``str`` subclass: sized by length, but ``type(v) is not str``."""


values = st.one_of(
    st.none(),
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    st.integers(min_value=2**70, max_value=2**80),
    st.floats(allow_nan=False),
    st.text(max_size=8),
    st.text(max_size=6).map(Label),
    st.binary(max_size=8),
    st.binary(max_size=6).map(bytearray),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
extra_keys = st.sampled_from(["ip", "api", "latency", "fail", "log", "x"])


@st.composite
def client_batches(draw):
    """Batches of rows that carry ts/tenant_id: tied and out-of-order
    timestamps, three tenants, one shared key set or ragged keys."""
    uniform = draw(st.booleans())
    shared = draw(st.lists(extra_keys, unique=True, max_size=4))
    rows = []
    for _ in range(draw(st.integers(0, 14))):
        keys = shared if uniform else draw(st.lists(extra_keys, unique=True, max_size=4))
        row = {"tenant_id": draw(st.integers(1, 3)), "ts": draw(st.integers(0, 12))}
        row.update((key, draw(values)) for key in keys)
        rows.append(row)
    return rows


workloads = st.lists(client_batches(), min_size=1, max_size=6)
seal_rows = st.integers(min_value=1, max_value=20)
seal_bytes = st.integers(min_value=40, max_value=2_000)
bounds = st.one_of(st.none(), st.integers(-1, 13))


class TestStoreVersusOracle:
    @settings(max_examples=150, deadline=None)
    @given(seal_rows, seal_bytes, workloads, bounds, bounds, st.sampled_from([None, 1, 2, 4]))
    def test_scan_seal_points_and_sizes(self, rows, nbytes, batches, lo, hi, tenant):
        store, oracle = RowStore(seal_rows=rows, seal_bytes=nbytes), ListOracle(rows, nbytes)
        for batch in batches:
            store.append_many(RowBatch.admit(batch))
            oracle.put(batch)
            assert state_of(store) == oracle.state()  # seal points, approx_bytes
            assert canon(store.scan(lo, hi, tenant)) == oracle.scan(lo, hi, tenant)
        store.seal_active()
        oracle.seal()
        assert state_of(store) == oracle.state()
        assert store.row_count() == sum(map(len, batches))
        # A selection gathers a column, or some of its rows, on demand.
        selection, expected = store.scan(lo, hi, tenant), oracle.scan(lo, hi, tenant)
        assert len(selection) == len(expected)
        for name in ("ts", "x"):
            column = selection.column(name) or [None] * len(expected)
            assert column == [row.get(name) for row in expected]
        hits = np.arange(0, len(expected), 2)
        assert selection.pick(hits).project(["x", "ts"]).to_dicts() == [
            {"x": row.get("x"), "ts": row["ts"]} for row in expected[::2]
        ]
        assert store.tenants() == {row["tenant_id"] for batch in batches for row in batch}

    @settings(max_examples=100, deadline=None)
    @given(workloads)
    def test_tenant_groups_are_the_sorted_dict_groups(self, batches):
        store = RowStore(seal_rows=10**6, seal_bytes=1 << 30)
        for batch in batches:
            store.append_many(RowBatch.admit(batch))
        rows = [row for batch in batches for row in normalised(batch)]
        expected: dict[int, list[dict]] = {}
        for row in by_ts(rows):
            expected.setdefault(row["tenant_id"], []).append(row)
        groups = store.active.rows_by_tenant()
        assert {t: canon(group) for t, group in groups.items()} == {
            t: canon(group) for t, group in expected.items()
        }
        assert list(groups) == sorted(groups)
        if rows:
            assert store.active.ts_range() == (by_ts(rows)[0]["ts"], by_ts(rows)[-1]["ts"])

    def run(self, batches, rows, nbytes) -> RowStore:
        store, oracle = RowStore(seal_rows=rows, seal_bytes=nbytes), ListOracle(rows, nbytes)
        for batch in batches:
            store.append_many(batch)  # plain dicts: admitted by the store
            oracle.put(batch)
            assert state_of(store) == oracle.state()
        return store

    def test_batch_crosses_seal_rows(self):
        store = self.run([make_rows(30, seed=s) for s in range(4)], 50, 1 << 30)
        assert [len(t) for t in store.take_sealed()] == [50, 50]

    def test_batch_lands_exactly_on_seal_rows(self):
        store = self.run([make_rows(25, seed=s) for s in range(4)], 50, 1 << 30)
        assert [len(t) for t in store.take_sealed()] == [50, 50]
        assert len(store.active) == 0

    def test_batch_crosses_seal_bytes(self):
        store = self.run([make_rows(20, seed=s) for s in range(5)], 10**6, 5_000)
        assert len(store.take_sealed()) >= 2

    def test_one_batch_spans_several_seals(self):
        store = self.run([make_rows(7), make_rows(100, seed=1), make_rows(3, seed=2)], 16, 1 << 30)
        assert len(store.take_sealed()) == 6

    def test_scan_bounds_beyond_int64(self):
        store = RowStore()
        store.append_many([{"tenant_id": 1, "ts": 5}])
        assert len(store.scan(min_ts=-(2**70), max_ts=2**70)) == 1
        assert len(store.scan(min_ts=2**70)) == len(store.scan(max_ts=-(2**70))) == 0


def typed(columns) -> list[list]:
    """Values with their exact types: ``True == 1 == 1.0`` must not pass."""
    return [[(type(v), v) for v in column] for column in columns]


def same_batch(a: RowBatch, b: RowBatch) -> bool:
    return (a.names, typed(a.columns), len(a), a.nbytes) == (
        b.names, typed(b.columns), len(b), b.nbytes,
    )


class TestAdmission:
    def test_same_width_different_keys(self):
        rows = [{"tenant_id": 1, "ts": 1, "a": "xx"}, {"tenant_id": 1, "ts": 2, "bcd": 7}]
        batch = RowBatch.admit(rows)
        assert batch.names == ("tenant_id", "ts", "a", "bcd")
        assert batch.nbytes == sum(map(row_bytes, normalised(rows)))

    def test_request_log_rows(self):
        rows = make_rows(100, tenant_id=3)
        assert RowBatch.admit(rows, 3).nbytes == sum(map(row_bytes, rows))

    def test_empty_batch(self):
        batch = RowBatch.admit([], tenant_id=1)
        assert (len(batch), batch.nbytes, bool(batch), batch.to_dicts()) == (0, 0, False, [])

    def test_empty_columns_are_the_empty_batch(self):
        batch = RowBatch.from_columns(("tenant_id", "ts"), [[], []], 1)
        assert (len(batch), batch.nbytes, batch.tenant_id) == (0, 0, 1)
        assert MemTable().append_many(batch) == 0

    def test_keeps_neither_the_list_nor_the_dicts(self):
        rows = make_rows(3)
        batch = RowBatch.admit(rows)
        expected = [dict(row) for row in rows]
        rows[0]["ip"] = "changed"
        rows.clear()
        assert batch.to_dicts() == expected

    @pytest.mark.parametrize("column", ["ts", "tenant_id"])
    @pytest.mark.parametrize("ragged", [False, True])
    def test_missing_required_column(self, column, ragged):
        rows = make_rows(6, tenant_id=1)
        if ragged:
            del rows[4][column]
        else:
            for row in rows:
                del row[column]
        with pytest.raises(InvalidBatchError, match=column):
            RowBatch.admit(rows)

    @pytest.mark.parametrize("column", ["ts", "tenant_id"])
    @pytest.mark.parametrize("value", [None, "7", 7.0, True, 2**63, -(2**63) - 1])
    def test_key_columns_must_be_int64(self, column, value):
        rows = make_rows(4, tenant_id=1)
        rows[2][column] = value
        with pytest.raises(InvalidBatchError, match=column):
            RowBatch.admit(rows)

    @pytest.mark.parametrize("ragged", [False, True])
    def test_foreign_tenant(self, ragged):
        rows = make_rows(6, tenant_id=1)
        rows[3]["tenant_id"] = 2
        if ragged:
            rows[0]["extra"] = 1
        with pytest.raises(InvalidBatchError, match="does not match 1"):
            RowBatch.admit(rows, tenant_id=1)
        assert len(RowBatch.admit(rows)) == 6  # no tenant asked for: mixed is fine

    def test_error_is_both_legacy_types(self):
        with pytest.raises(ValueError):
            RowBatch.admit([{"ts": 1, "tenant_id": 2}], tenant_id=1)
        with pytest.raises(RowStoreError):
            RowBatch.admit([{"tenant_id": 1}])

    def test_from_columns_checks_what_admit_checks(self):
        good = RowBatch.from_columns(("tenant_id", "ts", "x"), [(1, 1), [5, 6], ["a", None]], 1)
        assert good.to_dicts() == normalised(
            [{"tenant_id": 1, "ts": 5, "x": "a"}, {"tenant_id": 1, "ts": 6, "x": None}]
        )
        assert good.nbytes == sum(map(row_bytes, good.to_dicts()))
        with pytest.raises(InvalidBatchError, match="unequal length"):
            RowBatch.from_columns(("tenant_id", "ts"), [[1, 1], [5]])
        with pytest.raises(InvalidBatchError, match="does not match 2"):
            RowBatch.from_columns(("tenant_id", "ts"), [[1, 1], [5, 6]], 2)


class TestRoundTrips:
    @settings(max_examples=100, deadline=None)
    @given(client_batches(), st.data())
    def test_admit_payload_split_concat(self, rows, data):
        batch = RowBatch.admit(rows)
        expected = normalised(rows)
        assert batch.to_dicts() == expected
        assert batch.row_sizes() == list(map(row_bytes, expected))
        assert batch.nbytes == sum(map(row_bytes, expected))
        assert same_batch(RowBatch.from_bytes(batch.to_bytes()), batch)
        cut = data.draw(st.integers(0, len(rows)))
        pieces = batch.split([cut, len(rows) - cut])
        assert [p.to_dicts() for p in pieces] == [expected[:cut], expected[cut:]]
        assert [p.nbytes for p in pieces] == [
            sum(map(row_bytes, expected[:cut])), sum(map(row_bytes, expected[cut:])),
        ]
        assert same_batch(RowBatch.concat(pieces), batch) or not rows
        picked = data.draw(st.lists(st.integers(0, max(len(rows) - 1, 0)), max_size=5))
        if rows:
            assert batch.to_dicts(picked) == [expected[i] for i in picked]
            assert batch.to_dicts(picked, ["ts", "nope"]) == [
                {"ts": expected[i]["ts"], "nope": None} for i in picked
            ]

    @settings(max_examples=50, deadline=None)
    @given(workloads)
    def test_concat_is_the_batch_of_all_the_rows(self, batches):
        """A coalesced group is what admitting its rows as one client
        batch gives — key union, null fill and the sizes of both."""
        merged = RowBatch.concat([RowBatch.admit(rows) for rows in batches])
        assert same_batch(merged, RowBatch.admit([row for rows in batches for row in rows]))
        assert sum(merged.row_sizes()) == merged.nbytes

    @settings(max_examples=60, deadline=None)
    @given(seal_rows, seal_bytes, workloads)
    def test_checkpoint_state(self, rows, nbytes, batches):
        """install(serialize) reproduces the store, and equal stores give
        equal bytes whether or not a read has consolidated their chunks."""
        store, untouched = (RowStore(seal_rows=rows, seal_bytes=nbytes) for _ in range(2))
        for batch in batches:
            store.append_many(RowBatch.admit(batch))
            untouched.append_many(RowBatch.admit(batch))
            store.scan()
        state = store.serialize_state()
        assert state == untouched.serialize_state()
        restored = RowStore(seal_rows=rows, seal_bytes=nbytes)
        restored.install_state(state)
        assert restored.serialize_state() == state  # still encoded
        assert state_of(restored) == state_of(store)
        assert restored.sealed_dropped == store.sealed_dropped
        assert restored.serialize_state() == state  # decoded by the read
        restored.append_many(RowBatch.admit(batches[0]))  # and it keeps sealing the same
        store.append_many(RowBatch.admit(batches[0]))
        assert state_of(restored) == state_of(store)


def plain_shard(backend, rows, nbytes) -> Shard:
    return Shard(0, "w0", 10_000, rows, nbytes, VirtualClock(), wal_backend=backend)


class TestShardRecovery:
    @settings(max_examples=40, deadline=None)
    @given(seal_rows, seal_bytes, workloads, st.integers(0, 5))
    def test_plain_wal_replay(self, rows, nbytes, batches, checkpoint_after):
        """A new process over the surviving WAL (checkpoint record, then
        batch records) rebuilds exactly the oracle's store."""
        backend = MemorySegmentBackend()
        shard, oracle = plain_shard(backend, rows, nbytes), ListOracle(rows, nbytes)
        for i, batch in enumerate(batches):
            shard.write(RowBatch.admit(batch))
            oracle.put(batch)
            if i == checkpoint_after:
                shard.checkpoint()
        rebuilt = plain_shard(backend, rows, nbytes)
        assert state_of(rebuilt.rowstore) == state_of(shard.rowstore) == oracle.state()

    @settings(max_examples=8, deadline=None)
    @given(seal_rows, seal_bytes, workloads)
    def test_raft_replica_apply(self, rows, nbytes, batches):
        """Every full replica applies the group-committed entry — the
        batches coalesced into one — into the oracle's store, byte-exactly
        alike; so does a recovered one."""
        clock = VirtualClock()
        shard = Shard(0, "w0", 10_000, rows, nbytes, clock, use_raft=True, group_commit=True)
        oracle = ListOracle(rows, nbytes)
        for batch in batches:
            shard.write_async(RowBatch.admit(batch))
        oracle.put([row for batch in batches for row in batch])
        shard.settle_writes()
        assert shard.write_stats.groups_committed <= 1
        clock.advance(0.5)  # heartbeats carry commit to followers
        shard.checkpoint()
        follower = next(n for n in shard.raft.full_replicas() if n is not shard.raft.leader())
        shard.crash_replica(follower.node_id)
        shard.recover_replica(follower.node_id)
        clock.advance(1.0)
        shard.verify_raft_consistency()
        for node in shard.raft.full_replicas():
            assert state_of(shard.replica_store(node.node_id)) == oracle.state()
