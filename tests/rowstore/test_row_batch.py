"""RowBatch admission ≡ the per-row reference estimate, and the batch
store path ≡ a row-at-a-time reference store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import InvalidBatchError, RowStoreError
from repro.rowstore import RowBatch, RowStore

from tests.conftest import make_rows, rowstore_state


def reference_row_bytes(row: dict) -> int:
    """The estimate every layer used to compute for itself (the former
    ``rowstore.memtable._approx_row_bytes``), kept here as the oracle."""
    total = 0
    for key, value in row.items():
        total += len(key)
        if isinstance(value, str):
            total += len(value)
        elif isinstance(value, (bytes, bytearray)):
            total += len(value)
        else:
            total += 8
    return total


class Label(str):
    """A ``str`` subclass: sized by length, but ``type(v) is not str``."""


values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**70, max_value=2**90),
    st.floats(allow_nan=False),
    st.text(max_size=12),
    st.text(max_size=6).map(Label),
    st.binary(max_size=12),
    st.binary(max_size=6).map(bytearray),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
extra_keys = st.sampled_from(["ip", "api", "latency", "fail", "log", "x", ""])


@st.composite
def row_lists(draw):
    """Rows that all carry ts/tenant_id; either one shared key set (the
    columnar pass) or independently drawn keys (missing/extra: ragged)."""
    uniform = draw(st.booleans())
    n = draw(st.integers(min_value=0, max_value=12))
    shared = draw(st.lists(extra_keys, unique=True, max_size=5))
    rows = []
    for _ in range(n):
        keys = shared if uniform else draw(st.lists(extra_keys, unique=True, max_size=5))
        row = {"tenant_id": 1, "ts": draw(st.integers(0, 10**6))}
        for key in keys:
            row[key] = draw(values)
        rows.append(row)
    return rows


class TestAdmitDifferential:
    @settings(max_examples=200, deadline=None)
    @given(rows=row_lists())
    def test_nbytes_equals_reference(self, rows):
        batch = RowBatch.admit(rows, tenant_id=1)
        assert batch.nbytes == sum(reference_row_bytes(r) for r in rows)
        assert batch.row_sizes() == [reference_row_bytes(r) for r in rows]
        assert batch.rows == rows and len(batch) == len(rows)

    def test_same_width_different_keys(self):
        rows = [{"tenant_id": 1, "ts": 1, "a": "xx"}, {"tenant_id": 1, "ts": 2, "bcd": 7}]
        assert RowBatch.admit(rows).nbytes == sum(map(reference_row_bytes, rows))

    def test_request_log_rows(self):
        rows = make_rows(100, tenant_id=3)
        assert RowBatch.admit(rows, 3).nbytes == sum(map(reference_row_bytes, rows))

    def test_empty_batch(self):
        batch = RowBatch.admit([], tenant_id=1)
        assert (len(batch), batch.nbytes, bool(batch)) == (0, 0, False)

    def test_owns_a_copy_of_the_list(self):
        rows = make_rows(3)
        batch = RowBatch.admit(rows)
        rows.clear()
        assert len(batch) == 3

    @settings(max_examples=50, deadline=None)
    @given(rows=row_lists(), data=st.data())
    def test_split_concat_and_payload_round_trip(self, rows, data):
        batch = RowBatch.admit(rows, tenant_id=1)
        cut = data.draw(st.integers(0, len(rows)))
        pieces = batch.split([cut, len(rows) - cut])
        assert [p.rows for p in pieces] == [rows[:cut], rows[cut:]]
        assert [p.nbytes for p in pieces] == [
            sum(map(reference_row_bytes, rows[:cut])),
            sum(map(reference_row_bytes, rows[cut:])),
        ]
        whole = RowBatch.concat(pieces)
        assert (whole.rows, whole.nbytes) == (rows, batch.nbytes)
        replayed = RowBatch.from_bytes(batch.to_bytes())
        assert (replayed.rows, replayed.nbytes) == (rows, batch.nbytes)


class TestAdmitRejects:
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


class ReferenceStore:
    """Row-at-a-time model of RowStore sealing, sized by the reference."""

    def __init__(self, seal_rows: int, seal_bytes: int) -> None:
        self.seal_rows, self.seal_bytes = seal_rows, seal_bytes
        self.sealed: list[list[dict]] = []
        self.active: list[dict] = []
        self.active_bytes = 0
        self.total_bytes = 0
        self.total_rows = 0

    def append(self, row: dict) -> None:
        self.active.append(row)
        self.active_bytes += reference_row_bytes(row)
        self.total_bytes += reference_row_bytes(row)
        self.total_rows += 1
        if len(self.active) >= self.seal_rows or self.active_bytes >= self.seal_bytes:
            self.sealed.append(self.active)
            self.active, self.active_bytes = [], 0

    def state(self):
        by_ts = lambda rows: sorted(rows, key=lambda r: r["ts"])  # stable: ties by arrival
        return (
            self.total_rows,
            [by_ts(t) for t in self.sealed],
            by_ts(self.active),
            self.total_bytes,
        )


class TestStoreDifferential:
    def run(self, batches, seal_rows, seal_bytes):
        store = RowStore(seal_rows=seal_rows, seal_bytes=seal_bytes)
        reference = ReferenceStore(seal_rows, seal_bytes)
        for rows in batches:
            store.append_many(RowBatch.admit(rows))
            for row in rows:
                reference.append(row)
            assert rowstore_state(store) == reference.state()
        _total, sealed, active, _bytes = reference.state()
        assert list(store.scan(tenant_id=1)) == [r for t in sealed + [active] for r in t]
        assert store.row_count() == sum(map(len, batches))
        return store

    def test_batch_crosses_seal_rows(self):
        store = self.run([make_rows(30, seed=s) for s in range(4)], 50, 1 << 30)
        assert [len(t) for t in store.sealed_tables] == [50, 50]

    def test_batch_lands_exactly_on_seal_rows(self):
        store = self.run([make_rows(25, seed=s) for s in range(4)], 50, 1 << 30)
        assert [len(t) for t in store.sealed_tables] == [50, 50]
        assert len(store.active) == 0

    def test_batch_crosses_seal_bytes(self):
        store = self.run([make_rows(20, seed=s) for s in range(5)], 10**6, 5_000)
        assert len(store.sealed_tables) >= 2

    def test_one_batch_spans_several_seals(self):
        store = self.run([make_rows(7), make_rows(100, seed=1), make_rows(3, seed=2)], 16, 1 << 30)
        assert len(store.sealed_tables) == 6

    @settings(max_examples=60, deadline=None)
    @given(
        seal_rows=st.integers(min_value=1, max_value=25),
        seal_bytes=st.integers(min_value=40, max_value=3_000),
        batches=st.lists(row_lists(), min_size=1, max_size=6),
    )
    def test_fuzz_heterogeneous_batches(self, seal_rows, seal_bytes, batches):
        self.run(batches, seal_rows, seal_bytes)
