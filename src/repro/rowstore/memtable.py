"""Write-optimized in-memory row table (the paper's "real time store").

§2 "Real-time and Low-latency Writes": the row store avoids
CPU-intensive work on the write path — no index building, no
compression — and §3.1: all tenants share one huge table "organized
only by the timestamp, rather than separated by tenants, to improve
space efficiency and reduce random I/O accesses".

The table is one growing column chunk in the typed form the record
codec carries (``repro.rowstore.batch``): per column name a numpy
vector — int64 for an INT column (``ts`` and ``tenant_id`` among
them), float64, bool — or, for a STR column, its NUL-joined UTF-8 text
plus offsets (:class:`~repro.common.strings.Strings`), or a value list
for an ANY column and for any column whose kind changes between
batches (or that some batch lacks).  Appending an admitted batch adds
its typed buffers, text included, to each typed column's tail list and
extends the lists by the batch's own: no numpy call, no copy, no
decode, and no per-put object the collector tracks kept alive
(``bytes`` are not tracked).  A batch that arrives still encoded (a
Raft entry, a WAL replay, a checkpoint) is kept as it is until a reader
touches the table: a Raft follower that is never read decodes nothing.
Nothing else happens before the ack.

The first reader after an append — a scan, the data builder or a
snapshot — widens only what was appended since the last read: the tails
through ``np.frombuffer``, an encoded batch's INT / FLOAT / BOOL buffers
through their base and width, the STR text through one NUL scan of the
new rows, and only ANY parts (or any part of a column already a list)
decoded into the lists.  A scan then takes a stable argsort of the
``ts`` vector, so rows read in timestamp order with ties in arrival
order (the builder's per-tenant ``lexsort`` needs none).
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import numpy as np

from repro.common.errors import RowStoreError
from repro.common.strings import EMPTY, Strings
from repro.rowstore.batch import (
    STR_KIND,
    VECTOR_KINDS,
    RowBatch,
    RowSelection,
    decode_column,
    typed_bytes,
    widen_part,
)

_NO_ROWS = np.empty(0, dtype=np.int64)


class _Column:
    """One column of the table: a typed vector (``kind`` is an INT /
    FLOAT / BOOL part kind) or :class:`Strings` (``kind`` is STR) plus
    what was appended since the last read — little-endian ``bytes`` or
    NUL-joined text in ``tail``, widened vectors in ``chunks`` — or, with
    ``kind`` None, a value list."""

    __slots__ = ("kind", "vector", "tail", "chunks", "values")

    def __init__(self, kind: int, nulls: int) -> None:
        """A column that starts with ``nulls`` null rows, then rows of ``kind``."""
        typed = kind in VECTOR_KINDS or kind == STR_KIND
        self.kind = kind if typed and not nulls else None
        if self.kind is None:
            self.values = [None] * nulls
        else:
            self.vector = EMPTY if kind == STR_KIND else np.empty(0, VECTOR_KINDS[kind])
            self.tail: list[bytes] = []
            self.chunks: list[np.ndarray] = []

    def add(self, part: tuple, count: int, values: list | None, rows: int) -> None:
        """One batch's rows of this column, after ``rows`` rows: its typed
        part onto the vector or the text, or its value list (decoded
        from the part while ``None``) onto the values."""
        if part[0] == self.kind:
            if self.kind == STR_KIND:
                self.tail.append(part[1])
            else:
                self.chunks.append(widen_part(part, count))
            return
        self.listify(rows)
        self.values += decode_column(part, count) if values is None else values

    def add_nulls(self, count: int, rows: int) -> None:
        self.listify(rows)
        self.values += [None] * count

    def listify(self, rows: int) -> None:
        """Turn a typed column of ``rows`` rows into a value list (its kind changed)."""
        if self.kind is not None:
            self.values = self.widened(rows).tolist()
            self.kind = None

    def widened(self, rows: int) -> np.ndarray | Strings | list:
        """The column over its ``rows`` rows: the vector with the tail and
        the chunks joined on, the text with the tail's (one NUL scan of
        the new rows), or the value list."""
        if self.kind is None:
            return self.values
        if self.kind == STR_KIND:
            if self.tail:
                fresh = Strings.scan(b"\0".join(self.tail), rows - len(self.vector))
                self.vector = self.vector.concat(fresh)
        elif self.tail or self.chunks:
            dtype = VECTOR_KINDS[self.kind]
            tail = np.frombuffer(b"".join(self.tail), dtype.newbyteorder("<"))
            self.vector = np.concatenate((self.vector, tail, *self.chunks), dtype=dtype)
            self.chunks.clear()
        self.tail.clear()
        return self.vector


class MemTable:
    """Append-only columns, read in timestamp order."""

    def __init__(self, ts_column: str = "ts", tenant_column: str = "tenant_id") -> None:
        self._ts_column = ts_column
        self._tenant_column = tenant_column
        self._names: tuple[str, ...] = ()
        self._columns: list[_Column] = []
        self._rows = 0  # rows in ``_columns``
        self._encoded: list[RowBatch] = []  # later rows, not widened yet
        self._count = 0
        self._approx_bytes = 0
        self._sealed = False
        # ``_ts`` / ``_tenants`` are the key columns' vectors as of the
        # last read; ``_order`` sorts ``_ts`` (None until a scan asks).
        self._ts = _NO_ROWS
        self._tenants = _NO_ROWS
        self._order: np.ndarray | None = _NO_ROWS
        self._sorted_ts = _NO_ROWS

    def __len__(self) -> int:
        return self._count

    @property
    def approx_bytes(self) -> int:
        """Rough payload size, used for flush thresholds."""
        return self._approx_bytes

    @property
    def sealed(self) -> bool:
        return self._sealed

    @property
    def ts_column(self) -> str:
        return self._ts_column

    @property
    def tenant_column(self) -> str:
        return self._tenant_column

    def append(self, row: dict) -> None:
        """Append one row: a one-row :meth:`append_many`."""
        self.append_many([row])

    def append_many(self, rows: RowBatch | Iterable[dict]) -> int:
        """Append a batch: its typed buffers onto the tails and its lists
        onto the table's, or — for a batch still encoded — keep the
        batch; no index maintenance.

        All-or-nothing: a plain iterable of rows is admitted (validated
        and sized) first, so an invalid row raises before anything is
        appended; a :class:`RowBatch` was admitted upstream.
        """
        if self._sealed:
            raise RowStoreError("cannot append to a sealed memtable")
        batch = RowBatch.of(
            rows, ts_column=self._ts_column, tenant_column=self._tenant_column
        )
        count = batch.count
        if count:
            admitted = None if self._encoded else batch.admitted_parts()
            if admitted is not None:
                self._add(batch.names, count, *admitted, reading=False)
            else:
                self._encoded.append(batch)
            self._count += count
            self._approx_bytes += batch.nbytes
        return count

    def _add(self, names: tuple, count: int, parts, lists, reading: bool) -> None:
        """Add one batch's columns: its ``names``, typed ``parts`` and
        value ``lists`` (``None`` each while it is encoded).  A batch
        with other keys than the table's widens the table to the union,
        nulls filling what either side lacks (sizes stay as admitted)."""
        if names != self._names:
            at = dict(zip(names, zip(parts, lists)))
            for name in names:
                if name not in self._names:
                    self._columns.append(_Column(at[name][0][0], self._rows))
            self._names = tuple(dict.fromkeys(self._names + names))
            parts, lists = zip(*(at.get(name, (None, None)) for name in self._names))
        for column, part, values in zip(self._columns, parts, lists):
            # The put path's two cases first, without a call.
            if column.kind is None and values is not None:
                column.values += values
            elif part is None:
                column.add_nulls(count, self._rows)
            elif part[0] == column.kind and not reading:
                column.tail.append(typed_bytes(part, count))
            else:
                column.add(part, count, values, self._rows)
        self._rows += count

    def seal(self) -> None:
        """Freeze the memtable; the data builder converts sealed tables."""
        self._sealed = True

    # -- reads -------------------------------------------------------------

    def consolidated(self) -> RowBatch:
        """Every row as one batch, in arrival order (also the snapshot
        form), its columns the table's vectors and lists: read it before
        the next append."""
        for batch in self._encoded:
            parts = batch.typed_parts()
            lists = batch.columns if batch.decoded else [None] * len(parts)
            self._add(batch.names, batch.count, parts, lists, reading=True)
        self._encoded.clear()
        columns = [column.widened(self._rows) for column in self._columns]
        return RowBatch(self._names, columns, None, self._approx_bytes)

    def _keyed(self) -> RowBatch:
        """:meth:`consolidated`, with the key vectors brought up to date."""
        batch = self.consolidated()
        if len(self._ts) != self._count:
            self._ts = np.asarray(batch.column(self._ts_column), dtype=np.int64)
            self._tenants = np.asarray(batch.column(self._tenant_column), dtype=np.int64)
            self._order = None
        return batch

    def _ordered(self) -> RowBatch:
        """:meth:`_keyed`, with the ``ts`` order brought up to date."""
        batch = self._keyed()
        if self._order is None:
            self._order = np.argsort(self._ts, kind="stable")
            self._sorted_ts = self._ts[self._order]
        return batch

    def scan(
        self,
        min_ts: int | None = None,
        max_ts: int | None = None,
        tenant_id: int | None = None,
    ) -> RowSelection:
        """Rows in ``[min_ts, max_ts]`` (inclusive), optionally one tenant,
        in timestamp order (ties by arrival order).

        The selection indexes the table's own columns — nothing is
        copied until a reader gathers a column or iterates it for row
        dicts.
        """
        batch = self._ordered()
        picked = self._order
        if min_ts is not None or max_ts is not None:
            lo = 0 if min_ts is None else np.searchsorted(self._sorted_ts, min_ts, "left")
            hi = (
                self._count
                if max_ts is None
                else np.searchsorted(self._sorted_ts, max_ts, "right")
            )
            picked = picked[lo:hi]
        if tenant_id is not None:
            picked = picked[self._tenants[picked] == tenant_id]
        return RowSelection([(batch, picked)])

    def tenants(self) -> set[int]:
        """Distinct tenant ids present."""
        self._keyed()
        return set(self._tenants.tolist())

    def ts_range(self) -> tuple[int, int] | None:
        """(min_ts, max_ts) across all rows, or None when empty."""
        if not self._count:
            return None
        self._keyed()
        return int(self._ts.min()), int(self._ts.max())

    def fingerprint(self) -> str:
        """Which rows the table holds, whatever they are encoded as: a
        digest of its ``ts`` and ``tenant_id`` vectors."""
        self._keyed()
        digest = hashlib.sha256(self._ts.tobytes())
        digest.update(self._tenants.tobytes())
        return digest.hexdigest()[:16]

    def rows_by_tenant(self) -> dict[int, RowSelection]:
        """One selection per tenant, each in timestamp order.

        This is the access pattern of the data builder's remote-archiving
        phase (§3.1: "the row-store table will be divided into separated
        columnar tables according to tenants"): one stable sort of the
        ``ts`` / ``tenant_id`` vectors on (tenant, ts); the builder
        gathers the columns it encodes.
        """
        if not self._count:
            return {}
        batch = self._keyed()
        order = np.lexsort((self._ts, self._tenants))
        tenants = self._tenants[order]
        cuts = np.flatnonzero(tenants[1:] != tenants[:-1]) + 1
        return {
            int(self._tenants[part[0]]): RowSelection([(batch, part)])
            for part in np.split(order, cuts)
        }
