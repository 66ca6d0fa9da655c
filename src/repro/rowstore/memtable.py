"""Write-optimized in-memory row table (the paper's "real time store").

§2 "Real-time and Low-latency Writes": the row store avoids
CPU-intensive work on the write path — no index building, no
compression — and §3.1: all tenants share one huge table "organized
only by the timestamp, rather than separated by tenants, to improve
space efficiency and reduce random I/O accesses".

The table is one growing column chunk: per column name one value
list in arrival order, which an append extends by the batch's list (a
``list.extend`` per column — no per-row work, and the batch's own lists
die with the put instead of aging in the garbage collector's young
generation).  A batch that arrives still encoded (a Raft entry, a WAL
replay, a checkpoint) is kept as it is, buffers and all, until a reader
touches the table: a Raft follower that is never read decodes nothing.
Nothing else happens before the ack.  The first reader after an append
— a scan, the data builder or a snapshot — decodes the kept batches
into the lists, extends the table's int64 ``ts`` and ``tenant`` vectors
by the new rows and takes a stable argsort of ``ts``, so rows read in
timestamp order with ties in arrival order.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.common.errors import RowStoreError
from repro.rowstore.batch import RowBatch, RowSelection

_NO_ROWS = np.empty(0, dtype=np.int64)


class MemTable:
    """Append-only columns, read in timestamp order."""

    def __init__(self, ts_column: str = "ts", tenant_column: str = "tenant_id") -> None:
        self._ts_column = ts_column
        self._tenant_column = tenant_column
        self._names: tuple[str, ...] = ()
        self._columns: list[list] = []
        self._listed = 0  # rows in ``_columns``
        self._encoded: list[RowBatch] = []  # later rows, not decoded yet
        self._count = 0
        self._approx_bytes = 0
        self._sealed = False
        # Vectors over the first ``len(self._ts)`` rows, in arrival
        # order; ``_order`` sorts them and is current while they cover
        # every row.
        self._ts = _NO_ROWS
        self._tenants = _NO_ROWS
        self._order = _NO_ROWS
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
        """Append a batch: one ``list.extend`` per column, or — for a
        batch still encoded — keep the batch; no index maintenance.

        All-or-nothing: a plain iterable of rows is admitted (validated
        and sized) first, so an invalid row raises before anything is
        appended; a :class:`RowBatch` was admitted upstream.
        """
        if self._sealed:
            raise RowStoreError("cannot append to a sealed memtable")
        batch = RowBatch.of(
            rows, ts_column=self._ts_column, tenant_column=self._tenant_column
        )
        if batch.count:
            if batch.decoded and not self._encoded:
                self._extend(batch)
            else:
                self._encoded.append(batch)
            self._count += batch.count
            self._approx_bytes += batch.nbytes
        return batch.count

    def _extend(self, batch: RowBatch) -> None:
        """Extend the lists by ``batch``'s.  A batch with other keys than
        the table's widens the table to the union, nulls filling what
        either side lacks (sizes stay as admitted)."""
        parts = batch.columns
        if batch.names != self._names:
            self._names = tuple(dict.fromkeys(self._names + batch.names))
            self._columns += [
                [None] * self._listed for _ in self._names[len(self._columns) :]
            ]
            parts = [batch.column(name) or [None] * batch.count for name in self._names]
        for column, part in zip(self._columns, parts):
            column.extend(part)
        self._listed += batch.count

    def seal(self) -> None:
        """Freeze the memtable; the data builder converts sealed tables."""
        self._sealed = True

    # -- reads -------------------------------------------------------------

    def consolidated(self) -> RowBatch:
        """Every row as one batch, in arrival order (also the snapshot
        form).  It shares the table's lists: read it before the next
        append."""
        for batch in self._encoded:
            self._extend(batch)
        self._encoded.clear()
        return RowBatch(self._names, self._columns, None, self._approx_bytes)

    def _ordered(self) -> RowBatch:
        """:meth:`consolidated`, with the vectors and order brought up to date."""
        batch = self.consolidated()
        done = len(self._ts)
        if done != self._count:
            ts = np.array(batch.column(self._ts_column)[done:], dtype=np.int64)
            tenants = np.array(batch.column(self._tenant_column)[done:], dtype=np.int64)
            self._ts = np.concatenate((self._ts, ts))
            self._tenants = np.concatenate((self._tenants, tenants))
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

        The selection indexes the table's own lists — nothing is copied
        until a reader gathers a column or iterates it for row dicts.
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
        self._ordered()
        return set(self._tenants.tolist())

    def ts_range(self) -> tuple[int, int] | None:
        """(min_ts, max_ts) across all rows, or None when empty."""
        if not self._count:
            return None
        self._ordered()
        return int(self._sorted_ts[0]), int(self._sorted_ts[-1])

    def rows_by_tenant(self) -> dict[int, RowSelection]:
        """One selection per tenant, each in timestamp order.

        This is the access pattern of the data builder's remote-archiving
        phase (§3.1: "the row-store table will be divided into separated
        columnar tables according to tenants"): one stable sort on
        (tenant, ts); the builder gathers the columns it encodes.
        """
        if not self._count:
            return {}
        batch = self._ordered()
        order = np.lexsort((self._ts, self._tenants))
        tenants = self._tenants[order]
        cuts = np.flatnonzero(tenants[1:] != tenants[:-1]) + 1
        return {
            int(self._tenants[part[0]]): RowSelection([(batch, part)])
            for part in np.split(order, cuts)
        }
