"""Write-optimized in-memory row table (the paper's "real time store").

§2 "Real-time and Low-latency Writes": the row store avoids
CPU-intensive work on the write path — no index building, no
compression — and §3.1: all tenants share one huge table "organized
only by the timestamp, rather than separated by tenants, to improve
space efficiency and reduce random I/O accesses".

Rows are appended in arrival order; a per-memtable monotone sequence
number makes scans stable.  Because log timestamps are nearly sorted on
arrival, range scans use a sorted-view built lazily and invalidated on
append (cheap for the seal-then-convert life cycle the builder uses).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator

from repro.common.errors import RowStoreError
from repro.rowstore.batch import RowBatch

_AFTER = float("inf")


class MemTable:
    """Append-only row buffer ordered by timestamp on scan."""

    def __init__(self, ts_column: str = "ts", tenant_column: str = "tenant_id") -> None:
        self._ts_column = ts_column
        self._tenant_column = tenant_column
        self._rows: list[dict] = []
        self._approx_bytes = 0
        self._sorted_view: list[tuple[int, int]] | None = None  # (ts, row_position)
        self._sealed = False

    def __len__(self) -> int:
        return len(self._rows)

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
        """Append a batch: O(1) per batch, no index maintenance.

        All-or-nothing: a plain iterable of rows is admitted (validated
        and sized) first, so an invalid row raises before anything is
        appended; a :class:`RowBatch` was admitted upstream and costs
        one ``list.extend``, one integer add and one sorted-view
        invalidation.
        """
        if self._sealed:
            raise RowStoreError("cannot append to a sealed memtable")
        batch = RowBatch.of(
            rows, ts_column=self._ts_column, tenant_column=self._tenant_column
        )
        if batch.rows:
            self._rows.extend(batch.rows)
            self._approx_bytes += batch.nbytes
            self._sorted_view = None
        return len(batch)

    def seal(self) -> None:
        """Freeze the memtable; the data builder converts sealed tables."""
        self._sealed = True

    # -- scans -----------------------------------------------------------

    def _view(self) -> list[tuple[int, int]]:
        if self._sorted_view is None:
            self._sorted_view = sorted(
                (row[self._ts_column], position) for position, row in enumerate(self._rows)
            )
        return self._sorted_view

    def scan(
        self,
        min_ts: int | None = None,
        max_ts: int | None = None,
        tenant_id: int | None = None,
    ) -> Iterator[dict]:
        """Rows in ``[min_ts, max_ts]`` (inclusive), optionally one tenant.

        Rows are yielded in timestamp order (ties by arrival order).
        """
        view = self._view()
        # (ts,) sorts before every (ts, position); (ts, inf) after.
        lo = 0 if min_ts is None else bisect_left(view, (min_ts,))
        hi = len(view) if max_ts is None else bisect_right(view, (max_ts, _AFTER))
        for ts, position in view[lo:hi]:
            row = self._rows[position]
            if tenant_id is None or row[self._tenant_column] == tenant_id:
                yield row

    def tenants(self) -> set[int]:
        """Distinct tenant ids present."""
        return {row[self._tenant_column] for row in self._rows}

    def ts_range(self) -> tuple[int, int] | None:
        """(min_ts, max_ts) across all rows, or None when empty."""
        if not self._rows:
            return None
        view = self._view()
        return view[0][0], view[-1][0]

    def rows_by_tenant(self) -> dict[int, list[dict]]:
        """Rows grouped by tenant, each group in timestamp order.

        This is the access pattern of the data builder's remote-archiving
        phase (§3.1: "the row-store table will be divided into separated
        columnar tables according to tenants").
        """
        grouped: dict[int, list[dict]] = {}
        for _ts, position in self._view():
            row = self._rows[position]
            grouped.setdefault(row[self._tenant_column], []).append(row)
        return grouped
