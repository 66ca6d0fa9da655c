"""RowBatch: the unit of the write path, admitted once at the edge.

A client batch is validated and sized exactly once — in
:meth:`RowBatch.admit`, called by ``LogStore.put`` / ``put_nowait`` —
and the resulting object is what the broker splits and meters, what the
group-commit queue and the §4.2 admission gate size, what a Raft entry
or shard-WAL record carries (:meth:`to_bytes`), and what the row store
appends.  No later layer walks the rows again unless the batch has to
be cut (a multi-shard split, or the one batch that crosses a seal
threshold), which needs :meth:`row_sizes`.

``nbytes`` is the row store's payload estimate: per row, the length of
every key plus the length of every ``str`` / ``bytes`` / ``bytearray``
value and 8 for any other value.  Seal thresholds, ``approx_bytes`` and
per-tenant ingest metering are all in this unit.
"""

from __future__ import annotations

import pickle
from operator import itemgetter
from typing import Iterable

from repro.common.errors import InvalidBatchError

_SIZED = (str, bytes, bytearray)
_SIZED_TYPES = frozenset(_SIZED)
_SCALAR_TYPES = frozenset((int, float, bool, type(None)))


def _row_nbytes(row: dict) -> int:
    total = 0
    for key, value in row.items():
        total += len(key) + (len(value) if isinstance(value, _SIZED) else 8)
    return total


def _column_nbytes(column: list) -> int:
    kinds = set(map(type, column))
    if kinds <= _SIZED_TYPES:
        return sum(map(len, column))
    if kinds <= _SCALAR_TYPES:
        return 8 * len(column)
    # Mixed column, subclasses, nested values: decide per value.
    return sum(len(v) if isinstance(v, _SIZED) else 8 for v in column)


def _mismatch(found, tenant_id) -> InvalidBatchError:
    return InvalidBatchError(f"row tenant_id {found!r} does not match {tenant_id}")


def _admit_columns(rows: list, tenant_id, ts_column: str, tenant_column: str) -> int | None:
    """Validate + size column by column; ``None`` when the rows are ragged."""
    if not rows:
        return 0
    first = rows[0]
    n = len(rows)
    if set(map(len, rows)) != {len(first)}:
        return None
    for required in (ts_column, tenant_column):
        if required not in first:
            raise InvalidBatchError(f"row missing column {required!r}")
    nbytes = 0
    try:
        for key in first:
            column = list(map(itemgetter(key), rows))
            nbytes += len(key) * n + _column_nbytes(column)
            if key == tenant_column and tenant_id is not None:
                if column.count(tenant_id) != n:
                    raise _mismatch(next(v for v in column if v != tenant_id), tenant_id)
    except KeyError:  # same width, different keys
        return None
    return nbytes


def _admit_rows(rows: list, tenant_id, ts_column: str, tenant_column: str) -> int:
    """The per-row form of :func:`_admit_columns`, for ragged batches."""
    nbytes = 0
    for row in rows:
        for required in (ts_column, tenant_column):
            if required not in row:
                raise InvalidBatchError(f"row missing column {required!r}")
        if tenant_id is not None and row[tenant_column] != tenant_id:
            raise _mismatch(row[tenant_column], tenant_id)
        nbytes += _row_nbytes(row)
    return nbytes


class RowBatch:
    """Validated rows plus their payload estimate.

    ``rows`` is owned by the batch (``admit`` copies the caller's list)
    and must not be mutated afterwards: ``nbytes`` describes it.
    ``tenant_id`` is the tenant the batch was admitted for, or ``None``
    for batches that were not admitted per tenant (replayed, coalesced).
    """

    __slots__ = ("rows", "tenant_id", "nbytes")

    def __init__(self, rows: list[dict], tenant_id: int | None, nbytes: int) -> None:
        self.rows = rows
        self.tenant_id = tenant_id
        self.nbytes = nbytes

    def __len__(self) -> int:
        return len(self.rows)

    @classmethod
    def admit(
        cls,
        rows: Iterable[dict],
        tenant_id: int | None = None,
        ts_column: str = "ts",
        tenant_column: str = "tenant_id",
    ) -> "RowBatch":
        """Validate and size ``rows`` in one pass; all-or-nothing.

        Every row must carry ``ts_column`` and ``tenant_column``, and —
        when ``tenant_id`` is given — belong to that tenant; otherwise
        :class:`InvalidBatchError` is raised and nothing was admitted.

        The pass is columnar when every row has the first row's keys
        (the shape log producers send): one ``itemgetter`` sweep per
        column, sized by the column's exact type set.  Ragged batches
        fall back to a per-row walk with the same result.
        """
        rows = list(rows)
        nbytes = _admit_columns(rows, tenant_id, ts_column, tenant_column)
        if nbytes is None:
            nbytes = _admit_rows(rows, tenant_id, ts_column, tenant_column)
        return cls(rows, tenant_id, nbytes)

    @classmethod
    def of(cls, rows: "RowBatch | Iterable[dict]", **columns: str) -> "RowBatch":
        """``rows`` itself when already admitted, else ``admit(rows, **columns)``."""
        return rows if isinstance(rows, RowBatch) else cls.admit(rows, **columns)

    def row_sizes(self) -> list[int]:
        """Per-row estimates (sum == ``nbytes``), for cutting the batch."""
        return list(map(_row_nbytes, self.rows))

    def split(self, counts: Iterable[int]) -> list["RowBatch"]:
        """Consecutive pieces of the given row counts, each sized."""
        sizes = self.row_sizes()
        pieces = []
        start = 0
        for count in counts:
            end = start + count
            pieces.append(
                RowBatch(self.rows[start:end], self.tenant_id, sum(sizes[start:end]))
            )
            start = end
        return pieces

    @classmethod
    def concat(cls, batches: list["RowBatch"]) -> "RowBatch":
        """One batch holding every row of ``batches``, in order."""
        if len(batches) == 1:
            return batches[0]
        rows = [row for batch in batches for row in batch.rows]
        return cls(rows, None, sum(batch.nbytes for batch in batches))

    # -- durable form (Raft entry command / shard-WAL batch record) --------

    def to_bytes(self) -> bytes:
        """The batch as one log payload; carries ``nbytes`` so replay and
        replica apply do not size the rows again."""
        return pickle.dumps((self.nbytes, self.rows))

    @classmethod
    def from_bytes(cls, payload: bytes) -> "RowBatch":
        nbytes, rows = pickle.loads(payload)
        return cls(rows, None, nbytes)
