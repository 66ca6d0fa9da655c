"""BKD-style numeric index (§3.2: "BKD tree index ... for numerical type").

Lucene's BKD tree for one dimension degenerates to a sorted
block-structured value index: points (value, row_id) are sorted by value
and packed into fixed-size leaf blocks; an in-memory array of per-leaf
(min, max) lets range queries binary-search to the first candidate leaf
and scan only leaves whose ranges intersect the query.  We implement
exactly that — it supports the paper's equality and range predicates on
numeric columns (``latency >= 100``, ``ts BETWEEN ...``) in
O(log L + hits).

Values are stored as int64 (timestamps, ints, bools) or float64.  Nulls
are not indexed; NaNs are values, so a float index holds them, sorted
after +inf, and a range bounded on either side stops short of them.
"""

from __future__ import annotations

import numpy as np

from repro.common.bitset import Bitset
from repro.common.bytesio import BinaryReader, BinaryWriter
from repro.common.errors import SerializationError

DEFAULT_LEAF_SIZE = 512
# What an index holds besides its points: the object and two array
# headers (for the object cache's accounting).
_FIXED_OVERHEAD = 384


class BkdIndexBuilder:
    """Accumulates (row_id, value) points for one numeric column.

    Points are held as the array chunks they arrive in — from the
    writer, a column's whole typed vector at once — and sorted once in
    :meth:`build`.
    """

    def __init__(self, is_float: bool, leaf_size: int = DEFAULT_LEAF_SIZE) -> None:
        if leaf_size <= 0:
            raise ValueError(f"leaf_size must be positive, got {leaf_size}")
        self._is_float = is_float
        self._leaf_size = leaf_size
        self._dtype = np.float64 if is_float else np.int64
        self._chunks: list[tuple[np.ndarray, np.ndarray]] = []  # (values, rows)
        self._row_count = 0

    def add(self, row_id: int, value: int | float | bool | None) -> None:
        """Index one python value; a null only counts as a row."""
        self.add_many(
            row_id,
            np.array([0 if value is None else value], dtype=self._dtype),
            np.array([value is None]),
        )

    def add_many(self, start_row_id: int, vector: np.ndarray, null_mask: np.ndarray) -> None:
        """Index rows ``start_row_id ..+ len(vector)`` of a column given
        as its typed vector and null mask.

        Points keep row order, so the stable value sort in :meth:`build`
        ties identically however the rows were cut into calls; nulls
        count toward the row count without contributing points.
        """
        self._row_count = max(self._row_count, start_row_id + len(vector))
        present = np.flatnonzero(~null_mask)
        self._chunks.append(
            (vector[present].astype(self._dtype, copy=False), present + start_row_id)
        )

    def build(self) -> "BkdIndex":
        values = np.concatenate([np.empty(0, self._dtype)] + [v for v, _ in self._chunks])
        rows = np.concatenate([np.empty(0, np.int64)] + [r for _, r in self._chunks])
        order = np.argsort(values, kind="stable")
        return BkdIndex(
            values=values[order],
            rows=rows[order],
            row_count=self._row_count,
            is_float=self._is_float,
            leaf_size=self._leaf_size,
        )


class BkdIndex:
    """Immutable 1-D BKD index supporting equality and range lookup."""

    def __init__(
        self,
        values: np.ndarray,
        rows: np.ndarray,
        row_count: int,
        is_float: bool,
        leaf_size: int = DEFAULT_LEAF_SIZE,
    ) -> None:
        if len(values) != len(rows):
            raise ValueError("values and rows length mismatch")
        self._values = values
        self._rows = rows
        self._row_count = row_count
        self._is_float = is_float
        self._leaf_size = leaf_size

    @property
    def row_count(self) -> int:
        return self._row_count

    @property
    def point_count(self) -> int:
        return len(self._values)

    @property
    def leaf_count(self) -> int:
        return -(-len(self._values) // self._leaf_size)

    @property
    def nbytes(self) -> int:
        """Bytes this index keeps alive (what a cache is charged)."""
        return _FIXED_OVERHEAD + self._values.nbytes + self._rows.nbytes

    def min_value(self):
        return self._values[0].item() if len(self._values) else None

    def max_value(self):
        return self._values[-1].item() if len(self._values) else None

    # -- queries ---------------------------------------------------------

    def _range_span(self, low, high, low_inclusive: bool, high_inclusive: bool) -> tuple[int, int]:
        """``[start, end)`` into the value-sorted points for an interval."""
        if low != low or high != high:
            return 0, 0  # a NaN bound admits no value
        side_lo = "left" if low_inclusive else "right"
        side_hi = "right" if high_inclusive else "left"
        start = 0 if low is None else int(np.searchsorted(self._values, low, side=side_lo))
        if high is not None:
            end = int(np.searchsorted(self._values, high, side=side_hi))
        elif low is not None and self._is_float:
            # NaNs sort last and satisfy no bound: end at the last real value.
            end = int(np.searchsorted(self._values, np.inf, side="right"))
        else:
            end = len(self._values)
        return start, max(start, end)

    def range_rows(
        self,
        low=None,
        high=None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> np.ndarray:
        """Sorted row ids whose value lies in the given (possibly open) interval."""
        start, end = self._range_span(low, high, low_inclusive, high_inclusive)
        return np.sort(self._rows[start:end])

    def eq_rows(self, value) -> np.ndarray:
        """Row ids whose value equals ``value``."""
        return self.range_rows(low=value, high=value)

    def range_bitset(self, low=None, high=None, low_inclusive=True, high_inclusive=True) -> Bitset:
        """:meth:`range_rows` as a bitset; set membership needs no sort."""
        start, end = self._range_span(low, high, low_inclusive, high_inclusive)
        return Bitset.from_indices(self._row_count, self._rows[start:end])

    # -- serialization -----------------------------------------------------

    def to_bytes(self) -> bytes:
        writer = BinaryWriter()
        writer.write_u8(1 if self._is_float else 0)
        writer.write_uvarint(self._row_count)
        writer.write_uvarint(self._leaf_size)
        writer.write_uvarint(len(self._values))
        writer.write_bytes(self._values.tobytes())
        writer.write_bytes(self._rows.astype(np.int64).tobytes())
        return writer.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "BkdIndex":
        reader = BinaryReader(data)
        is_float = bool(reader.read_u8())
        row_count = reader.read_uvarint()
        leaf_size = reader.read_uvarint()
        n_points = reader.read_uvarint()
        dtype = np.float64 if is_float else np.int64
        # Read-only views over the payload, not copies: the points are
        # only ever searched and sliced.
        values = np.frombuffer(reader.read_bytes(n_points * 8), dtype=dtype)
        rows = np.frombuffer(reader.read_bytes(n_points * 8), dtype=np.int64)
        values.flags.writeable = rows.flags.writeable = False
        if reader.remaining():
            raise SerializationError("trailing bytes after BKD index")
        return cls(values, rows, row_count, is_float, leaf_size)
