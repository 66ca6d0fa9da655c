"""Numeric column index (§3.2: "BKD tree index ... for numerical type").

For one dimension Lucene's BKD tree is the column's points (value, row
id) sorted by value and searched by bisection.  This index keeps them
as sorted distinct values, a count per value, and the row ids in value
order.  Eq / Range / IN bisect the values in place and slice one run of
row ids.  Nulls are not indexed; NaN is one value sorted after +inf,
and a bounded range stops short of it.

Member layout (LogBlock format v8; the pack manifest holds its
checksum)::

    flags u8 (1 float, 2 counts, 4 rows)
    row_count, term_count: uvarint
    int:   base (zigzag uvarint) = the least value, then a width byte
           and the gaps between neighbouring values at that width
    float: values as float64
    counts: uvarint per value (absent: every count is 1)
    rows:  a width byte, then one number per point in value order: the
           first row id of each value's run as it is, the others as the
           gap to the id before (absent: the points in value order are
           rows 0..n-1)

Widths are the narrowest of 0/1/2/4/8 bytes; width 0 stores nothing
(a constant column has no value gaps).  Opening a member widens each
section with one cumsum into the form queries probe: the values as
offsets from the base, as wide as their span needs, and the row ids as
u16 (u32 from 2**16 rows on).
"""

from __future__ import annotations

import math

import numpy as np

from repro.common.bytesio import BinaryReader, BinaryWriter
from repro.common.errors import SerializationError
from repro.common.varint import (
    NARROW_DTYPES,
    encode_uvarint_array,
    narrow_width,
    zigzag_decode,
    zigzag_encode,
)
from repro.logblock.inverted import uint_for

_FLOAT, _COUNTS, _ROWS = 1, 2, 4
_NUMBERS = (int, float, np.integer, np.floating, np.bool_)
# What an index holds besides its buffers (for the object cache's accounting).
_FIXED_OVERHEAD = 512


class BkdIndexBuilder:
    """Accumulates (row_id, value) points for one numeric column.

    Points are held as the array chunks they arrive in — from the
    writer, a column's whole typed vector at once — and sorted once in
    :meth:`build`.
    """

    def __init__(self, is_float: bool) -> None:
        self._is_float = is_float
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
        if len(self._chunks) == 1:
            ((values, rows),) = self._chunks
        else:
            values = np.concatenate([np.empty(0, self._dtype)] + [v for v, _ in self._chunks])
            rows = np.concatenate([np.empty(0, np.int64)] + [r for _, r in self._chunks])
        return BkdIndex.from_points(values, rows, self._row_count, self._is_float)


class BkdIndex:
    """Immutable numeric index, held as its wire sections.

    Value ``i`` is ``base + values[i]`` (floats: ``values[i]``) and its
    rows are points ``first[i] .. first[i + 1]`` (``first`` None: point
    ``i``) in value order: those row ids themselves when ``rows`` is
    None, else ``rows[first[i]:first[i + 1]]``.
    """

    def __init__(self, values, base, first, rows, row_count, is_float) -> None:
        self._values = values
        self._base = base
        self._first = first
        self._rows = rows
        self._row_count = row_count
        self._is_float = is_float

    @classmethod
    def from_points(cls, values: np.ndarray, rows: np.ndarray, row_count: int, is_float: bool):
        """Index the points ``(values[i], rows[i])``, rows ascending.
        Integers become offsets from their minimum first, so a column
        spanning under 2**16 sorts as uint8 / uint16 keys (a radix
        sort); keys already in order are not sorted at all.  Distinct
        values are one ``!=``."""
        n = len(values)
        keys, base = values, 0
        if not is_float:
            base = int(values.min()) if n else 0
            span = int(values.max()) - base if n else 0
            # Wraps past 2**63, and the unsigned cast wraps it back.
            keys = (values - np.int64(base)).astype(NARROW_DTYPES[narrow_width(span)])
        if n > 1 and not (keys[1:] >= keys[:-1]).all():
            order = np.argsort(keys, kind="stable")
            keys, rows = keys[order], rows[order]
        new = np.empty(n, dtype=bool)
        new[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=new[1:])
        if is_float and n and keys[-1] != keys[-1]:
            new[int(np.searchsorted(keys, np.nan)) + 1 :] = False  # NaNs: one value, last
        starts = np.flatnonzero(new)
        first = np.append(starts, n).astype(uint_for(n)) if len(starts) < n else None
        in_order = not n or rows[-1] == n - 1 and np.array_equal(rows, np.arange(n))
        rows = None if in_order else rows.astype(uint_for(row_count))
        return cls(keys[starts], base, first, rows, row_count, is_float)

    @property
    def row_count(self) -> int:
        return self._row_count

    @property
    def term_count(self) -> int:
        return len(self._values)

    @property
    def width(self) -> int:
        """Stored bytes per value: 8 for floats, else the width of the
        gaps between neighbouring values (0 for a constant column)."""
        return 8 if self._is_float else narrow_width(int(np.diff(self._values).max(initial=0)))

    @property
    def row_width(self) -> int | None:
        """Stored bytes per row id (see :meth:`_row_numbers`); None when
        the row ids are not stored."""
        return None if self._rows is None else narrow_width(int(self._row_numbers().max()))

    def _row_numbers(self) -> np.ndarray:
        """The stored row numbers: each value's first row id as it is,
        the others as the gap to the id before (the ids of a value
        ascend)."""
        rows, first = self._rows, self._first
        if first is None:  # one point a value
            return rows
        numbers = rows.copy()
        numbers[1:] -= rows[:-1]  # wraps where a run starts, which is overwritten
        starts = first[:-1]
        numbers[starts] = rows[starts]
        return numbers

    @property
    def rows(self) -> np.ndarray | None:
        """Every point's row id in value order; None when they are 0..n-1."""
        return self._rows

    @property
    def nbytes(self) -> int:
        """Bytes this index keeps alive (what a cache is charged)."""
        arrays = [a for a in (self._values, self._first, self._rows) if a is not None]
        return _FIXED_OVERHEAD + sum(a.nbytes for a in arrays)

    # -- queries ---------------------------------------------------------

    def _rank(self, bound, right: bool) -> int | None:
        """How many values are ``< bound`` (``<=`` when ``right``); None
        when the stored values cannot be compared with ``bound`` exactly
        (not a number, or an int no float64 holds): the scan answers."""
        if not isinstance(bound, _NUMBERS):
            return None
        values, side = self._values, "right" if right else "left"
        try:
            if self._is_float:
                key = float(bound)
                return int(np.searchsorted(values, key, side)) if key == bound else None
            # v < b <=> v < ceil(b);  v <= b <=> v <= floor(b)
            offset = (math.floor if right else math.ceil)(bound) - self._base
        except OverflowError:  # an int past float64, or an infinite bound on ints
            return None if self._is_float else 0 if bound < 0 else len(values)
        if offset < 0 or not len(values):
            return 0
        if offset > int(values[-1]):
            return len(values)
        return int(np.searchsorted(values, values.dtype.type(offset), side))

    def range_rows(
        self, low=None, high=None, low_inclusive=True, high_inclusive=True
    ) -> np.ndarray | None:
        """Row ids of the values in the (possibly open) interval, in value
        order (one value's rows ascending), or None for a bound the index
        cannot compare (see :meth:`_rank`).  The ids may be a view of the
        index's own array: read them, never write them."""
        if low != low or high != high:
            return np.empty(0, np.int64)  # a NaN bound admits no value
        start = 0 if low is None else self._rank(low, not low_inclusive)
        if high is not None:
            stop = self._rank(high, high_inclusive)
        elif low is not None and self._is_float:
            stop = self._rank(math.inf, True)  # NaN sorts last and satisfies no bound
        else:
            stop = self.term_count
        if start is None or stop is None:
            return None
        stop = max(start, stop)
        first = self._first
        lo, hi = (start, stop) if first is None else (int(first[start]), int(first[stop]))
        return np.arange(lo, hi, dtype=np.int64) if self._rows is None else self._rows[lo:hi]

    def in_rows(self, values) -> np.ndarray | None:
        """Row ids of the values equal to any of ``values``, value after
        value (None as for :meth:`range_rows`)."""
        rows = [self.range_rows(value, value) for value in values]
        if any(hits is None for hits in rows):
            return None
        return np.concatenate([np.empty(0, np.int64), *rows])

    # -- serialization -----------------------------------------------------

    def to_bytes(self) -> bytes:
        head = BinaryWriter()
        flags = _FLOAT * self._is_float | _COUNTS * (self._first is not None)
        head.write_u8(flags | _ROWS * (self._rows is not None))
        head.write_uvarint(self._row_count)
        head.write_uvarint(self.term_count)
        if self._is_float:
            head.write_bytes(self._values.tobytes())
        else:
            head.write_uvarint(zigzag_encode(self._base))
            head.write_narrow(np.diff(self._values))
        if self._first is not None:
            head.write_bytes(encode_uvarint_array(np.diff(self._first)))
        if self._rows is not None:
            head.write_narrow(self._row_numbers())
        return head.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "BkdIndex":
        reader = BinaryReader(data)
        flags = reader.read_u8()
        row_count, term_count = reader.read_uvarint(), reader.read_uvarint()
        if flags > 7:
            raise SerializationError(f"numeric index flags {flags:#x}")
        base = 0
        if flags & _FLOAT:
            values = np.frombuffer(reader.read_bytes(term_count * 8), np.float64)
        else:
            base = zigzag_decode(reader.read_uvarint())
            offsets = np.zeros(term_count, np.uint64)
            np.add.accumulate(reader.read_narrow(max(term_count - 1, 0)), out=offsets[1:])
            span = int(offsets[-1]) if term_count else 0
            values = offsets.astype(NARROW_DTYPES[narrow_width(span)])
        first, points = None, term_count
        if flags & _COUNTS:
            bounds = reader.read_bounds(term_count, min(row_count, 1 << 32))
            points = int(bounds[-1])
            first = bounds.astype(uint_for(points))
        rows = None
        if flags & _ROWS:
            dtype = uint_for(row_count)
            if first is None:  # one point a value: every id as it is
                rows = reader.read_narrow(points).astype(dtype)
            else:
                # Each run's ids from its first: one running sum less the
                # sum before the run.  Every true id fits ``dtype``, so
                # sums that wrap in it still give the ids exactly.
                sums = np.zeros(points + 1, dtype)
                np.add.accumulate(reader.read_narrow(points), out=sums[1:], dtype=dtype)
                rows = sums[1:] - np.repeat(sums[first[:-1]], np.diff(first))
            if points and int(rows.max()) >= row_count:
                raise SerializationError("numeric index row id outside the index")
        if reader.remaining() or points > row_count:
            raise SerializationError("numeric index sections disagree with its length")
        return cls(values, base, first, rows, row_count, bool(flags & _FLOAT))
