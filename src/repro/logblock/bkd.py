"""Numeric column index (§3.2: "BKD tree index ... for numerical type").

For one dimension Lucene's BKD tree is the column's points (value, row
id) sorted by value and searched by bisection.  This index keeps them
as sorted distinct values, a count per value, and the row ids in value
order, each as wide as the block's row count needs.  Eq / Range / IN
bisect the stored values in place and slice one run of row ids.  Nulls
are not indexed; NaN is one value sorted after +inf, and a bounded
range stops short of it.

Member layout (LogBlock format v6)::

    crc32 u32 of the rest | flags u8 (1 float, 2 counts, 4 rows)
    row_count, term_count: uvarint
    int:   base (zigzag uvarint), width u8 (0/1/2/4/8), values - base
    float: values as float64
    counts: uvarint per value (absent: every count is 1)
    rows:   the rest, u16 per point (u32 from 2**16 rows on), in value
            order (absent: the points in value order are rows 0..n-1)

Width 0 is a constant column.  A v5 member — every point as raw
``(int64 value, int64 row id)`` — is read as its points and built into
this form, so there is one in-memory form and one query path.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

from repro.common.bitset import Bitset
from repro.common.bytesio import BinaryReader, BinaryWriter
from repro.common.errors import CorruptionError, SerializationError
from repro.common.varint import encode_uvarint_array, zigzag_decode, zigzag_encode
from repro.logblock.inverted import uint_for

RAW_POINTS_VERSION = 5  # the last LogBlock format whose numeric index is raw points
_CRC = struct.Struct("<I")
_FLOAT, _COUNTS, _ROWS = 1, 2, 4
_UINTS = {0: np.uint8, 1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}
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
        """Index the points ``(values[i], rows[i])``: rows ascending, or
        (a v5 member) points already in value order.  Integers become
        offsets from their minimum first, so a column spanning under
        2**16 sorts as uint8 / uint16 keys (a radix sort); keys already
        in order are not sorted at all.  Distinct values are one ``!=``."""
        n = len(values)
        keys, base = values, 0
        if not is_float:
            base = int(values.min()) if n else 0
            span = int(values.max()) - base if n else 0
            width = next((w for w in (1, 2, 4, 8) if span < 1 << 8 * w), 8) if span else 0
            # Wraps past 2**63, and the unsigned cast wraps it back.
            keys = (values - np.int64(base)).astype(_UINTS[width])
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
        """Stored bytes per value: 8 for floats, 0 for a constant column."""
        return 0 if not self._is_float and self.term_count < 2 else self._values.itemsize

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

    def _hits(self, low, high, low_inclusive: bool, high_inclusive: bool) -> np.ndarray | None:
        """Row ids of the values in the interval, value after value."""
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

    def range_bitset(self, low=None, high=None, low_inclusive=True, high_inclusive=True):
        """Rows whose value lies in the (possibly open) interval, or None
        for a bound the index cannot compare (see :meth:`_rank`)."""
        rows = self._hits(low, high, low_inclusive, high_inclusive)
        return None if rows is None else Bitset.from_indices(self._row_count, rows)

    def in_bitset(self, values) -> Bitset | None:
        """Rows equal to any of ``values`` (None as for :meth:`range_bitset`)."""
        rows = [self._hits(value, value, True, True) for value in values]
        if any(hits is None for hits in rows):
            return None
        return Bitset.from_indices(self._row_count, np.concatenate([np.empty(0, np.int64), *rows]))

    # -- serialization -----------------------------------------------------

    def to_bytes(self) -> bytes:
        head = BinaryWriter()
        flags = _FLOAT * self._is_float | _COUNTS * (self._first is not None)
        head.write_u8(flags | _ROWS * (self._rows is not None))
        head.write_uvarint(self._row_count)
        head.write_uvarint(self.term_count)
        if not self._is_float:
            head.write_uvarint(zigzag_encode(self._base))
            head.write_u8(self.width)
        counts = b"" if self._first is None else encode_uvarint_array(np.diff(self._first))
        values = self._values.tobytes() if self.width else b""
        rows = b"" if self._rows is None else self._rows.tobytes()
        body = b"".join((head.getvalue(), values, counts, rows))
        return _CRC.pack(zlib.crc32(body)) + body

    @classmethod
    def from_bytes(cls, data: bytes, version: int) -> "BkdIndex":
        """Open the numeric index member of a LogBlock of format ``version``."""
        if version <= RAW_POINTS_VERSION:
            # A float flag, the row count, a leaf size no query reads, the
            # point count, then every value and every row id, by value.
            reader = BinaryReader(data)
            is_float, row_count, _leaf_size, n = (reader.read_uvarint() for _ in range(4))
            values = np.frombuffer(reader.read_bytes(n * 8), np.float64 if is_float else np.int64)
            rows = np.frombuffer(reader.read_bytes(n * 8), np.uint64)  # int64, never negative
            if is_float > 1 or reader.remaining() or n and rows.max() >= row_count:
                raise SerializationError("numeric index v5 member disagrees with its length")
            return cls.from_points(values, rows, row_count, bool(is_float))
        if len(data) < _CRC.size:
            raise SerializationError("truncated numeric index")
        if zlib.crc32(memoryview(data)[_CRC.size :]) != _CRC.unpack_from(data)[0]:
            raise CorruptionError("numeric index checksum mismatch")
        reader = BinaryReader(data, _CRC.size)
        flags = reader.read_u8()
        row_count, term_count = reader.read_uvarint(), reader.read_uvarint()
        base, width = 0, 8
        if not flags & _FLOAT:
            base, width = zigzag_decode(reader.read_uvarint()), reader.read_u8()
        if flags > 7 or width not in _UINTS or (width == 0 and term_count > 1):
            raise SerializationError(f"numeric index flags {flags:#x}, width {width}")
        dtype = np.float64 if flags & _FLOAT else _UINTS[width]
        raw = reader.read_bytes(term_count * width)
        values = np.frombuffer(raw, dtype) if width else np.zeros(term_count, dtype)
        first, points = None, term_count
        if flags & _COUNTS:
            bounds = reader.read_bounds(term_count, min(row_count, 1 << 32))
            points = int(bounds[-1])
            first = bounds.astype(uint_for(points))
        rows = None
        if flags & _ROWS:
            dtype = uint_for(row_count)
            rows = np.frombuffer(reader.read_bytes(points * dtype().itemsize), dtype)
            if points and int(rows.max()) >= row_count:
                raise SerializationError("numeric index row id outside the index")
        if reader.remaining() or points > row_count:
            raise SerializationError("numeric index sections disagree with its length")
        return cls(values, base, first, rows, row_count, bool(flags & _FLOAT))
