"""Vectorized write-side encode kernels (builder hot loop).

PR 7 compiled the *scan* side into numpy block kernels; this module is
the same recipe applied to the archive encode path: the per-value
python loops in :func:`repro.logblock.column.encode_block` and
:func:`repro.logblock.sma.compute_sma` become columnar numpy kernels
with **byte-identical** output.  BtrLog's observation motivates the
work: in cloud log systems the CPU spent producing log bytes — not the
device — is the bottleneck.

Byte-identity is the contract, checked three ways:

* construction — every kernel mirrors the interpreted encoder's exact
  byte layout (same null bitsets, same dictionary sort, same LEB128
  codes, same sequential float accumulation for SMA sums);
* fallback — shapes whose vectorized result could diverge (NaN or
  signed-zero float SMAs, unsupported or overflowing values) raise
  :class:`EncodeFallback` or return the interpreted result; a FLOAT64
  column's ints reach both encoders as floats (:func:`column_array`),
  so they are no such shape;
* tests — differential + hypothesis suites compare whole packed
  LogBlocks member-by-member across both modes.

A column reaches the writer as a typed vector (the memtable's INT /
FLOAT / BOOL columns) or a value list, which :func:`column_array` turns
into a vector or an object array once.  It is *prepared* once at
``LogBlockWriter.finish()`` — a typed vector as it is; an object array
through the type gate, null mask and typed vector; for strings a
ranking made by hashing (:func:`rank_strings`) and the UTF-8 bytes — and
that
:class:`PreparedColumn` is the one form every consumer reads: the block
encoder and the SMA here, and the BKD index, both inverted indexes and
the Bloom filter in the writer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.common.bitset import Bitset
from repro.common.bytesio import BinaryWriter
from repro.common.strings import Strings
from repro.common.varint import encode_uvarint_array
from repro.logblock.column import (
    _DICT_MAX_CARDINALITY_FRACTION,
    _STRING_DICT,
    _STRING_PLAIN,
    null_free_section,
    write_int_frame,
)
from repro.logblock.schema import ColumnType
from repro.logblock.sma import Sma, compute_sma, compute_sma_arrays


class EncodeFallback(Exception):
    """A column shape the encode kernels do not cover.

    Raising this is always *safe*: the caller re-encodes the column with
    the interpreted oracle, which by definition produces the canonical
    bytes (and surfaces the canonical error for invalid values, e.g. an
    out-of-int64 integer).
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass
class EncodeStats:
    """Per-writer accounting: column values encoded per mode.

    ``rows_vectorized`` / ``rows_interpreted`` count *column cells*
    (one per row per column block), mirroring how the scan side counts
    per-leaf evaluated rows.  Every block of a prepared column is
    vectorized, PLAIN string blocks included; ``rows_interpreted``
    counts the columns :func:`prepare_column` refused
    (:class:`EncodeFallback`).  ``fallbacks`` maps reason → occurrence
    count: one per block of such a column, and one per block whose SMA
    alone went to the oracle.
    """

    rows_vectorized: int = 0
    rows_interpreted: int = 0
    fallbacks: dict[str, int] = field(default_factory=dict)

    def note_fallback(self, reason: str) -> None:
        self.fallbacks[reason] = self.fallbacks.get(reason, 0) + 1

    def merge(self, other: "EncodeStats") -> None:
        self.rows_vectorized += other.rows_vectorized
        self.rows_interpreted += other.rows_interpreted
        for reason, count in other.fallbacks.items():
            self.fallbacks[reason] = self.fallbacks.get(reason, 0) + count


def rank_strings(values) -> tuple[list, np.ndarray]:
    """``(terms, ranks)`` of a run of strings, by hashing.

    ``terms`` are the distinct non-null values, sorted; ``ranks[i]`` is
    0 for a null and otherwise 1 + the position of ``values[i]`` in
    ``terms``.  Only the distinct values are ever compared: the rows go
    through a ``set`` and a dict lookup, as in the reference encoder.
    Ranks order as the values do, so any slice of them can be grouped
    or sorted as integers.
    """
    distinct = set(values)
    distinct.discard(None)
    terms = sorted(distinct)
    rank_of = {term: rank for rank, term in enumerate(terms, 1)}
    rank_of[None] = 0
    ranks = np.fromiter(map(rank_of.__getitem__, values), dtype=np.int64, count=len(values))
    return terms, ranks


@dataclass
class PreparedColumn:
    """One column in the form every consumer inside the writer reads."""

    ctype: ColumnType
    column: np.ndarray | Strings  # the input (column_array)
    null_mask: np.ndarray  # bool, one per row
    vector: np.ndarray | None  # int64/float64/bool vector; None for STRING

    @cached_property
    def values(self) -> list:
        """The Python values, made on first use (a STRING column's by
        one decode of its blob): the oracle SMA of a block the array
        path refuses, and a STRING column's SMA bounds, DICT choice and
        terms."""
        return self.column.tolist()

    @cached_property
    def ranking(self) -> tuple[list, np.ndarray]:
        """:func:`rank_strings` of a STRING column, made on first use:
        DICT blocks, the raw inverted index and the Bloom filter share
        it, and a column none of them ranks (tokenized text in PLAIN
        blocks) is never sorted."""
        return rank_strings(self.values)


def _object_array(values: list) -> np.ndarray:
    # np.array() would try to build multi-dimensional arrays from
    # sequence-valued cells; pre-sizing keeps the array strictly 1-D.
    arr = np.empty(len(values), dtype=object)
    arr[:] = values
    return arr


# The typed vector of each non-STRING column type, and the one value
# type a list must hold throughout to convert to it.
VECTOR_DTYPES = {
    ColumnType.INT64: np.dtype(np.int64),
    ColumnType.TIMESTAMP: np.dtype(np.int64),
    ColumnType.FLOAT64: np.dtype(np.float64),
    ColumnType.BOOL: np.dtype(np.bool_),
}
_EXACT = {
    ColumnType.INT64: {int},
    ColumnType.TIMESTAMP: {int},
    ColumnType.FLOAT64: {float},
    ColumnType.BOOL: {bool},
}


_FLOAT_OR_NULL = frozenset((float, type(None)))


def column_array(values: list, ctype: ColumnType) -> np.ndarray | Strings | list:
    """A value list in :func:`prepare_column`'s one input form: the
    typed vector when every value has exactly the column's Python type
    (``int`` within int64, ``float``, ``bool``; no null), else an object
    array of the values as they are; for STRING the values joined into
    :class:`Strings`, or the list itself when one is not a ``str``.  A
    FLOAT64 column's ints are taken as the floats the column stores, for
    every encoder alike."""
    exact = _EXACT.get(ctype)
    if exact is None:  # STRING
        try:
            return Strings.from_values(values)
        except TypeError:  # a value that is not a str
            return values
    kinds = set(map(type, values))
    if ctype is ColumnType.FLOAT64 and not kinds <= _FLOAT_OR_NULL:
        values = [float(v) if isinstance(v, int) and type(v) is not bool else v for v in values]
        kinds = set(map(type, values))
    if kinds <= exact:
        try:
            return np.array(values, dtype=VECTOR_DTYPES[ctype])
        except OverflowError:
            pass
    return _object_array(values)


def _typed_vector(column: np.ndarray, has_nulls: bool, dtype) -> tuple[np.ndarray, np.ndarray]:
    """``(vector, null_mask)`` of an object array in a numeric or bool
    column: the nulls masked and filled with the oracle's placeholder
    (0 / 0.0 / False) first."""
    if not has_nulls:
        return column.astype(dtype), np.zeros(len(column), dtype=bool)
    filled = column.copy()
    null_mask = np.equal(filled, None)
    filled[null_mask] = 0
    return filled.astype(dtype), null_mask


def prepare_column(
    column: np.ndarray | Strings | list, ctype: ColumnType, trusted: bool = False
) -> PreparedColumn:
    """Walk one column into its prepared form, or raise :class:`EncodeFallback`.

    ``column`` is what :func:`column_array` makes: a typed vector or a
    STRING column's :class:`Strings` is taken as it is (its values
    passed admission or the joining); an object array goes through the
    type gate and the null mask.  ``trusted=True`` skips the per-value
    type gate — callers that schema-validated every appended row (the
    writer's default) already guarantee the exact type set the kernels
    assume.
    """
    if ctype is ColumnType.STRING:
        if not isinstance(column, Strings):
            raise EncodeFallback("non-str value")
        return PreparedColumn(ctype, column, column.null_mask(), None)
    if column.dtype == VECTOR_DTYPES.get(ctype):
        return PreparedColumn(ctype, column, np.zeros(len(column), dtype=bool), column)
    # One C-driven sweep collecting the exact types present.  The gate
    # is deliberately stricter than the schema validator (which also
    # accepts int/str/bool *subclasses*): a subclassed value falls back
    # to the oracle rather than risking a representation the kernels
    # did not anticipate.  Falling back is always byte-safe.
    vtypes = set(map(type, column))
    has_nulls = type(None) in vtypes
    vtypes.discard(type(None))

    if ctype in (ColumnType.INT64, ColumnType.TIMESTAMP):
        if not trusted and not vtypes <= {int}:
            raise EncodeFallback("non-int value")
        try:
            vector, null_mask = _typed_vector(column, has_nulls, np.int64)
        except (OverflowError, TypeError, ValueError) as exc:
            # The oracle's np.array(..., dtype=int64) raises the same
            # OverflowError — falling back surfaces the canonical one.
            raise EncodeFallback("int64 overflow") from exc
        return PreparedColumn(ctype, column, null_mask, vector)

    if ctype is ColumnType.FLOAT64:
        if not trusted and not vtypes <= {float}:  # ints came as floats (column_array)
            raise EncodeFallback("non-float value")
        try:
            vector, null_mask = _typed_vector(column, has_nulls, np.float64)
        except (OverflowError, TypeError, ValueError) as exc:
            raise EncodeFallback("float64 overflow") from exc
        return PreparedColumn(ctype, column, null_mask, vector)

    if ctype is ColumnType.BOOL:
        if not trusted and not vtypes <= {bool}:
            raise EncodeFallback("non-bool value")
        vector, null_mask = _typed_vector(column, has_nulls, np.bool_)
        return PreparedColumn(ctype, column, null_mask, vector)

    raise EncodeFallback(f"unsupported column type {ctype}")


def encode_block_range(prep: PreparedColumn, start: int, stop: int) -> bytes:
    """Encode rows ``[start, stop)`` of a prepared column: byte-identical
    to ``encode_block(values[start:stop], ctype)``."""
    nulls = prep.null_mask[start:stop]
    writer = BinaryWriter()
    writer.write_len_prefixed(
        Bitset.from_bool_array(nulls).to_bytes() if nulls.any() else null_free_section(len(nulls))
    )

    if prep.ctype is ColumnType.FLOAT64:
        writer.write_bytes(prep.vector[start:stop].tobytes())
        return writer.getvalue()

    if prep.ctype in (ColumnType.INT64, ColumnType.TIMESTAMP):
        write_int_frame(writer, prep.vector[start:stop])
        return writer.getvalue()

    if prep.ctype is ColumnType.BOOL:
        writer.write_len_prefixed(
            Bitset.from_bool_array(prep.vector[start:stop]).to_bytes()
        )
        return writer.getvalue()

    # STRING.  The oracle's DICT-or-PLAIN choice needs the block's
    # distinct count, which a set gives without comparing a value.
    chunk = prep.values[start:stop]
    n_present = len(chunk) - int(np.count_nonzero(nulls))
    distinct = set(chunk)
    distinct.discard(None)
    if (
        n_present
        and len(chunk) >= 16
        and len(distinct) <= _DICT_MAX_CARDINALITY_FRACTION * n_present
    ):
        # The block's distinct ranks, ascending, are its dictionary in
        # the oracle's sorted order; a null's rank 0 sorts first and so
        # lands on code 0, which is reserved for it.
        terms, ranks = prep.ranking
        ordered, codes = np.unique(ranks[start:stop], return_inverse=True)
        first = 1 if n_present < len(chunk) else 0
        writer.write_u8(_STRING_DICT)
        writer.write_uvarint(len(ordered) - first)
        writer.write_strings([terms[rank - 1].encode("utf-8") for rank in ordered[first:].tolist()])
        writer.write_bytes(encode_uvarint_array(codes + (1 - first)))
        return writer.getvalue()
    # PLAIN: the lengths and the text, straight from the blob.
    strings = prep.column[start:stop]
    writer.write_u8(_STRING_PLAIN)
    writer.write_bytes(encode_uvarint_array(strings.lengths()))
    writer.write_bytes(strings.plain())
    return writer.getvalue()


def compute_sma_range(
    prep: PreparedColumn, start: int, stop: int
) -> tuple[Sma, str | None]:
    """SMA of rows ``[start, stop)``: array fast path, oracle fallback."""
    if prep.ctype is ColumnType.STRING:
        present = [value for value in prep.values[start:stop] if value is not None]
        bounds = (min(present), max(present)) if present else (None, None)
        return Sma(*bounds, stop - start, stop - start - len(present), None), None
    sma = compute_sma_arrays(prep.vector[start:stop], prep.null_mask[start:stop], prep.ctype)
    if sma is not None:
        return sma, None
    reason = "float sma needs sequential accumulation"
    return compute_sma(prep.values[start:stop], prep.ctype), reason
