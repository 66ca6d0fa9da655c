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
  signed-zero float SMAs, ints stored in FLOAT64 columns, plain-string
  blocks, unsupported value types) raise :class:`EncodeFallback` or
  return the interpreted result, exactly like ``VectorizeFallback`` on
  the scan side;
* tests — differential + hypothesis suites compare whole packed
  LogBlocks member-by-member across both modes.

A column is *prepared* once (type gate, null mask, typed vector), then
every block slice encodes from the shared arrays — the per-block cost
is O(1) numpy calls instead of O(rows) python bytecode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.bitset import Bitset
from repro.common.bytesio import BinaryWriter
from repro.common.varint import encode_uvarint_array
from repro.logblock.column import (
    _DICT_MAX_CARDINALITY_FRACTION,
    _STRING_DICT,
    encode_block,
)
from repro.logblock.schema import ColumnType
from repro.logblock.sma import Sma, compute_sma, compute_sma_arrays

MODE_VECTORIZED = "vectorized"
MODE_INTERPRETED = "interpreted"


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
    per-leaf evaluated rows; ``fallbacks`` maps reason → occurrence
    count (one per column block that fell back).
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


@dataclass
class PreparedColumn:
    """One column transposed into numpy form, shared by all its blocks."""

    ctype: ColumnType
    values: list  # original python values — oracle fallback + plain strings
    null_mask: np.ndarray  # bool, one per row
    vector: np.ndarray  # int64/float64/bool vector; object array for STRING
    # SMA fast path eligibility is a column-level property (e.g. a
    # FLOAT64 column holding python ints must keep the oracle's
    # value-kind-preserving min/max); per-block hazards (NaN, -0.0) are
    # detected inside compute_sma_range.
    sma_vectorized: bool = True
    sma_reason: str | None = None


def _object_array(values: list) -> np.ndarray:
    # np.array() would try to build multi-dimensional arrays from
    # sequence-valued cells; pre-sizing keeps the array strictly 1-D.
    arr = np.empty(len(values), dtype=object)
    arr[:] = values
    return arr


def prepare_column(
    values: list, ctype: ColumnType, trusted: bool = False
) -> PreparedColumn:
    """Transpose one column into numpy form, or raise :class:`EncodeFallback`.

    ``trusted=True`` skips the per-value type gate — callers that
    schema-validated every appended row (the writer's default) already
    guarantee the exact type set the kernels assume.
    """
    obj = _object_array(values)
    null_mask = np.equal(obj, None)
    # One C-driven sweep collecting the exact types present.  The gate
    # is deliberately stricter than the schema validator (which also
    # accepts int/str/bool *subclasses*): a subclassed value falls back
    # to the oracle rather than risking a representation the kernels
    # did not anticipate.  Falling back is always byte-safe.
    vtypes = set(map(type, values))
    vtypes.discard(type(None))

    if ctype in (ColumnType.INT64, ColumnType.TIMESTAMP):
        if not trusted and not vtypes <= {int}:
            raise EncodeFallback("non-int value")
        filled = obj.copy()
        filled[null_mask] = 0
        try:
            vector = filled.astype(np.int64)
        except (OverflowError, TypeError, ValueError) as exc:
            # The oracle's np.array(..., dtype=int64) raises the same
            # OverflowError — falling back surfaces the canonical one.
            raise EncodeFallback("int64 overflow") from exc
        return PreparedColumn(ctype, values, null_mask, vector)

    if ctype is ColumnType.FLOAT64:
        if not trusted and not vtypes <= {int, float}:
            raise EncodeFallback("non-float value")
        filled = obj.copy()
        filled[null_mask] = 0.0
        try:
            vector = filled.astype(np.float64)
        except (OverflowError, TypeError, ValueError) as exc:
            raise EncodeFallback("float64 overflow") from exc
        prep = PreparedColumn(ctype, values, null_mask, vector)
        if not vtypes <= {float}:
            # The oracle SMA keeps the *original* min/max objects, so a
            # python int min serializes as KIND_INT; the float64 vector
            # cannot reproduce that.  Encoding is unaffected (both
            # paths store float64 bits).
            prep.sma_vectorized = False
            prep.sma_reason = "float column holds ints (sma)"
        return prep

    if ctype is ColumnType.BOOL:
        if not trusted and not vtypes <= {bool}:
            raise EncodeFallback("non-bool value")
        # bool(None) is False, matching the oracle's placeholder.
        return PreparedColumn(ctype, values, null_mask, obj.astype(bool))

    if ctype is ColumnType.STRING:
        if not trusted and not vtypes <= {str}:
            raise EncodeFallback("non-str value")
        return PreparedColumn(ctype, values, null_mask, obj)

    raise EncodeFallback(f"unsupported column type {ctype}")


def encode_block_range(
    prep: PreparedColumn, start: int, stop: int
) -> tuple[bytes, str, str | None]:
    """Encode rows ``[start, stop)`` of a prepared column.

    Returns ``(payload, mode, fallback_reason)`` where ``payload`` is
    byte-identical to ``encode_block(values[start:stop], ctype)``.
    """
    nulls = prep.null_mask[start:stop]
    writer = BinaryWriter()
    writer.write_len_prefixed(Bitset.from_bool_array(nulls).to_bytes())

    if prep.ctype in (ColumnType.INT64, ColumnType.TIMESTAMP, ColumnType.FLOAT64):
        writer.write_bytes(prep.vector[start:stop].tobytes())
        return writer.getvalue(), MODE_VECTORIZED, None

    if prep.ctype is ColumnType.BOOL:
        writer.write_len_prefixed(
            Bitset.from_bool_array(prep.vector[start:stop]).to_bytes()
        )
        return writer.getvalue(), MODE_VECTORIZED, None

    # STRING: vectorize the DICT shape (np.unique assigns codes with the
    # oracle's exact sorted-distinct order); PLAIN blocks fall back.
    chunk = prep.vector[start:stop]
    present = chunk[~nulls]
    n_rows = stop - start
    if present.size and n_rows >= 16:
        ordered, inverse = np.unique(present, return_inverse=True)
        if len(ordered) <= _DICT_MAX_CARDINALITY_FRACTION * present.size:
            writer.write_u8(_STRING_DICT)
            writer.write_uvarint(len(ordered))
            for value in ordered.tolist():
                writer.write_str(value)
            # Code 0 is reserved for null; real codes are shifted by one.
            codes = np.zeros(n_rows, dtype=np.uint64)
            codes[~nulls] = inverse.astype(np.uint64) + 1
            writer.write_bytes(encode_uvarint_array(codes))
            return writer.getvalue(), MODE_VECTORIZED, None
    payload = encode_block(prep.values[start:stop], prep.ctype)
    return payload, MODE_INTERPRETED, "plain string block"


def compute_sma_range(
    prep: PreparedColumn, start: int, stop: int
) -> tuple[Sma, str | None]:
    """SMA of rows ``[start, stop)``: array fast path, oracle fallback."""
    if prep.sma_vectorized:
        sma = compute_sma_arrays(
            prep.vector[start:stop], prep.null_mask[start:stop], prep.ctype
        )
        if sma is not None:
            return sma, None
        reason = "float sma needs sequential accumulation"
    else:
        reason = prep.sma_reason or "sma fallback"
    return compute_sma(prep.values[start:stop], prep.ctype), reason
