"""Column-block encoders/decoders for each physical type.

A *column block* is the unit of the fifth part of the LogBlock layout
(Figure 4): the values of one column for a horizontal slice of rows,
together with a null bitset.  The encoded payload is compressed by the
writer with the block's codec; this module produces/consumes the
*uncompressed* payload.

Encodings:

* INT64/TIMESTAMP — null bitset + raw little-endian int64 vector.
* FLOAT64        — null bitset + raw float64 vector.
* BOOL           — null bitset + value bitset.
* STRING         — null bitset + either PLAIN (offsets + utf-8 bytes) or
  DICT (distinct values + per-row codes) chosen by cardinality, like the
  frequency-based dictionary compression the paper cites from DB2 BLU.
"""

from __future__ import annotations

import numpy as np

from repro.common.bitset import Bitset
from repro.common.bytesio import BinaryReader, BinaryWriter
from repro.common.errors import SerializationError
from repro.common.varint import decode_uvarint_array
from repro.logblock.schema import ColumnType

_STRING_PLAIN = 0
_STRING_DICT = 1

# Use dictionary encoding when distinct values are at most this fraction
# of the row count (and the block is non-trivial).
_DICT_MAX_CARDINALITY_FRACTION = 0.5


def encode_block(values: list, ctype: ColumnType) -> bytes:
    """Encode one column block of python values (``None`` = null)."""
    writer = BinaryWriter()
    nulls = Bitset.from_bool_array(np.array([v is None for v in values], dtype=bool))
    writer.write_len_prefixed(nulls.to_bytes())
    if ctype in (ColumnType.INT64, ColumnType.TIMESTAMP):
        vector = np.array([0 if v is None else int(v) for v in values], dtype=np.int64)
        writer.write_bytes(vector.tobytes())
    elif ctype is ColumnType.FLOAT64:
        vector = np.array([0.0 if v is None else float(v) for v in values], dtype=np.float64)
        writer.write_bytes(vector.tobytes())
    elif ctype is ColumnType.BOOL:
        bits = Bitset.from_bool_array(np.array([bool(v) for v in values], dtype=bool))
        writer.write_len_prefixed(bits.to_bytes())
    elif ctype is ColumnType.STRING:
        _encode_strings(writer, values)
    else:
        raise SerializationError(f"unsupported column type {ctype}")
    return writer.getvalue()


def decode_block(data: bytes, ctype: ColumnType, row_count: int) -> list:
    """Decode a column block back into python values (``None`` = null)."""
    reader = BinaryReader(data)
    nulls = Bitset.from_bytes(reader.read_len_prefixed())
    if len(nulls) != row_count:
        raise SerializationError(
            f"null bitset size {len(nulls)} does not match row count {row_count}"
        )
    null_mask = nulls.to_bool_array()
    if ctype in (ColumnType.INT64, ColumnType.TIMESTAMP):
        vector = np.frombuffer(reader.read_bytes(row_count * 8), dtype=np.int64)
        return [None if null_mask[i] else int(vector[i]) for i in range(row_count)]
    if ctype is ColumnType.FLOAT64:
        vector = np.frombuffer(reader.read_bytes(row_count * 8), dtype=np.float64)
        return [None if null_mask[i] else float(vector[i]) for i in range(row_count)]
    if ctype is ColumnType.BOOL:
        bits = Bitset.from_bytes(reader.read_len_prefixed())
        mask = bits.to_bool_array()
        return [None if null_mask[i] else bool(mask[i]) for i in range(row_count)]
    if ctype is ColumnType.STRING:
        return _decode_strings(reader, null_mask, row_count)
    raise SerializationError(f"unsupported column type {ctype}")


def decode_block_arrays(
    data: bytes, ctype: ColumnType, row_count: int
) -> tuple[np.ndarray, np.ndarray] | tuple[np.ndarray, list, np.ndarray] | None:
    """Vectorized decode into numpy arrays.

    Numeric/bool columns return ``(values, null_mask)``.  DICT-encoded
    string blocks return ``(codes, dictionary, null_mask)`` — codes are
    int64 with 0 = null and ``code - 1`` indexing the sorted
    ``dictionary``, so equality/IN/range predicates evaluate as integer
    compares on the codes (the dictionary is sorted, hence codes are
    order-isomorphic to the values).  PLAIN string blocks return
    ``None`` (callers fall back to :func:`decode_block`).  This is the
    data path for the vectorized scan mode (the paper's §8 future work:
    "vectorized query execution").
    """
    reader = BinaryReader(data)
    nulls = Bitset.from_bytes(reader.read_len_prefixed())
    if len(nulls) != row_count:
        raise SerializationError(
            f"null bitset size {len(nulls)} does not match row count {row_count}"
        )
    null_mask = nulls.to_bool_array()
    if ctype in (ColumnType.INT64, ColumnType.TIMESTAMP):
        values = np.frombuffer(reader.read_bytes(row_count * 8), dtype=np.int64)
        return values, null_mask
    if ctype is ColumnType.FLOAT64:
        values = np.frombuffer(reader.read_bytes(row_count * 8), dtype=np.float64)
        return values, null_mask
    if ctype is ColumnType.BOOL:
        bits = Bitset.from_bytes(reader.read_len_prefixed())
        return bits.to_bool_array(), null_mask
    if ctype is ColumnType.STRING:
        if reader.read_u8() != _STRING_DICT:
            return None
        dict_size = reader.read_uvarint()
        dictionary = [reader.read_str() for _ in range(dict_size)]
        if dict_size < 0x80:
            # Every code (≤ dict_size) fits one LEB128 byte: bulk-read.
            raw = reader.read_bytes(row_count)
            codes = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
        else:
            codes = _read_codes(reader, row_count).astype(np.int64)
        return codes, dictionary, null_mask
    return None


def _encode_strings(writer: BinaryWriter, values: list) -> None:
    present = [v for v in values if v is not None]
    distinct = set(present)
    use_dict = (
        len(values) >= 16 and len(distinct) <= _DICT_MAX_CARDINALITY_FRACTION * len(present)
        if present
        else False
    )
    if use_dict:
        writer.write_u8(_STRING_DICT)
        ordered = sorted(distinct)
        code_of = {value: code for code, value in enumerate(ordered)}
        writer.write_uvarint(len(ordered))
        for value in ordered:
            writer.write_str(value)
        for value in values:
            # Code 0 is reserved for null; real codes are shifted by one.
            writer.write_uvarint(0 if value is None else code_of[value] + 1)
    else:
        writer.write_u8(_STRING_PLAIN)
        for value in values:
            writer.write_str("" if value is None else value)


def _read_codes(reader: BinaryReader, row_count: int) -> np.ndarray:
    """A DICT block's trailing code stream: ``row_count`` uvarints."""
    codes, _ = decode_uvarint_array(reader.read_bytes(reader.remaining()), row_count)
    return codes


def _decode_strings(reader: BinaryReader, null_mask: np.ndarray, row_count: int) -> list:
    encoding = reader.read_u8()
    if encoding == _STRING_DICT:
        dict_size = reader.read_uvarint()
        # Slot 0 is the null code; a row the bitset marks null is null
        # whatever its code says.
        dictionary = np.array([None] + [reader.read_str() for _ in range(dict_size)], dtype=object)
        codes = _read_codes(reader, row_count)
        codes[null_mask] = 0
        return dictionary[codes].tolist()
    if encoding == _STRING_PLAIN:
        out = []
        for i in range(row_count):
            text = reader.read_str()  # nulls were written as "" placeholders
            out.append(None if null_mask[i] else text)
        return out
    raise SerializationError(f"unknown string encoding {encoding}")
