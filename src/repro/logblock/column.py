"""Column-block encoders/decoders for each physical type.

A *column block* is the unit of the fifth part of the LogBlock layout
(Figure 4): the values of one column for a horizontal slice of rows,
together with a null bitset.  The encoded payload is compressed by the
writer with the block's codec; this module produces/consumes the
*uncompressed* payload.

Encodings:

* INT64/TIMESTAMP — null bitset + a frame: a mode byte, a base
  (zigzag uvarint), then unsigned offsets at the narrowest of 0/1/2/4/8
  bytes (a width byte first).  A non-decreasing block is *delta*: the
  base is its first value and the offsets the gaps between neighbours;
  any other is *FOR* (frame of reference): the base is its minimum and
  the offsets ``value - min``.  Offsets are uint64 arithmetic, so the
  int64 extremes round-trip; a null's placeholder 0 is framed with the
  values.  Format v6 stored the raw little-endian int64 vector.
* FLOAT64        — null bitset + raw float64 vector.
* BOOL           — null bitset + value bitset.
* STRING         — null bitset + either PLAIN (every row's value) or
  DICT (distinct values + per-row codes) chosen by cardinality, like the
  frequency-based dictionary compression the paper cites from DB2 BLU.

A list of strings — PLAIN values, a DICT dictionary — is two
sections: every length as a uvarint, then the concatenated UTF-8 text,
so its extents are one varint decode and one cumsum.  A block's bytes
end where its values end; anything after them is damage.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.common.bitset import Bitset
from repro.common.bytesio import BinaryReader, BinaryWriter
from repro.common.errors import SerializationError
from repro.common.strings import Strings, with_nulls
from repro.common.varint import decode_uvarint_array, zigzag_decode, zigzag_encode
from repro.logblock.schema import ColumnType

_STRING_PLAIN = 0
_STRING_DICT = 1
_FOR, _DELTA = 0, 1  # the frame modes of an INT64 / TIMESTAMP block

# Use dictionary encoding when distinct values are at most this fraction
# of the row count (and the block is non-trivial).
_DICT_MAX_CARDINALITY_FRACTION = 0.5


def encode_block(values: list, ctype: ColumnType) -> bytes:
    """Encode one column block of python values (``None`` = null)."""
    writer = BinaryWriter()
    nulls = Bitset.from_bool_array(np.array([v is None for v in values], dtype=bool))
    writer.write_len_prefixed(nulls.to_bytes())
    if ctype is ColumnType.FLOAT64:
        vector = np.array([0.0 if v is None else float(v) for v in values], dtype=np.float64)
        writer.write_bytes(vector.tobytes())
    elif ctype in (ColumnType.INT64, ColumnType.TIMESTAMP):
        write_int_frame(writer, np.array([0 if v is None else int(v) for v in values], np.int64))
    elif ctype is ColumnType.BOOL:
        bits = Bitset.from_bool_array(np.array([bool(v) for v in values], dtype=bool))
        writer.write_len_prefixed(bits.to_bytes())
    elif ctype is ColumnType.STRING:
        _encode_strings(writer, values)
    else:
        raise SerializationError(f"unsupported column type {ctype}")
    return writer.getvalue()


def write_int_frame(writer: BinaryWriter, vector: np.ndarray) -> None:
    """An int64 vector as its frame: delta when it never decreases,
    else FOR (the module docstring has the layout)."""
    bits = vector.view(np.uint64)
    if vector.size and (vector[1:] >= vector[:-1]).all():
        mode, base, offsets = _DELTA, vector[0], bits[1:] - bits[:-1]
    else:
        base = vector.min() if vector.size else np.int64(0)
        mode, offsets = _FOR, bits - base.view(np.uint64)
    writer.write_u8(mode)
    writer.write_uvarint(zigzag_encode(int(base)))
    writer.write_narrow(offsets)


def _read_frame_head(reader: BinaryReader) -> tuple[int, int]:
    """The ``(mode, base)`` a frame starts with, checked."""
    mode, base = reader.read_u8(), zigzag_decode(reader.read_uvarint())
    if mode not in (_FOR, _DELTA) or not -(1 << 63) <= base < 1 << 63:
        raise SerializationError(f"int block frame mode {mode}, base {base}")
    return mode, base


def _read_ints(reader: BinaryReader, row_count: int) -> np.ndarray:
    """A block's int64 values, widened once from their frame.  int64
    arithmetic wraps as uint64 does, so the offsets add up to the same
    bits."""
    mode, base = _read_frame_head(reader)
    offsets = reader.read_narrow(row_count - mode)  # delta stores no offset for row 0
    values = np.empty(row_count, dtype=np.int64)
    values[mode:] = offsets
    if mode == _DELTA:
        values[0] = base
        np.add.accumulate(values, out=values)
    else:
        values += base
    return values


def int_frame(data: bytes) -> tuple[str, int]:
    """``(frame, offset width)`` of one uncompressed INT64 / TIMESTAMP
    block: ``"delta"`` or ``"for"`` (for inspection)."""
    reader = BinaryReader(data)
    reader.read_len_prefixed()  # the null bitset
    mode, _base = _read_frame_head(reader)
    return ("delta" if mode == _DELTA else "for"), reader.read_u8()


@lru_cache(maxsize=64)
def null_free_section(row_count: int) -> bytes:
    """The null bitset of a block of ``row_count`` rows none of which is
    null, serialized (``Bitset(row_count).to_bytes()``)."""
    return row_count.to_bytes(4, "little") + bytes((row_count + 7) // 8)


@lru_cache(maxsize=64)
def _no_nulls(row_count: int) -> np.ndarray:
    """The null mask of a null-free block, shared read-only."""
    return _frozen(np.zeros(row_count, dtype=bool))


def _read_null_mask(reader: BinaryReader, row_count: int) -> np.ndarray:
    """The null bitset every block starts with, as a bool vector."""
    data = reader.read_len_prefixed()
    if data == null_free_section(row_count):
        return _no_nulls(row_count)
    nulls = Bitset.from_bytes(data)
    if len(nulls) != row_count:
        raise SerializationError(
            f"null bitset size {len(nulls)} does not match row count {row_count}"
        )
    return nulls.to_bool_array()


def _at_end(reader: BinaryReader) -> None:
    if reader.remaining():
        raise SerializationError(f"{reader.remaining()} bytes after the column block's values")


def decode_block(data: bytes, ctype: ColumnType, row_count: int) -> list:
    """Decode a column block back into python values (``None`` = null)."""
    reader = BinaryReader(data)
    null_mask = _read_null_mask(reader, row_count)
    if ctype in (ColumnType.INT64, ColumnType.TIMESTAMP, ColumnType.FLOAT64):
        if ctype is ColumnType.FLOAT64:
            vector = np.frombuffer(reader.read_bytes(row_count * 8), dtype=np.float64)
        else:
            vector = _read_ints(reader, row_count)
        _at_end(reader)
        return with_nulls(vector.tolist(), null_mask)
    if ctype is ColumnType.BOOL:
        bits = Bitset.from_bytes(reader.read_len_prefixed())
        if len(bits) != row_count:
            raise SerializationError(
                f"value bitset size {len(bits)} does not match row count {row_count}"
            )
        _at_end(reader)
        return with_nulls(bits.to_bool_array().tolist(), null_mask)
    if ctype is ColumnType.STRING:
        return _decode_strings(reader, null_mask, row_count)
    raise SerializationError(f"unsupported column type {ctype}")


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array`` made read-only: a decoded block is shared between queries."""
    array.flags.writeable = False
    return array


def decode_block_arrays(data: bytes, ctype: ColumnType, row_count: int):
    """Decode a column block into the one form every read path shares.

    Numeric/bool columns return ``(values, null_mask)``.  DICT-encoded
    string blocks return ``(codes, dictionary, null_mask)`` — codes are
    unsigned, as narrow as the dictionary allows, with 0 = null and
    ``code - 1`` indexing the sorted ``dictionary`` tuple, so
    equality/IN/range predicates evaluate as integer compares on the
    codes (the dictionary is sorted, hence codes are order-isomorphic to
    the values).  PLAIN string blocks have no vector form and return a
    :class:`~repro.common.strings.Strings` view that decodes only the rows picked from
    it.  Every array is read-only: the object cache hands one decoded
    block to every query that reads it (:func:`decoded_nbytes` is what
    it is charged).
    """
    reader = BinaryReader(data)
    null_mask = _frozen(_read_null_mask(reader, row_count))
    if ctype in (ColumnType.INT64, ColumnType.TIMESTAMP, ColumnType.FLOAT64):
        if ctype is ColumnType.FLOAT64:
            values = np.frombuffer(reader.read_bytes(row_count * 8), dtype=np.float64)
        else:
            values = _frozen(_read_ints(reader, row_count))
        _at_end(reader)
        return values, null_mask
    if ctype is ColumnType.BOOL:
        bits = Bitset.from_bytes(reader.read_len_prefixed())
        if len(bits) != row_count:
            raise SerializationError(
                f"value bitset size {len(bits)} does not match row count {row_count}"
            )
        _at_end(reader)
        return _frozen(bits.to_bool_array()), null_mask
    if ctype is ColumnType.STRING:
        encoding = reader.read_u8()
        if encoding == _STRING_PLAIN:
            return _plain_strings(reader, null_mask)
        if encoding != _STRING_DICT:
            raise SerializationError(f"unknown string encoding {encoding}")
        dictionary = tuple(_read_dictionary(reader))
        dict_size = len(dictionary)
        if dict_size < 0x80:
            # Every code (≤ dict_size) fits one LEB128 byte: the code
            # stream is the uint8 vector.
            codes = np.frombuffer(reader.read_bytes(row_count), dtype=np.uint8)
            _at_end(reader)
        else:
            # The scan kernels compare codes with ``dict_size + 1``.
            width = np.uint16 if dict_size < 0xFFFF else np.uint32
            codes = _frozen(_read_codes(reader, row_count).astype(width))
        if row_count and int(codes.max()) > dict_size:
            raise SerializationError("string code past the dictionary")
        return codes, dictionary, null_mask
    raise SerializationError(f"unsupported column type {ctype}")


# What a cache is charged for a decoded block beside its buffers: the
# tuple, the array headers and the bytes objects they view.
_DECODED_OVERHEAD = 320
_STR_OVERHEAD = 56  # a python str header + its list slot


def decoded_nbytes(block) -> int:
    """Bytes a :func:`decode_block_arrays` result keeps alive."""
    if isinstance(block, Strings):
        return _DECODED_OVERHEAD + len(block.text) + block.bounds.nbytes + block.nulls.nbytes
    if len(block) == 3:
        codes, dictionary, null_mask = block
        held = codes.nbytes + sum(map(len, dictionary)) + _STR_OVERHEAD * len(dictionary)
    else:
        values, null_mask = block
        held = values.nbytes
    return _DECODED_OVERHEAD + held + null_mask.nbytes


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
        _write_strings(writer, ordered)
        for value in values:
            # Code 0 is reserved for null; real codes are shifted by one.
            writer.write_uvarint(0 if value is None else code_of[value] + 1)
    else:
        writer.write_u8(_STRING_PLAIN)
        _write_strings(writer, ["" if value is None else value for value in values])


def string_sections(data: bytes, row_count: int) -> tuple[str, int, int]:
    """``(encoding, length section bytes, text bytes)`` of one
    uncompressed STRING block (for inspection)."""
    reader = BinaryReader(data)
    reader.read_len_prefixed()  # the null bitset
    plain = reader.read_u8() == _STRING_PLAIN
    count = row_count if plain else reader.read_uvarint()
    start = reader.offset
    _bounds, text = reader.read_strings(count)
    return ("plain" if plain else "dict"), reader.offset - start - len(text), len(text)


def _write_strings(writer: BinaryWriter, strings: list[str]) -> None:
    """A list of strings, value by value: every length, then every text."""
    encoded = [text.encode("utf-8") for text in strings]
    for data in encoded:
        writer.write_uvarint(len(data))
    for data in encoded:
        writer.write_bytes(data)


def _read_dictionary(reader: BinaryReader) -> list[str]:
    """A DICT block's dictionary: its size, then its strings."""
    bounds, text = reader.read_strings(reader.read_uvarint())
    return Strings(text, bounds, 0).tolist()


def _read_codes(reader: BinaryReader, row_count: int) -> np.ndarray:
    """A DICT block's trailing code stream: ``row_count`` uvarints."""
    data = reader.read_bytes(reader.remaining())
    codes, end = decode_uvarint_array(data, row_count)
    if end != len(data):
        raise SerializationError(f"{len(data) - end} bytes after the column block's values")
    return codes


def _decode_strings(reader: BinaryReader, null_mask: np.ndarray, row_count: int) -> list:
    encoding = reader.read_u8()
    if encoding == _STRING_DICT:
        # Slot 0 is the null code; a row the bitset marks null is null
        # whatever its code says.
        dictionary = np.array([None, *_read_dictionary(reader)], dtype=object)
        codes = _read_codes(reader, row_count)
        codes[null_mask] = 0
        return dictionary[codes].tolist()
    if encoding == _STRING_PLAIN:
        return _plain_strings(reader, null_mask).pick(np.arange(row_count))
    raise SerializationError(f"unknown string encoding {encoding}")


def _plain_strings(reader: BinaryReader, null_mask: np.ndarray) -> Strings:
    """The view of a PLAIN block; ``reader`` is just past the encoding byte."""
    bounds, text = reader.read_strings(len(null_mask))
    if reader.remaining():
        raise SerializationError("string lengths disagree with the text")
    return Strings(text, _frozen(bounds), 0, null_mask)


def block_values(block, offsets: np.ndarray | None = None) -> list:
    """Python values (``None`` = null) of a decoded block.

    All of them, or those at the strictly ascending row ``offsets`` —
    the late-materialization pick: only the chosen values become python
    objects.
    """
    if isinstance(block, Strings):
        return block.pick(np.arange(len(block)) if offsets is None else offsets)
    chosen = slice(None) if offsets is None else offsets
    if len(block) == 3:
        # DICT string block: pick codes, then look the chosen values up
        # in the (small) dictionary.  A row the bitset marks null is
        # null whatever its code says.
        codes, dictionary, null_mask = block
        lookup = (None,) + dictionary
        return [lookup[code] for code in np.where(null_mask[chosen], 0, codes[chosen]).tolist()]
    values, null_mask = block
    return with_nulls(values[chosen].tolist(), null_mask[chosen])
