"""LEB128 variable-length integers and zigzag encoding.

LogBlock column blocks store row counts, offsets and deltas as varints to
keep the metadata sections compact, mirroring what ORC/Parquet-style
formats (and the paper's LogBlock) do.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import SerializationError

_MAX_VARINT_BYTES = 10  # enough for any unsigned 64-bit value
_ONE_BYTE = tuple(bytes((value,)) for value in range(0x80))
# The fixed widths a LogBlock stores unsigned numbers at.  Width 0
# stores nothing (every number is 0) and reads back as uint8 zeros.
NARROW_DTYPES = {0: np.uint8, 1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


def narrow_width(top: int) -> int:
    """The narrowest of 0/1/2/4/8 bytes that holds every number up to ``top``."""
    return next(width for width in (0, 1, 2, 4, 8) if top < 1 << 8 * width or width == 8)


def encode_uvarint(value: int) -> bytes:
    """Encode a non-negative integer as unsigned LEB128 bytes."""
    if 0 <= value < 0x80:
        return _ONE_BYTE[value]
    if value < 0:
        raise ValueError(f"uvarint cannot encode negative value {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_uvarint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode an unsigned LEB128 integer.

    Returns ``(value, new_offset)`` where ``new_offset`` points just past
    the varint.
    """
    if offset < len(data) and data[offset] < 0x80:
        return data[offset], offset + 1
    result = 0
    shift = 0
    pos = offset
    for _ in range(_MAX_VARINT_BYTES):
        if pos >= len(data):
            raise SerializationError("truncated uvarint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
    raise SerializationError("uvarint longer than 10 bytes")


def zigzag_encode(value: int) -> int:
    """Map a signed integer to an unsigned one with small magnitudes small."""
    return (value << 1) ^ (value >> 63) if value >= 0 else ((-value) << 1) - 1


def zigzag_decode(value: int) -> int:
    """Inverse of :func:`zigzag_encode`."""
    return (value >> 1) ^ -(value & 1)


def encode_svarint(value: int) -> bytes:
    """Encode a signed integer via zigzag + unsigned LEB128."""
    return encode_uvarint(zigzag_encode(value))


def decode_svarint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a signed integer encoded by :func:`encode_svarint`."""
    raw, pos = decode_uvarint(data, offset)
    return zigzag_decode(raw), pos


def encode_uvarint_array(values: np.ndarray) -> bytes:
    """LEB128-encode a vector of unsigned ints, byte-identical to a
    per-value :func:`encode_uvarint` loop."""
    values = np.ascontiguousarray(values, dtype=np.uint64)
    if values.size == 0:
        return b""
    if int(values.max()) < 0x80:
        # Dictionary codes are < 128 for every dict of ≤ 127 entries,
        # and posting deltas for every clustered term — the common
        # cases — so the whole stream is one cast.
        return values.astype(np.uint8).tobytes()
    if values.size <= 64:
        # The passes below cost ~25 µs before the first value, a python step
        # ~0.35 µs a value: a numeric index's counts, a pack's member lengths.
        return b"".join(map(encode_uvarint, values.tolist()))
    n = values.size
    n_bytes = np.ones(n, dtype=np.int64)
    rest = values >> np.uint64(7)
    while rest.any():
        n_bytes += rest > 0
        rest >>= np.uint64(7)
    offsets = np.zeros(n, dtype=np.int64)
    np.cumsum(n_bytes[:-1], out=offsets[1:])
    out = np.zeros(int(offsets[-1] + n_bytes[-1]), dtype=np.uint8)
    remaining = values.copy()
    active = np.ones(n, dtype=bool)
    byte_idx = 0
    while active.any():
        chunk = remaining[active]
        more = chunk >= 0x80
        out[offsets[active] + byte_idx] = (
            chunk & np.uint64(0x7F)
        ).astype(np.uint8) | (more.astype(np.uint8) << 7)
        remaining[active] = chunk >> np.uint64(7)
        active &= remaining > 0
        byte_idx += 1
    return out.tobytes()


def uvarint_ends(data) -> np.ndarray:
    """One past every byte of ``data`` without a continuation bit.

    A varint ends at its first such byte, so in a buffer of back-to-back
    varints entry ``k`` is where varint ``k`` ends and ``k + 1`` starts
    — every boundary from one comparison, with no varint decoded.
    """
    return (np.frombuffer(data, dtype=np.uint8) < 0x80).nonzero()[0] + 1


def decode_uvarint_array(data: bytes, count: int, offset: int = 0) -> tuple[np.ndarray, int]:
    """Decode ``count`` consecutive LEB128 varints starting at ``offset``.

    The mirror of :func:`encode_uvarint_array`: returns ``(values,
    new_offset)`` with ``values`` a uint64 vector equal to ``count``
    :func:`decode_uvarint` calls.  :func:`uvarint_ends` gives every
    varint's extent at once; byte ``k`` of all varints that long is
    then folded in with one gather per ``k``.
    """
    if count == 0:
        return np.empty(0, dtype=np.uint64), offset
    head = bytes(memoryview(data)[offset : offset + count])
    if len(head) == count and head.isascii():  # every varint one byte
        return np.frombuffer(head, dtype=np.uint8).astype(np.uint64), offset + count
    # What follows the varints is not scanned: they span at most this.
    raw = np.frombuffer(memoryview(data)[offset : offset + _MAX_VARINT_BYTES * count], np.uint8)
    ends = uvarint_ends(raw)[:count]
    if ends.size < count:
        raise SerializationError("truncated uvarint")
    starts = np.zeros(count, dtype=np.int64)
    starts[1:] = ends[:-1]
    lengths = ends - starts
    longest = int(lengths.max())
    if longest > _MAX_VARINT_BYTES:
        raise SerializationError("uvarint longer than 10 bytes")
    values = (raw[starts] & 0x7F).astype(np.uint64)
    for k in range(1, longest):
        idx = np.flatnonzero(lengths > k)
        septet = raw[starts[idx] + k] & 0x7F
        if k == _MAX_VARINT_BYTES - 1 and int(septet.max()) > 1:
            raise SerializationError("uvarint exceeds 64 bits")
        values[idx] |= septet.astype(np.uint64) << np.uint64(7 * k)
    return values, offset + int(ends[-1])
