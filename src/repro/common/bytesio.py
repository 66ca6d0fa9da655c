"""Little binary writer/reader helpers used by all on-disk formats.

Every serialized structure in the package (WAL records, LogBlock parts,
tar manifests) is written through :class:`BinaryWriter` and parsed with
:class:`BinaryReader`, which centralizes endianness, length-prefixing and
bounds checking.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.common.errors import SerializationError
from repro.common.varint import (
    NARROW_DTYPES,
    decode_uvarint,
    decode_uvarint_array,
    encode_uvarint,
    encode_uvarint_array,
    narrow_width,
)

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


class BinaryWriter:
    """Appends primitive values to a growable byte buffer."""

    def __init__(self) -> None:
        self._buf = bytearray()

    def __len__(self) -> int:
        return len(self._buf)

    @property
    def offset(self) -> int:
        """Current write position (== bytes written so far)."""
        return len(self._buf)

    def write_bytes(self, data: bytes) -> None:
        self._buf += data

    def write_u8(self, value: int) -> None:
        self._buf += struct.pack("<B", value)

    def write_u16(self, value: int) -> None:
        self._buf += struct.pack("<H", value)

    def write_u32(self, value: int) -> None:
        self._buf += struct.pack("<I", value)

    def write_u64(self, value: int) -> None:
        self._buf += struct.pack("<Q", value)

    def write_uvarint(self, value: int) -> None:
        if 0 <= value < 0x80:
            self._buf.append(value)
        else:
            self._buf += encode_uvarint(value)

    def write_len_prefixed(self, data: bytes) -> None:
        """Write a uvarint length then the raw bytes."""
        self.write_uvarint(len(data))
        self._buf += data

    def write_str(self, text: str) -> None:
        """Write a UTF-8 string with a uvarint length prefix."""
        self.write_len_prefixed(text.encode("utf-8"))

    def write_strings(self, encoded: list[bytes]) -> None:
        """Write a list of byte strings as two sections: every length as
        a uvarint, then the concatenated text (the count is the
        caller's to write)."""
        lengths = np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded))
        self._buf += encode_uvarint_array(lengths)
        self._buf += b"".join(encoded)

    def write_narrow(self, numbers: np.ndarray) -> None:
        """Write unsigned ``numbers`` as a width byte, then each at the
        narrowest of 0/1/2/4/8 bytes that holds the largest (the count
        is the caller's to write)."""
        width = narrow_width(int(numbers.max()) if numbers.size else 0)
        self._buf.append(width)
        if width:
            self._buf += numbers.astype(NARROW_DTYPES[width]).tobytes()

    def getvalue(self) -> bytes:
        return bytes(self._buf)


class BinaryReader:
    """Sequential reader over a byte buffer with bounds checking."""

    def __init__(self, data: bytes, offset: int = 0) -> None:
        self._data = data
        self._pos = offset

    @property
    def offset(self) -> int:
        return self._pos

    def remaining(self) -> int:
        return len(self._data) - self._pos

    def seek(self, offset: int) -> None:
        if not 0 <= offset <= len(self._data):
            raise SerializationError(f"seek to {offset} outside buffer of {len(self._data)}")
        self._pos = offset

    def _overrun(self, count: int) -> SerializationError:
        return SerializationError(
            f"read of {count} bytes at {self._pos} overruns buffer of {len(self._data)}"
        )

    def read_bytes(self, count: int) -> bytes:
        pos = self._pos
        end = pos + count
        if count < 0 or end > len(self._data):
            raise self._overrun(count)
        self._pos = end
        return self._data[pos:end]

    def _unpack(self, layout: struct.Struct):
        try:
            (value,) = layout.unpack_from(self._data, self._pos)
        except struct.error:
            raise self._overrun(layout.size) from None
        self._pos += layout.size
        return value

    def read_u8(self) -> int:
        try:
            value = self._data[self._pos]
        except IndexError:
            raise self._overrun(1) from None
        self._pos += 1
        return value

    def read_u16(self) -> int:
        return self._unpack(_U16)

    def read_u32(self) -> int:
        return self._unpack(_U32)

    def read_u64(self) -> int:
        return self._unpack(_U64)

    def read_uvarint(self) -> int:
        data = self._data
        pos = self._pos
        # Lengths, counts and kinds are almost always one byte.
        if pos < len(data) and data[pos] < 0x80:
            self._pos = pos + 1
            return data[pos]
        value, self._pos = decode_uvarint(data, pos)
        return value

    def read_narrow(self, count: int) -> np.ndarray:
        """``count`` numbers written by :meth:`BinaryWriter.write_narrow`,
        at their stored width (a view of the bytes unless it is 0)."""
        width = self.read_u8()
        dtype = NARROW_DTYPES.get(width)
        if dtype is None or count < 0:
            raise SerializationError(f"{count} numbers at width {width}")
        if not width:
            return np.zeros(count, dtype)
        return np.frombuffer(self.read_bytes(count * width), dtype)

    def read_len_prefixed(self) -> bytes:
        data = self._data
        pos = self._pos
        if pos < len(data) and data[pos] < 0x80:
            length = data[pos]
            pos += 1
        else:
            length, pos = decode_uvarint(data, pos)
        end = pos + length
        if end > len(data):
            self._pos = pos
            raise self._overrun(length)
        self._pos = end
        return data[pos:end]

    def read_str(self) -> str:
        try:
            return self.read_len_prefixed().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SerializationError(f"string is not UTF-8: {exc}") from None

    def read_bounds(self, count: int, most: int) -> np.ndarray:
        """``count`` uvarint lengths, none past ``most``, as their
        ``count + 1`` running sums from 0: one varint decode and one
        cumsum."""
        lengths, self._pos = decode_uvarint_array(self._data, count, self._pos)
        if count and int(lengths.max()) > most:
            raise SerializationError("length out of range")
        bounds = np.zeros(count + 1, dtype=np.int64)
        # Bounded lengths: neither the view nor the sum overflows.
        lengths.view(np.int64).cumsum(out=bounds[1:])
        return bounds

    def read_strings(self, count: int) -> tuple[np.ndarray, bytes]:
        """``count`` strings written by :meth:`BinaryWriter.write_strings`:
        their ``count + 1`` ascending byte bounds in the text (string
        *i* is ``text[bounds[i]:bounds[i + 1]]``) and the text itself."""
        bounds = self.read_bounds(count, self.remaining())
        return bounds, self.read_bytes(int(bounds[-1]))

