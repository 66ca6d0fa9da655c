"""Little binary writer/reader helpers used by all on-disk formats.

Every serialized structure in the package (WAL records, LogBlock parts,
tar manifests) is written through :class:`BinaryWriter` and parsed with
:class:`BinaryReader`, which centralizes endianness, length-prefixing and
bounds checking.
"""

from __future__ import annotations

import struct

from repro.common.errors import SerializationError
from repro.common.varint import decode_uvarint, encode_uvarint


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

    def write_i64(self, value: int) -> None:
        self._buf += struct.pack("<q", value)

    def write_f64(self, value: float) -> None:
        self._buf += struct.pack("<d", value)

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

    def read_bytes(self, count: int) -> bytes:
        if count < 0 or self._pos + count > len(self._data):
            raise SerializationError(
                f"read of {count} bytes at {self._pos} overruns buffer of {len(self._data)}"
            )
        out = self._data[self._pos : self._pos + count]
        self._pos += count
        return out

    def _unpack(self, fmt: str, size: int):
        return struct.unpack(fmt, self.read_bytes(size))[0]

    def read_u8(self) -> int:
        return self._unpack("<B", 1)

    def read_u16(self) -> int:
        return self._unpack("<H", 2)

    def read_u32(self) -> int:
        return self._unpack("<I", 4)

    def read_u64(self) -> int:
        return self._unpack("<Q", 8)

    def read_i64(self) -> int:
        return self._unpack("<q", 8)

    def read_f64(self) -> float:
        return self._unpack("<d", 8)

    def read_uvarint(self) -> int:
        value, self._pos = decode_uvarint(self._data, self._pos)
        return value

    def read_len_prefixed(self) -> bytes:
        length = self.read_uvarint()
        return self.read_bytes(length)

    def read_str(self) -> str:
        return self.read_len_prefixed().decode("utf-8")
