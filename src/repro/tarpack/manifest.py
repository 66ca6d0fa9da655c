"""Manifest for the tar-with-manifest packaging of LogBlocks.

§3 of the paper: "A LogBlock of a tenant is composed of a lot of small
files, such as metadata, indexes, and data blocks, and all these files are
packaged into a large tar file instead of using small files.  The header
of the tar file contains a manifest, allowing subsequent read operations
to seek and read any part of the tar file."

The manifest maps member names to ``(offset, length)`` within the packed
blob, so a reader can fetch exactly one member with a single ranged GET.

Version 2 (written) is two sections after the member count: the names
(every length as a uvarint, then the concatenated UTF-8 text) and every
member's length as a uvarint.  Members lie back to back in manifest
order, so a member's offset is the sum of the lengths before it; parsing
is one varint decode and one cumsum per section, whatever the member
count.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.common.bytesio import BinaryReader, BinaryWriter
from repro.common.errors import CorruptionError, SerializationError
from repro.common.strings import Strings
from repro.common.varint import encode_uvarint_array

MAGIC = b"LSTP"  # LogStore Tar Pack
VERSION = 2
# What a parsed manifest holds (for a cache's accounting): the object,
# its list, dict and two arrays; then per member its name (a str header
# + the text), a list slot, a dict entry and 16 bytes of arrays.
_FIXED_BYTES = 480
_MEMBER_BYTES = 120
# A member extent past this is damage, not a pack: the running sums
# stay far inside int64.
_MAX_LENGTH = 1 << 48


class Manifest:
    """A pack's members in manifest order, back to back from offset 0:
    their names, and where each starts and ends within the data section
    (``offsets`` / ``ends``, two read-only int64 views of one array of
    running sums), with one name → position dict."""

    __slots__ = ("_names", "_index", "offsets", "ends")
    version = VERSION  # the only layout read and written

    def __init__(self, names: list[str], bounds: np.ndarray) -> None:
        index = dict(zip(names, range(len(names))))
        if len(index) != len(names):
            raise SerializationError("duplicate member name")
        if len(bounds) != len(names) + 1:
            raise SerializationError("member extents disagree with the names")
        bounds.flags.writeable = False
        self._names = names
        self._index = index
        self.offsets = bounds[:-1]
        self.ends = bounds[1:]

    @classmethod
    def of(cls, names: list[str], lengths: list[int]) -> "Manifest":
        """Members packed back to back in this order."""
        bounds = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=bounds[1:])
        return cls(names, bounds)

    def extent(self, name: str) -> tuple[int, int]:
        """``(offset, length)`` of a member within the data section."""
        try:
            at = self._index[name]
        except KeyError:
            raise KeyError(f"no such member: {name}") from None
        start = self.offsets.item(at)
        return start, self.ends.item(at) - start

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self._names)

    def names(self) -> list[str]:
        return list(self._names)

    @property
    def data_length(self) -> int:
        """Bytes of data section the members reach."""
        return int(self.ends.max()) if len(self) else 0

    @property
    def nbytes(self) -> int:
        """Bytes this manifest keeps alive (what a cache is charged)."""
        return _FIXED_BYTES + _MEMBER_BYTES * len(self._names) + sum(map(len, self._names))

    # -- serialization -------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize as version 2: MAGIC, version, crc32 of the body, the
        body's length, then the body (count, names, lengths)."""
        body = BinaryWriter()
        body.write_uvarint(len(self._names))
        body.write_strings([name.encode("utf-8") for name in self._names])
        body.write_bytes(encode_uvarint_array(self.ends - self.offsets))
        payload = body.getvalue()
        out = BinaryWriter()
        out.write_bytes(MAGIC)
        out.write_u8(VERSION)
        out.write_u32(zlib.crc32(payload))
        out.write_u32(len(payload))
        out.write_bytes(payload)
        return out.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "Manifest":
        reader = BinaryReader(data)
        if reader.read_bytes(4) != MAGIC:
            raise CorruptionError("bad manifest magic")
        version = reader.read_u8()
        if version != VERSION:
            raise SerializationError(f"unsupported manifest version {version}")
        crc = reader.read_u32()
        payload = reader.read_bytes(reader.read_u32())
        if zlib.crc32(payload) != crc:
            raise CorruptionError("manifest checksum mismatch")
        if reader.remaining():
            raise CorruptionError(f"{reader.remaining()} bytes after the manifest")
        body = BinaryReader(payload)
        count = body.read_uvarint()
        name_bounds, text = body.read_strings(count)
        bounds = body.read_bounds(count, _MAX_LENGTH)
        if body.remaining():
            raise SerializationError(f"{body.remaining()} bytes after the member lengths")
        return cls(Strings(text, name_bounds, 0).tolist(), bounds)
