"""Preamble and manifest of the tar-with-manifest packaging of LogBlocks.

§3 of the paper: "A LogBlock of a tenant is composed of a lot of small
files, such as metadata, indexes, and data blocks, and all these files are
packaged into a large tar file instead of using small files.  The header
of the tar file contains a manifest, allowing subsequent read operations
to seek and read any part of the tar file."

The manifest maps member names to ``(offset, length)`` within the packed
blob, so a reader can fetch exactly one member with a single ranged GET,
and holds each member's CRC-32, so that one read is checked whole.

Version 3 (written) is three sections after the member count: the names
(every length as a uvarint, then the concatenated UTF-8 text), every
member's length as a uvarint, and every member's CRC-32 as a u32.
Members lie back to back in manifest order, so a member's offset is the
sum of the lengths before it; parsing is one varint decode and one
cumsum per section, whatever the member count.  The manifest's own
CRC-32 covers the 12-byte pack preamble before it, then its body.
Version 2 (read only) has no CRC section and its CRC covers the body
alone: the manifest of the LogBlock v7 packs (``V7`` in
:mod:`repro.logblock.version`) and of the segments built from them.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from repro.common.bytesio import BinaryReader, BinaryWriter
from repro.common.errors import CorruptionError, SerializationError
from repro.common.strings import Strings
from repro.common.varint import encode_uvarint_array

MAGIC = b"LSTP"  # LogStore Tar Pack
VERSION = 3
V2 = 2  # read only: no member CRCs
_FRAME = struct.Struct("<4sBII")  # magic, version, crc32, body length

PREAMBLE_MAGIC = b"PACK"
PREAMBLE_VERSION = 1
PREAMBLE_SIZE = 12  # 4 magic + 1 version + 1 reserved + 4 manifest_len + 2 reserved
_PREAMBLE = struct.Struct("<4sBBIH")

# What a parsed manifest holds (for a cache's accounting): the object,
# its list, dict and three arrays; then per member its name (a str
# header + the text), a list slot, a dict entry and 20 bytes of arrays.
_FIXED_BYTES = 576
_MEMBER_BYTES = 124
# A member extent past this is damage, not a pack: the running sums
# stay far inside int64.
_MAX_LENGTH = 1 << 48


def write_preamble(manifest_len: int) -> bytes:
    """Serialize the 12-byte pack preamble."""
    return _PREAMBLE.pack(PREAMBLE_MAGIC, PREAMBLE_VERSION, 0, manifest_len, 0)


def read_preamble(data: bytes) -> int:
    """Parse the preamble; returns the manifest length."""
    if len(data) < PREAMBLE_SIZE:
        raise SerializationError("pack preamble truncated")
    magic, version, _r1, manifest_len, _r2 = _PREAMBLE.unpack_from(data)
    if magic != PREAMBLE_MAGIC:
        raise CorruptionError("bad pack magic")
    if version != PREAMBLE_VERSION:
        raise SerializationError(f"unsupported pack version {version}")
    return manifest_len


class Manifest:
    """A pack's members in manifest order, back to back from offset 0:
    their names, where each starts and ends within the data section
    (``offsets`` / ``ends``, two read-only int64 views of one array of
    running sums) and each one's CRC-32 (``crcs``; None in a v2
    manifest), with one name → position dict."""

    __slots__ = ("_names", "_index", "offsets", "ends", "crcs", "version")

    def __init__(
        self, names: list[str], bounds: np.ndarray, crcs: np.ndarray | None, version: int = VERSION
    ) -> None:
        index = dict(zip(names, range(len(names))))
        if len(index) != len(names):
            raise SerializationError("duplicate member name")
        if len(bounds) != len(names) + 1 or crcs is not None and len(crcs) != len(names):
            raise SerializationError("member extents disagree with the names")
        bounds.flags.writeable = False
        self._names = names
        self._index = index
        self.offsets = bounds[:-1]
        self.ends = bounds[1:]
        self.crcs = crcs
        self.version = version

    @classmethod
    def of(cls, names: list[str], lengths: list[int], crcs: list[int]) -> "Manifest":
        """Members packed back to back in this order."""
        bounds = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=bounds[1:])
        return cls(names, bounds, np.array(crcs, dtype=np.uint32))

    def _at(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"no such member: {name}") from None

    def extent(self, name: str) -> tuple[int, int]:
        """``(offset, length)`` of a member within the data section."""
        at = self._at(name)
        start = self.offsets.item(at)
        return start, self.ends.item(at) - start

    def check(self, name: str, data: bytes) -> None:
        """Raise :class:`CorruptionError` unless ``data`` is the member's
        bytes: as long as the manifest says, and of its CRC-32 (from v3)."""
        at = self._at(name)
        if len(data) != self.ends.item(at) - self.offsets.item(at):
            raise CorruptionError(f"pack member {name!r} is {len(data)} bytes, not as listed")
        if self.crcs is not None and zlib.crc32(data) != self.crcs.item(at):
            raise CorruptionError(f"pack member {name!r} checksum mismatch")

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
        """Serialize as version 3: MAGIC, version, crc32 of the preamble
        and the body, the body's length, then the body (count, names,
        lengths, member CRCs)."""
        if self.crcs is None:
            raise SerializationError("a v3 manifest lists every member's CRC-32")
        body = BinaryWriter()
        body.write_uvarint(len(self._names))
        body.write_strings([name.encode("utf-8") for name in self._names])
        body.write_bytes(encode_uvarint_array(self.ends - self.offsets))
        body.write_bytes(self.crcs.astype("<u4").tobytes())
        payload = body.getvalue()
        preamble = write_preamble(_FRAME.size + len(payload))
        crc = zlib.crc32(payload, zlib.crc32(preamble))
        return _FRAME.pack(MAGIC, VERSION, crc, len(payload)) + payload

    @classmethod
    def from_bytes(cls, data: bytes, preamble: bytes) -> "Manifest":
        """Open the manifest a pack stores after ``preamble``."""
        reader = BinaryReader(data)
        if reader.read_bytes(4) != MAGIC:
            raise CorruptionError("bad manifest magic")
        version = reader.read_u8()
        if version not in (V2, VERSION):
            raise SerializationError(f"unsupported manifest version {version}")
        crc = reader.read_u32()
        payload = reader.read_bytes(reader.read_u32())
        if zlib.crc32(payload, 0 if version == V2 else zlib.crc32(preamble)) != crc:
            raise CorruptionError("manifest checksum mismatch")
        if reader.remaining():
            raise CorruptionError(f"{reader.remaining()} bytes after the manifest")
        body = BinaryReader(payload)
        count = body.read_uvarint()
        name_bounds, text = body.read_strings(count)
        bounds = body.read_bounds(count, _MAX_LENGTH)
        crcs = None if version == V2 else np.frombuffer(body.read_bytes(4 * count), "<u4")
        if body.remaining():
            raise SerializationError(f"{body.remaining()} bytes after the member sections")
        return cls(Strings(text, name_bounds, 0).tolist(), bounds, crcs, version)
