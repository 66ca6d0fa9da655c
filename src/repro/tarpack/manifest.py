"""Manifest for the tar-with-manifest packaging of LogBlocks.

§3 of the paper: "A LogBlock of a tenant is composed of a lot of small
files, such as metadata, indexes, and data blocks, and all these files are
packaged into a large tar file instead of using small files.  The header
of the tar file contains a manifest, allowing subsequent read operations
to seek and read any part of the tar file."

The manifest maps member names to ``(offset, length)`` within the packed
blob, so a reader can fetch exactly one member with a single ranged GET.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.common.bytesio import BinaryReader, BinaryWriter
from repro.common.errors import CorruptionError, SerializationError

MAGIC = b"LSTP"  # LogStore Tar Pack
VERSION = 1
# What a parsed manifest holds per member: the entry with its name and
# extent, a list slot and a dict slot (for a cache's accounting).
_ENTRY_BYTES = 200


@dataclass(frozen=True, slots=True)
class MemberEntry:
    """One file inside a pack: name and its byte extent in the blob.

    Slotted: a cached pack header holds one of these per member.
    """

    name: str
    offset: int
    length: int

    @property
    def end(self) -> int:
        return self.offset + self.length


class Manifest:
    """Ordered collection of member entries with binary (de)serialization."""

    def __init__(self, entries: list[MemberEntry] | None = None) -> None:
        self._entries: list[MemberEntry] = []
        self._by_name: dict[str, MemberEntry] = {}
        for entry in entries or []:
            self.add(entry)

    def add(self, entry: MemberEntry) -> None:
        if entry.name in self._by_name:
            raise SerializationError(f"duplicate member name: {entry.name}")
        if entry.offset < 0 or entry.length < 0:
            raise SerializationError(f"invalid extent for {entry.name}")
        self._entries.append(entry)
        self._by_name[entry.name] = entry

    def get(self, name: str) -> MemberEntry:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no such member: {name}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        """Bytes this manifest keeps alive (what a cache is charged)."""
        return _ENTRY_BYTES * len(self._entries)

    def names(self) -> list[str]:
        return [entry.name for entry in self._entries]

    def entries(self) -> list[MemberEntry]:
        return list(self._entries)

    # -- serialization -------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize: MAGIC, version, count, entries, crc32 of the body."""
        body = BinaryWriter()
        body.write_uvarint(len(self._entries))
        for entry in self._entries:
            body.write_str(entry.name)
            body.write_uvarint(entry.offset)
            body.write_uvarint(entry.length)
        payload = body.getvalue()
        out = BinaryWriter()
        out.write_bytes(MAGIC)
        out.write_u8(VERSION)
        out.write_u32(zlib.crc32(payload) & 0xFFFFFFFF)
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
        length = reader.read_u32()
        payload = reader.read_bytes(length)
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            raise CorruptionError("manifest checksum mismatch")
        if reader.remaining():
            raise CorruptionError(f"{reader.remaining()} bytes after the manifest")
        body = BinaryReader(payload)
        count = body.read_uvarint()
        manifest = cls()
        for _ in range(count):
            name = body.read_str()
            offset = body.read_uvarint()
            member_len = body.read_uvarint()
            manifest.add(MemberEntry(name, offset, member_len))
        return manifest

    def header_size(self) -> int:
        """Size in bytes of the serialized manifest."""
        return len(self.to_bytes())
