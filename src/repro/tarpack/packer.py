"""Packer: bundle many small files into one seekable blob.

Layout of a pack::

    +----------+-------------------+----------------------+
    | preamble | manifest          | data section         |
    | 12 bytes | variable          | member blobs, packed |
    +----------+-------------------+----------------------+

The preamble is ``PACK`` + version + u32 manifest length + u16 reserved
(:mod:`repro.tarpack.manifest` has both layouts), so a reader can fetch
it with one tiny ranged GET, then fetch the manifest with a second, then
any member with one more — three round trips for the first member and
one per member afterwards, regardless of how many small files the
LogBlock contains.  Member offsets in the manifest are relative to the
start of the data section, and the manifest holds each member's CRC-32.
"""

from __future__ import annotations

import zlib

from repro.common.errors import SerializationError
from repro.tarpack.manifest import Manifest, write_preamble


class PackBuilder:
    """Accumulates named members and produces the packed blob."""

    def __init__(self) -> None:
        self._members: list[tuple[str, bytes]] = []
        self._names: set[str] = set()

    def add(self, name: str, data: bytes) -> None:
        """Append a member.  Names must be unique and non-empty."""
        if not name:
            raise SerializationError("member name must be non-empty")
        if name in self._names:
            raise SerializationError(f"duplicate member name: {name}")
        self._names.add(name)
        self._members.append((name, bytes(data)))

    def __len__(self) -> int:
        return len(self._members)

    def build(self) -> bytes:
        """Produce the final pack bytes."""
        manifest = Manifest.of(
            [name for name, _data in self._members],
            [len(data) for _name, data in self._members],
            [zlib.crc32(data) for _name, data in self._members],
        )
        manifest_bytes = manifest.to_bytes()
        parts = [write_preamble(len(manifest_bytes)), manifest_bytes]
        parts.extend(data for _name, data in self._members)
        return b"".join(parts)


def pack_members(members: dict[str, bytes]) -> bytes:
    """Convenience: pack a name→bytes mapping (insertion order preserved)."""
    builder = PackBuilder()
    for name, data in members.items():
        builder.add(name, data)
    return builder.build()
