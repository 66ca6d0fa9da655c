"""The record envelope of the checksummed durable formats.

A record is a 3-byte magic naming the format, a version byte, the
CRC-32 of the body, then the body (little-endian)::

    magic (3 bytes)  u8 version  u32 CRC-32 of the body  body

Row-batch payloads (``\\x89RB``), row-store states (``\\x89RS``) and
tenant manifests (``\\x89TM``) share it.
"""

from __future__ import annotations

import struct
import zlib
from typing import Sequence

from repro.common.errors import CorruptionError

RECORD_VERSION = 1
_HEAD = struct.Struct("<3sBI")  # magic, version, CRC-32 of the body


def pack_record(magic: bytes, parts: Sequence) -> bytes:
    """``magic``, the record version and the CRC-32 of ``parts``, then
    ``parts`` joined: one copy, the CRC run over the parts in turn."""
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    return b"".join((_HEAD.pack(magic, RECORD_VERSION, crc), *parts))


def unpack_record(magic: bytes, data, what: str) -> memoryview:
    """The body of a :func:`pack_record` record; a wrong magic, an
    unknown version or a checksum mismatch is :class:`CorruptionError`."""
    view = memoryview(data)
    if len(view) < _HEAD.size or view[: len(magic)] != magic:
        raise CorruptionError(f"not a {what}")
    _, version, crc = _HEAD.unpack_from(view)
    if version != RECORD_VERSION:
        raise CorruptionError(f"unknown {what} version {version}")
    body = view[_HEAD.size :]
    if zlib.crc32(body) != crc:
        raise CorruptionError(f"{what} fails its checksum")
    return body
