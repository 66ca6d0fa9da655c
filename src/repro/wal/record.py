"""WAL record framing: length-prefixed, CRC-protected entries.

Frame layout::

    +-----------+----------+-------------------+
    | len: u32  | crc: u32 | payload (len)     |
    +-----------+----------+-------------------+

The CRC covers the payload only.  A torn tail (partial frame at the end
of a segment after a crash) is detected and treated as end-of-log during
replay, matching standard WAL semantics.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

from repro.common.errors import CorruptionError, WalError

_HEADER = struct.Struct("<II")
HEADER_SIZE = _HEADER.size
_ENTRY_HEAD = struct.Struct("<QB")
ENTRY_HEAD_SIZE = _ENTRY_HEAD.size


def encode_frame(payload: bytes) -> bytes:
    """Frame one payload for appending to a WAL segment."""
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return _HEADER.pack(len(payload), crc) + payload


def entry_frame_size(body: bytes) -> int:
    """On-segment byte count of one framed ``(sequence, kind, body)`` entry."""
    return HEADER_SIZE + ENTRY_HEAD_SIZE + len(body)


def encode_entry_frames(entries: list[tuple[int, int, bytes]]) -> bytes:
    """Frame many ``(sequence, kind, body)`` entries into one buffer.

    The group-commit encode: all frame pieces are staged into one list
    and joined in a single C-level pass — one output buffer and one
    resulting backend append for the whole batch, instead of a
    ``struct.pack`` + bytes-concat + append per frame.  Byte-for-byte
    identical to concatenating per-entry
    ``encode_frame(WalEntryEncoder.encode(...))`` results.
    """
    pack_header = _HEADER.pack
    pack_head = _ENTRY_HEAD.pack
    crc32 = zlib.crc32
    parts: list[bytes] = []
    append = parts.append
    for sequence, kind, body in entries:
        if sequence < 0:
            raise WalError(f"negative WAL sequence {sequence}")
        head = pack_head(sequence, kind)
        # CRC over the whole payload (entry head + body) without
        # concatenating them: crc32 composes over a running state.
        append(pack_header(ENTRY_HEAD_SIZE + len(body), crc32(body, crc32(head)) & 0xFFFFFFFF))
        append(head)
        append(body)
    return b"".join(parts)


@dataclass(frozen=True)
class FrameResult:
    """Outcome of decoding one frame at an offset."""

    payload: bytes
    next_offset: int


def _length_was_flipped(data: bytes, start: int, crc: int) -> bool:
    """True when the entry frame whose payload starts at ``start`` is
    intact except for its length field.

    Disambiguates a torn final frame from a corrupted *length* field: a
    bit-flipped length can make a mid-log frame appear to extend exactly
    to end-of-data, or past it, and tolerating that as a tear would
    silently discard the acknowledged frames after it.  Such a frame's
    payload and CRC are untouched and end where the next entry (its
    sequence plus one) begins, so the evidence is an offset ``end``
    holding that entry's header with ``crc32(data[start:end]) == crc``.
    A torn write has no such offset — its CRC covers bytes the crash
    never wrote — so a frame that a tenant's row happens to carry inside
    the torn payload is not mistaken for acknowledged data.  The CRC
    runs over each stretch between candidates once.
    """
    if start + ENTRY_HEAD_SIZE > len(data):
        return False
    following = _ENTRY_HEAD.unpack_from(data, start)[0] + 1
    if following >= 1 << 64:
        return False
    marker = following.to_bytes(8, "little")
    running, covered = 0, start
    hit = data.find(marker, start + ENTRY_HEAD_SIZE + HEADER_SIZE)
    while hit != -1:
        end = hit - HEADER_SIZE
        running = zlib.crc32(data[covered:end], running)
        covered = end
        if running == crc:
            return True
        hit = data.find(marker, hit + 1)
    return False


def decode_frame(
    data: bytes, offset: int, tolerate_torn_tail: bool = False
) -> FrameResult | None:
    """Decode the frame at ``offset``.

    Returns ``None`` for a clean end (offset at end of data) or a torn
    tail (not enough bytes for a complete frame).  Raises
    :class:`CorruptionError` for a CRC mismatch, which indicates damage
    *before* the tail and must not be silently skipped — unless
    ``tolerate_torn_tail`` is set and the damaged frame is the *final*
    frame of the data (it extends exactly to end-of-data): a crash can
    tear the last write's bytes without shortening them (e.g. a partial
    sector overwrite), and that frame was never acknowledged, so it is
    also treated as end-of-log.  With ``tolerate_torn_tail`` set, a
    short or final frame that is intact but for a flipped length (see
    :func:`_length_was_flipped`) hides acknowledged frames after it —
    that is mid-log damage and raises.
    """
    if offset == len(data):
        return None
    if offset + HEADER_SIZE > len(data):
        return None  # torn header at tail
    length, crc = _HEADER.unpack_from(data, offset)
    start = offset + HEADER_SIZE
    end = start + length
    if end > len(data):
        if tolerate_torn_tail and _length_was_flipped(data, start, crc):
            raise CorruptionError(f"WAL frame at offset {offset} overruns intact frames")
        return None  # torn payload at tail
    payload = data[start:end]
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        if (
            tolerate_torn_tail
            and end == len(data)
            and not _length_was_flipped(data, start, crc)
        ):
            return None  # corrupted final frame: torn tail, not mid-log damage
        raise CorruptionError(f"WAL CRC mismatch at offset {offset}")
    return FrameResult(payload=payload, next_offset=end)


def iter_frames(data: bytes, tolerate_torn_tail: bool = False):
    """Yield payloads of all complete frames; stops at a torn tail."""
    offset = 0
    while True:
        result = decode_frame(data, offset, tolerate_torn_tail=tolerate_torn_tail)
        if result is None:
            return
        yield result.payload
        offset = result.next_offset


def validate_segment(data: bytes) -> int:
    """Number of complete frames in a segment (raises on mid-log damage)."""
    count = 0
    for _ in iter_frames(data):
        count += 1
    return count


class WalEntryEncoder:
    """Encodes logical WAL entries: (sequence, kind, body)."""

    KIND_APPEND = 1
    KIND_SEAL = 2
    KIND_CHECKPOINT = 3

    @staticmethod
    def encode(sequence: int, kind: int, body: bytes) -> bytes:
        if sequence < 0:
            raise WalError(f"negative WAL sequence {sequence}")
        return _ENTRY_HEAD.pack(sequence, kind) + body

    @staticmethod
    def decode(payload: bytes) -> tuple[int, int, bytes]:
        if len(payload) < ENTRY_HEAD_SIZE:
            raise CorruptionError("WAL entry shorter than header")
        sequence, kind = _ENTRY_HEAD.unpack_from(payload)
        return sequence, kind, payload[ENTRY_HEAD_SIZE:]
