"""Segmented write-ahead log.

Entries are framed (:mod:`repro.wal.record`) and appended to the active
segment; when a segment exceeds ``segment_bytes`` it is sealed and a new
one starts.  Segments before a checkpoint can be truncated.  Two storage
backends: in-memory (simulation) and directory-of-files (examples).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator, Protocol, Sequence

from repro.common.errors import WalError
from repro.wal.record import (
    ENTRY_HEAD_SIZE,
    HEADER_SIZE,
    WalEntryEncoder,
    decode_frame,
    encode_entry_frames,
    iter_frames,
)

DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024


class SegmentBackend(Protocol):
    """Persistence for numbered WAL segments."""

    def append(self, segment_id: int, data: bytes) -> None: ...

    def read(self, segment_id: int) -> bytes: ...

    def segments(self) -> list[int]: ...

    def delete(self, segment_id: int) -> None: ...


class MemorySegmentBackend:
    """Segments held in a dict; the simulation default.

    A segment is the list of frames appended to it: an append keeps the
    caller's bytes object instead of copying it into a growing buffer,
    and :meth:`read` joins the list once, keeping the joined bytes as
    the segment's only frame so a second read does not join again.
    """

    def __init__(self) -> None:
        self._segments: dict[int, list[bytes]] = {}

    def append(self, segment_id: int, data: bytes) -> None:
        self._segments.setdefault(segment_id, []).append(bytes(data))

    def read(self, segment_id: int) -> bytes:
        try:
            frames = self._segments[segment_id]
        except KeyError:
            raise WalError(f"no such WAL segment {segment_id}") from None
        if len(frames) != 1:
            frames[:] = [b"".join(frames)]
        return frames[0]

    def segments(self) -> list[int]:
        return sorted(self._segments)

    def delete(self, segment_id: int) -> None:
        self._segments.pop(segment_id, None)


class FileSegmentBackend:
    """Segments as ``NNNNNNNN.wal`` files under a directory."""

    def __init__(self, directory: str) -> None:
        self._dir = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, segment_id: int) -> str:
        return os.path.join(self._dir, f"{segment_id:08d}.wal")

    def append(self, segment_id: int, data: bytes) -> None:
        with open(self._path(segment_id), "ab") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())

    def read(self, segment_id: int) -> bytes:
        try:
            with open(self._path(segment_id), "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            raise WalError(f"no such WAL segment {segment_id}") from None

    def segments(self) -> list[int]:
        ids = []
        for name in os.listdir(self._dir):
            if name.endswith(".wal"):
                ids.append(int(name[: -len(".wal")]))
        return sorted(ids)

    def delete(self, segment_id: int) -> None:
        try:
            os.unlink(self._path(segment_id))
        except FileNotFoundError:
            pass


@dataclass(frozen=True)
class WalEntry:
    """One logical WAL entry."""

    sequence: int
    kind: int
    body: bytes


class WriteAheadLog:
    """Append-only, replayable, checkpoint-truncatable log."""

    def __init__(
        self,
        backend: SegmentBackend | None = None,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
    ) -> None:
        if segment_bytes <= 0:
            raise WalError(f"segment_bytes must be positive, got {segment_bytes}")
        self._backend = backend if backend is not None else MemorySegmentBackend()
        self._segment_bytes = segment_bytes
        existing = self._backend.segments()
        self._active_segment = existing[-1] if existing else 0
        self.torn_tail_bytes_discarded = 0
        if existing:
            self._active_size = self._repair_torn_tail(self._active_segment)
        else:
            self._active_size = 0
        self._next_sequence = self._recover_next_sequence()
        self.flush_count = 0

    def _repair_torn_tail(self, segment_id: int) -> int:
        """Truncate the last segment to its longest valid frame prefix.

        A crash can leave a torn tail: a partially written final frame
        (short bytes) or a final frame whose payload no longer matches
        its CRC (partial sector overwrite).  Either way the torn frame
        was never acknowledged, so recovery keeps the longest valid
        prefix and discards the rest — leaving it in place would put
        garbage *mid-log* once new appends land after it.  CRC damage
        anywhere but the final frame still raises: that is real
        corruption of acknowledged data, not a tear.

        Returns the surviving segment length in bytes.
        """
        data = self._backend.read(segment_id)
        offset = 0
        while True:
            result = decode_frame(data, offset, tolerate_torn_tail=True)
            if result is None:
                break
            offset = result.next_offset
        if offset < len(data):
            self.torn_tail_bytes_discarded = len(data) - offset
            self._backend.delete(segment_id)
            if offset:
                self._backend.append(segment_id, data[:offset])
        return offset

    def _recover_next_sequence(self) -> int:
        last = -1
        for segment_id in self._backend.segments():
            for payload in iter_frames(self._backend.read(segment_id)):
                sequence, _kind, _body = WalEntryEncoder.decode(payload)
                if sequence <= last:
                    raise WalError(
                        f"non-monotonic WAL sequence {sequence} after {last} "
                        f"in segment {segment_id}"
                    )
                last = sequence
        return last + 1

    @property
    def next_sequence(self) -> int:
        return self._next_sequence

    @property
    def backend(self) -> SegmentBackend:
        """The durable medium — what survives a process crash."""
        return self._backend

    def append(self, kind: int, body: bytes) -> int:
        """Append an entry; returns its sequence number.  The one-entry
        :meth:`append_many`."""
        return self.append_many(((kind, body),))[0]

    def append_many(self, entries: Sequence[tuple[int, bytes]]) -> list[int]:
        """Append ``(kind, body)`` entries with coalesced frame flushes.

        The group-commit write: all frames destined for the same segment
        are encoded into one buffer (:func:`encode_entry_frames`: one
        join, a running CRC) and handed to the backend in one
        ``append`` — one copy of each body and one flush (fsync, for the
        file backend) amortized over the whole group.  Segment rollover
        happens at the same byte boundaries as per-entry appends would
        produce, and the segment bytes are identical.  The log's
        position advances per flushed segment run, so a run the backend
        refuses consumes no sequence number.
        """
        runs: list[tuple[int, int, list[tuple[int, int, bytes]]]] = []
        run: list[tuple[int, int, bytes]] = []
        frame_overhead = HEADER_SIZE + ENTRY_HEAD_SIZE
        segment_id = self._active_segment
        active_size = self._active_size
        sequence = self._next_sequence
        for kind, body in entries:
            frame_size = frame_overhead + len(body)
            if active_size and active_size + frame_size > self._segment_bytes:
                if run:
                    runs.append((segment_id, active_size, run))
                    run = []
                segment_id += 1
                active_size = 0
            run.append((sequence, kind, body))
            active_size += frame_size
            sequence += 1
        if run:
            runs.append((segment_id, active_size, run))
        first = self._next_sequence
        for segment_id, active_size, run in runs:
            self._backend.append(segment_id, encode_entry_frames(run))
            self.flush_count += 1
            self._active_segment, self._active_size = segment_id, active_size
            self._next_sequence = run[-1][0] + 1
        return list(range(first, sequence))

    def replay(self, from_sequence: int = 0) -> Iterator[WalEntry]:
        """Yield entries with ``sequence >= from_sequence`` in order."""
        for segment_id in self._backend.segments():
            for payload in iter_frames(self._backend.read(segment_id)):
                sequence, kind, body = WalEntryEncoder.decode(payload)
                if sequence >= from_sequence:
                    yield WalEntry(sequence, kind, body)

    def truncate_before(self, sequence: int) -> int:
        """Delete whole segments whose entries all precede ``sequence``.

        Returns the number of segments removed.  The active segment is
        never removed.
        """
        removed = 0
        for segment_id in self._backend.segments():
            if segment_id == self._active_segment:
                break
            max_seq = -1
            for payload in iter_frames(self._backend.read(segment_id)):
                max_seq = WalEntryEncoder.decode(payload)[0]
            if max_seq >= 0 and max_seq < sequence:
                self._backend.delete(segment_id)
                removed += 1
            else:
                break
        return removed

    def total_bytes(self) -> int:
        """Bytes across all live segments (storage-cost accounting)."""
        return sum(len(self._backend.read(s)) for s in self._backend.segments())
