"""Seekable reads of pack members via ranged object-store GETs.

A :class:`PackReader` knows the bucket/key of a packed LogBlock on the
object store and fetches members lazily.  The manifest is fetched once
(and typically cached by the multi-level cache above this layer); each
member read is a single ranged GET — which a caching store answers from
any range it holds that covers the member, so a member prefetched inside
a merged range costs no request of its own.
"""

from __future__ import annotations

from typing import Protocol

from repro.common.errors import InvalidRange
from repro.tarpack.manifest import PREAMBLE_SIZE, Manifest, read_preamble


class RangeReader(Protocol):
    """Anything that can serve ranged reads of one object."""

    def get_range(self, bucket: str, key: str, start: int, length: int) -> bytes: ...


class BytesRangeReader:
    """Serve ranged reads of one in-memory blob (any bucket/key).

    Lets :class:`PackReader` — and therefore :class:`LogBlockReader` —
    open a pack that exists only as bytes, e.g. a cold-segment member
    that was just read back for verification or catalog rebuild.
    """

    def __init__(self, blob: bytes) -> None:
        self._blob = blob

    def get_range(self, bucket: str, key: str, start: int, length: int) -> bytes:
        if start < 0 or length < 0 or start >= len(self._blob):
            raise InvalidRange(
                f"range [{start}, {start + length}) outside blob of {len(self._blob)} bytes"
            )
        return self._blob[start : start + length]


class SubrangeReader:
    """Present a byte window of one object as an object of its own.

    Cold-tier LogBlocks are members of a large tar-packed segment; a
    ``SubrangeReader`` over ``(segment_key, offset, length)`` lets the
    unmodified :class:`PackReader` → ``LogBlockReader`` stack read the
    member in place — every inner ranged GET is translated into a
    ranged GET of the segment object, so multi-level caching of the
    segment's byte ranges is shared across its members.
    """

    def __init__(
        self, store: RangeReader, bucket: str, key: str, offset: int, length: int
    ) -> None:
        self._store = store
        self._bucket = bucket
        self._key = key
        self._offset = offset
        self._length = length

    def _translate(self, start: int, length: int) -> tuple[int, int]:
        if start < 0 or length < 0 or start >= self._length:
            raise InvalidRange(
                f"range [{start}, {start + length}) outside member window "
                f"of {self._length} bytes in {self._key}"
            )
        # Clamp to the window: a speculative over-read (PackReader's
        # head chunk) must not leak the next member's bytes.
        return self._offset + start, min(length, self._length - start)

    def get_range(self, bucket: str, key: str, start: int, length: int) -> bytes:
        start, length = self._translate(start, length)
        return self._store.get_range(self._bucket, self._key, start, length)

    def get_ranges_parallel(
        self, bucket: str, key: str, ranges: list[tuple[int, int]], threads: int = 1
    ) -> list[bytes]:
        """Batched ranged reads, translated onto the segment object.

        Present so the executor's parallel prefetcher works through a
        member window unchanged; requires the underlying store to
        support ``get_ranges_parallel`` (the caching range reader does).
        """
        translated = [self._translate(start, length) for start, length in ranges]
        return self._store.get_ranges_parallel(
            self._bucket, self._key, translated, threads
        )

    def resident(self, bucket: str, key: str, start: int, length: int) -> bool:
        """Whether the store's block cache holds this range of the window."""
        start, length = self._translate(start, length)
        return self._store.resident(self._bucket, self._key, start, length)


class PackReader:
    """Lazy reader over one packed blob stored in an object store.

    ``size``, when the caller knows the object's size, bounds the head
    read, so a pack smaller than :attr:`HEAD_CHUNK` is read whole by one
    GET."""

    def __init__(self, store: RangeReader, bucket: str, key: str, size: int | None = None) -> None:
        self._store = store
        self._bucket = bucket
        self._key = key
        self._size = size
        self._manifest: Manifest | None = None
        self._data_start: int | None = None
        self._head: bytes = b""  # retained head chunk; serves early members

    @property
    def bucket(self) -> str:
        return self._bucket

    @property
    def key(self) -> str:
        return self._key

    @property
    def store(self) -> RangeReader:
        """The range reader this pack's bytes come from (for batched
        prefetch through the same window, e.g. a cold-segment member)."""
        return self._store

    HEAD_CHUNK = 8192

    def manifest(self) -> Manifest:
        """Fetch (once) and return the manifest.

        The preamble and manifest together are "the header of the tar
        file" (§3), so they are fetched as one speculative head read;
        only a pack with an unusually large manifest (or one smaller
        than the chunk, of unknown size) needs a second ranged GET.
        """
        if self._manifest is None:
            chunk = self.HEAD_CHUNK if self._size is None else min(self.HEAD_CHUNK, self._size)
            try:
                head = self._store.get_range(self._bucket, self._key, 0, chunk)
                self._head = head
            except InvalidRange:
                # The whole pack is smaller than the head chunk.
                head = self._store.get_range(self._bucket, self._key, 0, PREAMBLE_SIZE)
            manifest_len = read_preamble(head)
            end = PREAMBLE_SIZE + manifest_len
            if end <= len(head):
                manifest_bytes = head[PREAMBLE_SIZE:end]
            else:
                manifest_bytes = self._store.get_range(
                    self._bucket, self._key, PREAMBLE_SIZE, manifest_len
                )
            self._manifest = Manifest.from_bytes(manifest_bytes, head[:PREAMBLE_SIZE])
            self._data_start = end
        return self._manifest

    def attach_manifest(self, manifest: Manifest, data_start: int) -> None:
        """Install an externally cached manifest, skipping the head read.

        Early members are then served by the block cache tiers, which
        keep the head chunk the first opener fetched."""
        self._manifest = manifest
        self._data_start = data_start

    @property
    def data_start(self) -> int:
        """Absolute offset of the data section within the blob."""
        if self._data_start is None:
            self.manifest()
        assert self._data_start is not None
        return self._data_start

    def member_extent(self, name: str) -> tuple[int, int]:
        """Absolute ``(start, length)`` of a member within the blob."""
        if self._manifest is None:
            self.manifest()
        offset, length = self._manifest.extent(name)
        return self._data_start + offset, length

    def read_member(self, name: str) -> bytes:
        """Fetch one member with a single ranged GET, checked against
        the manifest's CRC-32 (:meth:`Manifest.check`): every member
        decode starts here, so each member is checked once per decode
        and a prefetched range is not checked at all.

        Members that fall entirely inside the retained head chunk
        (meta, bloom filters — the writer packs them first) are served
        from it with no further request: header locality.
        """
        start, length = self.member_extent(name)
        if length == 0:
            data = b""
        elif start + length <= len(self._head):
            data = self._head[start : start + length]
        else:
            data = self._store.get_range(self._bucket, self._key, start, length)
        self._manifest.check(name, data)
        return data

    def resident(self, name: str) -> bool:
        """Whether reading a member would cost no request: it lies inside
        the retained head chunk, or the store's block cache covers it
        (as the member's own range or inside a wider fetched one)."""
        start, length = self.member_extent(name)
        return not length or start + length <= len(self._head) or self._store.resident(
            self._bucket, self._key, start, length
        )

    def member_names(self) -> list[str]:
        return self.manifest().names()
