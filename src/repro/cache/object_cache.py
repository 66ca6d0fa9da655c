"""Decoded-object cache (§5.2 "object memory cache").

Caches *parsed* objects keyed ``(bucket, blob key, member)``: the pack
header (``__pack_header__``), the LogBlock ``meta``, decoded indexes
(``idx/<column>``), Bloom filters (``bloom/<column>``) and decoded
column blocks (``col/<c>/<b>``, in the one form every read path uses —
:func:`repro.logblock.column.decode_block_arrays`).  The paper motivates
this tier by allocation/GC pressure in the JVM; in Python the analogous
win is skipping repeated decompression + deserialization of the same
member: a hit costs no byte-range lookup, no GET, no inflate, no decode.

Every entry is charged what it keeps alive (its ``nbytes``), LRU evicts
past ``capacity_bytes``, and :meth:`ObjectCache.invalidate_blob` drops
all of a deleted blob's entries at once.  Entries are shared between
queries, so what is put here must be safe to share (read-only arrays).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

ObjectKey = tuple[str, str, str]  # (bucket, blob_key, member_or_tag)


@dataclass
class ObjectCacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    approx_bytes: int = 0


class ObjectCache:
    """LRU cache of decoded objects with approximate byte accounting."""

    def __init__(self, capacity_bytes: int = 512 * 1024 * 1024) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity_bytes must be positive, got {capacity_bytes}")
        self._capacity = capacity_bytes
        self._entries: OrderedDict[ObjectKey, tuple[object, int]] = OrderedDict()
        self._lock = threading.Lock()
        self.stats = ObjectCacheStats()

    @property
    def capacity_bytes(self) -> int:
        return self._capacity

    def get(self, key: ObjectKey) -> object | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry[0]

    def contains(self, key: ObjectKey) -> bool:
        """Presence probe that does NOT touch hit/miss stats or LRU order.

        Prefetch planning uses this to skip loading raw bytes for
        members whose decoded form is already cached, without skewing
        the hit-rate accounting of real lookups.
        """
        with self._lock:
            return key in self._entries

    def put(self, key: ObjectKey, value: object, approx_bytes: int) -> None:
        if approx_bytes > self._capacity:
            return
        with self._lock:
            if key in self._entries:
                _old, old_size = self._entries.pop(key)
                self.stats.approx_bytes -= old_size
            self._entries[key] = (value, approx_bytes)
            self.stats.approx_bytes += approx_bytes
            while self.stats.approx_bytes > self._capacity:
                _victim_key, (_victim, size) = self._entries.popitem(last=False)
                self.stats.approx_bytes -= size
                self.stats.evictions += 1

    def get_or_load(
        self, key: ObjectKey, loader: Callable[[], tuple[object, int]]
    ) -> object:
        """Fetch from cache, or call ``loader`` → (value, approx_bytes)."""
        value = self.get(key)
        if value is not None:
            return value
        value, approx_bytes = loader()
        self.put(key, value, approx_bytes)
        return value

    def invalidate_blob(self, bucket: str, blob_key: str) -> int:
        with self._lock:
            victims = [k for k in self._entries if k[0] == bucket and k[1] == blob_key]
            for victim in victims:
                _value, size = self._entries.pop(victim)
                self.stats.approx_bytes -= size
            return len(victims)

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.stats.approx_bytes = 0
