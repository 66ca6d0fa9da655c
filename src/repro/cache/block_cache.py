"""Byte-range block caches: memory tier spilling to an SSD tier.

§5.2: "We put each file block loaded from OSS into the memory block
cache (8GB).  When its size exceeds the threshold, the memory cache
will spill to the SSD block cache (200GB).  The block manager is
responsible for the expiration and swapping of the cache."

An entry is one fetched byte range, keyed ``(bucket, key, start,
length)``.  Residency belongs to bytes, not to request keys: a lookup is
answered by the resident entry that wholly contains the range, whatever
range it was fetched as, and a byte is held once — a range an entry
already contains is not stored again, and the two tiers are exclusive.
Eviction is LRU per tier; evicted memory entries demote to the SSD tier,
SSD evictions are discarded (OSS remains the source of truth).
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from dataclasses import dataclass

BlockKey = tuple[str, str, int, int]

_ANY_LENGTH = float("inf")


@dataclass
class CacheTierStats:
    """Hit/miss/eviction counters for one tier."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    bytes_cached: int = 0


def _slice(key: BlockKey, holder: BlockKey, data: bytes) -> bytes:
    """The bytes of ``key``'s range out of the entry that holds it."""
    offset = key[2] - holder[2]
    return data[offset : offset + key[3]]


class LruBlockCache:
    """A single LRU tier bounded by total cached bytes."""

    def __init__(self, name: str, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity_bytes must be positive, got {capacity_bytes}")
        self.name = name
        self._capacity = capacity_bytes
        self._entries: OrderedDict[BlockKey, bytes] = OrderedDict()
        # Per blob, the sorted (start, length) of its entries.  No entry
        # contains another, so ends ascend with starts and the only entry
        # that can cover a range is the last one starting at or before it.
        self._extents: dict[tuple[str, str], list[tuple[int, int]]] = {}
        self._lock = threading.Lock()
        self.stats = CacheTierStats()

    @property
    def capacity_bytes(self) -> int:
        return self._capacity

    def _holder(self, key: BlockKey) -> BlockKey | None:
        bucket, name, start, length = key
        extents = self._extents.get((bucket, name))
        if extents:
            at = bisect_right(extents, (start, _ANY_LENGTH)) - 1
            if at >= 0 and sum(extents[at]) >= start + length:
                return (bucket, name, *extents[at])
        return None

    def covers(self, key: BlockKey) -> bool:
        """Whether :meth:`get` would hit; moves no counter and no LRU position."""
        with self._lock:
            return self._holder(key) is not None

    def find(self, key: BlockKey) -> tuple[BlockKey, bytes] | None:
        """The entry that wholly contains ``key``'s range (a counted lookup)."""
        with self._lock:
            holder = self._holder(key)
            if holder is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(holder)
            self.stats.hits += 1
            return holder, self._entries[holder]

    def get(self, key: BlockKey) -> bytes | None:
        found = self.find(key)
        return None if found is None else _slice(key, *found)

    def put(self, key: BlockKey, data: bytes) -> list[tuple[BlockKey, bytes]]:
        """Insert; returns the entries evicted to make room.

        A block larger than the whole tier is not cached (and nothing is
        evicted for it); a range another entry already contains is not
        stored again; entries the new one contains are dropped for it.
        """
        if len(data) > self._capacity:
            return []
        evicted: list[tuple[BlockKey, bytes]] = []
        with self._lock:
            if self._holder(key) not in (None, key):
                return evicted
            self._discard(key)
            self._entries[key] = data
            extents = self._extents.setdefault(key[:2], [])
            extents.insert(bisect_left(extents, key[2:]), key[2:])
            self.stats.bytes_cached += len(data)
            self.stats.insertions += 1
            while self.stats.bytes_cached > self._capacity:
                victim_key = next(iter(self._entries))
                evicted.append((victim_key, self._remove(victim_key)))
                self.stats.evictions += 1
        return evicted

    def _remove(self, key: BlockKey) -> bytes:
        data = self._entries.pop(key)
        self.stats.bytes_cached -= len(data)
        extents = self._extents[key[:2]]
        del extents[bisect_left(extents, key[2:])]
        if not extents:
            del self._extents[key[:2]]
        return data

    def _discard(self, key: BlockKey) -> int:
        bucket, name, start, length = key
        extents = self._extents.get((bucket, name), ())
        at = bisect_left(extents, (start, 0))
        dropped = 0
        while at < len(extents) and sum(extents[at]) <= start + length:
            self._remove((bucket, name, *extents[at]))
            dropped += 1
        return dropped

    def discard(self, key: BlockKey) -> int:
        """Drop every entry lying wholly inside ``key``'s range; returns count."""
        with self._lock:
            return self._discard(key)

    def invalidate_object(self, bucket: str, key: str) -> int:
        """Drop all ranges of one object (e.g. after expiry); returns count."""
        return self.discard((bucket, key, 0, _ANY_LENGTH))

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._extents.clear()
            self.stats.bytes_cached = 0


class TieredBlockCache:
    """Memory tier + SSD tier with demotion, fronted as one cache.

    The tiers are exclusive: an SSD hit moves the holding entry to
    memory (one too large for the memory tier is served where it is),
    and nothing one tier holds lies inside an entry of the other.

    The SSD tier charges its cost model on hits (reading from local SSD
    is not free, just much cheaper than OSS); the memory tier is free.
    """

    def __init__(
        self,
        memory_bytes: int = 8 * 1024 * 1024 * 1024,
        ssd_bytes: int = 200 * 1024 * 1024 * 1024,
        ssd_read_cost: float = 0.0,
        charge: callable = None,
    ) -> None:
        self.memory = LruBlockCache("memory", memory_bytes)
        self.ssd = LruBlockCache("ssd", ssd_bytes)
        self._ssd_read_cost = ssd_read_cost
        self._charge = charge

    def covers(self, key: BlockKey) -> bool:
        return self.memory.covers(key) or self.ssd.covers(key)

    def get(self, key: BlockKey) -> bytes | None:
        data = self.memory.get(key)
        if data is not None:
            return data
        found = self.ssd.find(key)
        if found is None:
            return None
        holder, entry = found
        data = _slice(key, holder, entry)
        moves = len(entry) <= self.memory.capacity_bytes
        if moves:
            self._to_memory(holder, entry)
        if self._charge is not None and self._ssd_read_cost > 0:
            # The SSD reads what leaves it: the whole entry when it moves.
            self._charge(self._ssd_read_cost + len(entry if moves else data) / 2e9)
        return data

    def put(self, key: BlockKey, data: bytes) -> None:
        if len(data) > self.memory.capacity_bytes:
            self.memory.discard(key)
            self.ssd.put(key, data)
        elif not self.ssd.covers(key):
            self._to_memory(key, data)

    def _to_memory(self, key: BlockKey, data: bytes) -> None:
        victims = self.memory.put(key, data)
        self.ssd.discard(key)
        for victim_key, victim in victims:
            self.ssd.put(victim_key, victim)

    def invalidate_object(self, bucket: str, key: str) -> int:
        return self.memory.invalidate_object(bucket, key) + self.ssd.invalidate_object(
            bucket, key
        )

    def clear(self) -> None:
        self.memory.clear()
        self.ssd.clear()
