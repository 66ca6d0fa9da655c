"""Multi-level cache facade (§5.2, Figure 9).

Wires the object cache (decoded members) over the tiered block cache
(raw byte ranges) over the metered OSS store.  The query path reads
through :class:`CachingRangeReader`, which satisfies the pack reader's
``get_range`` protocol:

    object cache  →  memory block cache  →  SSD block cache  →  OSS

Only the final OSS miss pays the cost model; SSD hits pay the (small)
SSD cost when one is configured.  A block-tier lookup is answered by any
resident entry that covers the range (:mod:`repro.cache.block_cache`),
so a range fetched once — a member alone, or a merged prefetch range
around it — serves every later read inside it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.block_cache import TieredBlockCache
from repro.cache.object_cache import ObjectCache
from repro.obs.tracing import Tracer
from repro.oss.metered import MeteredObjectStore

_NOOP_TRACER = Tracer(None, enabled=False)


@dataclass
class CacheSummary:
    """Aggregated hit/miss picture across every tier."""

    object_hits: int
    object_misses: int
    memory_hits: int
    memory_misses: int
    ssd_hits: int
    ssd_misses: int

    @property
    def oss_reads(self) -> int:
        """Requests that fell all the way through to OSS."""
        return self.ssd_misses


class MultiLevelCache:
    """Owns the object cache and the tiered block cache."""

    def __init__(
        self,
        memory_bytes: int = 8 * 1024 * 1024 * 1024,
        ssd_bytes: int = 200 * 1024 * 1024 * 1024,
        object_bytes: int = 512 * 1024 * 1024,
        ssd_read_cost_s: float = 0.0001,
        charge=None,
    ) -> None:
        self.objects = ObjectCache(object_bytes)
        self.blocks = TieredBlockCache(
            memory_bytes=memory_bytes,
            ssd_bytes=ssd_bytes,
            ssd_read_cost=ssd_read_cost_s,
            charge=charge,
        )

    def summary(self) -> CacheSummary:
        return CacheSummary(
            object_hits=self.objects.stats.hits,
            object_misses=self.objects.stats.misses,
            memory_hits=self.blocks.memory.stats.hits,
            memory_misses=self.blocks.memory.stats.misses,
            ssd_hits=self.blocks.ssd.stats.hits,
            ssd_misses=self.blocks.ssd.stats.misses,
        )

    def invalidate_blob(self, bucket: str, key: str) -> None:
        """Drop everything cached for one blob (after expiry/compaction)."""
        self.objects.invalidate_blob(bucket, key)
        self.blocks.invalidate_object(bucket, key)

    def clear(self) -> None:
        self.objects.clear()
        self.blocks.clear()


class CachingRangeReader:
    """RangeReader over OSS with the tiered block cache in front."""

    def __init__(
        self,
        store: MeteredObjectStore,
        cache: MultiLevelCache,
        tracer: Tracer | None = None,
    ) -> None:
        self._store = store
        self._cache = cache
        self._tracer = tracer if tracer is not None else _NOOP_TRACER

    @property
    def store(self) -> MeteredObjectStore:
        return self._store

    @property
    def cache(self) -> MultiLevelCache:
        return self._cache

    def resident(self, bucket: str, key: str, start: int, length: int) -> bool:
        """Whether a block tier holds these bytes: ``get_range`` would hit.

        What prefetch planning asks before it requests a member; touches
        neither the hit/miss counters nor the LRU order.
        """
        return self._cache.blocks.covers((bucket, key, start, length))

    def get_range(self, bucket: str, key: str, start: int, length: int) -> bytes:
        block_key = (bucket, key, start, length)
        data = self._cache.blocks.get(block_key)
        if data is not None:
            with self._tracer.span("cache.hit", key=key, start=start, bytes=len(data)):
                pass
            return data
        data = self._store.get_range(bucket, key, start, length)
        self._cache.blocks.put(block_key, data)
        return data

    def get_ranges_parallel(
        self,
        bucket: str,
        key: str,
        ranges: list[tuple[int, int]],
        threads: int,
    ) -> list[bytes]:
        """Batched ranged fetch that only pays OSS for cache misses."""
        out: list[bytes | None] = [None] * len(ranges)
        miss_positions: list[int] = []
        miss_ranges: list[tuple[int, int]] = []
        for position, (start, length) in enumerate(ranges):
            block_key = (bucket, key, start, length)
            data = self._cache.blocks.get(block_key)
            if data is not None:
                out[position] = data
            else:
                miss_positions.append(position)
                miss_ranges.append((start, length))
        hits = len(ranges) - len(miss_ranges)
        if hits:
            with self._tracer.span(
                "cache.hit",
                key=key,
                blocks=hits,
                bytes=sum(len(d) for d in out if d is not None),
            ):
                pass
        if miss_ranges:
            fetched = self._store.get_ranges_parallel(bucket, key, miss_ranges, threads)
            for position, (start, length), data in zip(miss_positions, miss_ranges, fetched):
                self._cache.blocks.put((bucket, key, start, length), data)
                out[position] = data
        return [data for data in out if data is not None]
