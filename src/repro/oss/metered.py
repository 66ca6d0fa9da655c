"""Metered object-store wrapper: charges a cost model to a clock.

Wraps any :class:`~repro.oss.store.ObjectStore` backend.  Each operation:

1. performs the real operation on the inner store (real bytes),
2. computes its simulated duration from the :class:`OssCostModel`,
3. charges that duration to the clock (``clock.sleep``) — for a
   :class:`VirtualClock` this advances simulated time instantly,
4. records counters so benches can report request counts and bytes moved.

The wrapper is how every figure that involves storage latency is
produced: the *same* code path runs with an OSS-like model, a local-SSD
model, or a free model, and only the charged time differs.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.common.clock import Clock, VirtualClock
from repro.obs.tracing import Tracer
from repro.oss.costmodel import OssCostModel
from repro.oss.store import ObjectStat, ObjectStore

_NOOP_TRACER = Tracer(None, enabled=False)


@dataclass
class OssStats:
    """Operation counters accumulated by a metered store."""

    get_requests: int = 0
    put_requests: int = 0
    list_requests: int = 0
    delete_requests: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    time_charged_s: float = 0.0

    def snapshot(self) -> "OssStats":
        """A copy of the current counters."""
        return OssStats(**vars(self))

    def reset(self) -> None:
        for name in vars(self):
            setattr(self, name, 0 if name != "time_charged_s" else 0.0)


class MeteredObjectStore:
    """Cost-charging decorator around an object store backend."""

    def __init__(
        self,
        inner: ObjectStore,
        model: OssCostModel,
        clock: Clock | None = None,
        tracer: Tracer | None = None,
    ):
        self._inner = inner
        self._model = model
        self._clock = clock if clock is not None else VirtualClock()
        self._tracer = tracer if tracer is not None else _NOOP_TRACER
        self._lock = threading.Lock()
        self.stats = OssStats()

    @property
    def clock(self) -> Clock:
        return self._clock

    @property
    def model(self) -> OssCostModel:
        return self._model

    @property
    def inner(self) -> ObjectStore:
        return self._inner

    def _charge(self, seconds: float) -> float:
        """Charge the cost model to the clock.

        Returns the portion that did NOT advance ``now()`` (a sleep
        inside a ``clock.deferred()`` wave is collected, not applied) so
        callers can credit it to their trace span without double
        counting the non-deferred case.
        """
        with self._lock:
            self.stats.time_charged_s += seconds
        before = self._clock.now()
        self._clock.sleep(seconds)
        return seconds - (self._clock.now() - before)

    # -- bucket ops (uncharged: control-plane) ------------------------------

    def create_bucket(self, bucket: str) -> None:
        self._inner.create_bucket(bucket)

    def delete_bucket(self, bucket: str) -> None:
        self._inner.delete_bucket(bucket)

    # -- data ops ------------------------------------------------------------

    def put(self, bucket: str, key: str, data: bytes) -> None:
        with self._tracer.span("oss.put", key=key, bytes=len(data)) as span:
            self._inner.put(bucket, key, data)
            with self._lock:
                self.stats.put_requests += 1
                self.stats.bytes_written += len(data)
            span.charge(self._charge(self._model.put_cost(len(data))))

    def get(self, bucket: str, key: str) -> bytes:
        with self._tracer.span("oss.get", key=key) as span:
            data = self._inner.get(bucket, key)
            with self._lock:
                self.stats.get_requests += 1
                self.stats.bytes_read += len(data)
            span.set(bytes=len(data))
            span.charge(self._charge(self._model.get_cost(len(data))))
        return data

    def get_range(self, bucket: str, key: str, start: int, length: int) -> bytes:
        with self._tracer.span("oss.get", key=key, start=start) as span:
            data = self._inner.get_range(bucket, key, start, length)
            with self._lock:
                self.stats.get_requests += 1
                self.stats.bytes_read += len(data)
            span.set(bytes=len(data))
            span.charge(self._charge(self._model.get_cost(len(data))))
        return data

    def get_ranges_parallel(
        self,
        bucket: str,
        key: str,
        ranges: list[tuple[int, int]],
        threads: int,
    ) -> list[bytes]:
        """Fetch several ``(start, length)`` ranges as one parallel batch.

        Charged as overlapping requests per :meth:`OssCostModel.
        parallel_get_cost` — this is the primitive the §5.2 parallel
        prefetcher uses, and the source of its speedup over serial gets.
        """
        with self._tracer.span(
            "oss.get", key=key, ranges=len(ranges), threads=threads
        ) as span:
            chunks = [
                self._inner.get_range(bucket, key, start, length)
                for start, length in ranges
            ]
            sizes = [len(chunk) for chunk in chunks]
            with self._lock:
                self.stats.get_requests += len(ranges)
                self.stats.bytes_read += sum(sizes)
            span.set(bytes=sum(sizes))
            span.charge(self._charge(self._model.parallel_get_cost(sizes, threads)))
        return chunks

    def head(self, bucket: str, key: str) -> ObjectStat:
        stat = self._inner.head(bucket, key)
        with self._lock:
            self.stats.get_requests += 1
        self._charge(self._model.request_latency_s)
        return stat

    def exists(self, bucket: str, key: str) -> bool:
        found = self._inner.exists(bucket, key)
        with self._lock:
            self.stats.get_requests += 1
        self._charge(self._model.request_latency_s)
        return found

    def list(self, bucket: str, prefix: str = "") -> list[ObjectStat]:
        stats = self._inner.list(bucket, prefix)
        with self._lock:
            self.stats.list_requests += 1
        self._charge(self._model.list_cost(len(stats)))
        return stats

    def delete(self, bucket: str, key: str) -> None:
        self._inner.delete(bucket, key)
        with self._lock:
            self.stats.delete_requests += 1
        self._charge(self._model.delete_cost())
