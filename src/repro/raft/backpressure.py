"""Backpressure Flow Control (BFC) — §4.2 of the paper.

LogStore monitors the buffer queues sitting between components and, when
a queue exceeds its limits, rejects new work so the slowdown propagates
upstream until it throttles the client: "BFC will gradually limit the
productivity of upstream messages, and eventually limit the write
throughput of requests issued by the client."

Two limits are monitored per queue, exactly as the paper notes:
*"we monitor both the number and size of pending requests, because …
processing a small number of massive inputs can also cause the system
to overload."*

The Raft integration adds two such queues per replica: ``sync_queue``
(entries awaiting durable replication) and ``apply_queue`` (committed
entries awaiting application to local storage).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Generic, TypeVar

from repro.common.clock import VirtualClock
from repro.common.errors import BackpressureError

T = TypeVar("T")


@dataclass
class QueueStats:
    """Counters exposed to the monitor and the benches."""

    enqueued: int = 0
    dequeued: int = 0
    rejected: int = 0
    peak_items: int = 0
    peak_bytes: int = 0


class BoundedQueue(Generic[T]):
    """FIFO queue bounded by item count *and* total payload bytes.

    ``push`` raises :class:`BackpressureError` when either limit would be
    exceeded — the caller (Raft leader, broker, OSS uploader) treats that
    as a signal to slow its producer rather than as a fatal error.
    """

    def __init__(
        self,
        name: str,
        max_items: int,
        max_bytes: int,
        size_of: Callable[[T], int] | None = None,
    ) -> None:
        if max_items <= 0:
            raise ValueError(f"max_items must be positive, got {max_items}")
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.name = name
        self._max_items = max_items
        self._max_bytes = max_bytes
        self._size_of = size_of if size_of is not None else _default_size
        self._items: deque[T] = deque()
        self._bytes = 0
        self.stats = QueueStats()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def pending_bytes(self) -> int:
        return self._bytes

    @property
    def max_items(self) -> int:
        return self._max_items

    @property
    def max_bytes(self) -> int:
        return self._max_bytes

    def would_accept(self, item: T) -> bool:
        """Whether ``push(item)`` would succeed right now."""
        size = self._size_of(item)
        return len(self._items) < self._max_items and self._bytes + size <= self._max_bytes

    def can_accept(self, count: int, nbytes: int) -> bool:
        """Whether ``count`` items totalling ``nbytes`` would all fit.

        The group-commit admission check: a leader proposing a batch of
        entries verifies capacity for the whole group up front so a
        rejection never leaves a half-admitted group behind.
        """
        return (
            len(self._items) + count <= self._max_items
            and self._bytes + nbytes <= self._max_bytes
        )

    def push(self, item: T) -> None:
        """Enqueue or raise :class:`BackpressureError`."""
        size = self._size_of(item)
        if len(self._items) >= self._max_items or self._bytes + size > self._max_bytes:
            self.stats.rejected += 1
            raise BackpressureError(
                f"queue {self.name!r} full: "
                f"{len(self._items)}/{self._max_items} items, "
                f"{self._bytes + size}/{self._max_bytes} bytes"
            )
        self._items.append(item)
        self._bytes += size
        self.stats.enqueued += 1
        self.stats.peak_items = max(self.stats.peak_items, len(self._items))
        self.stats.peak_bytes = max(self.stats.peak_bytes, self._bytes)

    def pop(self) -> T:
        """Dequeue the oldest item (raises IndexError when empty)."""
        item = self._items.popleft()
        self._bytes -= self._size_of(item)
        self.stats.dequeued += 1
        return item

    def peek(self) -> T:
        return self._items[0]

    def drain(self, limit: int | None = None) -> list[T]:
        """Pop up to ``limit`` items (all, when None)."""
        out: list[T] = []
        while self._items and (limit is None or len(out) < limit):
            out.append(self.pop())
        return out

    @property
    def saturation(self) -> float:
        """How full the queue is, 0..1 (max of item and byte pressure)."""
        return max(len(self._items) / self._max_items, self._bytes / self._max_bytes)


def _default_size(item) -> int:
    if isinstance(item, (bytes, bytearray)):
        return len(item)
    command = getattr(item, "command", None)
    if isinstance(command, (bytes, bytearray)):
        return len(command)
    return 1


class BackpressureController:
    """Adaptive producer rate limiter driven by queue saturation.

    Models the paper's "gradually limit the productivity of upstream
    messages": the permitted production rate decays multiplicatively
    while any monitored queue is above the high watermark, and recovers
    additively when all are below the low watermark (AIMD, as used by
    streaming systems the paper cites — Heron/Flink).

    With a ``clock``, recovery takes at most one step per
    ``recovery_interval_s``: a Raft leader re-evaluates on every calm
    reply, and the replies of one round trip would otherwise undo a
    decay before any producer reads the throttle.
    """

    def __init__(
        self,
        queues: list[BoundedQueue],
        high_watermark: float = 0.8,
        low_watermark: float = 0.5,
        decay: float = 0.5,
        recovery: float = 0.1,
        clock: VirtualClock | None = None,
        recovery_interval_s: float = 0.0,
    ) -> None:
        if not 0 < low_watermark < high_watermark <= 1:
            raise ValueError("need 0 < low_watermark < high_watermark <= 1")
        if not 0 < decay < 1:
            raise ValueError("decay must be in (0, 1)")
        if recovery <= 0:
            raise ValueError("recovery must be positive")
        self._queues = list(queues)
        self._high = high_watermark
        self._low = low_watermark
        self._decay = decay
        self._recovery = recovery
        self._clock = clock
        self._recovery_interval = recovery_interval_s
        self._next_recovery = 0.0  # clock time the next recovery step may take
        self._throttle = 1.0  # fraction of nominal rate currently allowed

    @property
    def throttle(self) -> float:
        """Allowed fraction of the nominal producer rate, in (0, 1]."""
        return self._throttle

    def add_queue(self, queue: BoundedQueue) -> None:
        self._queues.append(queue)

    def worst_saturation(self) -> float:
        return max((queue.saturation for queue in self._queues), default=0.0)

    def reevaluate(self) -> float:
        """Re-evaluate queue pressure; returns the new throttle."""
        saturation = self.worst_saturation()
        if saturation >= self._high:
            self._throttle = max(0.01, self._throttle * self._decay)
        elif saturation <= self._low and self._throttle < 1.0:
            now = self._clock.now() if self._clock is not None else 0.0
            if now >= self._next_recovery:
                self._throttle = min(1.0, self._throttle + self._recovery)
                self._next_recovery = now + self._recovery_interval
        return self._throttle

    def penalize(self) -> float:
        """Multiplicative decay for *remote* pressure signals.

        A follower's ``backpressured`` reply reports saturation the
        leader's own queues cannot see; :meth:`reevaluate` would read the
        calm local queues and recover instead.  Recovery still goes
        through :meth:`reevaluate` once the remote pressure stops arriving.
        """
        self._throttle = max(0.01, self._throttle * self._decay)
        return self._throttle
