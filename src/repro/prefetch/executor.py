"""Parallel prefetch execution (§5.2, Figure 10).

Issues a plan's merged ranges as one parallel batch through the caching
range reader (which itself only pays OSS for cache misses).  The paper
uses a thread pool with a task queue; here the parallelism enters the
cost model (overlapped request latencies), while the actual byte loads
run inline — the virtual clock, not the Python scheduler, is the
measured quantity.

A plan lists only missing bytes — the query executor drops every member
whose bytes or decoded form are resident before the planner merges the
rest — so each of its ranges is one request to the store, and each
fetched range is cached once, under its own key: the block cache
answers the later member reads from inside it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.multilevel import CachingRangeReader
from repro.prefetch.planner import PrefetchPlan

DEFAULT_PREFETCH_THREADS = 32  # §6.3.2 "using 32 threads"


@dataclass
class PrefetchStats:
    """Aggregate prefetch activity for the Fig 16 bench."""

    plans_executed: int = 0
    requests_issued: int = 0
    bytes_loaded: int = 0


class ParallelPrefetcher:
    """Executes prefetch plans with simulated parallel streams."""

    def __init__(
        self,
        reader: CachingRangeReader,
        threads: int = DEFAULT_PREFETCH_THREADS,
    ) -> None:
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        self._reader = reader
        self._threads = threads
        self.stats = PrefetchStats()

    @property
    def threads(self) -> int:
        return self._threads

    def execute(self, plan: PrefetchPlan) -> None:
        """Load all ranges of ``plan`` as one parallel batch."""
        if not plan.ranges:
            return
        chunks = self._reader.get_ranges_parallel(
            plan.bucket, plan.key, list(plan.ranges), self._threads
        )
        self.stats.plans_executed += 1
        self.stats.requests_issued += len(plan.ranges)
        self.stats.bytes_loaded += sum(len(chunk) for chunk in chunks)
