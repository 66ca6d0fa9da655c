"""Registry-backed recorders: typed handles over metric families.

`WritePathStats` / `PushdownCounters` used to be mutable dataclasses
each subsystem threaded by hand and the broker merged manually.  They
are now **views**: the write path and executor record through registry
children (labeled per shard / per tier), and the dataclasses are
assembled from the registry on read.  One source of truth, no double
counting, and cluster-wide aggregation is just a snapshot merge.
"""

from __future__ import annotations

from repro.metrics.stats import Counter, Gauge, Histogram, PushdownCounters, WritePathStats
from repro.obs.registry import MetricsRegistry
from repro.obs.report import ENCODE_FALLBACKS, ENCODE_ROWS

# Aggregate-pushdown tier labels, in descending-cheapness order.
PUSHDOWN_TIERS = ("catalog", "sma", "columnar", "row")

_TIER_FIELDS = {
    "catalog": "agg_catalog_hits",
    "sma": "agg_sma_blocks",
    "columnar": "agg_columnar_blocks",
    "row": "agg_row_blocks",
}


class WritePathRecorder:
    """Write-path accounting recorded straight into a registry.

    One recorder per shard (labeled ``shard=…``); the shard shares it
    between its `GroupCommitQueue` and `ReplicationPipeline` so group
    sizes, commit latency and row counts land in the same label set.
    ``view()`` assembles the classic `WritePathStats` dataclass —
    scalar fields frozen at read time, histograms as the *live*
    registry children (so ``len(stats.commit_latency)`` keeps working).
    """

    def __init__(self, registry: MetricsRegistry | None = None, **labels) -> None:
        registry = registry if registry is not None else MetricsRegistry()
        self.registry = registry
        self.labels = dict(labels)
        self.groups_committed: Counter = registry.counter(
            "logstore_write_groups_total",
            "Raft proposals issued by group commit (one WAL flush each).",
            **labels,
        )
        self.batches_coalesced: Counter = registry.counter(
            "logstore_write_batches_coalesced_total",
            "Client batches folded into committed groups.",
            **labels,
        )
        self.rows_committed: Counter = registry.counter(
            "logstore_write_rows_committed_total",
            "Rows durably committed through the write path.",
            **labels,
        )
        self.bytes_committed: Counter = registry.counter(
            "logstore_write_bytes_committed_total",
            "Payload bytes durably committed.",
            **labels,
        )
        self.reproposals: Counter = registry.counter(
            "logstore_write_reproposals_total",
            "Groups re-proposed after leadership churn displaced them.",
            **labels,
        )
        self.inflight_peak: Gauge = registry.gauge(
            "logstore_write_inflight_peak",
            "Widest observed replication-pipeline window.",
            **labels,
        )
        self.group_sizes: Histogram = registry.histogram(
            "logstore_write_group_size",
            "Batches per committed group.",
            **labels,
        )
        self.commit_latency: Histogram = registry.histogram(
            "logstore_write_commit_latency_seconds",
            "Virtual seconds from proposal submit to the configured ack.",
            **labels,
        )

    def view(self) -> WritePathStats:
        return WritePathStats(
            groups_committed=self.groups_committed.value,
            batches_coalesced=self.batches_coalesced.value,
            rows_committed=self.rows_committed.value,
            bytes_committed=self.bytes_committed.value,
            reproposals=self.reproposals.value,
            inflight_peak=int(self.inflight_peak.value),
            group_sizes=self.group_sizes,
            commit_latency=self.commit_latency,
        )


class PushdownRecorder:
    """Per-tier aggregate-pushdown counters in a registry.

    The executor still keeps its per-query `PushdownCounters` (EXPLAIN
    ANALYZE needs per-query numbers); this recorder is the *cumulative*
    registry family the traffic monitor and metric dumps read.
    """

    def __init__(self, registry: MetricsRegistry | None = None, **labels) -> None:
        registry = registry if registry is not None else MetricsRegistry()
        self.registry = registry
        self._tiers: dict[str, Counter] = {
            tier: registry.counter(
                "logstore_agg_pushdown_blocks_total",
                "Blocks answered per aggregate-pushdown tier.",
                tier=tier,
                **labels,
            )
            for tier in PUSHDOWN_TIERS
        }

    def record(self, counters: PushdownCounters) -> None:
        """Fold one query's pushdown counters into the registry."""
        for tier, field_name in _TIER_FIELDS.items():
            amount = getattr(counters, field_name)
            if amount:
                self._tiers[tier].add(amount)

    def view(self) -> PushdownCounters:
        return PushdownCounters(
            **{
                field_name: self._tiers[tier].value
                for tier, field_name in _TIER_FIELDS.items()
            }
        )


# Encode-mode labels: how each column value was encoded.
ENCODE_MODES = ("vectorized", "interpreted")


class EncodeModeRecorder:
    """Column values encoded per mode, as registry counters.

    Column values encoded through the vectorized kernels vs the
    interpreted reference encoder (``mode=…``-labeled family), plus a
    ``reason=…``-labeled fallback counter so dashboards can see *why*
    blocks fell off the fast path (a subclassed value, NaN SMAs, …).
    The builder folds each writer's ``EncodeStats`` in serially after
    the parallel build stage, keeping registration deterministic.
    """

    def __init__(self, registry: MetricsRegistry | None = None, **labels) -> None:
        registry = registry if registry is not None else MetricsRegistry()
        self.registry = registry
        self._labels = dict(labels)
        self._modes: dict[str, Counter] = {
            mode: registry.counter(
                ENCODE_ROWS,
                "Column values encoded per encode mode.",
                mode=mode,
                **labels,
            )
            for mode in ENCODE_MODES
        }
        self._fallbacks: dict[str, Counter] = {}

    def record(self, stats) -> None:
        """Fold one writer's ``EncodeStats`` into the registry."""
        if stats is None:
            return
        if stats.rows_vectorized:
            self._modes["vectorized"].add(stats.rows_vectorized)
        if stats.rows_interpreted:
            self._modes["interpreted"].add(stats.rows_interpreted)
        for reason, count in stats.fallbacks.items():
            counter = self._fallbacks.get(reason)
            if counter is None:
                counter = self.registry.counter(
                    ENCODE_FALLBACKS,
                    "Column blocks that fell back to the interpreted encoder.",
                    reason=reason,
                    **self._labels,
                )
                self._fallbacks[reason] = counter
            counter.add(count)

    def view(self) -> dict[str, int]:
        return {mode: counter.value for mode, counter in self._modes.items()}

    def fallback_view(self) -> dict[str, int]:
        return {reason: counter.value for reason, counter in self._fallbacks.items()}
