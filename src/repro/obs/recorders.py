"""Registry-backed recorders: typed handles over metric families.

The write path and the broker record through registry children
(labeled per shard / per tier), so cluster-wide aggregation is just a
snapshot merge.  `WritePathStats` is a **view** assembled from one
shard's children on read; the executor's per-query `PushdownCounters`
are folded into the cumulative per-tier family after each query.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.report import ENCODE_FALLBACKS, ENCODE_ROWS

# Aggregate-pushdown tier label → its PushdownCounters field, in
# descending-cheapness order.
_TIER_FIELDS = {
    "catalog": "agg_catalog_hits",
    "sma": "agg_sma_blocks",
    "columnar": "agg_columnar_blocks",
}


@dataclass
class WritePathStats:
    """Group-commit and replication-pipeline accounting (§3, §4.2).

    Recorded by the shard write path and surfaced to the benchmarks:

    * ``groups_committed`` — proposals actually issued (one Raft entry /
      one WAL flush each);
    * ``batches_coalesced`` — client batches folded into those groups;
    * ``group_sizes`` — batches-per-group distribution (BFC shrinks it
      under pressure);
    * ``commit_latency`` — virtual seconds from proposal submit to the
      configured ack (quorum or all-replica);
    * ``reproposals`` — groups re-submitted after a leader crash
      displaced their entry;
    * ``inflight_peak`` — widest observed in-flight proposal window.
    """

    groups_committed: int = 0
    batches_coalesced: int = 0
    rows_committed: int = 0
    bytes_committed: int = 0
    reproposals: int = 0
    inflight_peak: int = 0
    group_sizes: Histogram = field(default_factory=lambda: Histogram("group_sizes"))
    commit_latency: Histogram = field(default_factory=lambda: Histogram("commit_latency"))

    def mean_group_size(self) -> float:
        if not self.groups_committed:
            return 0.0
        return self.batches_coalesced / self.groups_committed


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
            for tier in _TIER_FIELDS
        }

    def record(self, counters) -> None:
        """Fold one query's ``PushdownCounters`` into the registry."""
        for tier, field_name in _TIER_FIELDS.items():
            amount = getattr(counters, field_name)
            if amount:
                self._tiers[tier].add(amount)


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
