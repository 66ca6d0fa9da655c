"""MetricsReport: the cluster-wide metric readout (`LogStore.metrics_report`).

Wraps one merged :class:`~repro.obs.registry.RegistrySnapshot` and
exposes the derived views the paper's evaluation plots read off it —
per-tenant write/read row series (Figures 13/14 group by tenant and
take std-devs), per-shard write distribution, cache hit rates, OSS
traffic.  The tenant series are the usage meter's families, the same
children the hotspot loop windows, so the monitor, the operator and
``_system.tenants`` see one set of numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.utils import stddev
from repro.obs.meter import METER_ROWS_INGESTED, METER_ROWS_RETURNED
from repro.obs.registry import RegistrySnapshot

# Family names shared by the wired subsystems.
SHARD_WRITE_ROWS = "logstore_shard_write_rows_total"
SHARD_ACCESSES = "logstore_shard_accesses_total"
WORKER_ACCESSES = "logstore_worker_accesses_total"
BROKER_QUERIES = "logstore_broker_queries_total"
BROKER_WRITE_ROWS = "logstore_broker_write_rows_total"
QUERY_LATENCY = "logstore_query_latency_seconds"
SEMANTIC_REWRITES = "logstore_semantic_rewrites_total"
SCAN_ROWS_EVALUATED = "logstore_scan_rows_evaluated_total"
ENCODE_ROWS = "logstore_encode_rows_total"
ENCODE_FALLBACKS = "logstore_encode_fallbacks_total"


@dataclass
class MetricsReport:
    """Read-only view over one registry snapshot."""

    snapshot: RegistrySnapshot

    # -- per-entity series (Figure 13/14 inputs) -------------------------

    def tenant_write_rows(self) -> dict[object, float]:
        return self.snapshot.by_label(METER_ROWS_INGESTED, "tenant")

    def tenant_read_rows(self) -> dict[object, float]:
        return self.snapshot.by_label(METER_ROWS_RETURNED, "tenant")

    def shard_write_rows(self) -> dict[object, float]:
        return self.snapshot.by_label(SHARD_WRITE_ROWS, "shard")

    def shard_accesses(self) -> dict[object, float]:
        return self.snapshot.by_label(SHARD_ACCESSES, "shard")

    def worker_accesses(self) -> dict[object, float]:
        return self.snapshot.by_label(WORKER_ACCESSES, "worker")

    def tenant_write_stddev(self) -> float:
        """Std-dev of per-tenant write volume (Figure 14 readout)."""
        values = list(self.tenant_write_rows().values())
        return stddev(values) if values else 0.0

    def shard_access_stddev(self) -> float:
        """Std-dev of per-shard accesses (Figure 13 readout)."""
        values = list(self.shard_accesses().values())
        return stddev(values) if values else 0.0

    def worker_access_stddev(self) -> float:
        values = list(self.worker_accesses().values())
        return stddev(values) if values else 0.0

    # -- totals ----------------------------------------------------------

    def total_write_rows(self) -> int:
        return self.snapshot.counter_total(METER_ROWS_INGESTED)

    def total_read_rows(self) -> int:
        """Rows returned by tenant-scoped queries (an admin query over
        every tenant is billed to none)."""
        return self.snapshot.counter_total(METER_ROWS_RETURNED)

    def queries_served(self) -> int:
        return self.snapshot.counter_total(BROKER_QUERIES)

    def cache_hit_rate(self) -> float:
        """Block+object cache hit rate across the cluster."""
        hits = self.snapshot.gauge_value("logstore_cache_hits")
        misses = self.snapshot.gauge_value("logstore_cache_misses")
        total = hits + misses
        return hits / total if total else 0.0

    def oss_bytes_read(self) -> float:
        return self.snapshot.gauge_value("logstore_oss_bytes_read")

    def oss_bytes_written(self) -> float:
        return self.snapshot.gauge_value("logstore_oss_bytes_written")

    # -- export ----------------------------------------------------------

    def headline(self) -> dict:
        """The small JSON dict the BENCH trajectory files track."""
        return {
            "write_rows": self.total_write_rows(),
            "read_rows": self.total_read_rows(),
            "queries": self.queries_served(),
            "tenant_write_stddev": self.tenant_write_stddev(),
            "shard_access_stddev": self.shard_access_stddev(),
            "cache_hit_rate": self.cache_hit_rate(),
            "oss_bytes_read": self.oss_bytes_read(),
            "oss_bytes_written": self.oss_bytes_written(),
        }

    def render_prometheus(self) -> str:
        return self.snapshot.render_prometheus()

    def to_json(self) -> dict:
        return self.snapshot.to_json()
