"""Cluster configuration.

Defaults mirror the paper's §6 testbed where it matters for figure
shapes: 24 workers, α = 0.85, 32 prefetch threads, 300 s balancing
interval.  Capacities are per-worker records/second in the virtual-time
model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.codec.registry import DEFAULT_CODEC
from repro.common.errors import ConfigError
from repro.oss.costmodel import OssCostModel, oss_default


@dataclass
class LogStoreConfig:
    """Everything needed to build a :class:`~repro.cluster.logstore.LogStore`."""

    # topology (§6: 24 worker nodes)
    n_workers: int = 24
    shards_per_worker: int = 4
    worker_capacity_rps: float = 100_000.0
    alpha: float = 0.85  # §4.1.1 high watermark ("e.g. 85%")

    # replication (§3: three replicas, one WAL-only)
    replicas: int = 3
    wal_only_replicas: int = 1
    use_raft: bool = False  # full Raft per shard; heavier, on-demand

    # write path (§3 group commit + pipelined replication)
    group_commit: bool = False  # coalesce admitted batches into one proposal
    group_commit_batches: int = 8  # max client batches per group
    write_ack: str = "quorum"  # "quorum" (majority commit) | "all" replicas
    # WAL segment backend per WAL owner ("shard<N>" for a plain shard,
    # "shard<N>/r<I>" for a Raft replica); None = in-memory default.
    # The reference model's fault rules plant fault-wrapped backends here.
    wal_backend_factory: Optional[Callable[[str], object]] = None

    # traffic control (§4.1)
    balancer: str = "maxflow"  # "none" | "greedy" | "maxflow"
    per_tenant_shard_limit_rps: float = 100_000.0  # §4.1.4 example: 100K/shard
    monitor_interval_s: float = 300.0  # §4.1.3

    # row store / builder
    seal_rows: int = 100_000
    seal_bytes: int = 64 * 1024 * 1024
    codec: str = DEFAULT_CODEC
    block_rows: int = 4096
    target_rows_per_logblock: int = 200_000
    build_indexes: bool = True

    # storage
    bucket: str = "logstore"
    oss_model: OssCostModel = field(default_factory=oss_default)

    # caches (§5.2: 8 GB memory, 200 GB SSD)
    cache_memory_bytes: int = 8 * 1024 * 1024 * 1024
    cache_ssd_bytes: int = 200 * 1024 * 1024 * 1024
    cache_object_bytes: int = 512 * 1024 * 1024

    # query (§6.3.2: 32 threads)
    prefetch_threads: int = 32
    use_skipping: bool = True
    use_prefetch: bool = True

    # data lifecycle (repro.lifecycle): background retention sweeps and
    # cold tiering (for tenants with a cold_age), ticked from
    # run_background_tasks().
    lifecycle_sweep_enabled: bool = True
    # Cold members re-chunk at this many rows (0 = reuse
    # target_rows_per_logblock).
    cold_target_rows: int = 0

    # SQL front door: live sessions per cluster.
    max_sessions: int = 64

    # observability
    tracing_enabled: bool = True  # hierarchical virtual-clock spans
    slow_query_s: float | None = 2.0  # virtual-latency threshold; None = off
    # Cluster event journal (elections, seals, archives, compactions,
    # backpressure trips, faults, alerts) — bounded and deterministic.
    event_journal_enabled: bool = True
    # Per-tenant SLO tracking: rolling virtual-time windows with
    # error-budget burn rates, against repro.obs.slo.SloTarget().
    slo_enabled: bool = True
    # Alert rules evaluated at run_background_tasks() ticks; empty =
    # repro.obs.alerts.default_alert_rules().
    alert_rules: tuple = ()

    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_workers <= 0:
            raise ConfigError("n_workers must be positive")
        if self.shards_per_worker <= 0:
            raise ConfigError("shards_per_worker must be positive")
        if self.worker_capacity_rps <= 0:
            raise ConfigError("worker_capacity_rps must be positive")
        if not 0 < self.alpha <= 1:
            raise ConfigError("alpha must be in (0, 1]")
        if self.replicas < 1:
            raise ConfigError("replicas must be >= 1")
        if self.wal_only_replicas >= self.replicas:
            raise ConfigError("need at least one full replica")
        if self.balancer not in ("none", "greedy", "maxflow"):
            raise ConfigError(f"unknown balancer {self.balancer!r}")
        if self.per_tenant_shard_limit_rps <= 0:
            raise ConfigError("per_tenant_shard_limit_rps must be positive")
        if self.group_commit_batches < 1:
            raise ConfigError("group_commit_batches must be >= 1")
        if self.write_ack not in ("quorum", "all"):
            raise ConfigError(f"unknown write_ack {self.write_ack!r}")
        if self.max_sessions < 1:
            raise ConfigError("max_sessions must be >= 1")
        if self.cold_target_rows < 0:
            raise ConfigError("cold_target_rows must be >= 0 (0 = target_rows)")
        if self.slow_query_s is not None and self.slow_query_s < 0:
            raise ConfigError("slow_query_s must be non-negative (or None)")

    @property
    def n_shards(self) -> int:
        return self.n_workers * self.shards_per_worker

    @property
    def shard_capacity_rps(self) -> float:
        """A shard's share of its worker's capacity.

        Slightly oversubscribed (×1.2) so a single shard can absorb
        bursts while the worker-level watermark still caps the node.
        """
        return self.worker_capacity_rps / self.shards_per_worker * 1.2

    def worker_id(self, index: int) -> str:
        return f"worker-{index}"

    def worker_of_shard(self, shard_id: int) -> str:
        return self.worker_id(shard_id // self.shards_per_worker)


def small_test_config(**overrides) -> LogStoreConfig:
    """A compact config for unit tests and examples."""
    defaults = dict(
        n_workers=4,
        shards_per_worker=2,
        worker_capacity_rps=10_000.0,
        seal_rows=2_000,
        block_rows=256,
        target_rows_per_logblock=4_000,
        codec="zlib",
        cache_memory_bytes=64 * 1024 * 1024,
        cache_ssd_bytes=256 * 1024 * 1024,
        cache_object_bytes=32 * 1024 * 1024,
        per_tenant_shard_limit_rps=5_000.0,
    )
    defaults.update(overrides)
    return LogStoreConfig(**defaults)
