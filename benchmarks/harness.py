"""Shared machinery for the figure-reproduction benchmarks.

Builds the §6 dataset once (48 h of Zipfian-tenant request logs,
archived into per-tenant LogBlocks on an in-memory object store) and
provides per-experiment query environments whose only difference is the
storage cost model and the enabled optimizations — so each figure
isolates exactly the variable the paper varies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.builder.builder import DataBuilder
from repro.cache.multilevel import CachingRangeReader, MultiLevelCache
from repro.cluster.config import LogStoreConfig
from repro.cluster.controller import Controller
from repro.cluster.simulation import IngestModelParams, IngestSimulator, SimulationResult
from repro.common.clock import VirtualClock
from repro.logblock.schema import request_log_schema
from repro.meta.catalog import Catalog
from repro.meta.janitor import Janitor
from repro.oss.costmodel import OssCostModel, free, local_ssd, oss_default
from repro.oss.metered import MeteredObjectStore
from repro.oss.store import InMemoryObjectStore
from repro.query.executor import BlockExecutor, ExecutionOptions
from repro.query.planner import QueryPlanner
from repro.query.sql import parse_sql
from repro.workload.generator import LogRecordGenerator, WorkloadConfig
from repro.workload.queries import QuerySetGenerator, QuerySpec
from repro.workload.zipf import tenant_traffic

BUCKET = "bench"
BASE_TS = 1_605_052_800_000_000  # 2020-11-11 00:00:00 UTC, as in the paper's sample
DATA_DURATION_S = 48 * 3600  # §6.3: "test data with a history of 48 hours"

# Scaled-down dataset (the paper uses 1000 tenants / production volumes;
# the *shape* — Zipf θ=0.99, 6 query templates per tenant — is identical).
N_TENANTS = 100
TOTAL_ROWS = 120_000
SEED = 20211111


@dataclass
class ArchivedDataset:
    """The built corpus: blocks on an object store + the catalog."""

    inner: InMemoryObjectStore
    catalog: Catalog
    tenant_rows: dict[int, int]
    n_blocks: int
    total_bytes: int


_DATASET_CACHE: dict[tuple, ArchivedDataset] = {}


def build_dataset(
    n_tenants: int = N_TENANTS,
    total_rows: int = TOTAL_ROWS,
    theta: float = 0.99,
    build_indexes: bool = True,
    block_rows: int = 1024,
    # Small LogBlocks so large tenants span many blocks, as they do at
    # production scale — this is what makes parallel block loading and
    # LogBlock-map pruning visible at our corpus size.
    target_rows: int = 3_000,
) -> ArchivedDataset:
    """Build (and memoize) the archived corpus."""
    key = (n_tenants, total_rows, theta, build_indexes, block_rows, target_rows)
    if key in _DATASET_CACHE:
        return _DATASET_CACHE[key]
    schema = request_log_schema()
    catalog = Catalog(schema)
    inner = InMemoryObjectStore()
    clock = VirtualClock()
    store = MeteredObjectStore(inner, free(), clock)
    store.create_bucket(BUCKET)
    builder = DataBuilder(
        schema, catalog, Janitor(catalog, store, BUCKET),
        codec="zlib",  # fast build; ratio ablation is its own bench
        block_rows=block_rows,
        target_rows=target_rows,
        build_indexes=build_indexes,
    )
    generator = LogRecordGenerator(WorkloadConfig(n_tenants=n_tenants, theta=theta, seed=SEED))
    from repro.rowstore.memtable import MemTable

    table = MemTable()
    tenant_rows: dict[int, int] = {}
    for row in generator.dataset(BASE_TS, DATA_DURATION_S, total_rows):
        table.append(row)
        tenant_rows[row["tenant_id"]] = tenant_rows.get(row["tenant_id"], 0) + 1
    table.seal()
    report = builder.archive_memtable(table, "s0-0")
    dataset = ArchivedDataset(
        inner=inner,
        catalog=catalog,
        tenant_rows=tenant_rows,
        n_blocks=report.blocks_written,
        total_bytes=report.bytes_uploaded,
    )
    _DATASET_CACHE[key] = dataset
    return dataset


@dataclass
class QueryEnv:
    """One experiment arm: cost model + optimizations + fresh caches."""

    clock: VirtualClock
    store: MeteredObjectStore
    cache: MultiLevelCache
    executor: BlockExecutor
    planner: QueryPlanner

    def run_query(self, sql: str) -> tuple[int, float]:
        """Execute one query; returns (row_count, virtual latency seconds)."""
        plan = self.planner.plan(parse_sql(sql))
        start = self.clock.now()
        chunk, _stats = self.executor.execute(plan)
        return len(chunk), self.clock.now() - start


def make_env(
    dataset: ArchivedDataset,
    model: OssCostModel | None = None,
    options: ExecutionOptions | None = None,
) -> QueryEnv:
    """A fresh query environment over the shared corpus."""
    clock = VirtualClock()
    store = MeteredObjectStore(dataset.inner, model or oss_default(), clock)
    cache = MultiLevelCache(
        memory_bytes=256 * 1024 * 1024,
        ssd_bytes=2 * 1024 * 1024 * 1024,
        object_bytes=64 * 1024 * 1024,
        charge=clock.sleep,
    )
    reader = CachingRangeReader(store, cache)
    executor = BlockExecutor(reader, BUCKET, options or ExecutionOptions())
    return QueryEnv(
        clock=clock,
        store=store,
        cache=cache,
        executor=executor,
        planner=QueryPlanner(dataset.catalog),
    )


def query_set(tenants: list[int]) -> list[QuerySpec]:
    """The §6.3 query set: six predicate templates per tenant."""
    generator = QuerySetGenerator(
        data_start_ts=BASE_TS, data_duration_s=DATA_DURATION_S, seed=SEED
    )
    return generator.query_set(tenants)


def per_tenant_latency(
    env: QueryEnv, specs: list[QuerySpec], cold: bool = False
) -> dict[int, float]:
    """Mean virtual query latency per tenant over the given specs.

    ``cold=True`` clears the caches before every query, isolating the
    optimization under test from cross-query caching (which Figure 16's
    repeat-query experiment measures separately).
    """
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for spec in specs:
        if cold:
            env.cache.clear()
        _rows, latency = env.run_query(spec.sql)
        sums[spec.tenant_id] = sums.get(spec.tenant_id, 0.0) + latency
        counts[spec.tenant_id] = counts.get(spec.tenant_id, 0) + 1
    return {t: sums[t] / counts[t] for t in sums}


def latency_histogram(env: QueryEnv, specs: list[QuerySpec], cold: bool = False):
    """All query latencies as a Histogram (for the Figure 17 CDF)."""
    from repro.obs.registry import Histogram

    histogram = Histogram("latency")
    for spec in specs:
        if cold:
            env.cache.clear()
        _rows, latency = env.run_query(spec.sql)
        histogram.observe(latency)
    return histogram


# -- traffic-control harness (Figures 12-14) ---------------------------------


@dataclass
class TrafficRun:
    """One (θ, balancer) simulation with its controller kept around."""

    controller: Controller
    simulator: IngestSimulator
    traffic: dict[int, float]
    result: SimulationResult


def run_traffic(
    theta: float,
    balancer: str,
    n_tenants: int = 1000,
    n_workers: int = 24,
    worker_capacity: float = 100_000.0,
    # 2/3 of raw capacity ≈ 78% of the α=0.85 watermark: loaded but
    # feasible, so the θ=0 baseline is healthy and any collapse at high
    # θ is attributable to skew, not to raw over-subscription.
    offered_fraction: float = 2 / 3,
    duration_s: float = 1800.0,
) -> TrafficRun:
    """The §6.2 setup: 24 workers, 1000 Zipfian tenants."""
    config = LogStoreConfig(
        n_workers=n_workers,
        shards_per_worker=4,
        worker_capacity_rps=worker_capacity,
        balancer=balancer,
        per_tenant_shard_limit_rps=worker_capacity / 4 * 1.2,
        monitor_interval_s=300.0,
    )
    controller = Controller(config, Catalog(request_log_schema()), VirtualClock())
    capacity = controller.topology.total_worker_capacity()
    traffic = tenant_traffic(n_tenants, theta, capacity * offered_fraction)
    simulator = IngestSimulator(controller, traffic, IngestModelParams(window_s=10.0))
    result = simulator.run(duration_s, rebalance=(balancer != "none"))
    return TrafficRun(controller=controller, simulator=simulator, traffic=traffic, result=result)


def fresh_controller_like(run: TrafficRun) -> Controller:
    """A controller with the same config but virgin routing (the
    'Before Balancing' arm of Figures 13-14)."""
    return Controller(run.controller.config, Catalog(request_log_schema()), VirtualClock())


def emit(capsys, *lines: str) -> None:
    """Print figure tables to the real terminal despite pytest capture."""
    with capsys.disabled():
        for line in lines:
            print(line)
