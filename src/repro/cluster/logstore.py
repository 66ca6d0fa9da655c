"""The LogStore facade: one object wiring the whole system together.

Construction builds the Figure 3 stack over an in-process object store:

* a virtual clock and a metered OSS (cost model from the config),
* the controller (catalog, routing, hotspot manager, task manager),
* workers with shards (row stores, optionally Raft-replicated) and a
  shared data builder,
* brokers with the multi-level cache and the skipping/prefetching
  query executor.

Typical use::

    store = LogStore.create(schema=request_log_schema())
    store.put(tenant_id=1, rows=[...])
    store.run_background_tasks()          # archive sealed data to OSS
    result = store.query("SELECT log FROM request_log WHERE ...")
"""

from __future__ import annotations

import itertools

from repro.builder.builder import BuildReport, DataBuilder
from repro.cache.multilevel import CachingRangeReader, MultiLevelCache
from repro.cluster.broker import Broker, QueryResult
from repro.cluster.config import LogStoreConfig
from repro.cluster.controller import Controller
from repro.cluster.shard import Shard
from repro.cluster.worker import Worker
from repro.common.clock import VirtualClock
from repro.common.errors import ClusterError, InvalidBatchError, WorkerNotFound
from repro.flow.monitor import TrafficSample
from repro.logblock.schema import TableSchema, request_log_schema
from repro.meta.catalog import Catalog
from repro.meta.janitor import Janitor
from repro.obs.analyze import render_explain_analyze
from repro.obs.context import Observability
from repro.obs.report import MetricsReport
from repro.obs.tracing import Span, format_trace
from repro.oss.metered import MeteredObjectStore
from repro.oss.store import InMemoryObjectStore, ObjectStore
from repro.query.executor import ExecutionOptions
from repro.query.sql import ParsedQuery
from repro.rowstore.batch import RowBatch


class LogStore:
    """A complete single-process LogStore cluster."""

    def __init__(
        self,
        config: LogStoreConfig,
        schema: TableSchema,
        backend: ObjectStore | None = None,
        clock: VirtualClock | None = None,
    ) -> None:
        self.config = config
        self.schema = schema
        self.clock = clock if clock is not None else VirtualClock()
        self.obs = Observability(
            clock=self.clock,
            tracing_enabled=config.tracing_enabled,
            slow_query_s=config.slow_query_s,
            event_journal_enabled=config.event_journal_enabled,
            slo_enabled=config.slo_enabled,
        )
        inner = backend if backend is not None else InMemoryObjectStore()
        self.oss = MeteredObjectStore(
            inner, config.oss_model, self.clock, tracer=self.obs.tracer
        )
        self.oss.create_bucket(config.bucket)

        self.catalog = Catalog(schema)
        self.controller = Controller(config, self.catalog, self.clock)
        # The one way an archived object enters or leaves OSS: every
        # archiver and retirer below (builder, lifecycle, a compactor
        # built over this store) shares it, and its upload retries are
        # charged to the cluster clock.
        self.janitor = Janitor(
            self.catalog,
            self.oss,
            config.bucket,
            invalidate=self.invalidate_blob,
            obs=self.obs,
            clock=self.clock,
        )

        builder = DataBuilder(
            schema,
            self.catalog,
            self.janitor,
            codec=config.codec,
            block_rows=config.block_rows,
            target_rows=config.target_rows_per_logblock,
            build_indexes=config.build_indexes,
            obs=self.obs,
        )

        self._builder = builder
        self.builder = builder  # public: chaos/invariant checks reach it here
        self.workers: dict[str, Worker] = {}
        for worker_index in range(config.n_workers):
            self._provision_worker(worker_index)
        for shard_id in range(config.n_shards):
            self._provision_shard(shard_id)
        self.controller.set_scale_hook(self._scale_cluster_hook)

        self.cache = MultiLevelCache(
            memory_bytes=config.cache_memory_bytes,
            ssd_bytes=config.cache_ssd_bytes,
            object_bytes=config.cache_object_bytes,
            charge=self.clock.sleep,
        )
        self._range_reader = CachingRangeReader(
            self.oss, self.cache, tracer=self.obs.tracer
        )
        options = ExecutionOptions(
            use_skipping=config.use_skipping,
            use_prefetch=config.use_prefetch,
            prefetch_threads=config.prefetch_threads,
        )
        self.brokers = [
            Broker(
                f"broker-{i}",
                self.controller,
                self.workers,
                self._range_reader,
                self.clock,
                options,
                obs=self.obs,
            )
            for i in range(2)
        ]
        self._broker_cycle = itertools.cycle(self.brokers)

        from repro.cluster.hotspot_loop import HotspotLoop

        self.hotspot_loop = HotspotLoop(self.controller, self.obs.meter, self.clock)

        from repro.frontdoor.auth import TokenRegistry
        from repro.frontdoor.session import SessionPool

        self.frontdoor_tokens = TokenRegistry(config.seed)
        self.sessions = SessionPool(self, self.frontdoor_tokens, config.max_sessions)

        from repro.lifecycle.manager import LifecycleManager

        self.lifecycle = LifecycleManager(
            self.catalog,
            self.oss,
            config.bucket,
            self.janitor,
            obs=self.obs,
            sweep_enabled=config.lifecycle_sweep_enabled,
            cold_target_rows=(
                config.cold_target_rows
                if config.cold_target_rows > 0
                else config.target_rows_per_logblock
            ),
            block_rows=config.block_rows,
            build_indexes=config.build_indexes,
        )

        from repro.obs.alerts import AlertEngine, default_alert_rules

        rules = config.alert_rules if config.alert_rules else default_alert_rules()
        self.obs.install_alerts(
            AlertEngine(
                rules,
                clock=self.clock,
                journal=self.obs.journal,
                slo=self.obs.slo,
            )
        )

    # -- provisioning ----------------------------------------------------

    def _provision_worker(self, worker_index: int) -> Worker:
        worker_id = self.config.worker_id(worker_index)
        worker = Worker(
            worker_id, self.config.worker_capacity_rps, self._builder, obs=self.obs
        )
        self.workers[worker_id] = worker
        self.controller.register_worker(worker)
        return worker

    def _provision_shard(self, shard_id: int) -> Shard:
        shard = self.build_shard(shard_id, self.config.worker_of_shard(shard_id))
        self.workers[shard.worker_id].add_shard(shard)
        return shard

    def build_shard(self, shard_id: int, worker_id: str) -> Shard:
        """A shard as this cluster's config builds it, not yet hosted."""
        return Shard(
            shard_id,
            worker_id,
            self.config.shard_capacity_rps,
            self.config.seal_rows,
            self.config.seal_bytes,
            self.clock,
            use_raft=self.config.use_raft,
            replicas=self.config.replicas,
            wal_only_replicas=self.config.wal_only_replicas,
            group_commit=self.config.group_commit,
            group_commit_batches=self.config.group_commit_batches,
            write_ack=self.config.write_ack,
            wal_backend_factory=self.config.wal_backend_factory,
            seed=self.config.seed,
            obs=self.obs,
        )

    def _live_topology(self):
        """Topology from the *actual* shard placement (which diverges
        from the static formula after failures re-host shards)."""
        from repro.flow.graph import ClusterTopology

        shard_worker: dict[int, str] = {}
        worker_capacity: dict[str, float] = {}
        for worker_id, worker in self.workers.items():
            worker_capacity[worker_id] = worker.capacity_rps
            for shard_id in worker.shards:
                shard_worker[shard_id] = worker_id
        shard_capacity = {
            shard_id: self.config.shard_capacity_rps for shard_id in shard_worker
        }
        return ClusterTopology(
            shard_worker, shard_capacity, worker_capacity, alpha=self.config.alpha
        )

    def scale_out(self, n_new_workers: int = 4):
        """ScaleCluster() (Algorithm 1 lines 24-27): add workers/shards.

        Provisions ``n_new_workers`` new ECS-node stand-ins (line 25's
        scale step), extends the hash ring (new tenants can land there;
        existing routes are untouched), and returns the new topology.
        """
        if n_new_workers <= 0:
            raise ValueError(f"must add at least one worker, got {n_new_workers}")
        first_new_worker = self.config.n_workers
        first_new_shard = self.config.n_shards
        self.config.n_workers += n_new_workers
        for worker_index in range(first_new_worker, self.config.n_workers):
            self._provision_worker(worker_index)
        for shard_id in range(first_new_shard, self.config.n_shards):
            self._provision_shard(shard_id)
            self.controller.ring.add_shard(shard_id)
        topology = self._live_topology()
        self.controller.retarget(topology)
        return topology

    def _scale_cluster_hook(self):
        return self.scale_out()

    def fail_worker(self, worker_id: str) -> dict[int, str]:
        """Handle an abnormal node (§3: the controller "removes it from
        the router table and schedules tasks for node recovery").

        Each of the failed worker's shards is re-hosted on the
        least-loaded surviving worker.  The shard's row store moves with
        it — this models Raft failover, where a surviving full replica
        (which holds the same row-store state) takes over leadership on
        another node; no data is migrated, matching the shared-data
        design.  Returns the new shard → worker placement.
        """
        if worker_id not in self.workers:
            raise WorkerNotFound(worker_id)
        if len(self.workers) == 1:
            raise ClusterError("cannot fail the last worker")
        failed = self.workers.pop(worker_id)
        self.controller.workers.pop(worker_id, None)
        moves: dict[int, str] = {}
        for shard in failed.shards.values():
            target = min(
                self.workers.values(), key=lambda w: (len(w.shards), w.worker_id)
            )
            shard.worker_id = target.worker_id
            target.add_shard(shard)
            moves[shard.shard_id] = target.worker_id
        self.controller.retarget(self._live_topology())
        return moves

    # -- constructors -------------------------------------------------------

    @classmethod
    def create(
        cls,
        schema: TableSchema | None = None,
        config: LogStoreConfig | None = None,
        backend: ObjectStore | None = None,
        clock: VirtualClock | None = None,
    ) -> "LogStore":
        """Build a cluster with sensible defaults (request_log schema)."""
        return cls(
            config=config if config is not None else LogStoreConfig(),
            schema=schema if schema is not None else request_log_schema(),
            backend=backend,
            clock=clock,
        )

    @classmethod
    def attach(
        cls,
        backend: ObjectStore,
        schema: TableSchema | None = None,
        config: LogStoreConfig | None = None,
        clock: VirtualClock | None = None,
    ) -> "LogStore":
        """Re-open a cluster over an existing bucket (controller restart).

        Restores the catalog from the newest snapshot when one exists;
        otherwise rebuilds the LogBlock map by scanning the bucket (the
        §3.2 self-contained-blocks guarantee).  Archived data becomes
        queryable immediately; row-store contents are per-node state and
        recover through shard WALs / Raft, not here.
        """
        from repro.meta.persistence import (
            load_catalog_into,
            rebuild_catalog_from_store,
        )

        store = cls.create(schema=schema, config=config, backend=backend, clock=clock)
        if not load_catalog_into(store.catalog, store.oss, store.config.bucket):
            rebuild_catalog_from_store(store.catalog, store.oss, store.config.bucket)
        return store

    def persist_catalog(self) -> str:
        """Snapshot the controller metadata into the bucket (§3's
        checkpoint of the MetaData DB).  Returns the snapshot key."""
        from repro.meta.persistence import save_catalog

        return save_catalog(self.catalog, self.oss, self.config.bucket)

    # -- client API (what the SLB would front) --------------------------------

    def _broker(self) -> Broker:
        """SLB stand-in: round-robin across brokers."""
        return next(self._broker_cycle)

    def register_tenant(
        self, tenant_id: int, name: str = "", retention_s: float | None = None
    ):
        return self.catalog.register_tenant(
            tenant_id, name=name, retention_s=retention_s, created_at=self.clock.now()
        )

    def _admit(self, tenant_id: int, rows: RowBatch | list[dict]) -> RowBatch:
        """The write path's one validation + sizing pass (all-or-nothing:
        raises ``InvalidBatchError`` before anything is logged).

        Row dicts are transposed into a column batch and checked against
        the live schema; a batch built for this tenant (the SQL front
        door's, column-major from the start) passes as it is.
        """
        if not isinstance(rows, RowBatch):
            batch = RowBatch.admit(rows, tenant_id, self.catalog.schema)
        elif rows.tenant_id == tenant_id:
            batch = rows
        else:
            raise InvalidBatchError(
                f"batch admitted for tenant {rows.tenant_id!r}, put for {tenant_id}"
            )
        return batch

    def put(self, tenant_id: int, rows: RowBatch | list[dict]) -> dict[int, int]:
        """Write a batch of rows for one tenant."""
        return self._broker().write(tenant_id, self._admit(tenant_id, rows))

    def put_nowait(self, tenant_id: int, rows: RowBatch | list[dict]) -> dict[int, int]:
        """Write a batch without waiting for replication to settle.

        The pipelined ingest API: batches coalesce in the shards'
        group-commit queues and settle in waves; call
        :meth:`settle_writes` for the durability barrier.
        """
        return self._broker().write_nowait(tenant_id, self._admit(tenant_id, rows))

    def settle_writes(self) -> None:
        """Settle every broker's outstanding dispatches (ack barrier).

        All brokers propose their partial groups before any settles, so
        one clock advance replicates every shard's group.
        """
        for broker in self.brokers:
            broker.flush_writes()
        for broker in self.brokers:
            broker.settle_writes()

    def start_hotspot_loop(self) -> None:
        """Arm the §4.1.3 monitor loop (every ``monitor_interval_s`` of
        cluster time, driven by the cluster clock)."""
        self.hotspot_loop.start()

    # -- SQL front door (repro.frontdoor) ---------------------------------

    def issue_token(self, tenant_id: int) -> str:
        """Issue (or re-issue) the connection token for one tenant."""
        return self.frontdoor_tokens.issue(tenant_id)

    def connect(self, tenant_id: int, token: str):
        """Open an authenticated, tenant-scoped SQL session.

        Raises :class:`~repro.common.errors.AuthError` on a bad token.
        Every statement the returned session executes is bound to
        ``tenant_id`` — reads are scope-checked in the planner, INSERTs
        must carry the session's tenant (or none, and it is stamped).
        """
        return self.sessions.connect(tenant_id, token)

    def issue_admin_token(self) -> str:
        """Issue (or re-issue) the cluster-operator token."""
        return self.frontdoor_tokens.issue_admin()

    def connect_admin(self, token: str):
        """Open an unscoped operator session (full `_system` visibility).

        Admin sessions see every tenant's rows in the `_system` tables
        and query user data without a tenant filter injected; INSERTs
        must carry an explicit ``tenant_id`` per row.
        """
        return self.sessions.connect_admin(token)

    def create_table(self, statement) -> TableSchema:
        """Run a CREATE TABLE statement (parsed object or SQL text)."""
        from repro.frontdoor.ddl import apply_create_table
        from repro.query.sql import ParsedCreateTable, parse_statement

        if isinstance(statement, str):
            statement = parse_statement(statement)
        if not isinstance(statement, ParsedCreateTable):
            raise ValueError("create_table requires a CREATE TABLE statement")
        return apply_create_table(self, statement)

    def query(
        self,
        sql: str | ParsedQuery,
        tenant_scope: int | None = None,
        statement: str | None = None,
    ) -> QueryResult:
        """Execute one SQL query (optionally under a session's scope).

        ``sql`` is SQL text or an already parsed query (sessions hand
        over what they bound; it is not parsed again).
        ``statement`` is the original client text before parameter
        binding; sessions pass it so the slow-query log (and therefore
        ``_system.slow_queries``) shows what the client actually typed.
        """
        return self._broker().query(sql, tenant_scope=tenant_scope, statement=statement)

    def explain(self, sql: str, tenant_scope: int | None = None, params=()) -> str:
        """Plan a query (its ``?`` bound to ``params``) without executing
        it; returns the EXPLAIN text.

        Runs the same semantic-rewrite pass the brokers run (without
        counting it in the metrics), so the output shows exactly the
        plan a real execution would take — including the rewrite rules
        applied and any naive-window fallback.
        """
        from repro.frontdoor.rewrite import SemanticRewriter
        from repro.obs.systables import SYSTEM_TABLE_COLUMNS, is_system_table
        from repro.query.dedup import naive_scan_query
        from repro.query.planner import QueryPlanner, explain_plan
        from repro.query.sql import parse_sql

        parsed = parse_sql(sql, params)
        if is_system_table(parsed.table):
            columns = SYSTEM_TABLE_COLUMNS.get(parsed.table)
            lines = [
                f"query: {sql}",
                f"system table scan: {parsed.table} "
                "(materialized from the obs layer; no storage touched)",
            ]
            if columns is not None:
                lines.append(f"columns: {', '.join(columns)}")
            if tenant_scope is not None:
                lines.append(f"scope: tenant {tenant_scope} rows only")
            return "\n".join(lines)
        parsed, rewrites = SemanticRewriter().rewrite(parsed)
        notes: list[str] = []
        if parsed.subquery is not None:
            window = parsed.subquery.window
            notes.append(
                "naive window materialization: every matching version is "
                "fetched, then ranked"
                + (f" ({window.label()})" if window is not None else "")
            )
            parsed = naive_scan_query(parsed)
        plan = QueryPlanner(self.catalog).plan(parsed, tenant_scope, rewrites)
        text = explain_plan(plan)
        if notes:
            text += "\n" + "\n".join(notes)
        return text

    def explain_analyze(self, sql: str) -> str:
        """Execute the query and report what execution actually did.

        Renders the plan followed by per-stage virtual timings (from
        the ``broker.query`` trace), block pruning counters, pushdown
        tier counts, cache hits per tier and bytes fetched — all driven by
        the virtual clock, so the output is deterministic.
        """
        result = self._broker().query(sql)
        trace = self.obs.tracer.last_trace("broker.query")
        return render_explain_analyze(result, trace, journal=self.obs.journal)

    # -- observability --------------------------------------------------------

    @property
    def tracer(self):
        return self.obs.tracer

    @property
    def registry(self):
        return self.obs.registry

    @property
    def slow_queries(self):
        return self.obs.slow_queries

    def metrics_report(self) -> MetricsReport:
        """The cluster-wide metric readout.

        Mirrors the OSS/cache counters into registry gauges right
        before snapshotting (collect-on-read: those subsystems keep
        their own counters on the hot path) and returns a
        :class:`MetricsReport` over the merged snapshot.
        """
        registry = self.obs.registry
        summary = self.cache.summary()
        registry.gauge(
            "logstore_cache_hits", "Block+object cache hits (collect-on-read)."
        ).set(summary.object_hits + summary.memory_hits + summary.ssd_hits)
        registry.gauge(
            "logstore_cache_misses", "Requests that fell through to OSS."
        ).set(summary.oss_reads)
        registry.gauge(
            "logstore_oss_bytes_read", "Cumulative OSS bytes read."
        ).set(self.oss.stats.bytes_read)
        registry.gauge(
            "logstore_oss_bytes_written", "Cumulative OSS bytes written."
        ).set(self.oss.stats.bytes_written)
        return MetricsReport(registry.snapshot())

    def last_trace(self, name: str | None = None) -> Span | None:
        """Most recent completed trace (optionally filtered by root name)."""
        return self.obs.tracer.last_trace(name)

    def dump_last_trace(self, name: str | None = None) -> str:
        """Indented text dump of the most recent trace (deterministic)."""
        trace = self.obs.tracer.last_trace(name)
        return format_trace(trace) if trace is not None else "(no traces recorded)"

    # -- admin / background ---------------------------------------------------

    def run_background_tasks(self) -> BuildReport:
        """Archive all sealed memtables to OSS, tick the data lifecycle
        (expiry sweep + cold repacks), then tick the alert engine over
        the post-archive registry snapshot.  A shard that cannot archive
        fails the call only after both ticks ran."""
        try:
            return self.controller.archive_all()
        finally:
            self.lifecycle.tick(int(self.clock.now() * 1_000_000))
            self.evaluate_alerts()

    def evaluate_alerts(self):
        """One deterministic alert tick at the current virtual time.

        Evaluates every configured rule against a fresh registry
        snapshot (and the SLO windows); fire/resolve transitions land
        in the event journal and `_system.alerts`.  Returns the alerts
        that transitioned this tick.
        """
        return self.obs.alerts.evaluate(self.obs.registry.snapshot())

    def flush_all(self) -> BuildReport:
        """Seal + archive everything (tests and shutdown)."""
        return self.controller.flush_all()

    def checkpoint_all(self) -> dict[int, int]:
        """Run the §3 periodic checkpoint task on every shard.

        Raft shards compact their replicated logs; plain shards compact
        their local WALs.  Returns shard → checkpoint index/sequence.
        """
        results: dict[int, int] = {}
        for worker in self.workers.values():
            for shard_id, shard in worker.shards.items():
                results[shard_id] = shard.checkpoint()
        return results

    def invalidate_blob(self, path: str) -> None:
        """Drop every cache entry of one deleted blob (the janitor calls
        it for each object it retires)."""
        self.cache.invalidate_blob(self.config.bucket, path)

    # -- data lifecycle (repro.lifecycle) ---------------------------------

    def set_retention(
        self,
        tenant_id: int,
        ttl: float | str | None = None,
        cold_age: float | str | None = None,
    ) -> None:
        """Set one tenant's retention policy (TTL and/or cold-age).

        Durations accept seconds or suffixed strings (``"7d"``,
        ``"12h"``, ``"30m"``, ``"45s"``); None clears the knob.  The
        SQL spelling is ``ALTER TENANT <id> SET RETENTION ...``.
        """
        from repro.lifecycle.policy import RetentionPolicy, parse_duration

        self.lifecycle.set_policy(
            tenant_id,
            RetentionPolicy(
                ttl_s=parse_duration(ttl), cold_age_s=parse_duration(cold_age)
            ),
        )

    def cold_compact(self, now_ts: int | None = None):
        """Repack every tenant's aged blocks into cold segments now
        (the background tick does this incrementally)."""
        if now_ts is None:
            now_ts = int(self.clock.now() * 1_000_000)
        return self.lifecycle.cold.repack_all(now_ts)

    def sweep_expired(self, now_ts: int | None = None):
        """Run one zero-read expiry sweep now (catalog-driven; no OSS
        GETs) and return the :class:`~repro.lifecycle.sweeper.SweepReport`."""
        if now_ts is None:
            now_ts = int(self.clock.now() * 1_000_000)
        return self.lifecycle.sweeper.sweep(now_ts)

    def offboard_tenant(self, tenant_id: int, export: bool = True):
        """Offboard one tenant: export a portable archive (optional),
        delete everything, and *prove* the deletion.

        Flushes the tenant's in-flight rows first so the export is
        complete, then delegates to the lifecycle offboarder (catalog
        drop + object deletes + OSS listing), and finally runs a
        COUNT(*) query scoped to the tenant — the returned report's
        ``query_rows`` must be 0 and ``verified`` True, or residue
        remains.
        """
        self.flush_all()
        report = self.lifecycle.offboarder.offboard(tenant_id, export=export)
        result = self.query(
            f"SELECT COUNT(*) FROM {self.schema.name} WHERE tenant_id = {tenant_id}"
        )
        report.query_rows = int(result.rows[0]["COUNT(*)"]) if result.rows else 0
        report.verified = report.verified and report.query_rows == 0
        return report

    def rebalance(self, tenant_traffic: dict[int, float]):
        """Run one hotspot-manager iteration for the offered traffic."""
        sample = self.controller.collect_sample(tenant_traffic)
        return self.controller.rebalance(sample)

    def sample_traffic(self, tenant_traffic: dict[int, float]) -> TrafficSample:
        return self.controller.collect_sample(tenant_traffic)

    # -- introspection -------------------------------------------------------

    def total_archived_bytes(self) -> int:
        return sum(info.total_bytes for info in self.catalog.tenants())

    def pending_rows(self) -> int:
        return sum(worker.pending_rows() for worker in self.workers.values())
