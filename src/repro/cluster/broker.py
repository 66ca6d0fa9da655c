"""Broker: parses/plans queries, routes writes, merges shard results.

The distributed query layer of Figure 3.  A broker:

* on a **write**, splits the tenant's batch across its shards using the
  routing table's weights and dispatches each piece to the owning
  worker;
* on a **query**, parses and plans the SQL, fans the plan out to (a)
  the archived LogBlocks on OSS via the skipping/caching/prefetching
  executor and (b) the row stores of the shards in the tenant's *read*
  route (new plan ∪ old plan, §4.1.5), then merges and finalizes
  (aggregate or order/limit).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.multilevel import CachingRangeReader
from repro.cluster.controller import Controller
from repro.cluster.worker import Worker
from repro.common.clock import VirtualClock
from repro.common.errors import (
    BackpressureError,
    QueryError,
    ShardNotFound,
    WorkerNotFound,
)
from repro.common.utils import wave_elapsed
from repro.obs.context import Observability
from repro.obs.recorders import PushdownRecorder
from repro.obs.report import (
    BROKER_QUERIES,
    BROKER_WRITE_ROWS,
    QUERY_LATENCY,
    SCAN_ROWS_EVALUATED,
)
from repro.obs.slowlog import SlowQueryEntry
from repro.obs.systables import (
    SYSTEM_TABLE_COLUMNS,
    is_system_table,
    scope_rows,
    system_table_rows,
)
from repro.frontdoor.rewrite import SemanticRewriter
from repro.query.aggregate import Aggregator, result_rows
from repro.query.dedup import naive_scan_query, run_window_query
from repro.query.executor import (
    BlockExecutor,
    ExecutionOptions,
    ExecutionStats,
    filter_realtime_rows,
)
from repro.query.kernels import filter_chunk
from repro.query.planner import QueryPlan, QueryPlanner
from repro.query.sql import ParsedQuery, parse_sql
from repro.rowstore.batch import RowBatch, RowSelection


@dataclass
class QueryResult:
    """What a query returns to the client."""

    rows: list[dict]
    latency_s: float
    plan: QueryPlan
    stats: ExecutionStats = field(default_factory=ExecutionStats)
    realtime_rows: int = 0
    archived_rows: int = 0
    # I/O attribution for EXPLAIN ANALYZE: deltas of the shared OSS /
    # cache counters across this query's execution.
    oss_requests: int = 0
    bytes_fetched: int = 0
    # Hits by the tier that served them: decoded objects (no bytes
    # touched), then raw byte ranges in memory, then on SSD.
    object_hits: int = 0
    memory_hits: int = 0
    ssd_hits: int = 0
    cache_misses: int = 0

    @property
    def cache_hits(self) -> int:
        return self.object_hits + self.memory_hits + self.ssd_hits

    def __len__(self) -> int:
        return len(self.rows)


class Broker:
    """One query-layer node."""

    def __init__(
        self,
        broker_id: str,
        controller: Controller,
        workers: dict[str, Worker],
        range_reader: CachingRangeReader,
        clock: VirtualClock,
        options: ExecutionOptions | None = None,
        obs: Observability | None = None,
    ) -> None:
        self.broker_id = broker_id
        self._controller = controller
        self._workers = workers
        self._clock = clock
        self.options = options if options is not None else ExecutionOptions()
        self._planner = QueryPlanner(controller.catalog)
        self._range_reader = range_reader
        self._executor = BlockExecutor(range_reader, controller.config.bucket, self.options)
        self._obs = obs if obs is not None else Observability.noop()
        registry = self._obs.registry
        self.writes_routed = registry.counter(
            BROKER_WRITE_ROWS, "Rows routed to shards by this broker.", broker=broker_id
        )
        self.queries_served = registry.counter(
            BROKER_QUERIES, "Queries answered by this broker.", broker=broker_id
        )
        self._query_latency = registry.histogram(
            QUERY_LATENCY, "Virtual end-to-end query latency.", broker=broker_id
        )
        self._pushdown = PushdownRecorder(registry)
        self._rows_evaluated = registry.counter(
            SCAN_ROWS_EVALUATED,
            "Rows a query predicate was evaluated on.",
            broker=broker_id,
        )
        self._rewriter = SemanticRewriter(registry)
        self._pending_shards: set[int] = set()

    # -- write path ---------------------------------------------------------

    def _shard_worker(self, shard_id: int) -> Worker:
        worker_id = self._controller.topology.shard_worker.get(shard_id)
        if worker_id is None:
            raise ShardNotFound(f"shard {shard_id} not in topology")
        worker = self._workers.get(worker_id)
        if worker is None:
            raise WorkerNotFound(f"worker {worker_id!r} not registered")
        return worker

    def write(self, tenant_id: int, batch: RowBatch) -> dict[int, int]:
        """Route one admitted tenant batch; returns shard → record count.

        Per-shard dispatches are charged under the deferred-clock wave
        model — a K-shard batch pays its slowest dispatch, not the sum
        — then one settle wave drives every touched Raft shard's
        replication concurrently (the shards share the clock, so
        advancing it for the first shard progresses all of them).  A
        route of plain shards only has nothing to settle.
        """
        with self._obs.tracer.span(
            "broker.write", broker=self.broker_id, tenant=tenant_id, rows=len(batch)
        ):
            dispatched = self._dispatch(tenant_id, batch)
            if self._pending_shards:
                self.flush_writes()
                self.settle_writes()
        return dispatched

    def write_nowait(self, tenant_id: int, batch: RowBatch) -> dict[int, int]:
        """Route a batch without the durability barrier.

        Admitted pieces flow into the shards' group-commit queues and
        replication pipelines; call :meth:`settle_writes` when the
        client needs the ack.  Raises :class:`BackpressureError` when
        §4.2 flow control rejects a piece (already-admitted pieces stay
        in flight and settle normally).
        """
        return self._dispatch(tenant_id, batch)

    def _dispatch(self, tenant_id: int, batch: RowBatch) -> dict[int, int]:
        if not batch:
            return {}
        self._controller.catalog.ensure_tenant(tenant_id, created_at=self._clock.now())
        self._controller.ensure_route(tenant_id)
        split = self._controller.routing.split_batch(tenant_id, len(batch))
        # One shard takes the batch as admitted; only a multi-shard
        # route pays per-row sizes to cut it.
        pieces = [batch] if len(split) == 1 else batch.split(split.values())
        dispatched: dict[int, int] = {}
        durations: list[float] = []
        try:
            for (shard_id, count), piece in zip(split.items(), pieces):
                worker = self._shard_worker(shard_id)
                with self._clock.deferred() as charges:
                    worker.write_async(shard_id, piece)
                durations.append(charges.total)
                if worker.shards[shard_id].raft is not None:
                    # A plain shard's write is durable once logged:
                    # only a Raft shard needs the barrier.
                    self._pending_shards.add(shard_id)
                dispatched[shard_id] = count
        except BackpressureError:
            # A rejected piece is a bad write event against the tenant's
            # SLO; already-admitted pieces stay in flight, so they count.
            admitted = pieces[: len(dispatched)]
            if admitted:
                self._obs.meter.record_ingest(
                    tenant_id,
                    rows=sum(dispatched.values()),
                    nbytes=sum(piece.nbytes for piece in admitted),
                )
            self._obs.slo.record_write(tenant_id, 0.0, error=True)
            raise
        wave_s = wave_elapsed(durations, max(1, self.options.prefetch_threads))
        self._clock.sleep(wave_s)
        self.writes_routed.add(len(batch))
        self._obs.meter.record_ingest(tenant_id, rows=len(batch), nbytes=batch.nbytes)
        self._obs.slo.record_write(tenant_id, wave_s)
        return dispatched

    def _touched_shards(self) -> list:
        return [self._shard_worker(i).shards[i] for i in sorted(self._pending_shards)]

    def flush_writes(self) -> None:
        """Propose every touched shard's partial group without waiting."""
        for shard in self._touched_shards():
            shard.flush_writes()

    def settle_writes(self) -> None:
        """Durability barrier for every Raft shard this broker dispatched to.

        Callers run :meth:`flush_writes` first: every touched shard then
        proposes its partial group before any shard settles, so the
        groups replicate during the same clock advance and the barrier
        costs one replication round, not one per shard.  A shard leaves
        the touched set only once it settled, so after a failed barrier
        the next one still covers its writes.
        """
        for shard in self._touched_shards():
            shard.settle_writes()
            self._pending_shards.discard(shard.shard_id)

    # -- query path ---------------------------------------------------------

    def query(
        self,
        sql: str | ParsedQuery,
        tenant_scope: int | None = None,
        statement: str | None = None,
    ) -> QueryResult:
        """Parse, rewrite, plan, execute, merge.  Latency is virtual time.

        ``sql`` is SQL text, or a query some caller has parsed already
        (front-door sessions bind a cached statement); that one is not
        parsed again, and its ``raw_sql`` is the text logged for it.

        ``tenant_scope`` is the session's authorized tenant: the planner
        injects it as a filter when absent and raises ``AuthError`` on a
        conflicting one.  The semantic-rewrite pass runs first (when
        enabled); a window subquery it cannot rewrite falls back to full
        materialization (:func:`run_window_query`).

        ``statement`` is the original client text before parameter
        binding (front-door sessions pass it); the slow-query log keeps
        it alongside the executed SQL.

        ``_system.*`` tables never reach the planner/executor: they are
        materialized from the obs layer and catalog, scoped to the
        session's tenant, then filtered by the same AST machinery.
        """
        if isinstance(sql, str):
            parsed_input = parse_sql(sql)
        else:
            parsed_input, sql = sql, sql.raw_sql
        if is_system_table(parsed_input.table):
            return self._system_query(parsed_input, tenant_scope)
        start = self._clock.now()
        try:
            return self._query(parsed_input, sql, tenant_scope, statement, start)
        except Exception:
            if tenant_scope is not None:
                self._obs.slo.record_query(
                    tenant_scope, self._clock.now() - start, error=True
                )
            raise

    def _query(
        self,
        parsed_input,
        sql: str,
        tenant_scope: int | None,
        statement: str | None,
        start: float,
    ) -> QueryResult:
        oss_before = self._range_reader.store.stats.snapshot()
        cache_before = self._range_reader.cache.summary()
        dicts_before = RowBatch.dicts_built
        tracer = self._obs.tracer
        with tracer.span("broker.query", broker=self.broker_id) as query_span:
            with tracer.span("broker.plan"):
                parsed, rewrites = self._rewriter.rewrite(parsed_input)
                # The naive window fallback scans every version of every
                # column of the inner query; `outer` keeps the original
                # two-level query for post-scan materialization.
                outer = parsed if parsed.subquery is not None else None
                scan_query = naive_scan_query(parsed) if outer is not None else parsed
                plan = self._planner.plan(scan_query, tenant_scope, rewrites)
            query_span.set(tenant=plan.tenant_id if plan.tenant_id is not None else "*")

            # Archived data (OSS LogBlocks).  Aggregates take the pushdown
            # path: the executor returns a mergeable partial aggregator (the
            # same MPP shape shard merging uses) instead of matched rows.
            # A dedup plan runs the latest-version tournament on narrow
            # (key, version) vectors and materializes winners afterwards.
            # Rows stay column chunks — the archived one, then a selection
            # per shard — until the result: only result rows become dicts.
            aggregator: Aggregator | None = None
            dedup = None
            archived = RowBatch()
            with tracer.span("broker.archived_scan"):
                if plan.dedup is not None:
                    dedup, stats = self._executor.execute_dedup(plan)
                    archived_count = stats.rows_matched
                elif scan_query.is_aggregate:
                    aggregator, stats = self._executor.execute_aggregate(plan)
                    archived_count = stats.rows_matched
                else:
                    archived, stats = self._executor.execute(plan)
                    archived_count = len(archived)

            # Real-time data from the row stores of the read route.
            if plan.tenant_id is not None:
                shard_ids = self._controller.routing.route_read(plan.tenant_id)
            else:
                shard_ids = self._controller.topology.shards
            # LIMIT short-circuit: plan.row_limit is only set for plain
            # SELECT ... LIMIT N (no ORDER BY, no aggregation), where any N
            # matching rows answer the query — so once archived + realtime
            # matches reach N there is no reason to scan further shards.
            row_limit = plan.row_limit
            matches: list[tuple] = []  # RowSelection parts
            with tracer.span("broker.realtime_scan"):
                for shard_id in shard_ids:
                    remaining = None
                    if row_limit is not None:
                        remaining = row_limit - archived_count
                        remaining -= sum(len(picked) for _, picked in matches)
                        if remaining <= 0:
                            break
                    worker = self._shard_worker(shard_id)
                    shard = worker.shards.get(shard_id)
                    if shard is None:
                        continue
                    raw = shard.scan_realtime(
                        min_ts=plan.min_ts, max_ts=plan.max_ts, tenant_id=plan.tenant_id
                    )
                    matches += filter_realtime_rows(plan, raw, remaining, stats).parts
            realtime = RowSelection(matches)

            with tracer.span("broker.merge"):
                if aggregator is not None:
                    aggregator.consume_many(realtime)
                    final = aggregator.results()
                else:
                    fresh = realtime.project(plan.output_columns or plan.schema.column_names())
                    if dedup is not None:
                        # Real-time rows enter the tournament after the
                        # archived stream — the same order the naive path
                        # concatenates them in, so ties break identically.
                        spec, rows = plan.dedup, range(len(fresh))
                        if rows:
                            keys = fresh.column(spec.key_column)
                            dedup.offer_many(keys, fresh.column(spec.version_column), fresh, rows)
                        winners = self._executor.materialize_dedup(plan, dedup, stats)
                        if spec.post_filter is not None:
                            winners = filter_chunk(spec.post_filter, winners)
                        final = result_rows(plan.query, winners)
                    elif outer is not None:
                        final = run_window_query(outer, RowBatch.concat([archived, fresh]))
                    else:
                        final = result_rows(parsed, RowBatch.concat([archived, fresh]))
            query_span.set(rows=len(final))

        stats.rows_materialized = RowBatch.dicts_built - dicts_before
        latency_s = self._clock.now() - start
        oss_after = self._range_reader.store.stats
        cache_after = self._range_reader.cache.summary()
        result = QueryResult(
            rows=final,
            latency_s=latency_s,
            plan=plan,
            stats=stats,
            realtime_rows=len(realtime),
            archived_rows=archived_count,
            oss_requests=oss_after.get_requests - oss_before.get_requests,
            bytes_fetched=oss_after.bytes_read - oss_before.bytes_read,
            object_hits=cache_after.object_hits - cache_before.object_hits,
            memory_hits=cache_after.memory_hits - cache_before.memory_hits,
            ssd_hits=cache_after.ssd_hits - cache_before.ssd_hits,
            cache_misses=cache_after.oss_reads - cache_before.oss_reads,
        )

        self.queries_served.add()
        self._query_latency.observe(latency_s)
        self._pushdown.record(stats.pushdown)
        if stats.rows_evaluated_vectorized:
            self._rows_evaluated.add(stats.rows_evaluated_vectorized)
        if plan.tenant_id is not None:
            self._obs.slo.record_query(plan.tenant_id, latency_s)
            # CPU cost is the scan-work proxy: every row whose predicate
            # was evaluated plus every block visited.
            self._obs.meter.record_query(
                plan.tenant_id,
                rows_returned=len(final),
                bytes_scanned=result.bytes_fetched,
                oss_gets=result.oss_requests,
                cpu_cost=stats.rows_evaluated_vectorized + stats.blocks_visited,
            )
        self._obs.slow_queries.observe(
            SlowQueryEntry(
                at_s=self._clock.now(),
                tenant_id=plan.tenant_id if plan.tenant_id is not None else -1,
                query=sql,
                latency_s=latency_s,
                rows_returned=len(final),
                blocks_visited=stats.blocks_visited,
                bytes_fetched=result.bytes_fetched,
                statement=statement if statement is not None else sql,
            )
        )
        return result

    def _system_query(self, parsed, tenant_scope: int | None) -> QueryResult:
        """Answer a ``_system.*`` introspection query from the obs layer.

        No storage is touched and no virtual time is charged beyond the
        span bookkeeping; rows are materialized on demand, auth-scoped,
        then run as one column chunk through the operators every query
        ends with: filter, aggregate fold or ORDER BY / LIMIT.
        """
        if parsed.subquery is not None or parsed.window is not None:
            raise QueryError("system tables do not support subqueries or windows")
        start = self._clock.now()
        with self._obs.tracer.span(
            "broker.query", broker=self.broker_id, system_table=parsed.table
        ) as query_span:
            rows = system_table_rows(
                parsed.table, self._obs, catalog=self._controller.catalog
            )
            chunk = RowBatch.from_dicts(scope_rows(rows, tenant_scope))
            if parsed.where is not None:
                chunk = filter_chunk(parsed.where, chunk)
            columns = SYSTEM_TABLE_COLUMNS[parsed.table] if parsed.select_star else None
            final = result_rows(parsed, chunk, columns)
            query_span.set(rows=len(final))
        latency_s = self._clock.now() - start
        plan = QueryPlan(
            query=parsed,
            schema=self._controller.catalog.schema,
            where=parsed.where,
            tenant_id=tenant_scope,
            min_ts=None,
            max_ts=None,
            tenant_scope=tenant_scope,
        )
        self.queries_served.add()
        self._query_latency.observe(latency_s)
        return QueryResult(rows=final, latency_s=latency_s, plan=plan)
