"""EXPLAIN ANALYZE: the plan, plus what execution actually did.

Renders one executed query as the plan text (:func:`explain_plan`)
followed by per-stage virtual timings (from the ``broker.query`` trace),
the pushdown tier counts, pruning counters, cache hits per tier (object /
memory / SSD) beside misses, bytes fetched, and what the prefetch plans
wanted against what was already resident.  Everything is driven by the virtual clock, so the output is
deterministic and golden-testable.
"""

from __future__ import annotations

from repro.obs.tracing import Span

# Stage spans the broker opens inside ``broker.query``.
STAGES = (
    ("broker.plan", "plan"),
    ("broker.archived_scan", "archived scan"),
    ("broker.realtime_scan", "realtime scan"),
    ("broker.merge", "merge/finalize"),
)


def render_explain_analyze(result, trace: Span | None, journal=None) -> str:
    """EXPLAIN ANALYZE text for one executed query.

    ``result`` is the broker's :class:`QueryResult`; ``trace`` is the
    query's ``broker.query`` root span (None when tracing is off, in
    which case the per-stage block is omitted but the work accounting
    still renders).  When an :class:`~repro.obs.events.EventJournal`
    is supplied, journal entries carrying this trace's id (seals,
    backpressure trips, elections that happened *during* the query)
    render as a final section — the trace-ID correlation join.
    """
    # Deferred import: the query package reads through the cache layer,
    # which itself imports the tracer — importing the planner at module
    # scope would close that cycle.
    from repro.query.planner import explain_plan

    stats = result.stats
    lines = [explain_plan(result.plan), ""]
    lines.append(f"== execution (virtual time: {result.latency_s:.6f}s) ==")
    if trace is not None:
        for span_name, label in STAGES:
            span = trace.find(span_name)
            if span is None:
                continue
            lines.append(f"  {label}: {span.duration_s:.6f}s")
    else:
        lines.append("  (tracing disabled: per-stage timings unavailable)")
    lines.append(
        f"rows returned: {len(result.rows)} "
        f"(archived {result.archived_rows}, realtime {result.realtime_rows})"
    )
    matched = result.archived_rows + result.realtime_rows
    lines.append(f"rows materialized: {stats.rows_materialized} of {matched} matched")

    lines.append("== blocks ==")
    lines.append(f"  visited: {stats.blocks_visited}")
    lines.append(f"  pruned by LogBlock map: {result.plan.blocks_pruned_by_map}")
    lines.append(
        f"  pruned by SMA: {stats.prune.blocks_pruned}, "
        f"by Bloom: {stats.prune.blooms_pruned}, "
        f"columns short-circuited by SMA: {stats.prune.columns_short_circuited}"
    )
    lines.append(
        f"  scanned: {stats.prune.blocks_scanned}, "
        f"index lookups: {stats.prune.index_lookups}"
    )

    if result.plan.where is not None:
        lines.append(
            f"  rows evaluated: {stats.rows_evaluated_vectorized} "
            f"(archived {stats.prune.rows_vectorized}, "
            f"realtime {stats.realtime_rows_vectorized})"
        )

    pushdown = stats.pushdown
    if result.plan.query.is_aggregate:
        lines.append("== aggregate pushdown ==")
        lines.append(f"  tier 1 (catalog): {pushdown.agg_catalog_hits} blocks")
        lines.append(f"  tier 2 (SMA fold): {pushdown.agg_sma_blocks} blocks")
        lines.append(f"  tier 3 (columnar): {pushdown.agg_columnar_blocks} blocks")

    lines.append("== I/O ==")
    lines.append(
        f"  oss requests: {result.oss_requests}, bytes fetched: {result.bytes_fetched}"
    )
    lines.append(
        f"  prefetch requests: {stats.prefetch_requests}, "
        f"bytes: {stats.prefetch_bytes}"
    )
    resident = stats.prefetch_resident_decoded + stats.prefetch_resident_bytes
    lines.append(
        f"  prefetch members: {resident + stats.prefetch_members_fetched} wanted, "
        f"{resident} resident (decoded {stats.prefetch_resident_decoded}, "
        f"bytes {stats.prefetch_resident_bytes}), "
        f"{stats.prefetch_members_fetched} fetched"
    )
    cache_total = result.cache_hits + result.cache_misses
    rate = result.cache_hits / cache_total if cache_total else 0.0
    lines.append(
        f"  cache: {result.cache_hits} hits (object {result.object_hits}, "
        f"memory {result.memory_hits}, ssd {result.ssd_hits}), "
        f"{result.cache_misses} misses (hit rate {rate:.1%})"
    )
    trace_id = getattr(trace, "trace_id", None)
    if journal is not None and trace_id is not None:
        events = journal.events_for_trace(trace_id)
        if events:
            lines.append(f"== journal events (trace {trace_id}) ==")
            lines.extend(f"  {event.format()}" for event in events)
    return "\n".join(lines)
