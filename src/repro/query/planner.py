"""Query planning: literal coercion, tenant/ts extraction, block pruning.

Produces a :class:`QueryPlan` that lists exactly which LogBlocks survive
the LogBlock-map filter (Figure 8 step 1) and carries the coerced
predicate tree for per-block evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timezone

from repro.common.errors import AuthError, QueryError, SchemaError
from repro.logblock.schema import ColumnType, TableSchema
from repro.meta.catalog import TIER_COLD, Catalog, LogBlockEntry
from repro.query.ast import (
    And,
    Between,
    CmpOp,
    Comparison,
    Expr,
    In,
    IsNull,
    Like,
    Match,
    Not,
    NotNull,
    Or,
    conjuncts,
    extract_eq,
    extract_ts_range,
)
from repro.query.dedup import DedupSpec
from repro.query.sql import ParsedQuery

MICROS = 1_000_000


def parse_timestamp(text: str) -> int:
    """'YYYY-MM-DD HH:MM:SS[.ffffff]' (UTC) → microseconds since epoch."""
    for fmt in ("%Y-%m-%d %H:%M:%S.%f", "%Y-%m-%d %H:%M:%S", "%Y-%m-%d"):
        try:
            moment = datetime.strptime(text, fmt).replace(tzinfo=timezone.utc)
            return int(moment.timestamp() * MICROS)
        except ValueError:
            continue
    raise QueryError(f"unparseable timestamp literal {text!r}")


def format_timestamp(micros: int) -> str:
    """Inverse of :func:`parse_timestamp` (second precision)."""
    moment = datetime.fromtimestamp(micros / MICROS, tz=timezone.utc)
    return moment.strftime("%Y-%m-%d %H:%M:%S")


def _coerce_literal(value, ctype: ColumnType):
    """Coerce a parsed literal to the column's storage type."""
    if value is None:
        return None
    if ctype is ColumnType.TIMESTAMP:
        if isinstance(value, str):
            return parse_timestamp(value)
        if isinstance(value, (int, float)):
            return int(value)
    if ctype is ColumnType.BOOL:
        # The paper's own sample query writes ``fail = 'false'``.
        if isinstance(value, str):
            lowered = value.lower()
            if lowered in ("true", "false"):
                return lowered == "true"
            raise QueryError(f"cannot coerce {value!r} to BOOL")
        if isinstance(value, bool):
            return value
        if isinstance(value, int):
            return bool(value)
    if ctype is ColumnType.INT64:
        if isinstance(value, bool):
            raise QueryError("boolean literal for INT64 column")
        if isinstance(value, (int, float)):
            return int(value)
    if ctype is ColumnType.FLOAT64:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    if ctype is ColumnType.STRING and isinstance(value, str):
        return value
    raise QueryError(f"cannot coerce literal {value!r} to {ctype.name}")


def coerce_expr(expr: Expr, schema: TableSchema) -> Expr:
    """Rewrite literals in the tree to match schema column types."""
    if isinstance(expr, Comparison):
        ctype = schema.column(expr.column).ctype
        return Comparison(expr.column, expr.op, _coerce_literal(expr.value, ctype))
    if isinstance(expr, Between):
        ctype = schema.column(expr.column).ctype
        return Between(
            expr.column,
            _coerce_literal(expr.low, ctype),
            _coerce_literal(expr.high, ctype),
        )
    if isinstance(expr, In):
        ctype = schema.column(expr.column).ctype
        return In(expr.column, tuple(_coerce_literal(v, ctype) for v in expr.values))
    if isinstance(expr, Match):
        spec = schema.column(expr.column)
        if spec.ctype is not ColumnType.STRING:
            raise QueryError(f"MATCH on non-string column {expr.column!r}")
        return expr
    if isinstance(expr, Like):
        spec = schema.column(expr.column)
        if spec.ctype is not ColumnType.STRING:
            raise QueryError(f"LIKE on non-string column {expr.column!r}")
        return expr
    if isinstance(expr, (IsNull, NotNull)):
        schema.column(expr.column)  # existence check only; no literal
        return expr
    if isinstance(expr, And):
        return And(tuple(coerce_expr(child, schema) for child in expr.children))
    if isinstance(expr, Or):
        return Or(tuple(coerce_expr(child, schema) for child in expr.children))
    if isinstance(expr, Not):
        return Not(coerce_expr(expr.child, schema))
    raise QueryError(f"unknown expression node {type(expr).__name__}")


@dataclass(frozen=True)
class AggPushdown:
    """Planner decision on the aggregate fast path (tiers 1–3).

    * tier 1 (``catalog_eligible``): the query is COUNT(*) (optionally
      with MIN/MAX of the timestamp column), ungrouped, and its
      predicate constrains only ``tenant_id`` (equality) and the
      timestamp — any LogBlock whose catalog time range is fully inside
      the bound is answered from its :class:`LogBlockEntry` alone;
    * tier 2 (``sma_eligible``): every aggregate is a non-DISTINCT
      COUNT/SUM/AVG/MIN/MAX, ungrouped — blocks whose predicate bitset
      matches every row fold from the meta's column SMAs;
    * tier 3: always available for aggregates — partially matched
      blocks aggregate from late-materialized column vectors
      (``input_columns``) instead of row dicts.
    """

    catalog_eligible: bool
    sma_eligible: bool
    ts_column: str = "ts"
    ts_low: int | None = None
    ts_low_inclusive: bool = True
    ts_high: int | None = None
    ts_high_inclusive: bool = True
    input_columns: tuple[str, ...] = ()

    def mode(self) -> str:
        if self.catalog_eligible:
            return "catalog-only"
        if self.sma_eligible:
            return "sma+columnar"
        return "columnar"


def _tier1_time_bound(
    where: Expr | None, tenant_column: str, ts_column: str
) -> tuple[bool, int | None, bool, int | None, bool]:
    """Whether the predicate is tier-1 shaped, and its exact ts interval.

    Tier-1 shape: a conjunction whose every leaf is ``tenant_id = k``
    (one value) or a range/equality bound on the timestamp column.
    Unlike :func:`extract_ts_range` this keeps strict-vs-inclusive
    bounds exact, because catalog-only answers must not over-count rows
    sitting exactly on an open endpoint.
    """
    if where is None:
        return True, None, True, None, True
    low: int | None = None
    high: int | None = None
    low_inclusive = True
    high_inclusive = True
    tenant_values: list = []

    def tighten_low(value, inclusive: bool) -> None:
        nonlocal low, low_inclusive
        if low is None or value > low:
            low, low_inclusive = value, inclusive
        elif value == low:
            low_inclusive = low_inclusive and inclusive

    def tighten_high(value, inclusive: bool) -> None:
        nonlocal high, high_inclusive
        if high is None or value < high:
            high, high_inclusive = value, inclusive
        elif value == high:
            high_inclusive = high_inclusive and inclusive

    for node in conjuncts(where):
        if isinstance(node, Comparison) and node.column == tenant_column and node.op is CmpOp.EQ:
            tenant_values.append(node.value)
            continue
        if isinstance(node, In) and node.column == tenant_column and len(node.values) == 1:
            tenant_values.append(node.values[0])
            continue
        if isinstance(node, Between) and node.column == ts_column:
            tighten_low(node.low, True)
            tighten_high(node.high, True)
            continue
        if isinstance(node, Comparison) and node.column == ts_column:
            if node.op is CmpOp.GE:
                tighten_low(node.value, True)
            elif node.op is CmpOp.GT:
                tighten_low(node.value, False)
            elif node.op is CmpOp.LE:
                tighten_high(node.value, True)
            elif node.op is CmpOp.LT:
                tighten_high(node.value, False)
            elif node.op is CmpOp.EQ:
                tighten_low(node.value, True)
                tighten_high(node.value, True)
            else:  # != cannot be answered from a coverage check
                return False, None, True, None, True
            continue
        return False, None, True, None, True
    if len(set(tenant_values)) > 1:
        # Contradictory tenant equalities: let the normal path prove 0.
        return False, None, True, None, True
    return True, low, low_inclusive, high, high_inclusive


_TIER1_TIME_AGGS = ("min", "max")
_SMA_FOLDABLE_AGGS = ("count", "sum", "avg", "min", "max")


def _plan_agg_pushdown(
    query: ParsedQuery, where: Expr | None, tenant_column: str, ts_column: str
) -> AggPushdown:
    """Classify an aggregate query for the executor's tiered fast path.

    ``where`` is the *coerced* predicate tree — timestamp literals must
    already be microseconds so the coverage bound compares against
    catalog entries directly.
    """
    ungrouped = query.group_by is None
    sma_eligible = ungrouped and all(
        item.is_aggregate
        and not item.distinct
        and item.aggregate in _SMA_FOLDABLE_AGGS
        for item in query.select
    )
    catalog_items = ungrouped and all(
        item.is_aggregate
        and not item.distinct
        and (
            (item.aggregate == "count" and item.column is None)
            or (item.aggregate in _TIER1_TIME_AGGS and item.column == ts_column)
        )
        for item in query.select
    )
    tier1_shape, low, low_inc, high, high_inc = _tier1_time_bound(
        where, tenant_column, ts_column
    )
    return AggPushdown(
        catalog_eligible=catalog_items and tier1_shape,
        sma_eligible=sma_eligible,
        ts_column=ts_column,
        ts_low=low,
        ts_low_inclusive=low_inc,
        ts_high=high,
        ts_high_inclusive=high_inc,
        input_columns=tuple(query.aggregate_input_columns()),
    )


@dataclass
class QueryPlan:
    """Everything the executor needs to run one query."""

    query: ParsedQuery
    schema: TableSchema
    where: Expr | None
    tenant_id: int | None
    min_ts: int | None
    max_ts: int | None
    blocks: list[LogBlockEntry] = field(default_factory=list)
    blocks_pruned_by_map: int = 0
    output_columns: list[str] = field(default_factory=list)
    # LIMIT pushdown: when the query has a LIMIT but no ORDER BY and no
    # aggregation, any `row_limit` matching rows satisfy it — the
    # executor stops visiting LogBlocks once it has enough.
    row_limit: int | None = None
    # Aggregate pushdown decision; set iff the query aggregates.
    agg_pushdown: AggPushdown | None = None
    # Latest-version dedup (set by the semantic rewriter via the query).
    dedup: DedupSpec | None = None
    # Names of semantic-rewrite rules that produced this query shape.
    rewrites: list[str] = field(default_factory=list)
    # The session's tenant scope that authorized (and bounded) this plan.
    tenant_scope: int | None = None


def explain_plan(plan: QueryPlan) -> str:
    """Human-readable description of what a plan will do.

    Shows the LogBlock-map pruning outcome, the predicate tree, the
    projected columns and the pushdown hints — the EXPLAIN output a
    downstream user debugs selectivity with.
    """
    lines = [f"query: {plan.query.raw_sql or '<built>'}"]
    scope = f"tenant {plan.tenant_id}" if plan.tenant_id is not None else "ALL tenants"
    lines.append(f"scope: {scope}")
    if plan.tenant_scope is not None:
        lines.append(f"session scope: tenant {plan.tenant_scope}")
    if plan.rewrites:
        lines.append(f"semantic rewrites: {', '.join(plan.rewrites)}")
    if plan.dedup is not None:
        lines.append(f"latest-version dedup: {plan.dedup.describe()}")
    if plan.min_ts is not None or plan.max_ts is not None:
        lines.append(
            "time range: "
            f"[{format_timestamp(plan.min_ts) if plan.min_ts is not None else '-inf'}, "
            f"{format_timestamp(plan.max_ts) if plan.max_ts is not None else '+inf'}]"
        )
    total = len(plan.blocks) + plan.blocks_pruned_by_map
    lines.append(
        f"LogBlock map: {len(plan.blocks)} of {total} blocks survive "
        f"({plan.blocks_pruned_by_map} pruned)"
    )
    n_cold = sum(1 for entry in plan.blocks if entry.tier == TIER_COLD)
    if n_cold:
        lines.append(
            f"storage tiers: {len(plan.blocks) - n_cold} hot, "
            f"{n_cold} cold (tar-packed segment members)"
        )
    for entry in plan.blocks[:8]:
        tier = "  tier=cold" if entry.tier == TIER_COLD else ""
        lines.append(
            f"  {entry.path}  rows={entry.row_count} "
            f"[{format_timestamp(entry.min_ts)} .. {format_timestamp(entry.max_ts)}]"
            f"{tier}"
        )
    if len(plan.blocks) > 8:
        lines.append(f"  ... {len(plan.blocks) - 8} more")
    lines.append(f"predicates: {plan.where!r}" if plan.where is not None else "predicates: none")
    lines.append(f"output columns: {plan.output_columns or ['<all>']}")
    if plan.row_limit is not None:
        lines.append(f"LIMIT pushdown: stop after {plan.row_limit} rows")
    if plan.query.is_aggregate:
        lines.append(
            "aggregation: "
            + ", ".join(item.label() for item in plan.query.select if item.is_aggregate)
            + (f" GROUP BY {plan.query.group_by}" if plan.query.group_by else "")
        )
        if plan.agg_pushdown is not None:
            lines.append(f"agg pushdown: {plan.agg_pushdown.mode()}")
    return "\n".join(lines)


class QueryPlanner:
    """Builds plans against the controller catalog."""

    def __init__(self, catalog: Catalog, tenant_column: str = "tenant_id", ts_column: str = "ts"):
        self._catalog = catalog
        self._tenant_column = tenant_column
        self._ts_column = ts_column

    def plan(
        self,
        query: ParsedQuery,
        tenant_scope: int | None = None,
        rewrites: list[str] | None = None,
    ) -> QueryPlan:
        schema = self._catalog.schema
        if query.subquery is not None:
            raise QueryError(
                "subqueries must be rewritten or materialized before planning "
                "(the broker handles the window-subquery form)"
            )
        if query.table != schema.name:
            if query.table.startswith("_system."):
                raise QueryError(
                    f"system table {query.table!r} is served by the broker, "
                    "not the planner"
                )
            raise QueryError(f"unknown table {query.table!r} (expected {schema.name!r})")
        try:
            for item in query.select:
                if item.column is not None:
                    schema.column(item.column)
            if query.group_by is not None:
                schema.column(query.group_by)
        except SchemaError as exc:
            raise QueryError(str(exc)) from exc
        for item in query.select:
            # SUM/AVG over non-numeric columns silently totalled 0.0 in
            # the row-fold path; reject at plan time instead.
            if item.aggregate in ("sum", "avg") and item.column is not None:
                ctype = schema.column(item.column).ctype
                if ctype in (ColumnType.STRING, ColumnType.BOOL):
                    raise QueryError(
                        f"{item.aggregate.upper()}({item.column}) is not defined "
                        f"for {ctype.name} columns"
                    )

        where = coerce_expr(query.where, schema) if query.where is not None else None

        tenant_id = None
        min_ts = None
        max_ts = None
        if where is not None:
            tenant_value = extract_eq(where, self._tenant_column)
            if tenant_value is not None:
                if not isinstance(tenant_value, int):
                    raise QueryError(f"tenant id must be an integer, got {tenant_value!r}")
                tenant_id = tenant_value
            min_ts, max_ts = extract_ts_range(where, self._ts_column)

        if tenant_scope is not None:
            # Session authorization: a scoped session may only read its
            # own tenant.  An explicit matching filter is fine; a
            # conflicting one is a typed rejection, not an empty result;
            # an absent one gets the scope injected (AND-conjoining a
            # tenant equality can only narrow the match set).
            if tenant_id is None:
                scope_filter = Comparison(self._tenant_column, CmpOp.EQ, tenant_scope)
                where = scope_filter if where is None else And((scope_filter, where))
                tenant_id = tenant_scope
            elif tenant_id != tenant_scope:
                raise AuthError(
                    f"session is scoped to tenant {tenant_scope} but the "
                    f"statement addresses tenant {tenant_id}"
                )

        # Figure 8 step 1: LogBlock-map filter by <tenant_id, min_ts, max_ts>.
        if tenant_id is not None:
            candidates = self._catalog.blocks_for(tenant_id)
            surviving = [b for b in candidates if b.overlaps(min_ts, max_ts)]
            pruned = len(candidates) - len(surviving)
        else:
            # Cross-tenant queries are allowed but expensive by design.
            candidates = self._catalog.all_blocks()
            surviving = [b for b in candidates if b.overlaps(min_ts, max_ts)]
            pruned = len(candidates) - len(surviving)

        dedup = query.dedup
        if dedup is not None:
            if not isinstance(dedup, DedupSpec):
                raise QueryError(f"unexpected dedup spec {dedup!r}")
            try:
                schema.column(dedup.key_column)
                schema.column(dedup.version_column)
            except SchemaError as exc:
                raise QueryError(str(exc)) from exc
            if dedup.post_filter is not None:
                dedup = DedupSpec(
                    key_column=dedup.key_column,
                    version_column=dedup.version_column,
                    post_filter=coerce_expr(dedup.post_filter, schema),
                )

        if query.select_star:
            output_columns = schema.column_names()
        else:
            # The projection, then what GROUP BY, the aggregates, a row
            # ORDER BY, the dedup tournament and its post-filter read.
            output_columns = list(dict.fromkeys(query.projected_columns()))
            extra = [query.group_by, *(item.column for item in query.select if item.is_aggregate)]
            if not query.is_aggregate:
                extra.append(query.order_by)
            if dedup is not None:
                extra += [dedup.key_column, dedup.version_column]
                if dedup.post_filter is not None:
                    extra += sorted(dedup.post_filter.columns())
            output_columns += [
                c for c in dict.fromkeys(extra) if c is not None and c not in output_columns
            ]

        row_limit = None
        if (
            query.limit is not None
            and query.order_by is None
            and not query.is_aggregate
            and dedup is None
        ):
            row_limit = query.limit

        agg_pushdown = None
        if query.is_aggregate and dedup is None:
            agg_pushdown = _plan_agg_pushdown(
                query, where, self._tenant_column, self._ts_column
            )

        return QueryPlan(
            query=query,
            schema=schema,
            where=where,
            tenant_id=tenant_id,
            min_ts=min_ts,
            max_ts=max_ts,
            blocks=sorted(surviving, key=LogBlockEntry.sort_key),
            blocks_pruned_by_map=pruned,
            output_columns=output_columns,
            row_limit=row_limit,
            agg_pushdown=agg_pushdown,
            dedup=dedup,
            rewrites=list(rewrites) if rewrites else [],
            tenant_scope=tenant_scope,
        )
