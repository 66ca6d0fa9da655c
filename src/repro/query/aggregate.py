"""Lightweight BI aggregations (§1: '"which IP addresses frequently
accessed this API in the past day?"').

Streaming aggregation over matched rows: COUNT/SUM/AVG/MIN/MAX with an
optional single-column GROUP BY, plus ORDER BY / LIMIT for top-N.
Aggregates are mergeable so the broker can combine per-shard partial
results (MPP-style final aggregation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import QueryError
from repro.query.kernels import top_k_order
from repro.query.sql import ParsedQuery, SelectItem


@dataclass
class AggState:
    """Mergeable accumulator for one aggregate over one group."""

    count: int = 0
    total: float = 0.0
    minimum: object = None
    maximum: object = None
    distinct: object = None  # ExactDistinct or HyperLogLog when needed

    def update(self, value) -> None:
        if value is None:
            return
        self.count += 1
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        if self.distinct is not None:
            self.distinct.add(value)

    def update_count_star(self) -> None:
        self.count += 1

    def merge_sma(self, sma) -> None:
        """Fold a column SMA as if :meth:`update` ran on every non-null value.

        The tier-2 pushdown path: when a block's predicate bitset is
        all-rows-match, COUNT/MIN/MAX (and SUM, when the block meta
        records per-column sums) fold straight from the SMA without
        reading a single column block.  Only valid for non-DISTINCT
        states — the planner never routes DISTINCT aggregates here.
        """
        non_null = sma.row_count - sma.null_count
        if not non_null:
            return
        self.count += non_null
        if sma.sum_value is not None:
            self.total += sma.sum_value
        if sma.min_value is not None and (self.minimum is None or sma.min_value < self.minimum):
            self.minimum = sma.min_value
        if sma.max_value is not None and (self.maximum is None or sma.max_value > self.maximum):
            self.maximum = sma.max_value

    def merge(self, other: "AggState") -> None:
        self.count += other.count
        self.total += other.total
        if other.minimum is not None and (self.minimum is None or other.minimum < self.minimum):
            self.minimum = other.minimum
        if other.maximum is not None and (self.maximum is None or other.maximum > self.maximum):
            self.maximum = other.maximum
        if self.distinct is not None and other.distinct is not None:
            self.distinct.merge(other.distinct)

    def finalize(self, func: str, distinct: bool = False):
        if func == "count":
            if distinct:
                return self.distinct.estimate() if self.distinct is not None else 0
            return self.count
        if func == "approx_count_distinct":
            return self.distinct.estimate() if self.distinct is not None else 0
        if func == "sum":
            return self.total if self.count else None
        if func == "avg":
            return self.total / self.count if self.count else None
        if func == "min":
            return self.minimum
        if func == "max":
            return self.maximum
        raise QueryError(f"unknown aggregate function {func!r}")


class Aggregator:
    """Executes the aggregate/GROUP BY part of a parsed query."""

    def __init__(self, query: ParsedQuery) -> None:
        if not query.is_aggregate:
            raise QueryError("Aggregator requires an aggregate query")
        self._query = query
        self._items: list[SelectItem] = query.select
        self._group_by = query.group_by
        # group key → per-aggregate-item state
        self._groups: dict[object, list[AggState]] = {}

    def _states_for(self, key) -> list[AggState]:
        states = self._groups.get(key)
        if states is None:
            from repro.query.distinct import ExactDistinct, HyperLogLog

            states = []
            for item in self._items:
                state = AggState()
                if item.is_aggregate:
                    if item.aggregate == "count" and item.distinct:
                        state.distinct = ExactDistinct()
                    elif item.aggregate == "approx_count_distinct":
                        state.distinct = HyperLogLog()
                states.append(state)
            self._groups[key] = states
        return states

    def consume(self, row: dict) -> None:
        key = row.get(self._group_by) if self._group_by is not None else None
        states = self._states_for(key)
        for item, state in zip(self._items, states):
            if not item.is_aggregate:
                continue
            if item.column is None:
                state.update_count_star()
            else:
                state.update(row.get(item.column))

    def consume_many(self, rows) -> None:
        for row in rows:
            self.consume(row)

    def consume_sma(self, smas: dict, row_count: int) -> None:
        """Tier-1/2 pushdown: fold one whole block from its column SMAs.

        ``smas`` maps column name → :class:`~repro.logblock.sma.Sma` for
        the columns present in the block; a column absent from the dict
        (added by DDL after the block was written) reads as all-null and
        contributes nothing.  Only valid for ungrouped queries whose
        every row matches — the executor checks both.
        """
        states = self._states_for(None)
        for item, state in zip(self._items, states):
            if not item.is_aggregate:
                continue
            if item.column is None:
                state.count += row_count  # COUNT(*)
                continue
            sma = smas.get(item.column)
            if sma is not None:
                state.merge_sma(sma)

    def consume_columns(self, group_keys, columns: dict, row_count: int) -> None:
        """Tier-3 pushdown: consume per-column value vectors.

        ``group_keys`` is the GROUP BY column's value vector (or None
        for ungrouped queries); ``columns`` maps each aggregated column
        to its matched-row value vector.  Columns missing from the dict
        read as null.  Equivalent to :meth:`consume` over materialized
        row dicts, without ever building the dicts.
        """
        if self._group_by is None:
            states = self._states_for(None)
            for item, state in zip(self._items, states):
                if not item.is_aggregate:
                    continue
                if item.column is None:
                    state.count += row_count  # COUNT(*)
                    continue
                vector = columns.get(item.column)
                if vector is None:
                    continue
                for value in vector:
                    state.update(value)
            return
        if group_keys is None:
            group_keys = [None] * row_count
        for i in range(row_count):
            states = self._states_for(group_keys[i])
            for item, state in zip(self._items, states):
                if not item.is_aggregate:
                    continue
                if item.column is None:
                    state.update_count_star()
                    continue
                vector = columns.get(item.column)
                state.update(vector[i] if vector is not None else None)

    def merge(self, other: "Aggregator") -> None:
        """Combine another shard's partial aggregation into this one."""
        for key, states in other._groups.items():
            mine = self._states_for(key)
            for state, incoming in zip(mine, states):
                state.merge(incoming)

    def results(self) -> list[dict]:
        """Final output rows, ordered and limited per the query."""
        if self._group_by is None and not self._groups:
            # SQL: an ungrouped aggregate over zero rows yields one row
            # (COUNT = 0, other aggregates NULL); a grouped one yields none.
            self._states_for(None)
        rows: list[dict] = []
        for key, states in self._groups.items():
            row: dict = {}
            if self._group_by is not None:
                row[self._group_by] = key
            for item, state in zip(self._items, states):
                if item.is_aggregate:
                    row[item.label()] = state.finalize(
                        item.aggregate, distinct=item.distinct  # type: ignore[arg-type]
                    )
                elif item.column is not None and item.column != self._group_by:
                    row[item.column] = key
            rows.append(row)
        order_by = self._query.order_by
        if order_by is not None:
            rows.sort(
                key=lambda row: (row.get(order_by) is None, row.get(order_by)),
                reverse=self._query.order_desc,
            )
        elif self._group_by is not None:
            rows.sort(key=lambda row: (row.get(self._group_by) is None, row.get(self._group_by)))
        if self._query.limit is not None:
            rows = rows[: self._query.limit]
        return rows


def apply_order_limit(query: ParsedQuery, rows: list[dict]) -> list[dict]:
    """ORDER BY / LIMIT for non-aggregate queries.

    The sort runs through the argsort top-k kernel (rank keys once,
    ``argpartition`` when a LIMIT bounds the output) — identical
    ordering to the stable python sort, including null placement and
    tie order.  Keys the kernel cannot rank (mixed incomparable types)
    fall back to the python sort.
    """
    order_by = query.order_by
    if order_by is not None:
        order = top_k_order(
            [row.get(order_by) for row in rows],
            desc=query.order_desc,
            limit=query.limit,
        )
        if order is not None:
            return [rows[i] for i in order.tolist()]
        rows = sorted(
            rows,
            key=lambda row: (row.get(order_by) is None, row.get(order_by)),
            reverse=query.order_desc,
        )
    if query.limit is not None:
        rows = rows[: query.limit]
    return rows
