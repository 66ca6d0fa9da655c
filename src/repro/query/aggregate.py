"""Lightweight BI aggregations (§1: '"which IP addresses frequently
accessed this API in the past day?"').

Aggregation over matched rows' columns (SMAs, decoded blocks, column
chunks): COUNT/SUM/AVG/MIN/MAX with an optional single-column GROUP BY,
plus ORDER BY / LIMIT for top-N.  Aggregates are mergeable so the
broker can combine per-shard partial results (MPP-style final
aggregation).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import NoneType

import numpy as np

from repro.common.errors import QueryError
from repro.common.strings import Strings
from repro.logblock.encode_kernels import rank_strings
from repro.logblock.pruning import object_column
from repro.query.distinct import ExactDistinct, HyperLogLog
from repro.query.kernels import top_k_order
from repro.query.sql import ParsedQuery, SelectItem
from repro.rowstore.batch import RowBatch, RowSelection


@dataclass
class AggState:
    """Mergeable accumulator for one aggregate over one group."""

    count: int = 0
    total: float = 0.0
    minimum: object = None
    maximum: object = None
    distinct: object = None  # ExactDistinct or HyperLogLog when needed

    def fold(self, count: int, total, minimum, maximum) -> None:
        """Fold ``count`` non-null values: their sum and bounds, ``None``
        for one nobody computed.  A NaN is counted and summed but is no
        bound."""
        self.count += count
        if total is not None:
            self.total += total
        if minimum is not None and (self.minimum is None or minimum < self.minimum):
            self.minimum = minimum
        if maximum is not None and (self.maximum is None or maximum > self.maximum):
            self.maximum = maximum

    def merge_sma(self, sma) -> None:
        """Fold a column SMA: every non-null value of the column at once.

        The tier-2 pushdown path: when a block's predicate bitset is
        all-rows-match, COUNT/MIN/MAX (and SUM, when the block meta
        records per-column sums) fold straight from the SMA without
        reading a single column block.  Only valid for non-DISTINCT
        states — the planner never routes DISTINCT aggregates here.
        """
        non_null = sma.row_count - sma.null_count
        if non_null:
            self.fold(non_null, sma.sum_value, sma.min_value, sma.max_value)

    def merge(self, other: "AggState") -> None:
        self.fold(other.count, other.total, other.minimum, other.maximum)
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
        self._inputs = query.aggregate_input_columns()
        # (group key, per-item states) in first-seen order, and each key's
        # position; a NaN key equals no key, so it is never indexed.
        self._groups: list[tuple[object, list[AggState]]] = []
        self._index: dict = {}

    def _states_for(self, key) -> list[AggState]:
        if key == key:
            at = self._index.get(key)
            if at is not None:
                return self._groups[at][1]
            self._index[key] = len(self._groups)
        states = []
        for item in self._items:
            state = AggState()
            if item.is_aggregate:
                if item.aggregate == "count" and item.distinct:
                    state.distinct = ExactDistinct()
                elif item.aggregate == "approx_count_distinct":
                    state.distinct = HyperLogLog()
            states.append(state)
        self._groups.append((key, states))
        return states

    def consume_many(self, chunk: RowBatch | RowSelection) -> None:
        """Fold a column chunk (realtime, ``_system``, winner or window
        rows) as one block range of :meth:`consume_columns`: a typed
        memtable vector with no nulls, a value list (a STR column's
        picked rows decoded) as :func:`_list_block` reads it.  An empty
        chunk returns at once."""
        count = len(chunk)
        if not count:
            return
        selection = RowSelection.of(chunk)
        blocks = {}
        for name in self._inputs:
            values = selection.vector(name)
            if values is not None:
                blocks[name] = [(values, np.zeros(count, dtype=bool))]
            elif (values := selection.column(name)) is not None:
                blocks[name] = [_list_block(values)]
        self.consume_columns(blocks, [np.arange(count)])

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

    def consume_columns(self, columns: dict, offsets) -> None:
        """Tier-3 pushdown: fold matched rows straight from decoded blocks.

        ``offsets[i]`` are the matched rows' positions in the i-th
        column-block row range, ``columns[name][i]`` that range's decoded
        block (``LogBlockReader.read_block_arrays``); a column not in the
        dict reads as null.  Groups open in first-seen order and sums add
        in row order, with no python value per row: group ids are DICT
        codes / string ranks / ``np.unique`` ranks, COUNT and SUM
        ``bincount``, MIN/MAX a grouped ``reduceat``, DISTINCT the
        unique (group, value) pairs.
        """
        for i, in_block in enumerate(offsets):
            picked = {name: _pick(ranges[i], in_block) for name, ranges in columns.items()}
            count = len(in_block)
            if self._group_by in picked:
                gid, valid, keys = picked[self._group_by]
                if keys is None:  # numeric / BOOL key: rank the values
                    present = gid[valid]
                    _, at, inverse = np.unique(
                        present, return_index=True, return_inverse=True, equal_nan=False
                    )
                    gid = np.zeros(count, dtype=np.intp)
                    gid[valid] = inverse + 1
                    keys = [None] + present[at].tolist()
            else:
                gid, keys = np.zeros(count, dtype=np.intp), [None]
            size = len(keys)
            rows = np.bincount(gid, minlength=size)
            first = np.full(size, count)
            np.minimum.at(first, gid, np.arange(count))
            seen = np.flatnonzero(rows)
            states = {g: self._states_for(keys[g]) for g in seen[np.argsort(first[seen])].tolist()}
            rows = rows.tolist()
            for position, item in enumerate(self._items):
                if item.is_aggregate and item.column is None:
                    for g, group in states.items():
                        group[position].count += rows[g]  # COUNT(*)
                elif item.is_aggregate and item.column in picked:
                    x, valid, lookup = picked[item.column]
                    ids = gid
                    if not valid.all():
                        ids, x = gid[valid], x[valid]
                    self._fold_item(position, item, states, ids, x, lookup, size)

    def _fold_item(self, position, item, states, ids, x, lookup, size) -> None:
        """Fold the non-null values ``x`` (group ``ids``) of one aggregate."""
        func = item.aggregate
        counts = np.bincount(ids, minlength=size)
        for g, group in states.items():
            group[position].count += int(counts[g])
        if func in ("sum", "avg"):
            if lookup is not None:  # ranks: sum the numbers they stand for
                x = np.array([v if type(v) in (int, float) else 0 for v in lookup], float)[x]
            # Seeded with the running totals: bincount then adds each
            # group's values to its total one by one, in row order.
            seeds = [group[position].total for group in states.values()]
            totals = np.bincount(
                np.concatenate((list(states), ids)),
                weights=np.concatenate((seeds, x)),
                minlength=size,
            )
            for g, group in states.items():
                group[position].total = float(totals[g])
        elif func in ("min", "max"):
            # NaN-skipping grouped reduce: an all-NaN group stays NaN and
            # folds nothing (a NaN is no bound).
            reduce = np.fmin if func == "min" else np.fmax
            filled = np.flatnonzero(counts)
            starts = (np.cumsum(counts) - counts)[filled]
            grouped = x[np.argsort(ids, kind="stable")]
            bounds = reduce.reduceat(grouped, starts)
            if grouped.dtype == np.float64 and not bounds.all():
                # -0.0 == 0.0: a zero bound is the group's first zero.
                zeros = np.flatnonzero(grouped == 0)
                first = zeros[np.searchsorted(zeros, starts).clip(max=len(zeros) - 1)]
                bounds = np.where(bounds == 0, grouped[first], bounds)
            for g, bound in zip(filled.tolist(), bounds.tolist()):
                if bound == bound:
                    value = bound if lookup is None else lookup[bound]
                    low, high = (value, None) if func == "min" else (None, value)
                    states[g][position].fold(0, None, low, high)
        if item.distinct or func == "approx_count_distinct":
            order = np.lexsort((x, ids))
            x, ids = x[order], ids[order]
            fresh = np.ones(len(x), dtype=bool)
            fresh[1:] = (x[1:] != x[:-1]) | (ids[1:] != ids[:-1])
            values = x[fresh].tolist()
            if lookup is not None:
                values = [lookup[rank] for rank in values]
            for g, value in zip(ids[fresh].tolist(), values):
                states[g][position].distinct.add(value)

    def merge(self, other: "Aggregator") -> None:
        """Combine another shard's partial aggregation into this one."""
        for key, states in other._groups:
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
        for key, states in self._groups:
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
        # No ORDER BY (so ascending): groups come out in key order.
        by = self._query.order_by or self._group_by
        if by is None:
            return rows[: self._query.limit]
        keys = [row.get(by) for row in rows]
        order = top_k_order(keys, desc=self._query.order_desc, limit=self._query.limit)
        return [rows[i] for i in order.tolist()]


def order_limit(query: ParsedQuery, keys: list | None, count: int):
    """Positions of the rows ORDER BY / LIMIT keep, in output order.

    ``keys`` is the ORDER BY column, one value per row (``None`` when no
    row carries it, which orders nothing).  ``None`` back means every
    row, as it stands.  The order is :func:`top_k_order`'s, the one
    order of every result.
    """
    limit = query.limit
    if query.order_by is None or keys is None:
        return None if limit is None or limit >= count else range(limit)
    return top_k_order(keys, desc=query.order_desc, limit=limit).tolist()


def result_rows(
    query: ParsedQuery, chunk: RowBatch, names: list[str] | None = None
) -> list[dict]:
    """What ``query`` returns over its matched rows ``chunk``: the
    aggregate fold, or ORDER BY / LIMIT and then dicts of the rows kept
    only, with the columns ``names`` (by default the projection, every
    column of the chunk for ``SELECT *``)."""
    if query.is_aggregate:
        aggregator = Aggregator(query)
        aggregator.consume_many(chunk)
        return aggregator.results()
    if names is None and not query.select_star:
        names = query.projected_columns()
    keys = None if query.order_by is None else chunk.column(query.order_by)
    return chunk.to_dicts(order_limit(query, keys, len(chunk)), names)


# A value list of these kinds is the block its column archives as.
_VECTOR_KINDS = {
    frozenset({int}): np.int64,
    frozenset({float}): np.float64,
    frozenset({int, float}): np.float64,
    frozenset({bool}): np.bool_,
}


def _list_block(values: list) -> tuple:
    """A value list as a decoded block: ints, floats or bools as the
    ``(vector, nulls)`` their column archives as (so a NaN is never a
    set member or dict key), anything else ranked like a DICT block."""
    dtype = _VECTOR_KINDS.get(frozenset(map(type, values)) - {NoneType})
    if dtype is not None:
        array, nulls = object_column(values)
        array[nulls] = 0
        try:
            return array.astype(dtype), nulls
        except OverflowError:  # an int beyond int64: ranked, exact
            pass
    terms, ranks = rank_strings(values)
    return ranks, tuple(terms), ranks == 0


def _pick(block, offsets: np.ndarray):
    """The rows at ``offsets`` of a decoded block as ``(x, valid, lookup)``.

    Numeric / BOOL: ``x`` the values, ``lookup`` ``None``.  Strings:
    ``x`` integer ranks that order as the values do, 0 for a null, and
    ``lookup[rank]`` the value.  ``valid`` masks the non-null rows.
    """
    if isinstance(block, Strings):
        terms, ranks = rank_strings(block.pick(offsets))
        return ranks, ranks != 0, [None] + terms
    if len(block) == 3:
        codes, dictionary, nulls = block
        ranks = np.where(nulls[offsets], 0, codes[offsets])
        return ranks, ranks != 0, (None,) + dictionary
    values, nulls = block
    return values[offsets], ~nulls[offsets], None
