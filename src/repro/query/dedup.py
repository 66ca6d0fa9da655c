"""Latest-version deduplication for append-only versioned tables.

A versioned table (``CREATE TABLE ... VERSION BY key``) treats every
INSERT as an UPDATE: rows are immutable and append-only (the LogBase
"log as database" model), and a read of the *current* state keeps only
the newest row per key.  SQL expresses that with the window idiom::

    SELECT ... FROM (
        SELECT *, ROW_NUMBER() OVER (
            PARTITION BY key ORDER BY version DESC) AS rn
        FROM t WHERE ...
    ) WHERE rn = 1

The naive plan materializes every version of every key and ranks them
after the fact.  The :class:`LatestVersionDedup` operator instead runs
the tournament on narrow ``(key, version)`` columns and materializes
only the winners — the semantic rewriter (:mod:`repro.frontdoor.rewrite`)
maps the window idiom onto it.

Both paths share one winner definition (:class:`LatestVersionDedup`),
so the differential tests can require *byte-identical* output:

* the winning row of a key is the one with the greatest version;
* version ties break toward the later arrival (INSERT-as-UPDATE: the
  last write wins), which the executor guarantees by offering rows in
  stream order;
* a null version loses to any non-null version;
* output rows appear in the stream order of their winning offer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.query.aggregate import Aggregator, apply_order_limit
from repro.query.ast import Expr
from repro.query.kernels import filter_rows
from repro.query.sql import ParsedQuery, SelectItem, WindowFunc


@dataclass(frozen=True)
class DedupSpec:
    """Plan-level description of a latest-version dedup.

    ``post_filter`` holds outer-query conjuncts that must run *after*
    the tournament (filtering versions before ranking them would change
    which row wins — e.g. ``status = 'done'`` must not resurrect an old
    finished version of a run whose latest version is still running).
    """

    key_column: str
    version_column: str
    post_filter: Expr | None = None

    def describe(self) -> str:
        text = f"partition by {self.key_column} order by {self.version_column} desc"
        if self.post_filter is not None:
            text += ", post-filter applied to winners"
        return text


def version_sort_key(version):
    """Total order over version values with nulls first (= weakest)."""
    return (version is not None, version)


@dataclass
class _Entry:
    version: object
    seq: int
    payload: object


@dataclass
class LatestVersionDedup:
    """Streaming one-pass tournament: newest row per key wins.

    ``offer`` consumes ``(key, version, payload)`` triples in stream
    order; ``winners`` returns the surviving entries ordered by the
    stream position of the *winning* offer, which is what makes the
    operator's output order reproducible and identical between the
    archived columnar path and the naive materialization.
    """

    _entries: dict = field(default_factory=dict)
    _seq: int = 0
    offers: int = 0

    def offer(self, key, version, payload) -> None:
        seq = self._seq
        self._seq += 1
        self.offers += 1
        current = self._entries.get(key)
        if current is None or version_sort_key(version) >= version_sort_key(current.version):
            # >= : a tie goes to the later arrival (last write wins).
            self._entries[key] = _Entry(version=version, seq=seq, payload=payload)

    def winners(self) -> list[_Entry]:
        return sorted(self._entries.values(), key=lambda entry: entry.seq)

    def __len__(self) -> int:
        return len(self._entries)


def window_dedup_rows(rows: list[dict], key_column: str, version_column: str) -> list[dict]:
    """Reference dedup over fully materialized rows.

    Runs the exact same tournament the plan operator runs, so the
    differential tests can compare operator output against this on the
    same input and require equality byte for byte.
    """
    dedup = LatestVersionDedup()
    for row in rows:
        dedup.offer(row.get(key_column), row.get(version_column), row)
    return [entry.payload for entry in dedup.winners()]


def apply_window(rows: list[dict], window: WindowFunc) -> list[dict]:
    """Materialize a ROW_NUMBER window over row dicts (the naive plan).

    Returns copies of the input rows (original order preserved) with
    the rank stored under ``window.alias``.  Within a partition the
    sort is stable on :func:`version_sort_key`, so rank 1 with DESC is
    the latest arrival among maximal versions — the same winner the
    dedup operator picks.
    """
    partitions: dict = {}
    for index, row in enumerate(rows):
        partitions.setdefault(row.get(window.partition_by), []).append(index)
    ranked = [dict(row) for row in rows]
    for indices in partitions.values():
        ordered = sorted(
            indices,
            key=lambda i: version_sort_key(rows[i].get(window.order_by)),
            reverse=window.order_desc,
        )
        if window.order_desc:
            # Stable descending sort puts the *earlier* arrival first
            # among ties; INSERT-as-UPDATE wants the later one. Within
            # each equal-version run, reverse back to reversed-stream
            # order so rank 1 is the last write.
            ordered = _latest_first_within_ties(ordered, rows, window.order_by)
        for rank, i in enumerate(ordered, start=1):
            ranked[i][window.alias] = rank
    return ranked


def _latest_first_within_ties(ordered: list[int], rows: list[dict], order_by: str) -> list[int]:
    out: list[int] = []
    run: list[int] = []
    run_key = object()
    for i in ordered:
        key = version_sort_key(rows[i].get(order_by))
        if run and key != run_key:
            out.extend(reversed(run))
            run = []
        run.append(i)
        run_key = key
    out.extend(reversed(run))
    return out


def run_window_query(outer: ParsedQuery, rows: list[dict]) -> list[dict]:
    """Execute the naive two-level window query over materialized rows.

    ``rows`` are the inner query's matches (already filtered by the
    inner WHERE).  Applies the window, evaluates the outer WHERE on the
    ranked rows, strips the window alias, and finalizes projection /
    aggregation / ORDER BY / LIMIT.
    """
    inner = outer.subquery
    if inner is None or inner.window is None:
        raise ValueError("run_window_query requires an outer query over a window subquery")
    ranked = apply_window(rows, inner.window)
    if outer.where is not None:
        ranked = filter_rows(outer.where, ranked)
    alias = inner.window.alias
    for row in ranked:
        row.pop(alias, None)
    return finalize_outer(outer, ranked)


def naive_scan_query(outer: ParsedQuery) -> ParsedQuery:
    """The inner scan the naive window plan executes: every version,
    every column, filtered only by the inner WHERE."""
    inner = outer.subquery
    if inner is None:
        raise ValueError("naive_scan_query requires a subquery")
    return ParsedQuery(
        table=inner.table,
        select=[SelectItem(column=None, aggregate=None)],
        where=inner.where,
        select_star=True,
        raw_sql=outer.raw_sql,
    )


def finalize_outer(query: ParsedQuery, rows: list[dict]) -> list[dict]:
    """Outer-query finalization shared by the naive and operator paths."""
    if query.is_aggregate:
        aggregator = Aggregator(query)
        aggregator.consume_many(rows)
        return aggregator.results()
    rows = apply_order_limit(query, rows)
    if query.select_star:
        return rows
    columns = query.projected_columns()
    return [{column: row.get(column) for column in columns} for row in rows]
