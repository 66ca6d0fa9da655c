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

Both paths share one winner definition, so the differential tests can
require *byte-identical* output:

* the winning row of a key is the one with the greatest version;
* version ties break toward the later arrival (INSERT-as-UPDATE: the
  last write wins), which the executor guarantees by offering rows in
  stream order;
* a null version loses to any non-null version;
* output rows appear in the stream order of their winning offer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.query.aggregate import result_rows
from repro.query.ast import Expr
from repro.query.kernels import filter_chunk
from repro.query.sql import ParsedQuery, SelectItem, WindowFunc
from repro.rowstore.batch import RowBatch


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

    def offer_many(self, keys, versions, source, rows) -> None:
        """Offer key and version vectors in order, with the handles
        ``(source, rows[i])``: a reader and row id, or a chunk and row."""
        for key, version, row in zip(keys, versions, rows):
            self.offer(key, version, (source, row))

    def winners(self) -> list[_Entry]:
        return sorted(self._entries.values(), key=lambda entry: entry.seq)

    def __len__(self) -> int:
        return len(self._entries)


def apply_window(chunk: RowBatch, window: WindowFunc) -> RowBatch:
    """A ROW_NUMBER window over a column chunk (the naive plan): the
    chunk with the rank appended as the column ``window.alias``.

    Within a partition the sort is stable on :func:`version_sort_key`,
    so rank 1 with DESC is the latest arrival among maximal versions —
    the same winner the dedup operator picks.
    """
    keys, versions = chunk.take(None, (window.partition_by, window.order_by)).columns
    partitions: dict = {}
    for index, key in enumerate(keys):
        partitions.setdefault(key, []).append(index)
    ranks = [0] * len(chunk)
    for indices in partitions.values():
        ordered = sorted(
            indices, key=lambda i: version_sort_key(versions[i]), reverse=window.order_desc
        )
        if window.order_desc:
            # Stable descending sort puts the *earlier* arrival first
            # among ties; INSERT-as-UPDATE wants the later one. Within
            # each equal-version run, reverse back to reversed-stream
            # order so rank 1 is the last write.
            ordered = _latest_first_within_ties(ordered, versions)
        for rank, i in enumerate(ordered, start=1):
            ranks[i] = rank
    return RowBatch((*chunk.names, window.alias), [*chunk.columns, ranks])


def _latest_first_within_ties(ordered: list[int], versions: list) -> list[int]:
    out: list[int] = []
    run: list[int] = []
    run_key = object()
    for i in ordered:
        key = version_sort_key(versions[i])
        if run and key != run_key:
            out.extend(reversed(run))
            run = []
        run.append(i)
        run_key = key
    out.extend(reversed(run))
    return out


def run_window_query(outer: ParsedQuery, chunk: RowBatch) -> list[dict]:
    """Execute the naive two-level window query over a column chunk.

    ``chunk`` holds the inner query's matches (already filtered by the
    inner WHERE).  Applies the window, evaluates the outer WHERE on the
    ranked rows, drops the window alias, and finalizes projection /
    aggregation / ORDER BY / LIMIT (:func:`result_rows`).
    """
    inner = outer.subquery
    if inner is None or inner.window is None:
        raise ValueError("run_window_query requires an outer query over a window subquery")
    ranked = apply_window(chunk, inner.window)
    if outer.where is not None:
        ranked = filter_chunk(outer.where, ranked)
    return result_rows(outer, RowBatch(chunk.names, ranked.columns[:-1]))


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
