"""Data-skipping inside one LogBlock (§5.1, Figure 8, steps 2–4).

Given a conjunction of single-column predicates this module decides,
per column and per column block, whether data can be skipped, and
evaluates predicates the cheapest way available:

* step 2 — the whole column is skipped when its column-level SMA proves
  no row can match (e.g. ``fail = 'false'`` vs a column whose min==max
  =='true');
* step 3 — for indexed columns, the row ids matching the predicate are
  collected by reading the (much smaller) index instead of the data;
* step 4 — for unindexed columns, individual column blocks are skipped
  by their block-level SMA; surviving blocks are decompressed and
  scanned sequentially.

Every step answers with a bool row mask, and the per-predicate masks
are ANDed to form the final match set (Figure 8: "After merging the
rowid set ... the log data can be finally loaded according to it").
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Protocol

import numpy as np

from repro.common.errors import QueryError
from repro.common.strings import Strings
from repro.logblock.column import block_values
from repro.logblock.inverted import InvertedIndex
from repro.logblock.reader import LogBlockReader
from repro.logblock.schema import ColumnSpec, ColumnType, IndexType
from repro.logblock.sma import Sma
from repro.logblock.tokenizer import normalize_term, tokenize, tokenize_column


class ColumnPredicate(Protocol):
    """A predicate over a single column, applied within one LogBlock."""

    column: str

    def may_match_sma(self, sma: Sma, ctype: ColumnType) -> bool:
        """Whether a region with this SMA, of a column of type ``ctype``,
        could contain matches."""
        ...


@dataclass(frozen=True)
class EqPredicate:
    """``column = value``."""

    column: str
    value: object

    def may_match_sma(self, sma: Sma, ctype: ColumnType) -> bool:
        return sma.may_contain_eq(self.value)

    def matches_all_sma(self, sma: Sma, ctype: ColumnType) -> bool:
        return sma.all_eq_any(ctype, (self.value,))


@dataclass(frozen=True)
class RangePredicate:
    """``low <(=) column <(=) high`` with open ends allowed."""

    column: str
    low: object = None
    high: object = None
    low_inclusive: bool = True
    high_inclusive: bool = True

    def may_match_sma(self, sma: Sma, ctype: ColumnType) -> bool:
        return sma.may_contain_range(self.low, self.high, self.low_inclusive, self.high_inclusive)

    def matches_all_sma(self, sma: Sma, ctype: ColumnType) -> bool:
        return sma.all_in_range(
            ctype, self.low, self.high, self.low_inclusive, self.high_inclusive
        )


@dataclass(frozen=True)
class NePredicate:
    """``column != value`` (nulls excluded, like every other predicate).

    Not index-answerable (the inverted-index complement would wrongly
    include nulls); prunable only when the SMA proves min == max == value
    (every non-null row equals ``value``, so nothing can differ).  A
    FLOAT64 column proves nothing from equal bounds: they skip the NaNs,
    which differ from every value.
    """

    column: str
    value: object

    def may_match_sma(self, sma: Sma, ctype: ColumnType) -> bool:
        if sma.all_null:
            return False
        return (
            ctype is ColumnType.FLOAT64
            or sma.min_value is None
            or not sma.min_value == sma.max_value == self.value
        )


@dataclass(frozen=True)
class InPredicate:
    """``column IN (v1, v2, ...)``."""

    column: str
    values: tuple

    def may_match_sma(self, sma: Sma, ctype: ColumnType) -> bool:
        return any(sma.may_contain_eq(v) for v in self.values)

    def matches_all_sma(self, sma: Sma, ctype: ColumnType) -> bool:
        return sma.all_eq_any(ctype, self.values)


@dataclass(frozen=True)
class NullPredicate:
    """``column IS NULL`` — the one predicate that *selects* nulls.

    SMA null counts answer it exactly at both granularities:
    ``null_count == 0`` prunes a region outright, and
    ``null_count == row_count`` proves every row matches without
    reading a single value (``matches_all_sma``).
    """

    column: str

    def may_match_sma(self, sma: Sma, ctype: ColumnType) -> bool:
        return sma.null_count > 0

    def matches_all_sma(self, sma: Sma, ctype: ColumnType) -> bool:
        return sma.null_count == sma.row_count


@dataclass(frozen=True)
class NotNullPredicate:
    """``column IS NOT NULL`` — matches every row with a value.

    The pushdown-friendly form the semantic rewriter produces from
    ``NOT (col IS NULL)``: unlike a generic NOT wrapper it prunes via
    SMA null counts and short-circuits whole all-valued regions.
    """

    column: str

    def may_match_sma(self, sma: Sma, ctype: ColumnType) -> bool:
        return sma.null_count < sma.row_count

    def matches_all_sma(self, sma: Sma, ctype: ColumnType) -> bool:
        return sma.null_count == 0


def _prefix_successor(prefix: str) -> str | None:
    """Smallest string greater than every string starting with ``prefix``.

    None when no successor exists (prefix is all U+10FFFF).
    """
    for i in reversed(range(len(prefix))):
        code = ord(prefix[i])
        if code < 0x10FFFF:
            return prefix[:i] + chr(code + 1)
    return None


@dataclass(frozen=True)
class PrefixPredicate:
    """``column LIKE 'prefix%'`` on an untokenized string column.

    Case-sensitive (standard SQL LIKE), answerable from the inverted
    index via a term-range scan (:meth:`InvertedIndex.lookup_prefix`)
    because untokenized indexes store raw values in sorted order.
    """

    column: str
    prefix: str

    def may_match_sma(self, sma: Sma, ctype: ColumnType) -> bool:
        if sma.all_null or sma.min_value is None:
            return False
        if not self.prefix:
            return True  # empty prefix matches any non-null value
        # Matches occupy the key range [prefix, successor(prefix)).
        if str(sma.max_value) < self.prefix:
            return False
        successor = _prefix_successor(self.prefix)
        if successor is not None and str(sma.min_value) >= successor:
            return False
        return True


@dataclass(frozen=True)
class MatchPredicate:
    """Full-text ``MATCH(column, 'terms ...')`` — all terms must appear."""

    column: str
    query: str

    @cached_property
    def terms(self) -> tuple[str, ...]:
        return tuple(tokenize(self.query))

    def may_match_sma(self, sma: Sma, ctype: ColumnType) -> bool:
        # min/max of raw strings cannot disprove token containment, but an
        # all-null region provably has no matches.
        return not sma.all_null


def index_answers(spec: ColumnSpec, predicate: ColumnPredicate) -> bool:
    """Whether the column's index answers ``predicate``'s shape: an
    inverted index MATCH, and on an untokenized column Eq, IN and a
    LIKE prefix; a numeric index Eq, IN and ranges.  Any other leaf is
    scanned, and its index is neither fetched nor opened for it."""
    if spec.index is IndexType.INVERTED:
        exact = (EqPredicate, InPredicate, PrefixPredicate)
        return isinstance(predicate, MatchPredicate) or (
            not spec.tokenize and isinstance(predicate, exact)
        )
    if spec.index is IndexType.BKD:
        return isinstance(predicate, (EqPredicate, InPredicate, RangePredicate))
    return False


def _index_mask(reader: LogBlockReader, predicate: ColumnPredicate) -> np.ndarray | None:
    """The row mask of ``predicate`` from the column index, when it can
    answer it (Figure 8 step 3).

    Returns ``None`` when the predicate shape (or a numeric literal) is
    not index-answerable, in which case the caller falls back to scanning.
    """
    spec = reader.column(predicate.column)
    if not index_answers(spec, predicate):
        return None
    rows = _index_rows(reader.read_index(predicate.column), predicate)
    if rows is None:
        return None
    mask = np.zeros(reader.row_count, dtype=bool)
    mask[rows] = True
    return mask


def _index_rows(index, predicate: ColumnPredicate) -> np.ndarray | None:
    """The row ids the index holds for a predicate it answers
    (:func:`index_answers`), in any order and a row possibly twice; None
    for a numeric literal the index cannot compare."""
    if isinstance(predicate, MatchPredicate):
        return index.match_all([normalize_term(t) for t in predicate.terms])
    if isinstance(predicate, PrefixPredicate):
        return index.lookup_prefix(predicate.prefix)
    if isinstance(index, InvertedIndex):
        if isinstance(predicate, EqPredicate):
            return index.lookup(str(predicate.value))
        return index.match_any(str(value) for value in predicate.values)
    if isinstance(predicate, EqPredicate):
        return index.range_rows(predicate.value, predicate.value)
    if isinstance(predicate, RangePredicate):
        return index.range_rows(
            predicate.low, predicate.high, predicate.low_inclusive, predicate.high_inclusive
        )
    return index.in_rows(predicate.values)


def object_column(values: list) -> tuple[np.ndarray, np.ndarray]:
    """``(values, null_mask)`` of Python values (``None`` = null) as an
    object array: the form a value list, a PLAIN string block and dict
    rows are evaluated in."""
    array = np.empty(len(values), dtype=object)
    array[:] = values
    return array, np.equal(array, None)


def column_mask(predicate: ColumnPredicate, column) -> np.ndarray:
    """The rows of one decoded column that ``predicate`` matches.

    The one place a predicate meets a value (§8 vectorized execution),
    for archived blocks, realtime selections and dict rows alike.
    ``column`` is ``(values, null_mask)`` — values a typed int64 /
    float64 / bool vector or an object array — or a DICT block's
    ``(codes, dictionary, null_mask)``; a PLAIN block's
    :class:`~repro.common.strings.Strings` reads as object values.

    Semantics are Python's, value by value: ``==`` and ``<`` as Python
    compares the value with the literal (a typed vector meets a literal
    of another kind as Python objects, so mixed types and ints beyond
    int64 compare exactly, and ordering a str against a number raises
    ``TypeError``), IN as ``==`` against each literal, LIKE as
    ``str(value).startswith``, MATCH as every query token among the
    value's tokens.  A NaN equals nothing and lies in no range.  Nulls
    never reach a comparison: they match IS NULL and nothing else.
    """
    if isinstance(column, Strings):
        column = object_column(block_values(column))
    if len(column) == 3:
        mask = dict_codes_block_mask(predicate, *column)
        if mask is not None:
            return mask
        codes, dictionary, null_mask = column
        column = np.array((None, *dictionary), dtype=object)[codes], null_mask
    values, null_mask = column
    if isinstance(predicate, NullPredicate):
        return null_mask.copy()
    if isinstance(predicate, NotNullPredicate):
        return ~null_mask
    if not null_mask.any():
        return _values_mask(predicate, values)
    present = ~null_mask
    mask = np.zeros(len(values), dtype=bool)
    mask[present] = _values_mask(predicate, values[present])
    return mask


def _values_mask(predicate: ColumnPredicate, values: np.ndarray) -> np.ndarray:
    """:func:`column_mask` over values none of which is null."""
    if isinstance(predicate, EqPredicate):
        return _compare(operator.eq, values, predicate.value)
    if isinstance(predicate, NePredicate):
        return _compare(operator.ne, values, predicate.value)
    if isinstance(predicate, InPredicate):
        mask = np.zeros(len(values), dtype=bool)
        for literal in predicate.values:
            mask |= _compare(operator.eq, values, literal)
        return mask
    if isinstance(predicate, RangePredicate):
        mask = np.ones(len(values), dtype=bool)
        if predicate.low is not None:
            op = operator.ge if predicate.low_inclusive else operator.gt
            mask &= _compare(op, values, predicate.low)
        if predicate.high is not None:
            op = operator.le if predicate.high_inclusive else operator.lt
            mask &= _compare(op, values, predicate.high)
        return mask
    if isinstance(predicate, PrefixPredicate):
        prefix = predicate.prefix
        return np.fromiter(
            (str(value).startswith(prefix) for value in values.tolist()),
            dtype=bool,
            count=len(values),
        )
    if isinstance(predicate, MatchPredicate):
        # Token i came from value rows[i]; a value matches when each
        # term is among its tokens.
        tokens, rows = tokenize_column(values.tolist())
        tokens = np.array(tokens, dtype=object)
        mask = np.ones(len(values), dtype=bool)
        for term in set(predicate.terms):
            has_term = np.zeros(len(values), dtype=bool)
            has_term[rows[tokens == term]] = True
            mask &= has_term
        return mask
    raise QueryError(f"no evaluation for {type(predicate).__name__}")


def _compare(op, values: np.ndarray, literal) -> np.ndarray:
    """``op(value, literal)`` for every value, as Python compares them.

    A typed vector compares natively only with a literal its dtype
    holds exactly; against any other it is compared as Python objects.
    Ordering against a NaN raises the FP "invalid" flag, which Python
    ignores and so does this.
    """
    kind = type(literal)
    if values.dtype == np.int64:
        native = kind is int and -(1 << 63) <= literal < 1 << 63
    elif values.dtype == np.float64:
        native = kind is float or (kind is int and -(1 << 53) <= literal <= 1 << 53)
    else:
        native = values.dtype == np.bool_ and kind is bool
    if not native and values.dtype != object:
        values = values.astype(object)
    with np.errstate(invalid="ignore"):
        return np.asarray(op(values, literal), dtype=bool)


def dict_codes_block_mask(
    predicate: ColumnPredicate,
    codes: np.ndarray,
    dictionary: tuple,
    null_mask: np.ndarray,
) -> np.ndarray | None:
    """Predicate mask over a DICT-encoded string block, as int compares.

    The dictionary is sorted ascending and code ``i + 1`` denotes
    ``dictionary[i]`` (0 = null), so codes are order-isomorphic to the
    values: equality/IN become needle-code compares and ranges become
    code intervals found by binary search — no string is materialized.
    Returns ``None`` for shapes with no code form (MATCH, non-string
    range bounds): :func:`column_mask` then reads the values through the
    dictionary.  A non-string literal equals no stored string.
    """
    not_null = ~null_mask
    if isinstance(predicate, NullPredicate):
        return null_mask.copy()
    if isinstance(predicate, NotNullPredicate):
        return not_null.copy()
    if isinstance(predicate, EqPredicate):
        needle = predicate.value
        if isinstance(needle, str):
            idx = bisect_left(dictionary, needle)
            if idx < len(dictionary) and dictionary[idx] == needle:
                return codes == idx + 1  # code > 0 ⇒ non-null
        # A non-string needle (or an absent string) equals no stored value.
        return np.zeros_like(null_mask)
    if isinstance(predicate, NePredicate):
        needle = predicate.value
        if isinstance(needle, str):
            idx = bisect_left(dictionary, needle)
            if idx < len(dictionary) and dictionary[idx] == needle:
                return not_null & (codes != idx + 1)
        return not_null.copy()
    if isinstance(predicate, InPredicate):
        targets = []
        for needle in predicate.values:
            if isinstance(needle, str):
                idx = bisect_left(dictionary, needle)
                if idx < len(dictionary) and dictionary[idx] == needle:
                    targets.append(idx + 1)
        if not targets:
            return np.zeros_like(null_mask)
        return np.isin(codes, np.asarray(targets, dtype=codes.dtype))
    if isinstance(predicate, RangePredicate):
        if predicate.low is not None and not isinstance(predicate.low, str):
            return None
        if predicate.high is not None and not isinstance(predicate.high, str):
            return None
        low_code = 1
        high_code = len(dictionary)
        if predicate.low is not None:
            side = bisect_left if predicate.low_inclusive else bisect_right
            low_code = side(dictionary, predicate.low) + 1
        if predicate.high is not None:
            side = bisect_right if predicate.high_inclusive else bisect_left
            high_code = side(dictionary, predicate.high)
        return not_null & (codes >= low_code) & (codes <= high_code)
    if isinstance(predicate, PrefixPredicate):
        # Matches occupy the contiguous key range [prefix, successor).
        low_code = bisect_left(dictionary, predicate.prefix) + 1
        successor = _prefix_successor(predicate.prefix)
        high_code = (
            len(dictionary) if successor is None else bisect_left(dictionary, successor)
        )
        return not_null & (codes >= low_code) & (codes <= high_code)
    return None


def proves_all_match(predicate: ColumnPredicate, sma: Sma, ctype: ColumnType) -> bool:
    """Whether ``sma`` proves every row of its region matches.

    The all-match counterpart of ``may_match_sma`` for the predicate
    shapes that have one (``matches_all_sma``); true means the region
    is answered with zero reads.  ``ctype`` is the column's type: what
    bounds can prove depends on it (a FLOAT64 column may hold NaNs).
    """
    matches_all = getattr(predicate, "matches_all_sma", None)
    return matches_all is not None and matches_all(sma, ctype)


@dataclass
class PruneStats:
    """What the skipping strategy avoided, for the Fig 15 bench."""

    columns_pruned: int = 0
    blocks_pruned: int = 0
    blocks_scanned: int = 0
    index_lookups: int = 0
    blooms_pruned: int = 0  # whole-LogBlock skips via Bloom "definitely absent"
    blocks_short_circuited: int = 0  # blocks proven all-matching by SMA alone
    columns_short_circuited: int = 0  # same proof from the column SMA: zero reads
    rows_vectorized: int = 0  # rows of scanned blocks a predicate was evaluated on


def evaluate_predicates(
    reader: LogBlockReader,
    predicates: list[ColumnPredicate],
    use_skipping: bool = True,
    use_indexes: bool = True,
    stats: PruneStats | None = None,
) -> np.ndarray:
    """The bool mask of the rows in this LogBlock matching *all* predicates.

    With ``use_skipping=False`` every predicate is evaluated by brute
    scan of every block (the Figure 15 baseline).  ``use_indexes=False``
    disables step 3 while keeping SMA pruning (an ablation point).
    """
    row_count = reader.row_count
    mask = None  # every row, until a predicate narrows it
    stats = stats if stats is not None else PruneStats()

    for predicate in predicates:
        if mask is not None and not mask.any():
            break
        if use_skipping:
            column_sma = reader.column_sma(predicate.column)
            ctype = reader.column(predicate.column).ctype
            if not predicate.may_match_sma(column_sma, ctype):
                # Figure 8 step 2: whole column disproved; no rows match.
                stats.columns_pruned += 1
                return np.zeros(row_count, dtype=bool)
            if proves_all_match(predicate, column_sma, ctype):
                # The column SMA proves every row matches (e.g. IS NOT
                # NULL over a column with zero nulls, ``tenant_id = 7``
                # over a single-tenant block) — zero reads.
                stats.columns_short_circuited += 1
                continue
            if not bloom_may_match(reader, predicate):
                # Bloom filter proves the needle is absent from this
                # whole LogBlock — skip without touching the index.
                stats.blooms_pruned += 1
                return np.zeros(row_count, dtype=bool)
            part = _index_mask(reader, predicate) if use_indexes else None
            if part is not None:
                stats.index_lookups += 1
            else:
                part = _scan_blocks(reader, predicate, stats, prune_blocks=True)
        else:
            part = _scan_blocks(reader, predicate, stats, prune_blocks=False)
        if mask is None:
            mask = part
        else:
            mask &= part
    return np.ones(row_count, dtype=bool) if mask is None else mask


def bloom_may_match(reader: LogBlockReader, predicate: ColumnPredicate) -> bool:
    """Bloom-filter check for equality-shaped string predicates.

    True means "may match" (including: no bloom available, or a
    predicate shape blooms cannot answer).
    """
    if isinstance(predicate, EqPredicate):
        if not isinstance(predicate.value, str) or not reader.has_bloom(predicate.column):
            return True
        bloom = reader.read_bloom(predicate.column)
        return bloom is None or bloom.might_contain(predicate.value)
    if isinstance(predicate, InPredicate):
        if not reader.has_bloom(predicate.column):
            return True
        if not all(isinstance(v, str) for v in predicate.values):
            return True
        bloom = reader.read_bloom(predicate.column)
        if bloom is None:
            return True
        return any(bloom.might_contain(v) for v in predicate.values)
    return True


def _scan_blocks(
    reader: LogBlockReader,
    predicate: ColumnPredicate,
    stats: PruneStats,
    prune_blocks: bool,
) -> np.ndarray:
    """Scan-path evaluation of one predicate over the column blocks, as
    a row mask.

    ``prune_blocks`` applies the Figure 8 step-4 block-level SMA skip.
    Each surviving block is decoded and evaluated by :func:`column_mask`.
    """
    meta = reader.meta()
    col_idx = meta.schema.column_index(predicate.column)
    ctype = meta.schema.columns[col_idx].ctype
    full_mask = np.zeros(meta.row_count, dtype=bool)
    base = 0
    for block_idx, block_rows in enumerate(meta.block_row_counts):
        header = meta.block_header(predicate.column, block_idx)
        if prune_blocks and not predicate.may_match_sma(header.sma, ctype):
            stats.blocks_pruned += 1
            base += block_rows
            continue
        if prune_blocks and proves_all_match(predicate, header.sma, ctype):
            full_mask[base : base + block_rows] = True
            stats.blocks_short_circuited += 1
            base += block_rows
            continue
        stats.blocks_scanned += 1
        stats.rows_vectorized += block_rows
        arrays = reader.read_block_arrays(predicate.column, block_idx)
        full_mask[base : base + block_rows] = column_mask(predicate, arrays)
        base += block_rows
    return full_mask


def validate_predicate_types(reader_schema, predicates: list[ColumnPredicate]) -> None:
    """Fail fast if a predicate references a column the schema lacks."""
    names = set(reader_schema.column_names())
    for predicate in predicates:
        if predicate.column not in names:
            raise QueryError(f"predicate references unknown column {predicate.column!r}")
        spec = reader_schema.column(predicate.column)
        if isinstance(predicate, MatchPredicate) and spec.ctype is not ColumnType.STRING:
            raise QueryError(f"MATCH requires a STRING column, got {spec.ctype.name}")
