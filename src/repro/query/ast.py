"""Predicate/expression AST for log-retrieval queries.

Leaves are single-column comparisons (the only shape the paper's query
templates use); boolean AND/OR/NOT combine them.  Each leaf compiles to
a :mod:`repro.logblock.pruning` column predicate: SMA and index
skipping apply to those on LogBlocks, and
:func:`repro.logblock.pruning.column_mask` evaluates them over the
decoded columns of archived blocks, realtime rows and dict rows alike
(:mod:`repro.query.kernels` combines the masks of a tree).

Null semantics are *boolean*, not SQL three-valued: every leaf evaluates
to False on a null value, and NOT flips its child's boolean result (so
``NOT (ip = 'x')`` matches rows with null ``ip``, while ``ip != 'x'``
does not).  This keeps row-store evaluation and LogBlock bitset algebra
exactly consistent.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

from repro.common.errors import QueryError
from repro.logblock.pruning import (
    ColumnPredicate,
    EqPredicate,
    InPredicate,
    MatchPredicate,
    NePredicate,
    NotNullPredicate,
    NullPredicate,
    RangePredicate,
)


class CmpOp(enum.Enum):
    EQ = "="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="


class Expr:
    """Base class for expression nodes."""

    def columns(self) -> set[str]:
        raise NotImplementedError


@dataclass(frozen=True)
class Comparison(Expr):
    """``column <op> literal``."""

    column: str
    op: CmpOp
    value: object

    def columns(self) -> set[str]:
        return {self.column}

    def to_column_predicate(self) -> ColumnPredicate:
        if self.op is CmpOp.EQ:
            return EqPredicate(self.column, self.value)
        if self.op is CmpOp.NE:
            return NePredicate(self.column, self.value)
        if self.op is CmpOp.LT:
            return RangePredicate(self.column, high=self.value, high_inclusive=False)
        if self.op is CmpOp.LE:
            return RangePredicate(self.column, high=self.value)
        if self.op is CmpOp.GT:
            return RangePredicate(self.column, low=self.value, low_inclusive=False)
        if self.op is CmpOp.GE:
            return RangePredicate(self.column, low=self.value)
        raise AssertionError(f"unhandled op {self.op}")


@dataclass(frozen=True)
class Between(Expr):
    """``column BETWEEN low AND high`` (inclusive both ends, SQL semantics)."""

    column: str
    low: object
    high: object

    def columns(self) -> set[str]:
        return {self.column}

    def to_column_predicate(self) -> ColumnPredicate:
        return RangePredicate(self.column, low=self.low, high=self.high)


@dataclass(frozen=True)
class In(Expr):
    """``column IN (v1, v2, ...)``."""

    column: str
    values: tuple

    def columns(self) -> set[str]:
        return {self.column}

    def to_column_predicate(self) -> ColumnPredicate:
        return InPredicate(self.column, tuple(self.values))


@dataclass(frozen=True)
class Like(Expr):
    """``column LIKE 'prefix%'`` — only prefix patterns are supported.

    Case-sensitive, like standard SQL LIKE (and like the raw-value
    inverted index that answers it).
    """

    column: str
    prefix: str

    def columns(self) -> set[str]:
        return {self.column}

    def to_column_predicate(self) -> ColumnPredicate:
        from repro.logblock.pruning import PrefixPredicate

        return PrefixPredicate(self.column, self.prefix)


@dataclass(frozen=True)
class Match(Expr):
    """Full-text ``MATCH(column, 'query terms')`` — all terms must occur."""

    column: str
    query: str

    def columns(self) -> set[str]:
        return {self.column}

    @cached_property
    def _predicate(self) -> MatchPredicate:
        return MatchPredicate(self.column, self.query)

    def to_column_predicate(self) -> ColumnPredicate:
        return self._predicate  # one per node: the query is tokenised once


@dataclass(frozen=True)
class IsNull(Expr):
    """``column IS NULL`` — the deliberate exception to leaf null
    semantics: this is the one leaf that matches null values (that's
    its whole job).  ``NOT (col IS NULL)`` therefore matches exactly
    the non-null rows, same as :class:`NotNull`.
    """

    column: str

    def columns(self) -> set[str]:
        return {self.column}

    def to_column_predicate(self) -> ColumnPredicate:
        return NullPredicate(self.column)


@dataclass(frozen=True)
class NotNull(Expr):
    """``column IS NOT NULL`` as a pushdown-friendly leaf.

    The parser emits ``Not(IsNull(col))``; the semantic rewriter folds
    that into this node so the LogBlock path can prune via SMA null
    counts instead of materializing a NOT over a bitset.
    """

    column: str

    def columns(self) -> set[str]:
        return {self.column}

    def to_column_predicate(self) -> ColumnPredicate:
        return NotNullPredicate(self.column)


@dataclass(frozen=True)
class And(Expr):
    children: tuple[Expr, ...]

    def __post_init__(self) -> None:
        if len(self.children) < 1:
            raise QueryError("AND requires at least one child")

    def columns(self) -> set[str]:
        out: set[str] = set()
        for child in self.children:
            out |= child.columns()
        return out


@dataclass(frozen=True)
class Or(Expr):
    children: tuple[Expr, ...]

    def __post_init__(self) -> None:
        if len(self.children) < 1:
            raise QueryError("OR requires at least one child")

    def columns(self) -> set[str]:
        out: set[str] = set()
        for child in self.children:
            out |= child.columns()
        return out


@dataclass(frozen=True)
class Not(Expr):
    child: Expr

    def columns(self) -> set[str]:
        return self.child.columns()


def conjuncts(expr: Expr) -> list[Expr]:
    """Flatten nested ANDs into a conjunct list (top-level only)."""
    if isinstance(expr, And):
        out: list[Expr] = []
        for child in expr.children:
            out.extend(conjuncts(child))
        return out
    return [expr]


def extract_eq(expr: Expr, column: str) -> object | None:
    """Value of a top-level ``column = value`` conjunct, if present."""
    for node in conjuncts(expr):
        if isinstance(node, Comparison) and node.op is CmpOp.EQ and node.column == column:
            return node.value
        if isinstance(node, In) and node.column == column and len(node.values) == 1:
            return node.values[0]
    return None


def extract_ts_range(expr: Expr, column: str) -> tuple[object | None, object | None]:
    """(min, max) bound on ``column`` implied by top-level conjuncts.

    Used for the LogBlock-map filter (Figure 8 step 1).  Conservative:
    only inspects top-level AND children; OR branches contribute nothing.
    """
    low = None
    high = None
    for node in conjuncts(expr):
        if isinstance(node, Between) and node.column == column:
            low = node.low if low is None else max(low, node.low)
            high = node.high if high is None else min(high, node.high)
        elif isinstance(node, Comparison) and node.column == column:
            if node.op in (CmpOp.GE, CmpOp.GT):
                low = node.value if low is None else max(low, node.value)
            elif node.op in (CmpOp.LE, CmpOp.LT):
                high = node.value if high is None else min(high, node.value)
            elif node.op is CmpOp.EQ:
                low = node.value if low is None else max(low, node.value)
                high = node.value if high is None else min(high, node.value)
    return low, high
