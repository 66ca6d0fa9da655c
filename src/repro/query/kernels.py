"""Vectorized scan kernels: predicate AST → columnar boolean masks.

The §8 "vectorized query execution" compile layer.  :func:`compile_expr`
turns an :mod:`repro.query.ast` predicate tree into a kernel that
evaluates whole column batches at once — comparisons, IN/range and null
checks via :func:`repro.logblock.pruning.vectorized_block_mask` (the
single source of truth for leaf mask semantics), AND/OR/NOT via boolean
mask algebra.  Archived LogBlocks expose decoded ``(values, null_mask)``
arrays through ``LogBlockReader.read_block_arrays`` (the per-leaf scan
in :mod:`repro.logblock.pruning` consumes those directly); a kernel
compiled here runs over a real-time scan's selection
(:class:`~repro.rowstore.batch.RowSelection`): the value list it
gathers per predicate column is what :func:`column_arrays` turns into
the same pair.

Shapes without a vector form — MATCH / LIKE-prefix leaves, mixed-type
columns, values outside int64 range, expression nodes the compiler does
not know — raise :class:`VectorizeFallback`; callers then run the
interpreted ``evaluate_row`` path, which is byte-identical by
construction (the differential test suite pins this).

The module also provides :func:`top_k_order`, the argsort-based ORDER
BY/LIMIT kernel, and :func:`classify_expr`, the static classification
the planner prints on the EXPLAIN ``vectorized:`` line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.logblock.pruning import (
    EqPredicate,
    InPredicate,
    NePredicate,
    NotNullPredicate,
    NullPredicate,
    RangePredicate,
    vectorized_block_mask,
)
from repro.logblock.schema import EXACT_VALUE_TYPES, ColumnType
from repro.query.ast import And, Expr, Not, Or

# Leaf predicate shapes with a vector kernel (everything
# `vectorized_block_mask` answers).  MATCH and LIKE-prefix are absent
# on purpose: token/prefix matching has no mask form here.
VECTOR_LEAVES = (
    EqPredicate,
    NePredicate,
    RangePredicate,
    InPredicate,
    NullPredicate,
    NotNullPredicate,
)


class VectorizeFallback(Exception):
    """Raised when an expression or batch has no safe vector form.

    ``reason`` is a short human-readable label surfaced in EXPLAIN
    ANALYZE fallback accounting.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


# -- column batches ----------------------------------------------------------


# ColumnType → (array dtype, placeholder under a null).
_ARRAY_FORM = {
    ColumnType.INT64: (np.int64, 0),
    ColumnType.TIMESTAMP: (np.int64, 0),
    ColumnType.FLOAT64: (np.float64, 0.0),
    ColumnType.BOOL: (bool, False),
    ColumnType.STRING: (object, ""),
}


def column_arrays(
    name: str, values: list | None, count: int, ctype: ColumnType
) -> tuple[np.ndarray, np.ndarray]:
    """``(values, null_mask)`` arrays of one column of a scan batch.

    The realtime counterpart of ``read_block_arrays``.  Null slots carry
    a type-neutral placeholder (0 / "" / False) and are masked out by
    ``null_mask``, mirroring the archived block encoding; a column no
    row carries (``values`` is None) is all null.  A column whose values
    are not exactly of the schema type — mixed types, bools in an INT64
    column, ints beyond int64 — raises :class:`VectorizeFallback`
    instead of silently coercing.
    """
    dtype, fill = _ARRAY_FORM[ctype]
    if values is None:
        return np.full(count, fill, dtype=dtype), np.ones(count, dtype=bool)
    kinds = set(map(type, values))
    if not kinds <= EXACT_VALUE_TYPES[ctype]:
        raise VectorizeFallback(f"column {name}: mixed-type values")
    if type(None) in kinds:
        null_mask = np.array([v is None for v in values], dtype=bool)
        values = [fill if v is None else v for v in values]
    else:
        null_mask = np.zeros(count, dtype=bool)
    try:
        return np.array(values, dtype=dtype), null_mask
    except OverflowError:
        raise VectorizeFallback(f"column {name}: value beyond int64") from None


# -- the compiler ------------------------------------------------------------


def _leaf_fallback_reason(expr: Expr) -> str:
    name = type(expr).__name__
    column = next(iter(expr.columns()), "?")
    return f"{name}({column}) has no vector kernel"


def _compile(expr: Expr):
    if isinstance(expr, And):
        children = [_compile(child) for child in expr.children]

        def eval_and(arrays, children=children):
            mask = children[0](arrays)
            for child in children[1:]:
                if not mask.any():
                    break
                mask = mask & child(arrays)
            return mask

        return eval_and
    if isinstance(expr, Or):
        children = [_compile(child) for child in expr.children]

        def eval_or(arrays, children=children):
            mask = children[0](arrays)
            for child in children[1:]:
                if mask.all():
                    break
                mask = mask | child(arrays)
            return mask

        return eval_or
    if isinstance(expr, Not):
        child = _compile(expr.child)
        return lambda arrays: ~child(arrays)
    to_predicate = getattr(expr, "to_column_predicate", None)
    if to_predicate is None:
        raise VectorizeFallback(f"unknown expression {type(expr).__name__}")
    predicate = to_predicate()
    if not isinstance(predicate, VECTOR_LEAVES):
        raise VectorizeFallback(_leaf_fallback_reason(expr))

    def eval_leaf(arrays, predicate=predicate):
        values, null_mask = arrays(predicate.column)
        mask = vectorized_block_mask(predicate, values, null_mask)
        if mask is None:  # unreachable for VECTOR_LEAVES; belt-and-braces
            raise VectorizeFallback(_leaf_fallback_reason(expr))
        return mask

    return eval_leaf


@dataclass
class CompiledKernel:
    """A predicate compiled to columnar form.

    ``evaluate(batch, schema)`` returns a boolean match mask over the
    rows of a column batch, converting each predicate column once; it
    raises :class:`VectorizeFallback` when a column has no array form.
    """

    expr: Expr
    _evaluate: object

    def evaluate(self, batch, schema) -> np.ndarray:
        converted: dict[str, tuple[np.ndarray, np.ndarray]] = {}

        def arrays(column: str) -> tuple[np.ndarray, np.ndarray]:
            if column not in converted:
                converted[column] = column_arrays(
                    column, batch.column(column), len(batch), schema.column(column).ctype
                )
            return converted[column]

        return self._evaluate(arrays)


def compile_expr(expr: Expr) -> CompiledKernel:
    """Compile a predicate tree; raises :class:`VectorizeFallback`."""
    return CompiledKernel(expr, _compile(expr))


# -- EXPLAIN classification --------------------------------------------------


@dataclass(frozen=True)
class VectorizedInfo:
    """Static vectorization verdict for one predicate tree."""

    mode: str  # "full" | "partial" | "none"
    reasons: tuple[str, ...] = ()

    def describe(self) -> str:
        if not self.reasons:
            return self.mode
        return f"{self.mode} ({'; '.join(self.reasons)})"


def classify_expr(expr: Expr, schema=None) -> VectorizedInfo:
    """How much of the predicate the vector kernels can evaluate.

    ``full`` — every leaf has a vector kernel; ``partial`` — some do
    (the archived path vectorizes per leaf, so partial trees still win);
    ``none`` — nothing does and every row takes the interpreted path.
    ``reasons`` lists each unsupported leaf plus, when a ``schema`` is
    given, the STRING columns whose *archived* blocks decode to python
    lists and scan interpreted even though the realtime path vectorizes
    them as object arrays.
    """
    supported = 0
    unsupported = 0
    reasons: list[str] = []

    def note(reason: str) -> None:
        if reason not in reasons:
            reasons.append(reason)

    def walk(node: Expr) -> None:
        nonlocal supported, unsupported
        if isinstance(node, (And, Or)):
            for child in node.children:
                walk(child)
            return
        if isinstance(node, Not):
            walk(node.child)
            return
        to_predicate = getattr(node, "to_column_predicate", None)
        predicate = to_predicate() if to_predicate is not None else None
        if predicate is None or not isinstance(predicate, VECTOR_LEAVES):
            unsupported += 1
            note(_leaf_fallback_reason(node) if predicate is not None
                 else f"unknown expression {type(node).__name__}")
            return
        supported += 1
        if schema is not None:
            column = predicate.column
            try:
                ctype = schema.column(column).ctype
            except Exception:
                return
            if ctype is ColumnType.STRING and not isinstance(
                predicate, (NullPredicate, NotNullPredicate)
            ):
                note(f"{column} is STRING: archived PLAIN blocks scan interpreted")

    walk(expr)
    if not supported:
        return VectorizedInfo("none", tuple(reasons))
    if unsupported:
        return VectorizedInfo("partial", tuple(reasons))
    return VectorizedInfo("full", tuple(reasons))


# -- ORDER BY / LIMIT top-k --------------------------------------------------


def top_k_order(keys: list, desc: bool = False, limit: int | None = None) -> np.ndarray | None:
    """Stable sort order over ``keys`` as row indices, or ``None``.

    Reproduces exactly ``sorted(key=(k is None, k), reverse=desc)`` —
    ascending puts nulls last, descending puts them first, and ties keep
    their original order (python's stable sort never reverses equal
    elements, even with ``reverse=True``).  Keys are ranked through
    ``np.unique`` — on an int64 / float64 array when they are all
    ``int`` or all ``float``, else on an object array — and packed with
    their index into one int64 sort key, so a LIMIT takes the
    ``argpartition`` top-k path instead of a full sort.  Returns
    ``None`` when the keys are not vector-sortable (mixed incomparable
    types, a NaN, an int beyond int64) — callers fall back to python sort.
    """
    count = len(keys)
    if count == 0:
        return np.empty(0, dtype=np.int64)
    kinds = set(map(type, keys))
    if type(None) in kinds:
        null_mask = np.fromiter((k is None for k in keys), dtype=bool, count=count)
        keys = [k for k in keys if k is not None]
        kinds.discard(type(None))
    else:
        null_mask = np.zeros(count, dtype=bool)
    if float in kinds and any(k != k for k in keys if type(k) is float):
        return None  # no order on NaN that a different sort reproduces
    dtype = np.int64 if kinds == {int} else np.float64 if kinds == {float} else object
    try:
        ranked, inverse = np.unique(np.array(keys, dtype=dtype), return_inverse=True)
    except (TypeError, ValueError, OverflowError):  # last: an int beyond int64
        return None
    distinct = len(ranked)
    score = np.empty(count, dtype=np.int64)
    if desc:
        # Python's (is_none, key) tuple with reverse=True sorts nulls
        # first, then values descending.
        score[null_mask] = 0
        score[~null_mask] = distinct - inverse.astype(np.int64)
    else:
        score[null_mask] = distinct
        score[~null_mask] = inverse.astype(np.int64)
    combined = score * np.int64(count + 1) + np.arange(count, dtype=np.int64)
    if limit is not None and 0 < limit < count:
        top = np.argpartition(combined, limit - 1)[:limit]
        return top[np.argsort(combined[top])]
    order = np.argsort(combined)
    if limit is not None:
        order = order[:limit]
    return order
