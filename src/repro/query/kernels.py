"""Predicate trees as column masks, and the ORDER BY / LIMIT kernel.

:func:`compile_expr` turns an :mod:`repro.query.ast` predicate tree into
a function of its columns (§8 "vectorized query execution"): each leaf
is :func:`repro.logblock.pruning.column_mask` — the one place a
predicate meets a value — over the decoded column of its name, and
AND / OR / NOT combine the boolean masks.  The tree runs over a column
chunk's selection (:func:`selection_columns`): a realtime scan's, and
through :func:`filter_chunk` the ``_system`` rows, the dedup post
filter's winners and a window query's ranked rows; archived LogBlocks
evaluate the same leaves one at a time in :mod:`repro.logblock.pruning`,
after SMA and index skipping.

:func:`top_k_order` is the argsort-based ORDER BY/LIMIT kernel.
"""

from __future__ import annotations

from functools import cache
from typing import Callable

import numpy as np

from repro.logblock.pruning import column_mask, object_column
from repro.query.ast import And, Expr, Not, Or
from repro.rowstore.batch import RowBatch, RowSelection

# name → the decoded column :func:`column_mask` takes.
Columns = Callable[[str], tuple]


def compile_expr(expr: Expr) -> Callable[[Columns], np.ndarray]:
    """``expr`` as a function from a column reader to the boolean mask
    of the rows it matches (a leaf is False on a null; NOT flips it)."""
    if isinstance(expr, And):
        children = [compile_expr(child) for child in expr.children]

        def eval_and(columns: Columns) -> np.ndarray:
            mask = children[0](columns)
            for child in children[1:]:
                if not mask.any():
                    break
                mask = mask & child(columns)
            return mask

        return eval_and
    if isinstance(expr, Or):
        children = [compile_expr(child) for child in expr.children]

        def eval_or(columns: Columns) -> np.ndarray:
            mask = children[0](columns)
            for child in children[1:]:
                if mask.all():
                    break
                mask = mask | child(columns)
            return mask

        return eval_or
    if isinstance(expr, Not):
        child = compile_expr(expr.child)
        return lambda columns: ~child(columns)
    predicate = expr.to_column_predicate()
    return lambda columns: column_mask(predicate, columns(predicate.column))


def selection_columns(selection) -> Columns:
    """Column reader over a realtime scan's ``RowSelection``, each column
    gathered once: a typed vector of the memtable (INT / FLOAT / BOOL)
    as it is, a value list as object values, an absent column as nulls."""
    count = len(selection)

    @cache
    def column(name: str) -> tuple:
        values = selection.column(name, typed=True)
        if isinstance(values, np.ndarray):
            return values, np.zeros(count, dtype=bool)
        return object_column([None] * count if values is None else values)

    return column


def filter_chunk(expr: Expr, chunk: RowBatch) -> RowBatch:
    """The rows of ``chunk`` that ``expr`` matches, in order (a column
    the chunk lacks reads as null)."""
    selection = RowSelection.of(chunk)
    hits = np.flatnonzero(compile_expr(expr)(selection_columns(selection)))
    return chunk if len(hits) == len(chunk) else selection.pick(hits).project(chunk.names)


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
