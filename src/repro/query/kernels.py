"""Predicate trees as column masks, and the ORDER BY / LIMIT kernel.

:func:`compile_expr` turns an :mod:`repro.query.ast` predicate tree into
a function of its columns (§8 "vectorized query execution"): each leaf
is :func:`repro.logblock.pruning.column_mask` — the one place a
predicate meets a value — over the decoded column of its name, and
AND / OR / NOT combine the boolean masks.  The tree runs over a column
chunk's selection (:func:`selection_columns`): a realtime scan's, and
through :func:`filter_chunk` the ``_system`` rows, the dedup post
filter's winners and a window query's ranked rows.  Archived LogBlocks
run the same tree with another leaf: the executor's, which evaluates
one leaf per block in :mod:`repro.logblock.pruning`, after SMA and
index skipping.

:func:`top_k_order` is the argsort-based ORDER BY / LIMIT kernel and the one
sort of every result, GROUP BY groups included.
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


def column_leaf(node: Expr) -> Callable[[Columns], np.ndarray]:
    """A leaf as :func:`column_mask` over the decoded column of its name."""
    predicate = node.to_column_predicate()
    return lambda columns: column_mask(predicate, columns(predicate.column))


def compile_expr(expr: Expr, leaf: Callable = column_leaf) -> Callable:
    """``expr`` as a function from what its leaves read to the boolean
    mask of the rows it matches (a leaf is False on a null; NOT flips it).

    ``leaf(node)`` compiles one leaf into a function of the same input:
    :func:`column_leaf` over a column reader, or the executor's archived
    leaf over a LogBlock reader.  AND stops at an empty mask; OR
    evaluates every child.
    """
    if isinstance(expr, And):
        children = [compile_expr(child, leaf) for child in expr.children]

        def eval_and(source) -> np.ndarray:
            mask = children[0](source)
            for child in children[1:]:
                if not mask.any():
                    break
                mask = mask & child(source)
            return mask

        return eval_and
    if isinstance(expr, Or):
        children = [compile_expr(child, leaf) for child in expr.children]

        def eval_or(source) -> np.ndarray:
            mask = children[0](source)
            for child in children[1:]:
                mask = mask | child(source)
            return mask

        return eval_or
    if isinstance(expr, Not):
        child = compile_expr(expr.child, leaf)
        return lambda source: ~child(source)
    return leaf(expr)


def selection_columns(selection) -> Columns:
    """Column reader over a realtime scan's ``RowSelection``, each column
    gathered once: a typed vector of the memtable (INT / FLOAT / BOOL)
    as it is, a value list (a STR column's picked rows decoded) as object
    values, an absent column as nulls."""
    count = len(selection)

    @cache
    def column(name: str) -> tuple:
        values = selection.vector(name)
        if values is not None:
            return values, np.zeros(count, dtype=bool)
        values = selection.column(name)
        return object_column([None] * count if values is None else values)

    return column


def filter_chunk(expr: Expr, chunk: RowBatch) -> RowBatch:
    """The rows of ``chunk`` that ``expr`` matches, in order (a column
    the chunk lacks reads as null)."""
    selection = RowSelection.of(chunk)
    hits = np.flatnonzero(compile_expr(expr)(selection_columns(selection)))
    return chunk if len(hits) == len(chunk) else selection.pick(hits).project(chunk.names)


# -- ORDER BY / LIMIT top-k --------------------------------------------------


_INT, _FLOAT = {int}, {float}
_NEVER_NAN = frozenset((int, bool, str, bytes))  # kinds that are never NaN nor null


def top_k_order(keys: list, desc: bool = False, limit: int | None = None) -> np.ndarray:
    """The ORDER BY / GROUP BY output order of ``keys`` as row indices,
    the first ``limit`` of them when a limit is given.

    One total order: values ascending as Python compares them (-0.0
    ties with 0.0, an int with its float), then NaN (above +inf, as the
    numeric indexes store it), then NULL; ``desc`` reverses it, so nulls
    come first.  Ties keep their arrival order either way.  Values are
    ranked through ``np.unique`` — on an int64 / float64 array when they
    are all ``int`` within int64 or all ``float``, else on an object
    array, which raises :class:`TypeError` on an incomparable mix as
    Python's sort does — and packed with their index into one int64
    sort key, so a LIMIT takes the ``argpartition`` top-k path instead
    of a full sort.
    """
    count = len(keys)
    kinds = set(map(type, keys))
    dtype = np.int64 if kinds == _INT else np.float64 if kinds == _FLOAT else object
    try:
        values = np.fromiter(keys, dtype=dtype, count=count)
    except OverflowError:  # an int beyond int64: compared exactly
        values = np.fromiter(keys, dtype=object, count=count)
    tier = None  # 0 a value, 1 a NaN, 2 a null
    if dtype is np.float64:
        nans = np.isnan(values)
        tier = nans.astype(np.int64) if nans.any() else None
    elif not kinds <= _NEVER_NAN:
        tier = np.fromiter((2 if k is None else k != k for k in keys), dtype=np.int64, count=count)
    if tier is None:
        ranked, score = np.unique(values, return_inverse=True)
    else:
        present = tier == 0
        ranked, inverse = np.unique(values[present], return_inverse=True)
        score = tier + (len(ranked) - 1)  # a NaN above every value, a null above that
        score[present] = inverse
    distinct = len(ranked)
    if desc:
        score = distinct + 1 - score
    combined = score * np.int64(count + 1) + np.arange(count, dtype=np.int64)
    if limit is not None and 0 < limit < count:
        top = np.argpartition(combined, limit - 1)[:limit]
        return top[np.argsort(combined[top])]
    order = np.argsort(combined)
    if limit is not None:
        order = order[:limit]
    return order
