"""The per-row meaning of a WHERE clause, of an aggregate, of a result
order and of a window query, for the differential suites.

Every evaluation path — archived block scans, SMA and index skipping,
realtime selections, dict rows — is held against :func:`matches`, every
aggregate fold — SMA, decoded blocks, column chunks — against
:func:`fold`, every ORDER BY and GROUP BY output order against
:func:`order_key`, and the latest-version dedup plan against
:func:`naive_window_query`.
"""

from repro.logblock.pruning import (
    EqPredicate,
    InPredicate,
    MatchPredicate,
    NePredicate,
    NotNullPredicate,
    NullPredicate,
    PrefixPredicate,
    RangePredicate,
)
from repro.logblock.tokenizer import tokenize
from repro.query.aggregate import AggState, Aggregator
from repro.query.ast import And, Not, Or
from repro.query.dedup import naive_scan_query, run_window_query
from repro.query.sql import parse_sql
from repro.rowstore.batch import RowBatch


def matches(node, row: dict) -> bool:
    """Whether ``row`` satisfies ``node``: an AST expression or a column
    predicate, evaluated value by value in Python.

    Boolean, not three-valued: a leaf is False on a null (a missing key
    is null) except IS NULL, and NOT flips its child.  Comparisons are
    Python's ``==`` / ``<`` (ordering a str against a number raises
    ``TypeError``); IN is ``==`` against each literal; LIKE is
    ``str(value).startswith``; MATCH needs every query token among the
    value's tokens.
    """
    if isinstance(node, And):
        return all(matches(child, row) for child in node.children)
    if isinstance(node, Or):
        return any(matches(child, row) for child in node.children)
    if isinstance(node, Not):
        return not matches(node.child, row)
    to_predicate = getattr(node, "to_column_predicate", None)
    predicate = node if to_predicate is None else to_predicate()
    value = row.get(predicate.column)
    if isinstance(predicate, NullPredicate):
        return value is None
    if value is None:
        return False
    if isinstance(predicate, NotNullPredicate):
        return True
    if isinstance(predicate, EqPredicate):
        return bool(value == predicate.value)
    if isinstance(predicate, NePredicate):
        return bool(value != predicate.value)
    if isinstance(predicate, InPredicate):
        return any(value == literal for literal in predicate.values)
    if isinstance(predicate, RangePredicate):
        # Bounds are tested positively, so a NaN lies in no range.
        if predicate.low is not None and not (
            value >= predicate.low if predicate.low_inclusive else value > predicate.low
        ):
            return False
        return predicate.high is None or bool(
            value <= predicate.high if predicate.high_inclusive else value < predicate.high
        )
    if isinstance(predicate, PrefixPredicate):
        return str(value).startswith(predicate.prefix)
    if isinstance(predicate, MatchPredicate):
        return set(tokenize(value)).issuperset(predicate.terms)
    raise AssertionError(f"no oracle for {predicate!r}")


def fold(query, rows) -> list[dict]:
    """The result rows of the aggregate ``query`` over the dict ``rows``,
    folded one value at a time in Python.

    The group table and the final ORDER BY / LIMIT are the aggregator's
    own: groups open in first-seen order, and a NaN key equals no key,
    itself included.
    """
    aggregator = Aggregator(query)
    for row in rows:
        key = None if query.group_by is None else row.get(query.group_by)
        for item, state in zip(query.select, aggregator._states_for(key)):
            if item.is_aggregate and item.column is None:
                state.count += 1  # COUNT(*)
            elif item.is_aggregate:
                _update(state, row.get(item.column))
    return aggregator.results()


def _update(state: AggState, value) -> None:
    """Fold one value: a null is skipped; a non-bool number is summed; a
    NaN is counted and summed but is no MIN/MAX."""
    if value is None:
        return
    state.count += 1
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        state.total += value
    if value == value:
        if state.minimum is None or value < state.minimum:
            state.minimum = value
        if state.maximum is None or value > state.maximum:
            state.maximum = value
    if state.distinct is not None:
        state.distinct.add(value)


def order_key(value) -> tuple:
    """The one result order as a Python sort key: values ascending as
    Python compares them (-0.0 equal to 0.0), then NaN, then NULL.
    ``sorted(..., key=order_key, reverse=desc)`` is an ORDER BY: stable,
    nulls first when descending, and a ``TypeError`` on keys Python
    cannot compare."""
    if value is None:
        return (2,)
    if value != value:
        return (1,)
    return (0, value)


def naive_window_query(store, sql: str, tenant_scope: int | None = None):
    """``sql`` — an outer query over a ``ROW_NUMBER`` window subquery —
    run as the naive plan: the inner scan's every version through
    ``store.query``, then ranked, filtered and finished in Python
    (``run_window_query``).  Returns ``(rows, the scan's QueryResult)``.
    """
    parsed = parse_sql(sql)
    scan = store.query(naive_scan_query(parsed), tenant_scope=tenant_scope)
    return run_window_query(parsed, RowBatch.from_dicts(scan.rows)), scan
