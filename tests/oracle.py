"""The per-row meaning of a WHERE clause, for the differential suites.

Every evaluation path — archived block scans, SMA and index skipping,
realtime selections, dict rows — is held against :func:`matches`.
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
from repro.query.ast import And, Not, Or


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
