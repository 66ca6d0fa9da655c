"""Expression AST tests: evaluation over dict rows and predicate compilation."""

import pytest

from repro.logblock.pruning import (
    EqPredicate,
    InPredicate,
    MatchPredicate,
    NePredicate,
    RangePredicate,
    column_mask,
    object_column,
)
from repro.query.ast import (
    And,
    Between,
    CmpOp,
    Comparison,
    In,
    Match,
    Not,
    Or,
    conjuncts,
    extract_eq,
    extract_ts_range,
)
from repro.query.kernels import filter_chunk
from repro.rowstore.batch import RowBatch


def holds(expr, row=None) -> bool:
    """``expr`` over one row (``ROW`` by default) as a chunk, through
    the column-mask evaluator."""
    return bool(len(filter_chunk(expr, RowBatch.from_dicts([ROW if row is None else row]))))


ROW = {"tenant_id": 3, "ts": 100, "ip": "1.2.3.4", "latency": 50, "log": "error timeout", "nullable": None}


class TestRowEvaluation:
    def test_comparison_ops(self):
        assert holds(Comparison("latency", CmpOp.EQ, 50))
        assert holds(Comparison("latency", CmpOp.NE, 49))
        assert holds(Comparison("latency", CmpOp.LT, 51))
        assert holds(Comparison("latency", CmpOp.LE, 50))
        assert holds(Comparison("latency", CmpOp.GT, 49))
        assert holds(Comparison("latency", CmpOp.GE, 50))
        assert not holds(Comparison("latency", CmpOp.GT, 50))

    def test_null_is_false(self):
        assert not holds(Comparison("nullable", CmpOp.EQ, 1))
        assert not holds(Comparison("nullable", CmpOp.NE, 1))
        assert not holds(Between("nullable", 0, 10))
        assert not holds(In("nullable", (1,)))
        assert not holds(Match("nullable", "x"))

    def test_missing_column_is_false(self):
        assert not holds(Comparison("ghost", CmpOp.EQ, 1))

    def test_between(self):
        assert holds(Between("latency", 50, 60))
        assert holds(Between("latency", 40, 50))
        assert not holds(Between("latency", 51, 60))

    def test_in(self):
        assert holds(In("ip", ("1.2.3.4", "5.6.7.8")))
        assert not holds(In("ip", ("9.9.9.9",)))

    def test_match_all_terms(self):
        assert holds(Match("log", "error"))
        assert holds(Match("log", "timeout error"))
        assert not holds(Match("log", "error missing"))

    def test_match_tokenises_its_query_once(self, monkeypatch):
        from repro.logblock import pruning

        seen = []
        tokenize = pruning.tokenize
        monkeypatch.setattr(pruning, "tokenize", lambda text: seen.append(text) or tokenize(text))
        node = Match("log", "Timeout error")
        rows = [{"log": "error: timeout"}, {"log": "error"}, {"log": None}, {}]
        assert [holds(node, row) for row in rows] == [True, False, False, False]
        predicate = node.to_column_predicate()
        column = object_column([row.get("log") for row in rows])
        assert column_mask(predicate, column).tolist() == [True, False, False, False]
        assert seen.count("Timeout error") == 1

    def test_boolean_combinators(self):
        t = Comparison("latency", CmpOp.EQ, 50)
        f = Comparison("latency", CmpOp.EQ, 51)
        assert holds(And((t, t)))
        assert not holds(And((t, f)))
        assert holds(Or((f, t)))
        assert not holds(Or((f, f)))
        assert holds(Not(f))
        assert not holds(Not(t))

    def test_not_of_null_leaf_is_true(self):
        """Documented boolean semantics: NOT flips leaf's False-on-null."""
        assert holds(Not(Comparison("nullable", CmpOp.EQ, 1)))

    def test_columns_collection(self):
        expr = And((Comparison("a", CmpOp.EQ, 1), Or((Match("b", "x"), Not(In("c", (1,)))))))
        assert expr.columns() == {"a", "b", "c"}


class TestPredicateCompilation:
    def test_eq(self):
        assert Comparison("x", CmpOp.EQ, 5).to_column_predicate() == EqPredicate("x", 5)

    def test_ne(self):
        assert Comparison("x", CmpOp.NE, 5).to_column_predicate() == NePredicate("x", 5)

    def test_ranges(self):
        assert Comparison("x", CmpOp.GE, 5).to_column_predicate() == RangePredicate("x", low=5)
        assert Comparison("x", CmpOp.GT, 5).to_column_predicate() == RangePredicate(
            "x", low=5, low_inclusive=False
        )
        assert Comparison("x", CmpOp.LE, 5).to_column_predicate() == RangePredicate("x", high=5)
        assert Comparison("x", CmpOp.LT, 5).to_column_predicate() == RangePredicate(
            "x", high=5, high_inclusive=False
        )

    def test_between(self):
        assert Between("x", 1, 9).to_column_predicate() == RangePredicate("x", low=1, high=9)

    def test_in(self):
        assert In("x", (1, 2)).to_column_predicate() == InPredicate("x", (1, 2))

    def test_match(self):
        assert Match("log", "a b").to_column_predicate() == MatchPredicate("log", "a b")


class TestExtraction:
    def test_conjuncts_flatten(self):
        a = Comparison("a", CmpOp.EQ, 1)
        b = Comparison("b", CmpOp.EQ, 2)
        c = Comparison("c", CmpOp.EQ, 3)
        assert conjuncts(And((And((a, b)), c))) == [a, b, c]
        assert conjuncts(a) == [a]

    def test_extract_eq(self):
        expr = And((Comparison("tenant_id", CmpOp.EQ, 7), Comparison("x", CmpOp.GE, 1)))
        assert extract_eq(expr, "tenant_id") == 7
        assert extract_eq(expr, "ghost") is None

    def test_extract_eq_from_singleton_in(self):
        assert extract_eq(In("tenant_id", (9,)), "tenant_id") == 9

    def test_extract_eq_not_from_or(self):
        expr = Or((Comparison("tenant_id", CmpOp.EQ, 7), Comparison("tenant_id", CmpOp.EQ, 8)))
        assert extract_eq(expr, "tenant_id") is None

    def test_extract_ts_range(self):
        expr = And(
            (
                Comparison("ts", CmpOp.GE, 100),
                Comparison("ts", CmpOp.LE, 200),
                Comparison("x", CmpOp.EQ, 1),
            )
        )
        assert extract_ts_range(expr, "ts") == (100, 200)

    def test_extract_ts_range_between(self):
        assert extract_ts_range(Between("ts", 5, 10), "ts") == (5, 10)

    def test_extract_ts_range_tightest(self):
        expr = And((Comparison("ts", CmpOp.GE, 100), Between("ts", 50, 150)))
        assert extract_ts_range(expr, "ts") == (100, 150)

    def test_extract_ts_range_eq(self):
        assert extract_ts_range(Comparison("ts", CmpOp.EQ, 42), "ts") == (42, 42)

    def test_extract_ts_range_open(self):
        assert extract_ts_range(Comparison("x", CmpOp.EQ, 1), "ts") == (None, None)
