"""Expression AST tests: row evaluation and predicate compilation."""

import pytest

from repro.logblock.pruning import (
    EqPredicate,
    InPredicate,
    MatchPredicate,
    NePredicate,
    RangePredicate,
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


ROW = {"tenant_id": 3, "ts": 100, "ip": "1.2.3.4", "latency": 50, "log": "error timeout", "nullable": None}


class TestRowEvaluation:
    def test_comparison_ops(self):
        assert Comparison("latency", CmpOp.EQ, 50).evaluate_row(ROW)
        assert Comparison("latency", CmpOp.NE, 49).evaluate_row(ROW)
        assert Comparison("latency", CmpOp.LT, 51).evaluate_row(ROW)
        assert Comparison("latency", CmpOp.LE, 50).evaluate_row(ROW)
        assert Comparison("latency", CmpOp.GT, 49).evaluate_row(ROW)
        assert Comparison("latency", CmpOp.GE, 50).evaluate_row(ROW)
        assert not Comparison("latency", CmpOp.GT, 50).evaluate_row(ROW)

    def test_null_is_false(self):
        assert not Comparison("nullable", CmpOp.EQ, 1).evaluate_row(ROW)
        assert not Comparison("nullable", CmpOp.NE, 1).evaluate_row(ROW)
        assert not Between("nullable", 0, 10).evaluate_row(ROW)
        assert not In("nullable", (1,)).evaluate_row(ROW)
        assert not Match("nullable", "x").evaluate_row(ROW)

    def test_missing_column_is_false(self):
        assert not Comparison("ghost", CmpOp.EQ, 1).evaluate_row(ROW)

    def test_between(self):
        assert Between("latency", 50, 60).evaluate_row(ROW)
        assert Between("latency", 40, 50).evaluate_row(ROW)
        assert not Between("latency", 51, 60).evaluate_row(ROW)

    def test_in(self):
        assert In("ip", ("1.2.3.4", "5.6.7.8")).evaluate_row(ROW)
        assert not In("ip", ("9.9.9.9",)).evaluate_row(ROW)

    def test_match_all_terms(self):
        assert Match("log", "error").evaluate_row(ROW)
        assert Match("log", "timeout error").evaluate_row(ROW)
        assert not Match("log", "error missing").evaluate_row(ROW)

    def test_match_tokenises_its_query_once(self, monkeypatch):
        from repro.logblock import pruning

        seen = []
        tokenize = pruning.tokenize
        monkeypatch.setattr(pruning, "tokenize", lambda text: seen.append(text) or tokenize(text))
        node = Match("log", "Timeout error")
        rows = [{"log": "error: timeout"}, {"log": "error"}, {"log": None}, {}]
        assert [node.evaluate_row(row) for row in rows] == [True, False, False, False]
        predicate = node.to_column_predicate()
        assert [predicate.evaluate_value(row.get("log")) for row in rows] == [True, False, False, False]
        assert seen.count("Timeout error") == 1

    def test_boolean_combinators(self):
        t = Comparison("latency", CmpOp.EQ, 50)
        f = Comparison("latency", CmpOp.EQ, 51)
        assert And((t, t)).evaluate_row(ROW)
        assert not And((t, f)).evaluate_row(ROW)
        assert Or((f, t)).evaluate_row(ROW)
        assert not Or((f, f)).evaluate_row(ROW)
        assert Not(f).evaluate_row(ROW)
        assert not Not(t).evaluate_row(ROW)

    def test_not_of_null_leaf_is_true(self):
        """Documented boolean semantics: NOT flips leaf's False-on-null."""
        assert Not(Comparison("nullable", CmpOp.EQ, 1)).evaluate_row(ROW)

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
