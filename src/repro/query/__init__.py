"""Query layer: SQL parsing, planning, skipping-aware execution (§5)."""

from repro.query.aggregate import Aggregator
from repro.query.ast import (
    And,
    Between,
    CmpOp,
    Comparison,
    Expr,
    In,
    Match,
    Not,
    Or,
)
from repro.query.distinct import ExactDistinct, HyperLogLog
from repro.query.executor import (
    BlockExecutor,
    ExecutionOptions,
    ExecutionStats,
    filter_realtime_rows,
)
from repro.query.planner import QueryPlan, QueryPlanner, format_timestamp, parse_timestamp
from repro.query.sql import ParsedQuery, SelectItem, parse_sql

__all__ = [
    "Aggregator",
    "And",
    "Between",
    "CmpOp",
    "Comparison",
    "Expr",
    "In",
    "Match",
    "Not",
    "Or",
    "ExactDistinct",
    "HyperLogLog",
    "BlockExecutor",
    "ExecutionOptions",
    "ExecutionStats",
    "filter_realtime_rows",
    "QueryPlan",
    "QueryPlanner",
    "format_timestamp",
    "parse_timestamp",
    "ParsedQuery",
    "SelectItem",
    "parse_sql",
]
