"""Minimal SQL dialect for log retrieval and the front-door statements.

LogStore speaks the SQL protocol (Figure 3: "Application (SQL
Protocol)").  This parser covers the query shapes the paper evaluates::

    SELECT log FROM request_log
    WHERE tenant_id = 12276
      AND ts >= '2020-11-11 00:00:00' AND ts <= '2020-11-11 01:00:00'
      AND ip = '192.168.0.1' AND latency >= 100 AND fail = 'false'

    SELECT ip, COUNT(*) FROM request_log
    WHERE tenant_id = 3 AND MATCH(log, 'error timeout')
    GROUP BY ip ORDER BY COUNT(*) DESC LIMIT 10

plus the statement classes the :mod:`repro.frontdoor` session layer
dispatches (:func:`parse_statement`)::

    INSERT INTO workflow_runs (run_id, status) VALUES ('r1', 'running')

    CREATE TABLE workflow_runs (
        tenant_id INT64, ts TIMESTAMP, run_id STRING,
        status STRING, version INT64,
        VERSION BY run_id
    )

    SELECT run_id, status FROM (
        SELECT *, ROW_NUMBER() OVER (
            PARTITION BY run_id ORDER BY version DESC) AS rn
        FROM workflow_runs WHERE tenant_id = 7
    ) WHERE rn = 1

Supported in SELECT: select list (columns / * / aggregates COUNT, SUM,
AVG, MIN, MAX), WHERE with AND/OR/NOT, comparisons, BETWEEN, IN,
IS [NOT] NULL, MATCH(col, 'terms'), one-level FROM (subquery) with a
single ROW_NUMBER() window, GROUP BY one column, ORDER BY, LIMIT.
Literal coercion to the column's type happens in the planner, which
knows the schema.

``?`` is a token of the dialect: :class:`StatementTemplate` lexes a
statement once and parses it per execution with each ``?`` bound to a
parameter value (what the front door's statement cache holds; every
execution and ``EXPLAIN`` binds so).  :func:`bind_parameters` is the
text form of the same binding — it renders the values as literals, and
has none for a NaN or an infinity — the reference the template is
tested against.

The tokenizer tracks character offsets, so every
:class:`~repro.common.errors.SqlParseError` carries a ``position`` and
a caret-context snippet (:func:`caret_context`) pointing at the
offending character — front-door clients see *where* a statement broke.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Sequence

from repro.common.errors import SqlParseError
from repro.query.ast import (
    And,
    Between,
    CmpOp,
    Comparison,
    Expr,
    In,
    IsNull,
    Like,
    Match,
    Not,
    Or,
)

_TOKEN_RE = re.compile(
    r"""
    \s*(?:
        (?P<string>'(?:[^']|'')*')
      | (?P<number>-?\d+\.\d+(?:[eE][-+]?\d+)?|-?\d+[eE][-+]?\d+|-?\d+)
      | (?P<op><=|>=|!=|<>|=|<|>)
      | (?P<punct>[(),*.])
      | (?P<word>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<param>\?)
    )
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "select", "from", "where", "and", "or", "not", "between", "in",
    "match", "like", "group", "by", "order", "limit", "asc", "desc",
    "count", "sum", "avg", "min", "max", "distinct", "approx_count_distinct",
    "insert", "into", "values", "create", "table", "as", "is", "null",
    "over", "partition", "row_number",
}

_AGG_FUNCS = {"count", "sum", "avg", "min", "max", "approx_count_distinct"}

# CREATE TABLE type words → canonical physical type names.
_TYPE_WORDS = {
    "int": "INT64", "int64": "INT64", "bigint": "INT64", "integer": "INT64",
    "float": "FLOAT64", "float64": "FLOAT64", "double": "FLOAT64",
    "string": "STRING", "text": "STRING", "varchar": "STRING",
    "bool": "BOOL", "boolean": "BOOL",
    "timestamp": "TIMESTAMP", "datetime": "TIMESTAMP",
}


def caret_context(sql: str, position: int, width: int = 30) -> str:
    """Two-line snippet of ``sql`` with a caret under ``position``."""
    position = max(0, min(position, len(sql)))
    start = max(0, position - width)
    end = min(len(sql), position + width)
    prefix = "..." if start > 0 else ""
    suffix = "..." if end < len(sql) else ""
    snippet = sql[start:end].replace("\n", " ")
    caret_at = len(prefix) + (position - start)
    return f"{prefix}{snippet}{suffix}\n{' ' * caret_at}^"


@dataclass(frozen=True)
class SelectItem:
    """One projection: a plain column or an aggregate call."""

    column: str | None  # None for COUNT(*)
    aggregate: str | None = None  # None for plain column reference
    distinct: bool = False  # COUNT(DISTINCT col)

    @property
    def is_aggregate(self) -> bool:
        return self.aggregate is not None

    def label(self) -> str:
        if self.aggregate is None:
            return self.column or "*"
        inner = self.column if self.column is not None else "*"
        if self.distinct:
            inner = f"DISTINCT {inner}"
        return f"{self.aggregate.upper()}({inner})"


@dataclass(frozen=True)
class WindowFunc:
    """``ROW_NUMBER() OVER (PARTITION BY k ORDER BY v [DESC]) AS alias``.

    The only window shape the dialect supports — the "latest row per
    key" idiom of append-only versioned tables (ROADMAP item 1).
    """

    partition_by: str
    order_by: str
    order_desc: bool
    alias: str
    func: str = "row_number"

    def label(self) -> str:
        direction = "DESC" if self.order_desc else "ASC"
        return (
            f"ROW_NUMBER() OVER (PARTITION BY {self.partition_by} "
            f"ORDER BY {self.order_by} {direction}) AS {self.alias}"
        )


@dataclass
class ParsedQuery:
    """Result of parsing one SELECT statement."""

    table: str
    select: list[SelectItem]
    where: Expr | None = None
    group_by: str | None = None
    order_by: str | None = None
    order_desc: bool = False
    limit: int | None = None
    select_star: bool = False
    raw_sql: str = ""
    # One-level subquery support: SELECT ... FROM (SELECT ...) WHERE ...
    subquery: "ParsedQuery | None" = None
    # The (at most one) ROW_NUMBER window item of this SELECT list.
    window: WindowFunc | None = None
    # Set by the semantic rewriter / planner when the window pattern is
    # recognized: a repro.query.dedup.DedupSpec.  Never set by parsing.
    dedup: object | None = None

    @property
    def is_aggregate(self) -> bool:
        return any(item.is_aggregate for item in self.select)

    def projected_columns(self) -> list[str]:
        """Plain (non-aggregate) columns referenced in the select list."""
        return [item.column for item in self.select if not item.is_aggregate and item.column]

    def aggregate_input_columns(self) -> list[str]:
        """Columns whose values aggregation actually consumes.

        The GROUP BY key plus every aggregated column — the exact set
        the tier-3 columnar path reads; COUNT(*) consumes none.  Order
        is deterministic (GROUP BY first, then select-list order).
        """
        out: list[str] = []
        if self.group_by is not None:
            out.append(self.group_by)
        for item in self.select:
            if item.is_aggregate and item.column is not None and item.column not in out:
                out.append(item.column)
        return out


@dataclass(frozen=True)
class ColumnDef:
    """One column definition of a CREATE TABLE statement."""

    name: str
    type_name: str  # canonical: INT64 / FLOAT64 / STRING / BOOL / TIMESTAMP
    tokenize: bool = False


@dataclass
class ParsedCreateTable:
    """Result of parsing one CREATE TABLE statement."""

    table: str
    columns: tuple[ColumnDef, ...]
    version_by: str | None = None
    if_not_exists: bool = False
    raw_sql: str = ""


@dataclass
class ParsedInsert:
    """Result of parsing one INSERT statement."""

    table: str
    columns: tuple[str, ...] | None  # None = full schema order
    rows: list[tuple]
    raw_sql: str = ""


@dataclass
class ParsedAlterTenant:
    """Result of parsing ``ALTER TENANT <id> SET RETENTION ...``.

    ``ttl`` / ``cold_age`` hold the raw duration value (a suffixed
    string like ``'7d'``, a number of seconds, or None for NULL);
    ``set_ttl`` / ``set_cold_age`` record which clauses were present,
    so an omitted knob is left untouched rather than cleared.
    """

    tenant_id: int
    ttl: str | float | int | None = None
    cold_age: str | float | int | None = None
    set_ttl: bool = False
    set_cold_age: bool = False
    raw_sql: str = ""


class _Tokens:
    """One statement's tokens plus the parser's cursor over them.

    Lexing happens once, here; ``?`` is a ``param`` token.  :meth:`bind`
    rewinds the cursor and supplies the values those tokens stand for,
    so a cached statement is parsed again without being lexed again.
    """

    def __init__(self, sql: str) -> None:
        self.sql = sql
        self._tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(sql):
            match = _TOKEN_RE.match(sql, pos)
            if match is None:
                stripped = sql[pos:].lstrip()
                if not stripped:
                    break
                at = len(sql) - len(stripped)
                raise SqlParseError(
                    f"unexpected character {stripped[0]!r} at position {at}\n"
                    + caret_context(sql, at),
                    position=at,
                )
            kind = match.lastgroup
            self._tokens.append((kind, match.group(kind), match.start(kind)))
            pos = match.end()
        self.param_positions = [at for kind, _, at in self._tokens if kind == "param"]
        self._params: Sequence = ()
        self._next_param = 0
        self._pos = 0

    def check_count(self, params: Sequence) -> None:
        """Raise unless ``params`` has one value per ``?`` token."""
        expected = len(self.param_positions)
        if len(params) != expected:
            missing = self.param_positions[len(params)] if len(params) < expected else None
            raise _placeholder_mismatch(self.sql, expected, len(params), missing)

    def bind(self, params: Sequence) -> "_Tokens":
        """Rewind, with ``params`` as the values of the ``?`` tokens in order."""
        self.check_count(params)
        self._params = params
        self._next_param = 0
        self._pos = 0
        return self

    def take_param(self):
        """The value of the ``param`` token just consumed."""
        value = self._params[self._next_param]
        self._next_param += 1
        return value

    def error(self, message: str, position: int | None = None) -> SqlParseError:
        """Build a parse error anchored at ``position`` (default: the
        current token, or end-of-statement when input ran out)."""
        if position is None:
            token = self.peek()
            position = token[2] if token is not None else len(self.sql)
        return SqlParseError(
            f"{message} at position {position}\n" + caret_context(self.sql, position),
            position=position,
        )

    def peek(self) -> tuple[str, str, int] | None:
        return self._tokens[self._pos] if self._pos < len(self._tokens) else None

    def peek_ahead(self, offset: int) -> tuple[str, str, int] | None:
        index = self._pos + offset
        return self._tokens[index] if index < len(self._tokens) else None

    def next(self) -> tuple[str, str, int]:
        token = self.peek()
        if token is None:
            raise self.error("unexpected end of statement")
        self._pos += 1
        return token

    def accept_word(self, word: str) -> bool:
        token = self.peek()
        if token is not None and token[0] == "word" and token[1].lower() == word:
            self._pos += 1
            return True
        return False

    def expect_word(self, word: str) -> None:
        if not self.accept_word(word):
            token = self.peek()
            got = f"{token[1]!r}" if token is not None else "end of statement"
            raise self.error(f"expected {word.upper()!r}, got {got}")

    def accept_punct(self, punct: str) -> bool:
        token = self.peek()
        if token is not None and token[0] == "punct" and token[1] == punct:
            self._pos += 1
            return True
        return False

    def expect_punct(self, punct: str) -> None:
        if not self.accept_punct(punct):
            token = self.peek()
            got = f"{token[1]!r}" if token is not None else "end of statement"
            raise self.error(f"expected {punct!r}, got {got}")

    def expect_identifier(self) -> str:
        kind, text, pos = self.next()
        if kind != "word" or text.lower() in _KEYWORDS:
            raise self.error(f"expected identifier, got {text!r}", pos)
        return text

    def at_end(self) -> bool:
        return self.peek() is None


def _unquote(text: str) -> str:
    return text[1:-1].replace("''", "'")


def _number_value(text: str):
    return float(text) if ("." in text or "e" in text or "E" in text) else int(text)


def _parse_literal(tokens: _Tokens):
    kind, text, pos = tokens.next()
    if kind == "string":
        return _unquote(text)
    if kind == "param":
        return tokens.take_param()
    if kind == "number":
        return _number_value(text)
    if kind == "word" and text.lower() in ("true", "false"):
        return text.lower() == "true"
    if kind == "word" and text.lower() == "null":
        return None
    raise tokens.error(f"expected literal, got {text!r}", pos)


def _parse_string(tokens: _Tokens, clause: str) -> tuple[str, int]:
    """The string operand of ``MATCH`` / ``LIKE`` and its position: a
    literal, or a ``?`` bound to a ``str``."""
    kind, text, pos = tokens.next()
    if kind == "string":
        return _unquote(text), pos
    if kind == "param":
        value = tokens.take_param()
        if isinstance(value, str):
            return value, pos
    raise tokens.error(f"{clause} requires a string literal", pos)


def _parse_window(tokens: _Tokens) -> WindowFunc:
    """``ROW_NUMBER() OVER (PARTITION BY k ORDER BY v [DESC]) AS alias``."""
    tokens.expect_punct("(")
    tokens.expect_punct(")")
    tokens.expect_word("over")
    tokens.expect_punct("(")
    tokens.expect_word("partition")
    tokens.expect_word("by")
    partition_by = tokens.expect_identifier()
    tokens.expect_word("order")
    tokens.expect_word("by")
    order_by = tokens.expect_identifier()
    order_desc = False
    if tokens.accept_word("desc"):
        order_desc = True
    else:
        tokens.accept_word("asc")
    tokens.expect_punct(")")
    if not tokens.accept_word("as"):
        raise tokens.error("window function requires 'AS <alias>'")
    alias = tokens.expect_identifier()
    return WindowFunc(
        partition_by=partition_by, order_by=order_by, order_desc=order_desc, alias=alias
    )


def _parse_select_item(tokens: _Tokens) -> SelectItem | WindowFunc:
    token = tokens.peek()
    if token is None:
        raise tokens.error("expected select item")
    if token[0] == "punct" and token[1] == "*":
        tokens.next()
        return SelectItem(column=None, aggregate=None)
    kind, text, pos = tokens.next()
    if kind != "word":
        raise tokens.error(f"expected column or aggregate, got {text!r}", pos)
    lower = text.lower()
    if lower == "row_number":
        return _parse_window(tokens)
    if lower in _AGG_FUNCS:
        tokens.expect_punct("(")
        if tokens.accept_punct("*"):
            if lower != "count":
                raise tokens.error(f"{lower.upper()}(*) is only valid for COUNT", pos)
            tokens.expect_punct(")")
            return SelectItem(column=None, aggregate="count")
        distinct = tokens.accept_word("distinct")
        if distinct and lower != "count":
            raise tokens.error(
                f"DISTINCT is only supported inside COUNT, not {lower.upper()}", pos
            )
        column = tokens.expect_identifier()
        tokens.expect_punct(")")
        return SelectItem(column=column, aggregate=lower, distinct=distinct)
    if lower in _KEYWORDS:
        raise tokens.error(f"unexpected keyword {text!r} in select list", pos)
    return SelectItem(column=text, aggregate=None)


def _parse_or(tokens: _Tokens) -> Expr:
    left = _parse_and(tokens)
    children = [left]
    while tokens.accept_word("or"):
        children.append(_parse_and(tokens))
    return children[0] if len(children) == 1 else Or(tuple(children))


def _parse_and(tokens: _Tokens) -> Expr:
    left = _parse_primary(tokens)
    children = [left]
    while tokens.accept_word("and"):
        children.append(_parse_primary(tokens))
    return children[0] if len(children) == 1 else And(tuple(children))


def _parse_primary(tokens: _Tokens) -> Expr:
    if tokens.accept_word("not"):
        return Not(_parse_primary(tokens))
    if tokens.accept_punct("("):
        inner = _parse_or(tokens)
        tokens.expect_punct(")")
        return inner
    if tokens.accept_word("match"):
        tokens.expect_punct("(")
        column = tokens.expect_identifier()
        tokens.expect_punct(",")
        terms, _ = _parse_string(tokens, "MATCH")
        tokens.expect_punct(")")
        return Match(column, terms)
    column = tokens.expect_identifier()
    if tokens.accept_word("is"):
        negated = tokens.accept_word("not")
        tokens.expect_word("null")
        null_test: Expr = IsNull(column)
        return Not(null_test) if negated else null_test
    if tokens.accept_word("like"):
        return _parse_like(tokens, column)
    if tokens.accept_word("between"):
        low = _parse_literal(tokens)
        tokens.expect_word("and")
        high = _parse_literal(tokens)
        return Between(column, low, high)
    if tokens.accept_word("not"):
        tokens.expect_word("in")
        return Not(_parse_in(tokens, column))
    if tokens.accept_word("in"):
        return _parse_in(tokens, column)
    kind, text, pos = tokens.next()
    if kind != "op":
        raise tokens.error(
            f"expected comparison operator after {column!r}, got {text!r}", pos
        )
    op_text = "!=" if text == "<>" else text
    op = CmpOp(op_text)
    value = _parse_literal(tokens)
    return Comparison(column, op, value)


def _parse_like(tokens: _Tokens, column: str) -> Like:
    pattern, pos = _parse_string(tokens, "LIKE")
    if not pattern.endswith("%") or "%" in pattern[:-1] or "_" in pattern:
        raise tokens.error(
            f"only prefix LIKE patterns ('abc%') are supported, got {pattern!r}", pos
        )
    return Like(column, pattern[:-1])


def _parse_in(tokens: _Tokens, column: str) -> In:
    tokens.expect_punct("(")
    values = [_parse_literal(tokens)]
    while tokens.accept_punct(","):
        values.append(_parse_literal(tokens))
    tokens.expect_punct(")")
    return In(column, tuple(values))


def _parse_select(tokens: _Tokens, depth: int = 0) -> ParsedQuery:
    tokens.expect_word("select")
    select: list[SelectItem] = []
    window: WindowFunc | None = None

    def add_item() -> None:
        nonlocal window
        item = _parse_select_item(tokens)
        if isinstance(item, WindowFunc):
            if window is not None:
                raise tokens.error("at most one window function per SELECT")
            window = item
        else:
            select.append(item)

    add_item()
    while tokens.accept_punct(","):
        add_item()
    if not select and window is None:
        raise tokens.error("empty select list")

    tokens.expect_word("from")
    subquery: ParsedQuery | None = None
    if tokens.accept_punct("("):
        if depth >= 1:
            raise tokens.error("nested subqueries are not supported")
        subquery = _parse_select(tokens, depth=depth + 1)
        tokens.expect_punct(")")
        table = subquery.table
        if tokens.accept_word("as"):
            tokens.expect_identifier()  # alias accepted, unused
        else:
            ahead = tokens.peek()
            if ahead is not None and ahead[0] == "word" and ahead[1].lower() not in _KEYWORDS:
                tokens.next()  # bare alias
    else:
        table = tokens.expect_identifier()
        # Qualified names (one dot): the `_system.<table>` namespace.
        if tokens.accept_punct("."):
            table = f"{table}.{tokens.expect_identifier()}"

    where: Expr | None = None
    if tokens.accept_word("where"):
        where = _parse_or(tokens)
    group_by: str | None = None
    if tokens.accept_word("group"):
        tokens.expect_word("by")
        group_by = tokens.expect_identifier()
    order_by: str | None = None
    order_desc = False
    if tokens.accept_word("order"):
        tokens.expect_word("by")
        token = tokens.peek()
        if token is not None and token[0] == "word" and token[1].lower() in _AGG_FUNCS:
            item = _parse_select_item(tokens)
            order_by = item.label()
        else:
            order_by = tokens.expect_identifier()
        if tokens.accept_word("desc"):
            order_desc = True
        else:
            tokens.accept_word("asc")
    limit: int | None = None
    if tokens.accept_word("limit"):
        limit_token = tokens.peek()
        value = _parse_literal(tokens)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            position = limit_token[2] if limit_token is not None else None
            raise tokens.error(
                f"LIMIT requires a non-negative integer, got {value!r}", position
            )
        limit = value

    select_star = any(item.column is None and item.aggregate is None for item in select)
    return ParsedQuery(
        table=table,
        select=select,
        where=where,
        group_by=group_by,
        order_by=order_by,
        order_desc=order_desc,
        limit=limit,
        select_star=select_star,
        raw_sql=tokens.sql,
        subquery=subquery,
        window=window,
    )


def parse_sql(sql: str, params=()) -> ParsedQuery:
    """Parse one SELECT statement of the minimal dialect, its ``?``
    bound to ``params`` as :meth:`StatementTemplate.bind` binds them."""
    tokens = _Tokens(sql).bind(_plain_parameters(params))
    head = tokens.peek()
    if head is not None and head[0] == "word" and head[1].lower() in ("insert", "create"):
        raise tokens.error(
            f"expected a SELECT statement, got {head[1].upper()} "
            "(use parse_statement / a front-door session for writes and DDL)"
        )
    parsed = _parse_select(tokens)
    if not tokens.at_end():
        raise tokens.error(f"trailing tokens starting with {tokens.peek()[1]!r}")
    _validate(parsed, tokens)
    return parsed


def _parse_insert(tokens: _Tokens) -> ParsedInsert:
    tokens.expect_word("insert")
    tokens.expect_word("into")
    table = tokens.expect_identifier()
    columns: tuple[str, ...] | None = None
    if tokens.accept_punct("("):
        names = [tokens.expect_identifier()]
        while tokens.accept_punct(","):
            names.append(tokens.expect_identifier())
        tokens.expect_punct(")")
        if len(set(names)) != len(names):
            raise tokens.error("duplicate column in INSERT column list")
        columns = tuple(names)
    tokens.expect_word("values")
    rows: list[tuple] = []
    while True:
        tokens.expect_punct("(")
        values = [_parse_literal(tokens)]
        while tokens.accept_punct(","):
            values.append(_parse_literal(tokens))
        tokens.expect_punct(")")
        if columns is not None and len(values) != len(columns):
            raise tokens.error(
                f"INSERT row has {len(values)} values for {len(columns)} columns"
            )
        if rows and len(values) != len(rows[0]):
            raise tokens.error("INSERT rows have inconsistent arity")
        rows.append(tuple(values))
        if not tokens.accept_punct(","):
            break
    if not tokens.at_end():
        raise tokens.error(f"trailing tokens starting with {tokens.peek()[1]!r}")
    return ParsedInsert(table=table, columns=columns, rows=rows, raw_sql=tokens.sql)


def _parse_create(tokens: _Tokens) -> ParsedCreateTable:
    tokens.expect_word("create")
    tokens.expect_word("table")
    if_not_exists = False
    if tokens.accept_word("if"):
        tokens.expect_word("not")
        tokens.expect_word("exists")
        if_not_exists = True
    table = tokens.expect_identifier()
    tokens.expect_punct("(")
    columns: list[ColumnDef] = []
    version_by: str | None = None
    while True:
        head = tokens.peek()
        ahead = tokens.peek_ahead(1)
        is_version_clause = (
            head is not None
            and head[0] == "word"
            and head[1].lower() == "version"
            and ahead is not None
            and ahead[0] == "word"
            and ahead[1].lower() == "by"
        )
        if is_version_clause:
            if version_by is not None:
                raise tokens.error("duplicate VERSION BY clause")
            tokens.next()  # VERSION
            tokens.next()  # BY
            version_by = tokens.expect_identifier()
        else:
            name = tokens.expect_identifier()
            kind, text, pos = tokens.next()
            type_name = _TYPE_WORDS.get(text.lower()) if kind == "word" else None
            if type_name is None:
                raise tokens.error(f"unknown column type {text!r}", pos)
            tokenize = bool(tokens.accept_word("tokenized") or tokens.accept_word("tokenize"))
            if tokenize and type_name != "STRING":
                raise tokens.error(f"TOKENIZED applies only to STRING columns, not {type_name}")
            columns.append(ColumnDef(name=name, type_name=type_name, tokenize=tokenize))
        if not tokens.accept_punct(","):
            break
    tokens.expect_punct(")")
    if not tokens.at_end():
        raise tokens.error(f"trailing tokens starting with {tokens.peek()[1]!r}")
    if not columns:
        raise tokens.error("CREATE TABLE requires at least one column")
    names = [c.name for c in columns]
    if len(set(names)) != len(names):
        raise tokens.error(f"duplicate column name in CREATE TABLE {table!r}")
    if version_by is not None and version_by not in names:
        raise tokens.error(f"VERSION BY references undeclared column {version_by!r}")
    return ParsedCreateTable(
        table=table,
        columns=tuple(columns),
        version_by=version_by,
        if_not_exists=if_not_exists,
        raw_sql=tokens.sql,
    )


def _parse_alter(tokens: _Tokens) -> ParsedAlterTenant:
    """``ALTER TENANT <id> SET RETENTION [TTL <dur>] [COLD AFTER <dur>]``.

    Durations are string literals with a unit suffix (``'7d'``,
    ``'12h'``, ``'30m'``, ``'45s'``), bare numbers of seconds, or NULL
    to clear the knob.  At least one clause is required.
    """
    tokens.expect_word("alter")
    tokens.expect_word("tenant")
    kind, text, pos = tokens.next()
    if kind != "number" or not text.isdigit():
        raise tokens.error(f"expected tenant id, got {text!r}", pos)
    tenant_id = int(text)
    tokens.expect_word("set")
    tokens.expect_word("retention")
    parsed = ParsedAlterTenant(tenant_id=tenant_id, raw_sql=tokens.sql)
    while not tokens.at_end():
        if tokens.accept_word("ttl"):
            if parsed.set_ttl:
                raise tokens.error("duplicate TTL clause")
            parsed.ttl = _parse_literal(tokens)
            parsed.set_ttl = True
        elif tokens.accept_word("cold"):
            if parsed.set_cold_age:
                raise tokens.error("duplicate COLD AFTER clause")
            tokens.expect_word("after")
            parsed.cold_age = _parse_literal(tokens)
            parsed.set_cold_age = True
        else:
            raise tokens.error(
                f"expected TTL or COLD AFTER, got {tokens.peek()[1]!r}"
            )
    if not parsed.set_ttl and not parsed.set_cold_age:
        raise tokens.error("SET RETENTION requires a TTL or COLD AFTER clause")
    return parsed


def parse_statement(
    sql: str,
) -> ParsedQuery | ParsedInsert | ParsedCreateTable | ParsedAlterTenant:
    """Parse one statement of any class (SELECT / INSERT / CREATE TABLE
    / ALTER TENANT)."""
    return _parse_tokens(_Tokens(sql).bind(()))


def _parse_tokens(
    tokens: _Tokens,
) -> ParsedQuery | ParsedInsert | ParsedCreateTable | ParsedAlterTenant:
    head = tokens.peek()
    if head is None:
        raise tokens.error("empty statement")
    word = head[1].lower() if head[0] == "word" else ""
    if word == "insert":
        return _parse_insert(tokens)
    if word == "create":
        return _parse_create(tokens)
    if word == "alter":
        return _parse_alter(tokens)
    parsed = _parse_select(tokens)
    if not tokens.at_end():
        raise tokens.error(f"trailing tokens starting with {tokens.peek()[1]!r}")
    _validate(parsed, tokens)
    return parsed


def _validate(query: ParsedQuery, tokens: _Tokens | None = None) -> None:
    def fail(message: str) -> SqlParseError:
        if tokens is not None:
            return tokens.error(message, position=0)
        return SqlParseError(message)

    has_aggregate = query.is_aggregate
    plain = [item for item in query.select if not item.is_aggregate and item.column is not None]
    if has_aggregate and plain:
        if query.group_by is None:
            raise fail("mixing columns and aggregates requires GROUP BY")
        for item in plain:
            if item.column != query.group_by:
                raise fail(f"column {item.column!r} must appear in GROUP BY")
    if query.group_by is not None and not has_aggregate:
        raise fail("GROUP BY requires at least one aggregate in SELECT")
    if query.window is not None:
        if has_aggregate:
            raise fail("window functions cannot be mixed with aggregates")
        if query.group_by is not None:
            raise fail("window functions cannot be combined with GROUP BY")
        if query.subquery is not None:
            raise fail("window functions are only supported in the inner query")
    inner = query.subquery
    if inner is not None:
        _validate(inner, tokens)
        if inner.window is not None:
            alias = inner.window.alias
            if alias in query.projected_columns():
                raise fail(
                    f"selecting the window alias {alias!r} in the outer query "
                    "is not supported"
                )
            if query.order_by == alias:
                raise fail(f"ORDER BY the window alias {alias!r} is not supported")


# -- parameter binding (prepared-statement support) -------------------------


def render_literal(value) -> str:
    """Render a Python value as a SQL literal of this dialect.

    The exact inverse of :func:`_parse_literal` — strings are quoted
    with doubled-quote escaping, booleans become TRUE/FALSE words, None
    becomes NULL.  Used by parameter binding and round-trip tests.
    """
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise SqlParseError(f"cannot render non-finite float {value!r} as a literal")
        return repr(value)
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    raise SqlParseError(f"cannot render {type(value).__name__} as a SQL literal")


def _placeholder_mismatch(
    sql: str, placeholders: int, given: int, position: int | None
) -> SqlParseError:
    """``position`` is the first ``?`` left without a parameter, if any."""
    message = f"statement has {placeholders} placeholder(s) but {given} parameter(s) given"
    if position is not None:
        message += "\n" + caret_context(sql, position)
    return SqlParseError(message, position=position)


def bind_parameters(sql: str, params) -> str:
    """Substitute ``?`` placeholders with rendered literals.

    The text form of binding: the reference :class:`StatementTemplate`
    is tested against.  Placeholders
    inside string literals are left alone (the scanner honours
    doubled-quote escaping).  Raises with the first unbound
    placeholder's position when the parameter count does not match.
    """
    params = list(params)
    out: list[str] = []
    index = 0
    unbound_at: int | None = None
    in_string = False
    position = 0
    length = len(sql)
    while position < length:
        char = sql[position]
        if in_string:
            if char == "'":
                if position + 1 < length and sql[position + 1] == "'":
                    out.append("''")
                    position += 2
                    continue
                in_string = False
            out.append(char)
            position += 1
            continue
        if char == "'":
            in_string = True
            out.append(char)
            position += 1
            continue
        if char == "?":
            if index < len(params):
                out.append(render_literal(params[index]))
            elif unbound_at is None:
                unbound_at = position
            index += 1
            position += 1
            continue
        out.append(char)
        position += 1
    if index != len(params):
        raise _placeholder_mismatch(sql, index, len(params), unbound_at)
    return "".join(out)


# Exact types a parameter may have and be bound as it is.
_PLAIN_TYPES = frozenset((int, float, str, bool, type(None)))


def _plain_parameter(value):
    """``value`` as its plain type: a subclass of one as the base value."""
    if type(value) in _PLAIN_TYPES:
        return value
    for base in (bool, int, float, str):
        if isinstance(value, base):
            return base(value)
    raise SqlParseError(f"cannot render {type(value).__name__} as a SQL literal")


def _plain_parameters(params) -> Sequence:
    """``params`` as a sequence of plain values."""
    if not isinstance(params, (list, tuple)):
        params = tuple(params)
    if not set(map(type, params)) <= _PLAIN_TYPES:
        params = [_plain_parameter(value) for value in params]
    return params


class StatementTemplate:
    """One statement, lexed once and parsed per :meth:`bind`.

    Holds syntax only — nothing here depends on the schema, ``VERSION
    BY`` or a tenant — so a cached template cannot go stale.  Binding
    hands each ``?`` its value directly (no literal is rendered and
    nothing is lexed again) and must agree with
    ``parse_statement(bind_parameters(sql, params))`` wherever that
    renders (a non-finite float has no literal, and is only bound).

    The cursor inside is shared: a template is not re-entrant, like the
    single-threaded system around it.
    """

    def __init__(self, sql: str) -> None:
        self.sql = sql
        self._tokens = _Tokens(sql)
        self.insert_shape = self._strided_insert()

    def _strided_insert(self) -> tuple[str, tuple[str, ...] | None, int] | None:
        """``(table, columns, values per row)`` of an INSERT whose VALUES
        are all placeholders, so that column ``j`` of its rows is
        ``params[j::k]``; None for every other statement."""
        tokens = self._tokens
        placeholders = len(tokens.param_positions)
        if not placeholders or not tokens.accept_word("insert"):
            return None
        parsed = _parse_insert(tokens.bind([None] * placeholders))
        width = len(parsed.rows[0])
        if len(parsed.rows) * width != placeholders:
            return None  # some value is a literal
        return parsed.table, parsed.columns, width

    def bind(self, params=()):
        """The parsed statement with ``params`` as its ``?`` values, each
        as a plain value (see :func:`_plain_parameter`)."""
        return _parse_tokens(self._tokens.bind(_plain_parameters(params)))

    def bind_insert_columns(self, params) -> tuple[list[Sequence], list[set]]:
        """The value columns of an all-placeholder INSERT (one per
        entry of its column list), as strided slices of ``params``, and
        each column's value types: the one read of them.  Only when a
        column holds a value of no plain type are the values converted
        (:func:`_plain_parameter`), all in order, so the error names the
        first value that has none."""
        if not isinstance(params, (list, tuple)):
            params = tuple(params)
        width = self.insert_shape[2]
        columns = [params[j::width] for j in range(width)]
        kinds = [set(map(type, column)) for column in columns]
        if not all(found <= _PLAIN_TYPES for found in kinds):
            params = [_plain_parameter(value) for value in params]
            columns = [params[j::width] for j in range(width)]
            kinds = [set(map(type, column)) for column in columns]
        self._tokens.check_count(params)
        return columns, kinds
