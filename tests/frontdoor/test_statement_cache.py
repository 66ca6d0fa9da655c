"""The shared statement cache and direct parameter binding.

The reference everywhere is the text path the cache replaces on the hot
path: ``parse_statement(bind_parameters(sql, params))``.  A cached
statement must produce the same AST, the same inserted rows (key order
and versions included) and the same errors.
"""

from __future__ import annotations

import dataclasses
import string

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.config import small_test_config
from repro.cluster.logstore import LogStore
from repro.common.errors import AuthError, QueryError, SqlParseError
from repro.frontdoor import session as session_module
from repro.frontdoor.session import STATEMENT_CACHE_ENTRIES, VersionStamper
from repro.logblock.schema import ColumnSpec, ColumnType
from repro.query import sql as sql_module
from repro.query.planner import parse_timestamp
from repro.rowstore.batch import RowBatch
from repro.query.sql import (
    ParsedInsert,
    ParsedQuery,
    StatementTemplate,
    bind_parameters,
    parse_statement,
)

CREATE = (
    "CREATE TABLE events ("
    "name STRING, n INT64, score FLOAT64, ok BOOL, at TIMESTAMP, note STRING)"
)
INSERT_2X3 = "INSERT INTO events (name, n, ok) VALUES (?, ?, ?), (?, ?, ?)"

_text = st.text(alphabet=string.printable, max_size=20)
_values = st.one_of(
    st.none(),
    st.integers(-(10**12), 10**12),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    _text,
)


def make_store(versioned: bool = False) -> LogStore:
    store = LogStore.create(config=small_test_config())
    create = CREATE[:-1] + ", VERSION BY name)" if versioned else CREATE
    store.create_table(create)
    return store


@pytest.fixture
def store():
    return make_store()


@pytest.fixture
def session(store):
    return store.connect(1, store.issue_token(1))


def oracle(sql: str, params=()):
    return parse_statement(bind_parameters(sql, params))


def without_text(parsed):
    """A parsed statement minus the SQL text it came from (the template
    keeps its ``?``s there, the text path the rendered literals)."""
    if isinstance(parsed, ParsedQuery) and parsed.subquery is not None:
        parsed = dataclasses.replace(parsed, subquery=without_text(parsed.subquery))
    return dataclasses.replace(parsed, raw_sql="")


def headline(exc: BaseException) -> str:
    """An error message up to its position: positions and caret snippets
    are relative to the template on one side, the bound text on the other."""
    return str(exc).split(" at position")[0]


def reference_rows(store, session, parsed: ParsedInsert):
    """Row-at-a-time stamping and validation: the loop the columnar
    ``Session._insert`` replaced, kept here as its reference."""
    schema = store.catalog.schema
    version_spec = store.catalog.version_spec
    stamper = VersionStamper(store.clock)
    stamper._last = store.sessions.stamper._last
    columns = parsed.columns if parsed.columns is not None else schema.column_names()
    rows, versions = [], []
    for values in parsed.rows:
        if len(values) != len(columns):
            raise QueryError(
                f"INSERT row has {len(values)} values for {len(columns)} columns"
            )
        row = {name: None for name in schema.column_names()}
        row.update(zip(columns, values))
        if row["tenant_id"] is None:
            row["tenant_id"] = session.tenant_id
        elif row["tenant_id"] != session.tenant_id:
            raise AuthError("foreign tenant")
        for spec in schema.columns:
            if spec.ctype is ColumnType.TIMESTAMP and isinstance(row[spec.name], str):
                row[spec.name] = parse_timestamp(row[spec.name])
        if row["ts"] is None:
            row["ts"] = int(store.clock.now() * 1_000_000)
        if version_spec is not None and row[version_spec.version_column] is None:
            row[version_spec.version_column] = stamper.next()
        schema.validate_row(row)
        for spec in schema.columns:  # a FLOAT64 column's ints are admitted as floats
            if spec.ctype is ColumnType.FLOAT64 and isinstance(row[spec.name], int):
                row[spec.name] = float(row[spec.name])
        versions.append(
            row[version_spec.version_column] if version_spec is not None else None
        )
        rows.append(row)
    return rows, versions


def assert_same_insert(store, session, sql: str, params) -> None:
    """Execute ``sql`` through the session and compare with the reference."""
    expected_rows, expected_versions = reference_rows(store, session, oracle(sql, params))
    result = session.execute(sql, params)
    assert result.rows == expected_rows
    assert [list(row) for row in result.rows] == [list(row) for row in expected_rows]
    assert [[type(v) for v in row.values()] for row in result.rows] == [
        [type(v) for v in row.values()] for row in expected_rows
    ]
    assert result.versions == expected_versions
    assert result.rows_inserted == len(expected_rows)


# -- differential: ASTs ------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(params=st.lists(_values, min_size=1, max_size=6))
def test_bound_select_ast_equals_text_path(params):
    conditions = " AND ".join(f"c{i} = ?" for i in range(len(params)))
    sql = f"SELECT a FROM t WHERE {conditions} LIMIT 5"
    template = StatementTemplate(sql)
    for _ in range(2):  # the second bind rewinds the same tokens
        assert without_text(template.bind(params)) == without_text(oracle(sql, params))
    assert template.bind(params).raw_sql == sql


SELECT_TEMPLATES = [
    ("SELECT log FROM t WHERE ts >= ? AND ts <= ? AND ip = ?", (5, 9, "10.0.0.1")),
    ("SELECT COUNT(*) FROM t WHERE MATCH(log, ?) AND fail = ?", ("error it's", True)),
    ("SELECT api, COUNT(*) FROM t WHERE n BETWEEN ? AND ? GROUP BY api", (1, 2.5)),
    ("SELECT a FROM t WHERE c IN (?, 'x', ?) OR NOT d = ?", ("it''s", None, -3)),
    ("SELECT a FROM t WHERE name LIKE ? ORDER BY a DESC LIMIT ?", ("ab%", 10)),
    ("SELECT a FROM t WHERE c = 'what?' AND d = ? AND e = 'it''s ?'", (7,)),
    (
        "SELECT name FROM (SELECT *, ROW_NUMBER() OVER (PARTITION BY name "
        "ORDER BY version DESC) AS rn FROM t WHERE n > ?) WHERE rn = 1 AND ok = ?",
        (4, False),
    ),
    ("SELECT a FROM t", ()),
]


@pytest.mark.parametrize("sql,params", SELECT_TEMPLATES)
def test_select_templates_bind_to_the_text_path_ast(sql, params):
    template = StatementTemplate(sql)
    assert template.insert_shape is None
    assert without_text(template.bind(params)) == without_text(oracle(sql, params))


def test_parameters_are_bound_as_plain_values():
    class Level(int):
        pass

    class Tag(str):
        pass

    sql = "SELECT a FROM t WHERE c IN (?, ?, ?)"
    bound = StatementTemplate(sql).bind([Level(3), Tag("x"), 2.5])
    assert bound == dataclasses.replace(oracle(sql, [3, "x", 2.5]), raw_sql=sql)
    assert [type(v) for v in bound.where.values] == [int, str, float]


# -- differential: INSERT rows -----------------------------------------------


def test_insert_shape_is_recognised_when_the_template_is_built():
    assert StatementTemplate(INSERT_2X3).insert_shape == ("events", ("name", "n", "ok"), 3)
    assert StatementTemplate("INSERT INTO events VALUES (?, ?)").insert_shape == (
        "events", None, 2,
    )
    mixed = StatementTemplate("INSERT INTO events (name, n) VALUES (?, 1), (?, ?)")
    assert mixed.insert_shape is None
    assert StatementTemplate("INSERT INTO events (name) VALUES ('a')").insert_shape is None
    columns, kinds = StatementTemplate(INSERT_2X3).bind_insert_columns(
        ("a", 1, True, "b", 2, False)
    )
    assert [list(column) for column in columns] == [["a", "b"], [1, 2], [True, False]]
    assert kinds == [{str}, {int}, {bool}]


def test_a_cached_insert_reads_each_parameters_type_once(session, monkeypatch):
    """The bind's per-column type sets reach admission for every column
    passed on as bound; only the stamped ones are read again."""
    handed = []
    admit = RowBatch.from_columns.__func__

    def spy(cls, *args, kinds=None, **kwargs):
        handed.append(kinds)
        return admit(cls, *args, kinds=kinds, **kwargs)

    monkeypatch.setattr(RowBatch, "from_columns", classmethod(spy))
    for _ in range(2):  # the first execution binds as the cached template does
        session.execute(INSERT_2X3, ("a", 1, True, "b", 2, False))
    assert handed == [{"name": {str}, "n": {int}, "ok": {bool}}] * 2


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    rows=st.lists(
        st.tuples(
            st.one_of(st.none(), _text),
            st.one_of(st.none(), st.integers(-(10**12), 10**12)),
            st.one_of(st.none(), st.integers(-100, 100), st.floats(-1e9, 1e9)),
            st.one_of(st.none(), st.booleans()),
        ),
        min_size=1,
        max_size=5,
    ),
    literal_slots=st.sets(st.integers(0, 19)),
)
def test_cached_insert_rows_equal_the_reference(rows, literal_slots):
    """Random rows, with a random subset of VALUES slots spelled as
    literals (none: the strided path; some: the re-parse path)."""
    store = make_store(versioned=True)
    session = store.connect(1, store.issue_token(1))
    slots, params = [], []
    for index, value in enumerate(value for row in rows for value in row):
        if index in literal_slots:
            slots.append(sql_module.render_literal(value))
        else:
            slots.append("?")
            params.append(value)
    groups = [", ".join(slots[i : i + 4]) for i in range(0, len(slots), 4)]
    sql = "INSERT INTO events (name, n, score, ok) VALUES " + ", ".join(
        f"({group})" for group in groups
    )
    for _ in range(3):  # text path, then the cached template twice
        assert_same_insert(store, session, sql, params)
    assert store.sessions.statements.get(sql).insert_shape == (
        None if literal_slots & set(range(len(slots))) else ("events", ("name", "n", "score", "ok"), 4)
    )


def test_cached_insert_stamps_tenant_timestamps_and_versions():
    store = make_store(versioned=True)
    session = store.connect(1, store.issue_token(1))
    sql = "INSERT INTO events (tenant_id, ts, name, at, version) VALUES (?, ?, ?, ?, ?), (?, ?, ?, ?, ?)"
    batches = [
        (1, "2020-11-11 00:00:00", "a", "2020-11-11 01:00:00", None, None, None, "b", None, 7),
        (None, 5, "it's", None, 9, 1, None, "''", 12, None),
    ]
    for params in batches * 2:
        assert_same_insert(store, session, sql, params)
    store.clock.sleep(1.5)
    assert_same_insert(store, session, sql, batches[0])


def test_strings_with_quotes_and_question_marks(store, session):
    sql = "INSERT INTO events (name, note) VALUES (?, 'what?'), ('it''s ?', ?)"
    for params in [("a'b", "c''d"), ("?", "'")] * 2:
        assert_same_insert(store, session, sql, params)
    rows = session.execute(
        "SELECT name FROM events WHERE note = ?", ("what?",)
    ).rows
    assert sorted(row["name"] for row in rows) == ["?", "?", "a'b", "a'b"]


def test_cached_select_answers_like_the_text_path(store, session):
    session.execute(INSERT_2X3, ("a", 1, True, "b", 2, False))
    session.execute(INSERT_2X3, ("c", 3, True, "it's", 4, None))
    sql = "SELECT name, n FROM events WHERE n >= ? AND ok = ? ORDER BY n"
    for params in [(1, True), (2, False), (1, True)]:
        text = bind_parameters(sql, params)
        expected = store.query(text, tenant_scope=1).rows
        assert session.execute(sql, params).rows == expected
    assert session.execute(sql, (1, True)).rows == [
        {"name": "a", "n": 1},
        {"name": "c", "n": 3},
    ]


# -- differential: errors ----------------------------------------------------


def raised_by(call, *args):
    with pytest.raises(Exception) as excinfo:
        call(*args)
    return excinfo.value


def test_count_mismatch_is_the_same_error_on_both_paths(session):
    sql = "SELECT name FROM events WHERE n >= ? AND n <= ?"
    session.execute(sql, (1, 2))  # cached from here on
    for params in [(), (1,), (1, 2, 3)]:
        cached = raised_by(session.execute, sql, params)
        text = raised_by(oracle, sql, params)
        assert type(cached) is type(text) is SqlParseError
        assert str(cached) == str(text)
        assert cached.position == text.position
    few = raised_by(session.execute, sql, (1,))
    assert str(few).startswith("statement has 2 placeholder(s) but 1 parameter(s) given\n")
    assert few.position == sql.rindex("?")
    assert raised_by(session.execute, sql, (1, 2, 3)).position is None


def test_unbound_placeholder_without_params_is_a_count_mismatch(session):
    sql = "SELECT name FROM events WHERE ts >= ?"
    prepared = session.prepare(sql)
    for run in (lambda: session.execute(sql), lambda: session.explain(sql), prepared.execute):
        error = raised_by(run)
        assert isinstance(error, SqlParseError)
        assert "statement has 1 placeholder(s) but 0 parameter(s) given" in str(error)
        assert error.position == sql.index("?")
    with pytest.raises(SqlParseError, match="1 placeholder"):
        parse_statement(sql)
    # A `?` inside a string literal is text, not a placeholder.
    assert session.execute("SELECT name FROM events WHERE name = 'why?'").rows == []


@pytest.mark.parametrize(
    "sql,good,bad",
    [
        ("SELECT name FROM events WHERE name LIKE ?", ("ab%",), ("%ab",)),
        ("SELECT name FROM events WHERE name LIKE ?", ("ab%",), (5,)),
        ("SELECT name FROM events WHERE MATCH(note, ?)", ("x",), (5,)),
        ("SELECT name FROM events WHERE MATCH(note, ?)", ("x",), (None,)),
        ("SELECT name FROM events LIMIT ?", (3,), (-1,)),
        ("SELECT name FROM events LIMIT ?", (3,), ("3",)),
        ("INSERT INTO events (name, n) VALUES (?, 1), (?, ?)", ("a", "b", 2), ("a", "b", "x")),
        (INSERT_2X3, ("a", 1, True, "b", 2, False), ("a", 1, True, "b", "2", False)),
        (INSERT_2X3, ("a", 1, True, "b", 2, False), ("a", 1, True, 5, 2, False)),
        (
            "INSERT INTO events (tenant_id, name) VALUES (?, ?)", (1, "a"), (2, "a"),
        ),
        (
            "INSERT INTO events (at, name) VALUES (?, ?)",
            ("2020-11-11 00:00:00", "a"),
            ("not a time", "a"),
        ),
    ],
)
def test_value_errors_match_the_text_path(store, sql, good, bad):
    """Same template, first on a fresh store (text path), then cached."""
    fresh = make_store().connect(1, store.issue_token(1))
    text = raised_by(fresh.execute, sql, bad)
    session = store.connect(1, store.issue_token(1))
    session.execute(sql, good)
    assert sql in session._statements
    before = store.pending_rows()
    cached = raised_by(session.execute, sql, bad)
    assert type(cached) is type(text)
    assert headline(cached) == headline(text)
    assert store.pending_rows() == before


def test_arity_errors_match_the_text_path(store, session):
    explicit = "INSERT INTO events (name, n) VALUES (?, ?, ?)"
    text = raised_by(oracle, explicit, ("a", 1, 2))
    built = raised_by(StatementTemplate, explicit)
    assert type(built) is type(text) is SqlParseError
    assert headline(built) == headline(text) == "INSERT row has 3 values for 2 columns"
    ragged = "INSERT INTO events (name, n) VALUES (?, ?), (?, ?, ?)"
    assert headline(raised_by(StatementTemplate, ragged)) == headline(
        raised_by(oracle, ragged, (1, 2, 3, 4, 5))
    )
    implicit = "INSERT INTO events VALUES (?, ?)"
    for _ in range(2):  # arity against the schema is not syntax: cached, and checked per execute
        error = raised_by(session.execute, implicit, (1, 2))
        assert isinstance(error, QueryError)
        assert "INSERT row has 2 values for 8 columns" in str(error)
    assert implicit in session._statements


@pytest.mark.parametrize("value", [b"bytes", [1], {"a": 1}, object()])
def test_unrenderable_parameters_are_rejected_before_any_write(store, session, value):
    session.execute(INSERT_2X3, ("a", 1, True, "b", 2, False))
    select = "SELECT name FROM events WHERE n = ?"
    session.execute(select, (1,))
    before = store.pending_rows()
    for sql, params in [(INSERT_2X3, ("a", 1, True, "b", value, False)), (select, (value,))]:
        cached = raised_by(session.execute, sql, params)
        text = raised_by(oracle, sql, params)
        assert type(cached) is type(text) is SqlParseError
        assert str(cached) == str(text)
    assert store.pending_rows() == before


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_a_non_finite_float_parameter_is_bound(store, session, value):
    """A float with no SQL literal is stored as ``put()`` stores it, on
    the first execution and the cached one, realtime and archived."""
    sql = "INSERT INTO events (name, score) VALUES (?, ?)"
    for name in ("first", "cached"):
        assert session.execute(sql, (name, value)).rows_inserted == 1
    for _ in ("realtime", "archived"):
        rows = session.execute("SELECT name, score FROM events WHERE score IS NOT NULL").rows
        assert sorted((row["name"], repr(row["score"])) for row in rows) == [
            ("cached", repr(value)), ("first", repr(value))
        ]
        assert store.flush_all() is not None and store.pending_rows() == 0
    # EXPLAIN binds as execute does.
    assert "events" in session.explain("SELECT name FROM events WHERE score = ?", (value,))


def test_admin_insert_through_a_cached_template(store):
    admin = store.connect_admin(store.issue_admin_token())
    sql = "INSERT INTO events (tenant_id, name) VALUES (?, ?), (?, ?)"
    for _ in range(2):
        assert admin.execute(sql, (4, "a", 4, "b")).rows_inserted == 2
    with pytest.raises(QueryError, match="exactly one tenant"):
        admin.execute(sql, (4, "a", 5, "b"))
    with pytest.raises(QueryError, match="explicit tenant_id"):
        admin.execute(sql, (4, "a", None, "b"))
    assert store.pending_rows() == 4


# -- only syntax is cached ---------------------------------------------------


def test_additive_column_reaches_a_cached_insert(store, session):
    explicit = "INSERT INTO events (name, n) VALUES (?, ?)"
    implicit = "INSERT INTO events VALUES (?, ?, ?, ?, ?, ?, ?, ?)"
    full = (1, 5, "a", 1, 1.5, True, 9, "note")
    session.execute(explicit, ("a", 1))
    session.execute(implicit, full)
    store.catalog.add_column(ColumnSpec("extra", ColumnType.STRING))
    row = session.execute(explicit, ("b", 2)).rows[0]
    assert list(row) == store.catalog.schema.column_names()
    assert row["extra"] is None and list(row)[-1] == "extra"
    with pytest.raises(QueryError, match="8 values for 9 columns"):
        session.execute(implicit, full)
    wider = "INSERT INTO events VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)"
    assert session.execute(wider, full + ("x",)).rows[0]["extra"] == "x"


def test_version_by_switched_on_reaches_a_cached_insert(store, session):
    sql = "INSERT INTO events (name, n) VALUES (?, ?), (?, ?)"
    assert session.execute(sql, ("a", 1, "b", 2)).versions == [None, None]
    assert session.execute(sql, ("a", 1, "b", 2)).versions == [None, None]
    store.catalog.add_column(ColumnSpec("version", ColumnType.INT64))
    store.catalog.set_version_spec("name", "version")
    result = session.execute(sql, ("a", 3, "b", 4))
    first, second = result.versions
    assert first is not None and second > first
    assert [row["version"] for row in result.rows] == result.versions
    latest = session.execute(
        "SELECT name, n FROM (SELECT *, ROW_NUMBER() OVER (PARTITION BY name "
        "ORDER BY version DESC) AS rn FROM events) WHERE rn = 1 AND name = ?",
        ("a",),
    ).rows
    assert latest == [{"name": "a", "n": 3}]


def test_one_cache_serves_every_session_and_scope_is_read_per_execute(store):
    one = store.connect(1, store.issue_token(1))
    two = store.connect(2, store.issue_token(2))
    one.execute(INSERT_2X3, ("a", 1, True, "b", 2, False))
    assert INSERT_2X3 in two._statements
    assert two._statements is store.sessions.statements
    rows = two.execute(INSERT_2X3, ("c", 3, True, "d", 4, False)).rows
    assert {row["tenant_id"] for row in rows} == {2}
    select = "SELECT name FROM events WHERE n >= ?"
    assert [r["name"] for r in one.execute(select, (0,)).rows] == ["a", "b"]
    assert [r["name"] for r in two.execute(select, (0,)).rows] == ["c", "d"]


def test_last_insert_rows_is_set_before_the_write_is_dispatched(store, session, monkeypatch):
    session.execute(INSERT_2X3, ("a", 1, True, "b", 2, False))
    seen = []

    def failing_put(tenant_id, rows):
        seen.append((session.last_insert_rows, rows))
        raise RuntimeError("leader crashed")

    monkeypatch.setattr(store, "put", failing_put)
    with pytest.raises(RuntimeError):
        session.execute(INSERT_2X3, ("c", 3, True, "d", 4, False))
    (recorded, written), = seen
    assert recorded == written.to_dicts()  # the batch handed to put, as dicts
    assert [row["name"] for row in session.last_insert_rows] == ["c", "d"]


# -- bounds and work counts --------------------------------------------------


def test_cache_is_count_bounded_with_lru_eviction(store, session):
    cache = store.sessions.statements
    assert cache.max_entries == STATEMENT_CACHE_ENTRIES
    templates = [f"SELECT name FROM events WHERE n = {i} AND n >= ?" for i in range(300)]
    keep = templates[0]
    for sql in templates:
        session.execute(sql, (0,))
        session.execute(keep, (0,))  # touched every round: never the eldest
    assert len(cache) == STATEMENT_CACHE_ENTRIES
    assert keep in cache
    assert templates[1] not in cache and templates[2] not in cache
    assert all(sql in cache for sql in templates[-(STATEMENT_CACHE_ENTRIES - 1) :])


def test_a_statement_that_fails_to_parse_is_not_cached(store, session):
    cache = store.sessions.statements
    for sql, params in [
        ("SELEC name FROM events", ()),
        ("SELECT name FROM events WHERE n = ? ;", (1,)),
        ("SELECT name FROM events WHERE name LIKE ?", ("%x",)),
        ("SELECT name FROM events WHERE n = ?", ()),
        ("INSERT INTO events (name) VALUES (?, ?)", ("a", "b")),
    ]:
        with pytest.raises(SqlParseError):
            session.execute(sql, params)
        assert sql not in cache
    assert len(cache) == 0


def test_cached_statements_are_not_lexed_or_parsed_again(store, session, monkeypatch):
    insert = INSERT_2X3
    select = "SELECT name FROM events WHERE n >= ? AND ok = ?"
    session.execute(insert, ("a", 1, True, "b", 2, False))
    session.execute(select, (0, True))

    lexed = []
    original_init = sql_module._Tokens.__init__

    def counting_init(self, sql):
        lexed.append(sql)
        original_init(self, sql)

    def forbidden(*args, **kwargs):
        raise AssertionError("a cached statement reached the text path")

    monkeypatch.setattr(sql_module._Tokens, "__init__", counting_init)
    monkeypatch.setattr("repro.cluster.broker.parse_sql", forbidden)
    monkeypatch.setattr(session_module, "parse_statement", forbidden)
    monkeypatch.setattr(session_module, "bind_parameters", forbidden)
    prepared = session.prepare(insert)
    for seq in range(100):
        assert session.execute(insert, (f"a{seq}", seq, True, "b", seq, False)).rows_inserted == 2
        assert prepared.execute((f"p{seq}", seq, None, "q", seq, None)).rows_inserted == 2
        assert session.execute(select, (seq, True)).rows
    assert lexed == []
