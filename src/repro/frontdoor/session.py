"""Front-door sessions: authenticated, tenant-scoped statement dispatch.

A :class:`Session` is the unit of client state the SQL protocol layer
holds per connection (Figure 3's "Application (SQL Protocol)" edge):

* it is authenticated once, against the per-tenant token registry, and
  every statement it runs is scoped to that tenant — reads get the
  scope threaded through the planner (an out-of-scope filter raises
  :class:`AuthError`, a missing one is injected), writes must carry the
  session's tenant or none at all;
* it dispatches by statement class: SELECT → broker query path,
  INSERT → version-stamped ingest, CREATE TABLE → catalog DDL;
* every statement runs as a :class:`PreparedStatement`: its SQL text is
  looked up in the pool's :class:`StatementCache`, and a cached
  statement is bound to its ``?`` parameters without being rendered to
  text or lexed again.

Versioned tables (``VERSION BY key``) get INSERT-as-UPDATE semantics
here: every inserted row is stamped with a nanosecond ``version`` from
the pool's shared :class:`VersionStamper` (strictly monotonic, so two
writes of the same key in the same clock instant still order), and
"latest row per key" reads resolve through the dedup machinery.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Sequence

from repro.common.errors import AuthError, QueryError
from repro.logblock.schema import ColumnType
from repro.query.planner import parse_timestamp
from repro.query.sql import (
    ParsedAlterTenant,
    ParsedCreateTable,
    ParsedInsert,
    ParsedQuery,
    StatementTemplate,
    # The host-time tracer (benchmarks/e2e) wraps these two here.
    bind_parameters,  # noqa: F401
    parse_statement,  # noqa: F401
)
from repro.rowstore.batch import RowBatch

# Statements the pool keeps lexed, across all of its sessions.
STATEMENT_CACHE_ENTRIES = 256


class VersionStamper:
    """Strictly monotonic nanosecond version source.

    Derived from the virtual clock, bumped by at least 1 per stamp so
    rows stamped within one clock instant still have a total order —
    INSERT-as-UPDATE needs "later write, greater version" to hold
    unconditionally.
    """

    def __init__(self, clock) -> None:
        self._clock = clock
        self._last = 0

    def next(self) -> int:
        now_ns = int(round(self._clock.now() * 1e9))
        self._last = max(now_ns, self._last + 1)
        return self._last


@dataclass
class InsertResult:
    """Ack for one INSERT statement."""

    table: str
    rows_inserted: int
    versions: list[int | None] = field(default_factory=list)
    batch: RowBatch | None = None  # the stamped rows, column-major, as written

    @property
    def rows(self) -> list[dict]:
        """The stamped rows as dicts, built when read."""
        return self.batch.to_dicts() if self.batch is not None else []


class StatementCache:
    """Count-bounded LRU of SQL text → :class:`StatementTemplate`.

    Templates hold syntax only (schema, ``VERSION BY`` and tenant scope
    are read when a statement executes), so DDL invalidates nothing and
    one cache serves every session of the pool.
    """

    def __init__(self, max_entries: int = STATEMENT_CACHE_ENTRIES) -> None:
        self.max_entries = max_entries
        self._entries: OrderedDict[str, StatementTemplate] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, sql: str) -> bool:
        return sql in self._entries

    def get(self, sql: str) -> StatementTemplate | None:
        template = self._entries.get(sql)
        if template is not None:
            self._entries.move_to_end(sql)
        return template

    def admit(self, template: StatementTemplate) -> StatementTemplate:
        """Cache ``template``, evicting the least recently used."""
        self._entries[template.sql] = template
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return template


class PreparedStatement:
    """A statement with ``?`` placeholders, bound per :meth:`execute`.

    Every execution binds the parameters directly — no literal is
    rendered — into the statement's tokens, lexed once: the first
    execution of a text the cache has not seen lexes it and caches it
    once it has bound.  An INSERT whose VALUES are all placeholders is
    not parsed after that, its parameters are sliced into columns.
    """

    def __init__(
        self, session: "Session", sql: str, template: StatementTemplate | None
    ) -> None:
        self._session = session
        self.sql = sql
        self._template = template

    def execute(self, params=()):
        session = self._session
        session._check_open()
        template = self._template or StatementTemplate(self.sql)
        if template.insert_shape is not None:
            bound = template.bind_insert_columns(params)
        else:
            statement = template.bind(params)
        if self._template is None:  # cached once it has bound
            self._template = session._statements.admit(template)
        if template.insert_shape is not None:
            table, columns, _ = template.insert_shape
            return session._insert(table, columns, *bound)
        return session._run(statement, self.sql)


class Session:
    """One authenticated client connection, scoped to one tenant.

    Admin sessions (``admin=True``, opened via the operator token) have
    no tenant scope: reads run unscoped, `_system` tables show every
    tenant, and INSERTs must carry an explicit ``tenant_id`` per row.
    """

    def __init__(
        self,
        store,
        tenant_id: int | None,
        stamper: VersionStamper,
        statements: StatementCache,
        admin: bool = False,
    ) -> None:
        if not admin and tenant_id is None:
            raise AuthError("non-admin sessions must be scoped to a tenant")
        self._store = store
        self.tenant_id = tenant_id
        self.admin = admin
        self._stamper = stamper
        self._statements = statements
        self.closed = False
        self._last_insert: RowBatch | None = None

    @property
    def last_insert_rows(self) -> list[dict]:
        """The rows of the most recent INSERT, recorded *before* the
        write is dispatched — a crash mid-write leaves them here for
        the chaos ledger to mark indeterminate."""
        return self._last_insert.to_dicts() if self._last_insert is not None else []

    @property
    def scope(self) -> int | None:
        """The tenant filter this session's reads run under (None = admin)."""
        return None if self.admin else self.tenant_id

    # -- statement dispatch ------------------------------------------------

    def execute(self, sql: str, params=()):
        """Run one statement; return type depends on the statement class
        (SELECT → QueryResult, INSERT → InsertResult, CREATE → schema).
        """
        return self.prepare(sql).execute(params)

    def prepare(self, sql: str) -> PreparedStatement:
        self._check_open()
        return PreparedStatement(self, sql, self._statements.get(sql))

    def _run(self, statement, sql: str):
        if isinstance(statement, ParsedQuery):
            # Handed over parsed: the broker does not parse it again.
            # `statement=sql` is the client's text for the slow-query log.
            return self._store.query(statement, tenant_scope=self.scope, statement=sql)
        if isinstance(statement, ParsedInsert):
            return self._insert(
                statement.table, statement.columns, list(zip(*statement.rows))
            )
        if isinstance(statement, ParsedCreateTable):
            return self._store.create_table(statement)
        if isinstance(statement, ParsedAlterTenant):
            return self._alter_tenant(statement)
        raise QueryError(f"unsupported statement {type(statement).__name__}")

    def _alter_tenant(self, statement: ParsedAlterTenant):
        """``ALTER TENANT ... SET RETENTION``: update the lifecycle policy.

        Admin sessions may alter any tenant; a scoped session only its
        own.  Clauses absent from the statement leave the existing knob
        untouched, so ``SET RETENTION TTL '30d'`` does not clear a
        configured cold-age.  Returns the resulting policy.
        """
        if not self.admin and statement.tenant_id != self.tenant_id:
            raise AuthError(
                f"session is scoped to tenant {self.tenant_id} and cannot "
                f"alter tenant {statement.tenant_id}"
            )
        from repro.lifecycle.policy import RetentionPolicy, parse_duration

        current = self._store.lifecycle.policy(statement.tenant_id)
        ttl_s = (
            parse_duration(statement.ttl) if statement.set_ttl else current.ttl_s
        )
        cold_age_s = (
            parse_duration(statement.cold_age)
            if statement.set_cold_age
            else current.cold_age_s
        )
        policy = RetentionPolicy(ttl_s=ttl_s, cold_age_s=cold_age_s)
        self._store.lifecycle.set_policy(statement.tenant_id, policy)
        return policy

    def explain(self, sql: str, params=()) -> str:
        self._check_open()
        return self._store.explain(sql, tenant_scope=self.scope, params=params)

    def close(self) -> None:
        self.closed = True

    def _check_open(self) -> None:
        if self.closed:
            raise QueryError("session is closed")

    # -- INSERT (version-stamped ingest) -----------------------------------

    def _insert(
        self, table: str, columns: Sequence[str] | None, values: list[Sequence], kinds=()
    ) -> InsertResult:
        """Stamp, check and write an INSERT given column-major: ``values``
        holds one sequence per entry of ``columns`` (None = the schema's
        columns), each as long as the statement has rows; ``kinds``, when
        given, each one's value types."""
        schema = self._store.catalog.schema
        if table != schema.name:
            raise QueryError(f"unknown table {table!r} (expected {schema.name!r})")
        names = schema.column_names()
        if columns is None:
            columns = names
        else:
            for column in columns:
                schema.column(column)  # SchemaError on unknown column
        if len(values) != len(columns):
            raise QueryError(
                f"INSERT row has {len(values)} values for {len(columns)} columns"
            )
        n_rows = len(values[0])
        given = dict(zip(columns, values))
        given["tenant_id"] = self._stamp_tenants(given.get("tenant_id"), n_rows)
        known = dict(zip(columns, kinds))  # for the columns passed on as given
        known.pop("tenant_id", None)
        # TIMESTAMP columns accept 'YYYY-MM-DD HH:MM:SS' strings.
        for spec in schema.columns:
            column = given.get(spec.name)
            if spec.ctype is not ColumnType.TIMESTAMP or column is None:
                continue
            if str in (known.pop(spec.name, None) or set(map(type, column))):
                given[spec.name] = [
                    parse_timestamp(v) if isinstance(v, str) else v for v in column
                ]
        if "ts" in names:
            now_us = int(self._store.clock.now() * 1_000_000)
            known.pop("ts", None)
            given["ts"] = _fill_nulls(given.get("ts"), n_rows, lambda: now_us)
        version_spec = self._store.catalog.version_spec
        versions: list[int | None] = [None] * n_rows
        if version_spec is not None:
            known.pop(version_spec.version_column, None)
            versions = given[version_spec.version_column] = _fill_nulls(
                given.get(version_spec.version_column), n_rows, self._stamper.next
            )
        if self.admin:
            tenants = set(given["tenant_id"])
            if len(tenants) != 1:
                raise QueryError(
                    "admin INSERT must target exactly one tenant per statement"
                )
            target_tenant = tenants.pop()
        else:
            target_tenant = self.tenant_id
        # Columns in schema order, absent ones null: what sizes the
        # batch and what the WAL and every LogBlock serialize.  Admitted
        # against the schema here, as ``put()`` admits row dicts.
        nulls = [None] * n_rows
        batch = RowBatch.from_columns(
            names, [given.get(name, nulls) for name in names], target_tenant, schema, kinds=known
        )
        self._last_insert = batch
        self._store.put(target_tenant, batch)
        return InsertResult(
            table=table, rows_inserted=n_rows, versions=list(versions), batch=batch
        )

    def _stamp_tenants(self, tenants: Sequence | None, n_rows: int) -> Sequence:
        """The rows' ``tenant_id`` column under this session's scope."""
        if self.admin:
            if tenants is None or None in tenants:
                raise QueryError(
                    "admin sessions have no tenant scope: INSERT rows must "
                    "carry an explicit tenant_id"
                )
            return tenants
        own = self.tenant_id
        if tenants is None:
            return [own] * n_rows
        for tenant in tenants:
            if tenant is not None and tenant != own:
                raise AuthError(
                    f"session is scoped to tenant {own} but the INSERT "
                    f"carries tenant_id {tenant!r}"
                )
        return [own] * n_rows


def _fill_nulls(column: Sequence | None, n_rows: int, default) -> Sequence:
    """``column`` with ``default()`` in place of each null, in row order."""
    if column is None:
        return [default() for _ in range(n_rows)]
    if None not in column:
        return column
    return [default() if value is None else value for value in column]


class SessionPool:
    """Owns live sessions, the shared version stamper and the shared
    statement cache."""

    def __init__(self, store, tokens, max_sessions: int = 64) -> None:
        self._store = store
        self._tokens = tokens
        self._max_sessions = max_sessions
        self.stamper = VersionStamper(store.clock)
        self.statements = StatementCache()
        self._sessions: list[Session] = []

    def connect(self, tenant_id: int, token: str) -> Session:
        """Authenticate and open one tenant-scoped session."""
        self._tokens.validate(tenant_id, token)
        return self._open(
            Session(self._store, tenant_id, self.stamper, self.statements)
        )

    def connect_admin(self, token: str) -> Session:
        """Authenticate the operator token and open an unscoped session."""
        self._tokens.validate_admin(token)
        return self._open(
            Session(self._store, None, self.stamper, self.statements, admin=True)
        )

    def _open(self, session: Session) -> Session:
        self._sessions = [s for s in self._sessions if not s.closed]
        if len(self._sessions) >= self._max_sessions:
            raise QueryError(
                f"session pool exhausted ({self._max_sessions} live sessions)"
            )
        self._sessions.append(session)
        return session

    def live_sessions(self) -> int:
        self._sessions = [s for s in self._sessions if not s.closed]
        return len(self._sessions)

