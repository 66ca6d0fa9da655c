"""The write path against a reference model.

A hypothesis state machine drives a plain cluster and a three-replica
Raft cluster through the write path's operations: ``put``,
``put_nowait`` then ``settle_writes``, a SQL ``INSERT``, ``flush_all``,
``checkpoint_all``, a replica crash and recovery until the group has a
leader again (Raft), a two-shard route that makes ``split_batch``
apportion, a DDL that types the key ``extra`` some puts carry, and a
DDL that adds the FLOAT64 column ``f``, whose values are drawn with
NaN, ±0.0, ±inf, ints and nulls among them (SQL parameters too), and
``log`` texts that are empty, non-ASCII, null or hold a NUL among them.
The oracle is a list of ``(ts, log, api, latency, f)`` per tenant.  After every step each
tenant's answers must equal the oracle's, wherever the rows sit
(realtime, archived, or both): ``COUNT(*)``, its rows with ``f`` as the
float it was put as, a ``GROUP BY api`` with COUNT / SUM / MIN / MAX of
``latency``, the top five latencies, and a ``LIMIT`` that returns that
many of its rows.  Every ``flush_all`` must return and leave no row
pending, and archiving must be invisible: every query of the battery
(:func:`battery`) answers the same after it as before, values and types
alike (:func:`assert_same_answer`).
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro import LogStore, small_test_config
from repro.common.errors import InvalidBatchError
from repro.flow.router import RouteRule
from repro.logblock.schema import ColumnSpec, ColumnType
from repro.query.sql import parse_sql

from tests.conftest import BASE_TS

# One oracle row: what the invariant queries read.
Row = tuple[int, str, str, int, float | None]  # ts, log, api, latency, f

TABLE = "request_log"
TENANTS = (1, 2, 3)
INSERT_COLUMNS = ("ts", "ip", "api", "latency", "fail", "log", "f")

tenants = st.sampled_from(TENANTS)
counts = st.integers(1, 40)
# What the key ``extra`` holds, if a put carries it.
extras = st.sampled_from([None, None, "int", "str"])
# The values a put's rows take for ``f``, and the forms of their
# ``log``, in turn.  A batch whose logs are all text without a NUL
# (empty or non-ASCII ones too) keeps ``log`` one NUL-joined blob in the
# memtable; a null or a NUL among them makes the column a value list.
FS = [None, 0.0, -0.0, 0.5, 2.0, -1.5, 0, 1, 2, -3, float("nan"), float("inf"), float("-inf")]
fs = st.lists(st.sampled_from(FS), min_size=1, max_size=6)
LOG_FORMS = ["tenant {tenant} row {ts}", "", "é {ts} naïve", "日志 {ts}", None, "nul\0{ts}"]
logs = st.lists(st.sampled_from(LOG_FORMS), min_size=1, max_size=3)


def model_settings() -> settings:
    """The loaded profile under ``--hypothesis-profile=ci`` (conftest),
    else a run small enough for the tier-1 suite."""
    if settings.get_current_profile_name() == "ci":
        return settings.default
    return settings(
        max_examples=30,
        stateful_step_count=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )


class WritePathModel(RuleBasedStateMachine):
    use_raft = False

    def __init__(self) -> None:
        super().__init__()
        config = small_test_config(
            use_raft=self.use_raft, n_workers=2, shards_per_worker=2, seal_rows=64
        )
        self.store = LogStore.create(config=config)
        self.oracle: dict[int, list[Row]] = {tenant: [] for tenant in TENANTS}
        self.sessions: dict = {}
        self.next_ts = BASE_TS
        self.extra_typed = False
        self.f_added = False
        self.split = False

    # -- inputs -----------------------------------------------------------

    def rows(self, tenant: int, count: int, extra: str | None, fs=(None,), logs=LOG_FORMS[:1]):
        rows = []
        for i in range(count):
            ts = self.next_ts
            self.next_ts += 1_000
            form = logs[i % len(logs)]
            row = {
                "tenant_id": tenant,
                "ts": ts,
                "ip": f"10.0.{tenant}.{ts % 7}",
                "api": f"/api/v{ts % 3}",
                "latency": ts % 997,
                "fail": ts % 5 == 0,
                "log": None if form is None else form.format(tenant=tenant, ts=ts),
                "f": fs[i % len(fs)],
            }
            if extra == "int":
                row["extra"] = ts % 11
            elif extra == "str":
                row["extra"] = f"x{ts % 11}"
            rows.append(row)
        return rows

    def write(self, put, tenant: int, rows: list[dict]) -> None:
        """``put`` the rows and record them, or expect the refusal of an
        int ``extra`` once the DDL typed it STRING."""
        if self.extra_typed and any(isinstance(row.get("extra"), int) for row in rows):
            with pytest.raises(InvalidBatchError, match="column 'extra' expects"):
                put(tenant, rows)
            return
        put(tenant, rows)
        self.record(tenant, rows)

    def record(self, tenant: int, rows: list[dict]) -> None:
        """The rows as the oracle holds them: ``f`` the float put, or
        null while the schema has no ``f`` (admission drops the key)."""
        for row in rows:
            f = row["f"] if self.f_added else None
            held = row["ts"], row["log"], row["api"], row["latency"]
            self.oracle[tenant].append((*held, None if f is None else float(f)))

    def shards(self) -> list:
        shards = (s for w in self.store.workers.values() for s in w.shards.values())
        return sorted(shards, key=lambda s: s.shard_id)

    # -- rules ------------------------------------------------------------

    @rule(tenant=tenants, count=counts, extra=extras, fs=fs, logs=logs)
    def put(self, tenant, count, extra, fs=(None,), logs=LOG_FORMS[:1]):
        self.write(self.store.put, tenant, self.rows(tenant, count, extra, fs, logs))

    @rule(tenant=tenants, count=counts, extra=extras, fs=fs, logs=logs)
    def put_nowait_then_settle(self, tenant, count, extra, fs=(None,), logs=LOG_FORMS[:1]):
        self.write(self.store.put_nowait, tenant, self.rows(tenant, count, extra, fs, logs))
        self.store.settle_writes()

    @rule(tenant=tenants, count=st.integers(1, 8), fs=fs, logs=logs)
    def sql_insert(self, tenant, count, fs=(None,), logs=LOG_FORMS[:1]):
        session = self.sessions.get(tenant)
        if session is None:
            session = self.store.connect(tenant, self.store.issue_token(tenant))
            self.sessions[tenant] = session
        rows = self.rows(tenant, count, None, fs, logs)
        columns = INSERT_COLUMNS if self.f_added else INSERT_COLUMNS[:-1]
        values = "(" + ", ".join("?" * len(columns)) + ")"
        sql = f"INSERT INTO {TABLE} ({', '.join(columns)}) VALUES " + ", ".join(
            [values] * count
        )
        params = [row[column] for row in rows for column in columns]
        assert session.execute(sql, params).rows_inserted == count
        self.record(tenant, rows)

    @rule()
    def flush_all(self):
        # Archiving nothing moves nothing: the battery runs when rows do.
        battery = self.battery() if self.store.pending_rows() else []
        before = {sql: self.store.query(sql).rows for sql in battery}
        self.store.flush_all()
        assert self.store.pending_rows() == 0
        for sql, rows in before.items():
            assert_same_answer(sql, rows, self.store.query(sql).rows)

    @rule()
    def checkpoint_all(self):
        self.store.checkpoint_all()

    @precondition(lambda self: self.use_raft)
    @rule(index=st.integers(0, 3), which=st.sampled_from(["leader", "follower"]))
    def crash_and_recover_replica(self, index, which):
        shard = self.shards()[index]
        leader = shard.raft.wait_for_leader()
        victim = leader
        if which == "follower":
            victim = next(n for n in shard.raft.full_replicas() if n is not leader)
        shard.crash_replica(victim.node_id)
        self.store.clock.advance(0.5)
        shard.recover_replica(victim.node_id)
        # Healed: a flush in a leaderless window archives nothing, by design.
        shard.raft.wait_for_leader()

    @precondition(lambda self: not self.split)
    @rule()
    def route_tenant_2_over_two_shards(self):
        controller = self.store.controller
        controller.ensure_route(2)
        (home,) = controller.routing.rule_for(2).shards()
        other = next(s for s in controller.topology.shards if s != home)
        controller.routing.set_rule(RouteRule.from_dict(2, {home: 0.6, other: 0.4}))
        self.split = True

    @precondition(lambda self: not self.extra_typed)
    @rule()
    def type_extra_as_string(self):
        self.store.catalog.add_column(ColumnSpec("extra", ColumnType.STRING))
        self.extra_typed = True

    @precondition(lambda self: not self.f_added)
    @rule()
    def add_float_column_f(self):
        self.store.catalog.add_column(ColumnSpec("f", ColumnType.FLOAT64))
        self.f_added = True

    # -- checks -----------------------------------------------------------

    @invariant()
    def every_tenant_reads_its_acked_rows(self):
        for tenant in TENANTS:
            held = self.oracle[tenant]
            where = f"FROM {TABLE} WHERE tenant_id = {tenant}"
            counted = self.store.query(f"SELECT COUNT(*) {where}").rows
            assert (counted[0]["COUNT(*)"] if counted else 0) == len(held)
            # repr: a NaN is no NaN's equal, 1 is 1.0's, -0.0 is 0.0's.
            columns = "ts, log, f" if self.f_added else "ts, log"
            rows = self.store.query(f"SELECT {columns} {where}").rows
            assert sorted((row["ts"], row["log"], repr(row.get("f"))) for row in rows) == sorted(
                (ts, log, repr(f)) for ts, log, _, _, f in held
            )
            self.check_queries(where, held)

    def check_queries(self, where: str, held: list[Row]) -> None:
        """The aggregate, top-k and LIMIT answers over one tenant's rows."""
        groups: dict[str, list[int]] = {}
        for _, _, api, latency, _ in held:
            groups.setdefault(api, []).append(latency)
        grouped = self.store.query(
            f"SELECT api, COUNT(*), SUM(latency), MIN(latency), MAX(latency) {where} GROUP BY api"
        ).rows
        assert [tuple(row.values()) for row in grouped] == [
            (api, len(v), float(sum(v)), min(v), max(v)) for api, v in sorted(groups.items())
        ]
        # Ties make the rows chosen arbitrary: compare the latencies only.
        top = self.store.query(f"SELECT latency {where} ORDER BY latency DESC LIMIT 5").rows
        assert [row["latency"] for row in top] == sorted(
            (latency for _, _, _, latency, _ in held), reverse=True
        )[:5]
        some = self.store.query(f"SELECT log {where} LIMIT 7").rows
        assert len(some) == min(7, len(held))
        assert {row["log"] for row in some} <= {log for _, log, *_ in held}

    def battery(self) -> list[str]:
        """Each tenant's queries whose answers must not depend on where
        the rows sit."""
        queries = []
        for tenant in TENANTS:
            where = f"FROM {TABLE} WHERE tenant_id = {tenant}"
            f = ", SUM(f), MIN(f), MAX(f)" if self.f_added else ""
            queries += [
                f"SELECT COUNT(*) {where}",
                f"SELECT ts, log, f {where} ORDER BY f"
                if self.f_added
                else f"SELECT ts, log {where}",
                f"SELECT api, COUNT(*), SUM(latency), MIN(latency), MAX(latency){f} {where} "
                "GROUP BY api",
                f"SELECT latency {where} ORDER BY latency DESC LIMIT 5",
            ]
            if self.f_added:
                queries += [
                    f"SELECT f, COUNT(*), SUM(f), MIN(f), MAX(f), COUNT(DISTINCT f) {where} "
                    "GROUP BY f",
                    f"SELECT f {where} ORDER BY f DESC LIMIT 5",
                ]
        return queries

    def teardown(self):
        self.flush_all()
        self.every_tenant_reads_its_acked_rows()


def canon(value) -> tuple:
    """A sortable stand-in for one result value that keeps its type: a
    NaN is every NaN, and -0.0 is 0.0 (they are ``==``)."""
    if value is None:
        return (0,)
    if value != value:
        return (1, type(value).__name__)
    if type(value) is float:
        value += 0.0  # -0.0 + 0.0 is 0.0
    return (2, type(value).__name__, value)


def assert_same_answer(sql: str, before: list[dict], after: list[dict]) -> None:
    """``after`` answers ``sql`` as ``before`` did, NaN-aware, types
    alike.  Rows and ties follow placement, so: an ORDER BY or a GROUP
    BY must give the same key sequence, and a query without a LIMIT the
    same rows as a multiset; a float ``SUM`` adds in placement order,
    so it need only agree to a relative 1e-9."""
    assert len(after) == len(before), sql
    query = parse_sql(sql)
    by = query.order_by or query.group_by
    if by is not None:
        keys = [[canon(row[by]) for row in rows] for rows in (before, after)]
        assert keys[0] == keys[1], sql
    if query.limit is not None:
        return
    sums = [name for name in before[0] if name.startswith("SUM(")] if before else []

    def exact(row: dict) -> list:
        return [canon(value) for name, value in row.items() if name not in sums]

    for was, now in zip(sorted(before, key=exact), sorted(after, key=exact)):
        assert list(now) == list(was) and exact(now) == exact(was), sql
        for name in sums:
            if canon(now[name]) != canon(was[name]):
                assert type(now[name]) is type(was[name]), sql
                assert math.isclose(now[name], was[name], rel_tol=1e-9), sql


class RaftWritePathModel(WritePathModel):
    use_raft = True


def test_a_new_leader_serves_the_rows_its_predecessor_acked():
    """A run the Raft machine found: shard 0's new leader had not yet
    committed an entry of its own term, so it had not applied the two
    rows of tenant 2 its predecessor acked, and a scan read its store
    without them.  Scans and seals now wait for that commit."""
    state = RaftWritePathModel()
    steps = [
        ("put", dict(count=1, extra=None, tenant=1)),
        ("type_extra_as_string", {}),
        ("put", dict(count=1, extra=None, tenant=3)),
        ("route_tenant_2_over_two_shards", {}),
        ("flush_all", {}),
        ("sql_insert", dict(count=1, tenant=1)),
        ("flush_all", {}),
        ("sql_insert", dict(count=1, tenant=3)),
        ("sql_insert", dict(count=1, tenant=1)),
        ("checkpoint_all", {}),
        ("sql_insert", dict(count=5, tenant=2)),
        ("put", dict(count=1, extra="int", tenant=1)),
        ("crash_and_recover_replica", dict(index=0, which="leader")),
    ]
    state.every_tenant_reads_its_acked_rows()
    for name, arguments in steps:
        getattr(state, name)(**arguments)
        state.every_tenant_reads_its_acked_rows()
    state.teardown()


TestPlainWritePath = WritePathModel.TestCase
TestPlainWritePath.settings = model_settings()
TestRaftWritePath = RaftWritePathModel.TestCase
TestRaftWritePath.settings = model_settings()
