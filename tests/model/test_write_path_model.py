"""The write path against a reference model, faults included.

A hypothesis state machine drives a plain cluster and a three-replica
Raft cluster through the write path's operations: ``put``,
``put_nowait`` then ``settle_writes``, a SQL ``INSERT``, ``flush_all``,
``checkpoint_all``, a replica crash and recovery until the group has a
leader again (Raft), a two-shard route that makes ``split_batch``
apportion, a DDL that types the key ``extra`` some puts carry, and a
DDL that adds the FLOAT64 column ``f``, whose values are drawn with
NaN, ±0.0, ±inf, ints and nulls among them (SQL parameters too), and
``log`` texts that are empty, non-ASCII, null or hold a NUL among them.
An example may start with a session's ``CREATE TABLE ... VERSION BY``,
so its INSERTs are stamped with versions.  The lifecycle rules compact,
repack tenant 1's aged blocks cold, sweep its expired ones under a
one-hour TTL, and offboard one tenant.

Fault rules arm the seams the cluster is built over — the
:class:`~repro.chaos.ChaosObjectStore` under its OSS, a
:class:`~repro.chaos.FaultySegmentBackend` behind every WAL, each Raft
group's ``SimNetwork``, replica crashes and ``LogStore.build_shard`` for
a whole-shard crash — and stay armed across steps until ``heal`` runs,
so faults overlap.  A write that raises meanwhile is indeterminate: its
rows go to limbo.  ``heal`` clears every fault, drives the cluster to a
settled state and resolves limbo: each row, found by its unique ``ts``,
must appear at most once, and joins the oracle if it did.

The oracle is a list of ``(ts, log, api, latency, f)`` per tenant, and
the version each versioned INSERT stamped.  After every step with no
fault armed, :class:`~repro.chaos.InvariantChecker` checks the cluster
against the oracle's keys (each acked row read exactly once, replicas
identical, the catalog and the OSS listing agreeing up to the janitor's
orphan queue, offboarded tenants gone), and each tenant's answers must
equal the oracle's, wherever the rows sit (realtime, archived, cold, or
both): ``COUNT(*)``, its rows with ``f`` as the float it was put as, a
``GROUP BY api`` with COUNT / SUM / MIN / MAX of ``latency``, the top
five latencies, and a ``LIMIT`` that returns that many of its rows.
Every healthy ``flush_all`` must return and leave no row pending, and
archiving, compaction and cold repacks must be invisible: every query
of the battery (:func:`battery`) answers the same after them as before,
values and types alike (:func:`assert_same_answer`).
"""

from __future__ import annotations

import math
from collections import Counter, deque

import pytest
from hypothesis import HealthCheck, event, settings
from hypothesis.control import currently_in_test_context
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import LogStore, small_test_config
from repro.builder.compaction import Compactor
from repro.chaos import ChaosObjectStore, FaultySegmentBackend, InvariantChecker
from repro.common.clock import VirtualClock
from repro.common.errors import InvalidBatchError
from repro.flow.router import RouteRule
from repro.logblock.schema import ColumnSpec, ColumnType
from repro.oss.store import InMemoryObjectStore
from repro.query.sql import parse_sql

from tests.conftest import BASE_TS

# One oracle row: what the invariant queries read.
Row = tuple[int, str, str, int, float | None]  # ts, log, api, latency, f

TABLE = "request_log"
VERSIONED = "versioned_log"
TENANTS = (1, 2, 3)
RETAINED = 1  # the tenant with a retention policy
HOUR_US = 3_600_000_000
INSERT_COLUMNS = ("ts", "ip", "api", "latency", "fail", "log", "f")
MAX_FAULTS = 4  # fault rules armed at once

tenants = st.sampled_from(TENANTS)
counts = st.integers(1, 40)
shard_indexes = st.integers(0, 3)
fractions = st.sampled_from([0.25, 0.5, 0.75])
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


def count(name: str) -> None:
    """``hypothesis.event``, so ``--hypothesis-show-statistics`` shows
    which rules ran; a rule program run by hand is no hypothesis test."""
    if currently_in_test_context():
        event(name)


def can_arm(model: "WritePathModel") -> bool:
    return len(model.faults) < MAX_FAULTS


class WritePathModel(RuleBasedStateMachine):
    use_raft = False

    def __init__(self, seed: int = 0) -> None:
        """``seed`` draws the OSS faults and the Raft election timers."""
        super().__init__()
        clock = VirtualClock()
        self.oss = ChaosObjectStore(InMemoryObjectStore(), clock, seed=seed)
        # WAL owner → its backend, the durable medium a crash leaves.
        self.wal: dict[str, FaultySegmentBackend] = {}
        config = small_test_config(
            use_raft=self.use_raft,
            n_workers=2,
            shards_per_worker=2,
            seal_rows=32,
            seed=seed,
            wal_backend_factory=lambda name: self.wal.setdefault(
                name, FaultySegmentBackend(name)
            ),
        )
        self.store = LogStore.create(config=config, backend=self.oss, clock=clock)
        self.journal = self.store.obs.journal
        self.oss.attach_journal(self.journal)
        for backend in self.wal.values():
            backend.attach_journal(self.journal)
        self.store.register_tenant(RETAINED)
        self.store.set_retention(RETAINED, ttl="1h", cold_age="30m")
        self.table = TABLE
        self.oracle: dict[int, list[Row]] = {tenant: [] for tenant in TENANTS}
        # Rows of writes that raised: each lands at most once.
        self.limbo: dict[int, list[Row]] = {tenant: [] for tenant in TENANTS}
        self.versions: dict[int, int] = {}  # ts → version its INSERT stamped
        self.sessions: dict = {}
        self.next_ts = BASE_TS
        self.extra_typed = False
        self.f_added = False
        self.split = False
        self.faults: list[str] = []  # fault rules armed since the last heal
        self.crashed: list[tuple[object, str]] = []  # (shard, replica)
        self.corrupted = False
        self.cutoffs: dict[int, int] = {}  # tenant → the last sweep's expiry cutoff
        self.swept_to: int | None = None
        self.offboarded: set[int] = set()

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
        int ``extra`` once the DDL typed it STRING.  Under armed faults
        a put that raises leaves its rows in limbo."""
        if tenant in self.offboarded:
            return
        if self.extra_typed and any(isinstance(row.get("extra"), int) for row in rows):
            with pytest.raises(InvalidBatchError, match="column 'extra' expects"):
                put(tenant, rows)
            return
        try:
            put(tenant, rows)
        except Exception:
            if not self.faults:
                raise
            self.limbo[tenant] += self.held(rows)
            return
        self.oracle[tenant] += self.held(rows)

    def held(self, rows: list[dict]) -> list[Row]:
        """The rows as the oracle holds them: ``f`` the float put, or
        null while the schema has no ``f`` (admission drops the key)."""
        held = []
        for row in rows:
            f = row["f"] if self.f_added else None
            values = row["ts"], row["log"], row["api"], row["latency"]
            held.append((*values, None if f is None else float(f)))
        return held

    def session(self, tenant: int):
        if tenant not in self.sessions:
            self.sessions[tenant] = self.store.connect(tenant, self.store.issue_token(tenant))
        return self.sessions[tenant]

    def shards(self) -> list:
        shards = (s for w in self.store.workers.values() for s in w.shards.values())
        return sorted(shards, key=lambda s: s.shard_id)

    def home_shard(self, tenant: int):
        controller = self.store.controller
        controller.ensure_route(tenant)
        first = min(controller.routing.rule_for(tenant).shards())
        return next(s for s in self.shards() if s.shard_id == first)

    # -- rules ------------------------------------------------------------

    @initialize(versioned=st.booleans())
    def choose_table(self, versioned):
        if versioned:
            self.session(1).execute(
                f"CREATE TABLE {VERSIONED} (ip STRING, api STRING, latency INT64, "
                "fail BOOL, log STRING TOKENIZED, VERSION BY api)"
            )
            self.table = VERSIONED

    @rule(tenant=tenants, count=counts, extra=extras, fs=fs, logs=logs)
    def put(self, tenant, count, extra, fs=(None,), logs=LOG_FORMS[:1]):
        self.write(self.store.put, tenant, self.rows(tenant, count, extra, fs, logs))

    @rule(tenant=tenants, count=counts, extra=extras, fs=fs, logs=logs)
    def put_nowait_then_settle(self, tenant, count, extra, fs=(None,), logs=LOG_FORMS[:1]):
        def put(tenant, rows):
            self.store.put_nowait(tenant, rows)
            self.store.settle_writes()

        self.write(put, tenant, self.rows(tenant, count, extra, fs, logs))

    @rule(tenant=tenants, count=st.integers(1, 8), fs=fs, logs=logs)
    def sql_insert(self, tenant, count, fs=(None,), logs=LOG_FORMS[:1]):
        if tenant in self.offboarded:
            return
        if self.table == VERSIONED:
            self.note("versioned_insert")
        session = self.session(tenant)
        rows = self.rows(tenant, count, None, fs, logs)
        columns = INSERT_COLUMNS if self.f_added else INSERT_COLUMNS[:-1]
        values = "(" + ", ".join("?" * len(columns)) + ")"
        sql = f"INSERT INTO {self.table} ({', '.join(columns)}) VALUES " + ", ".join(
            [values] * count
        )
        params = [row[column] for row in rows for column in columns]
        try:
            result = session.execute(sql, params)
        except Exception:
            if not self.faults:
                raise
            # The session stamps rows, versions too, before the put.
            self.limbo[tenant] += self.held(rows)
            stamped = session.last_insert_rows
        else:
            assert result.rows_inserted == count
            self.oracle[tenant] += self.held(rows)
            stamped = result.rows
        for row in stamped:
            if row.get("version") is not None:
                self.versions[row["ts"]] = row["version"]

    @rule()
    def flush_all(self):
        if self.faults:
            self.attempt("flush_all", self.store.flush_all)
            return
        # Archiving nothing moves nothing: the battery runs when rows do.
        battery = self.battery() if self.store.pending_rows() else []
        before = {sql: self.store.query(sql).rows for sql in battery}
        self.store.flush_all()
        assert self.store.pending_rows() == 0
        for sql, rows in before.items():
            assert_same_answer(sql, rows, self.store.query(sql).rows)

    @rule()
    def checkpoint_all(self):
        self.attempt("checkpoint_all", self.store.checkpoint_all)

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

    # -- lifecycle rules --------------------------------------------------

    @rule()
    def compact_all(self):
        store = self.store
        compactor = Compactor(
            store.catalog.schema,
            store.catalog,
            store.janitor,
            codec=store.config.codec,
            block_rows=store.config.block_rows,
            small_threshold_rows=500,
            target_rows=1_000,
            obs=store.obs,
        )
        self.invisibly("compact_all", compactor.compact_all)

    @rule(fraction=fractions)
    def cold_repack(self, fraction):
        """Tenant 1's blocks older than ``fraction`` of the rows written
        so far go cold (30 minutes past them)."""
        now_ts = self.ts_at(fraction) + HOUR_US // 2
        self.invisibly("cold_repack", self.store.cold_compact, now_ts)

    @rule(fraction=fractions)
    def sweep_expired(self, fraction):
        """Tenant 1's one-hour TTL cuts at ``fraction`` of the rows written
        so far, or where the last sweep cut if that lies later (the
        clock never runs backwards); its blocks wholly before the cut
        may go."""
        now_ts = max(self.ts_at(fraction) + HOUR_US, self.swept_to or 0)
        self.cutoffs[RETAINED] = now_ts - HOUR_US
        self.swept_to = now_ts
        self.attempt("sweep_expired", self.store.sweep_expired, now_ts)
        if not self.faults:
            self.resolve()

    @precondition(lambda self: not self.offboarded)
    @rule(tenant=tenants)
    def offboard_tenant(self, tenant):
        self.offboarded.add(tenant)
        self.oracle[tenant] = []
        self.limbo[tenant] = []
        if self.faults:
            self.attempt("offboard_tenant", self.store.lifecycle.offboarder.offboard, tenant)
        else:
            self.note("offboard_tenant")
            assert self.store.offboard_tenant(tenant).verified

    # -- fault rules ------------------------------------------------------

    @precondition(can_arm)
    @rule(rate=st.sampled_from([0.2, 0.5, 0.8]), tears=st.integers(0, 2))
    def oss_errors(self, rate, tears):
        self.arm("oss_errors", "oss")
        self.oss.set_error_rate(rate)
        if tears:
            self.oss.tear_next_puts(tears, 0.4)

    @precondition(can_arm)
    @rule()
    def oss_outage(self):
        self.arm("oss_outage", "oss")
        self.oss.begin_outage()

    @precondition(can_arm)
    @rule(spike_s=st.sampled_from([0.01, 0.05]), every=st.sampled_from([0, 2, 5]))
    def oss_slow(self, spike_s, every):
        """Latency spikes, and every ``every``-th call throttled."""
        self.arm("oss_slow", "oss")
        self.oss.set_latency_spike(spike_s)
        self.oss.set_throttle_every(every)

    @precondition(can_arm)
    @rule(
        tenant=tenants,
        torn=st.booleans(),
        which=st.sampled_from(["leader", "follower"]),
        failures=st.integers(1, 3),
    )
    def wal_append_fault(self, tenant, torn, which, failures=1):
        """WAL appends of a tenant's shard fail their fsync or tear.  A
        plain shard's next ``failures`` appends fail — a flush's seal and
        drain first — and it carries on.  A torn append kills the
        process that wrote it: a plain shard restarts over its WAL, and
        a Raft replica, which also dies of a failed fsync, stays down
        until the heal."""
        if tenant in self.offboarded:
            return
        shard = self.home_shard(tenant)
        if shard.raft is None:
            victim = f"shard{shard.shard_id}"
        else:
            leader = shard.raft.leader()
            others = [n for n in sorted(shard.raft.nodes) if leader is None or n != leader.node_id]
            victim = leader.node_id if which == "leader" and leader is not None else others[0]
        backend = self.wal[victim]
        self.arm("torn_wal_append" if torn else "wal_fsync_failure", victim)
        if shard.raft is None and not torn:
            backend.fail_next_appends(failures)
            self.flush_all()
            return
        if torn:
            backend.tear_next_appends(1, 0.5)
        else:
            backend.fail_next_appends(1)
        self.put(tenant, 5, None)
        backend.heal()
        if shard.raft is None:
            self.rebuild(shard)
        else:
            self.crash(shard, victim)

    @precondition(can_arm)
    @rule(tenant=tenants)
    def crash_between_upload_and_drain(self, tenant):
        """The oldest sealed table of a tenant's shard reaches OSS and
        the catalog, then the whole shard dies before the drain is
        logged."""
        shard = self.home_shard(tenant)
        healthy = not self.faults
        self.arm("crash_before_drain", f"shard{shard.shard_id}")
        try:
            shard.seal_active()
            sealed = shard.take_sealed()
            if sealed:
                source, table = sealed[0]
                self.store.builder.archive_memtable(table, source)
        except Exception:
            if healthy:
                raise
        self.rebuild(shard)

    @precondition(lambda self: self.faults)
    @rule()
    def heal(self):
        """Clear every fault, drive the cluster to a settled state, then
        check it and resolve what the faults left undetermined."""
        count("heal")
        self.oss.heal()
        for backend in self.wal.values():
            backend.heal()
        for shard in self.shards():
            if shard.raft is not None:
                shard.raft.network.heal_all()
        for shard, node_id in self.crashed:
            shard.recover_replica(node_id)
        self.crashed.clear()
        self.faults.clear()
        self.store.clock.advance(2.0)  # elections finish, replicas catch up
        for shard in self.shards():
            if shard.raft is not None:
                shard.raft.wait_for_leader()
        self.retry(self.store.settle_writes)
        self.retry(self.store.flush_all)
        # Offboards and the last sweep replay (both idempotent) over
        # whatever a fault interrupted; the janitor's orphans go.
        for tenant in sorted(self.offboarded):
            self.store.lifecycle.offboarder.offboard(tenant, export=False)
        if self.swept_to is not None:
            self.store.sweep_expired(self.swept_to)
        self.store.janitor.sweep()
        self.resolve()

    # -- fault plumbing ---------------------------------------------------

    def arm(self, name: str, target: str, quiesced: bool = False) -> None:
        """Count one fault rule; checks wait for the next heal."""
        self.faults.append(name)
        count(name)
        if quiesced:
            count(f"{name} of a quiesced group")
        self.journal.emit(f"chaos.fault.{name}", target, detail="quiesced" if quiesced else "")

    def note(self, name: str) -> None:
        """Count a rule and each fault it runs under."""
        count(name)
        for fault in sorted(set(self.faults)):
            count(f"{name} under {fault}")

    def attempt(self, name: str, step, *args) -> None:
        """Run a step that may fail while faults are armed, not else;
        count it, the faults it ran under and a PUT it had torn."""
        self.note(name)
        torn = len(self.journal.events("chaos.fault.oss.torn_put"))
        try:
            step(*args)
        except Exception:
            if not self.faults:
                raise
        if len(self.journal.events("chaos.fault.oss.torn_put")) > torn:
            count(f"{name} tore a PUT")

    def invisibly(self, name: str, step, *args) -> None:
        """Run a step that moves rows between tiers: with no fault armed
        every battery query answers the same after it as before."""
        if self.faults:
            self.attempt(name, step, *args)
            return
        self.note(name)
        before = {sql: self.store.query(sql).rows for sql in self.battery()}
        step(*args)
        for sql, rows in before.items():
            assert_same_answer(sql, rows, self.store.query(sql).rows)

    def crash(self, shard, node_id: str) -> None:
        if not shard.raft.nodes[node_id].stopped:
            shard.crash_replica(node_id)
            self.crashed.append((shard, node_id))

    def rebuild(self, shard) -> None:
        """The shard's process dies and restarts over its WAL backends:
        torn-tail repair and replay, or a Raft group's re-election."""
        if shard.raft is not None:
            for node_id, node in sorted(shard.raft.nodes.items()):
                if not node.stopped:
                    shard.crash_replica(node_id)
            self.crashed = [(s, node_id) for s, node_id in self.crashed if s is not shard]
        rebuilt = self.store.build_shard(shard.shard_id, shard.worker_id)
        self.store.workers[shard.worker_id].add_shard(rebuilt)

    def retry(self, step) -> None:
        """A healed cluster settles within 15 virtual seconds."""
        for _ in range(30):
            try:
                return step()
            except Exception as exc:  # leaderless windows, stragglers
                error = exc
                self.store.clock.advance(0.5)
        raise AssertionError(f"the healed cluster failed {step.__name__}: {error!r}")

    def ts_at(self, fraction: float) -> int:
        return BASE_TS + int((self.next_ts - BASE_TS) * fraction)

    # -- checks -----------------------------------------------------------

    def checker(self, expiry_cutoffs=None) -> InvariantChecker:
        return InvariantChecker(
            self.store,
            acked={t: [str(row[0]) for row in rows] for t, rows in self.oracle.items()},
            indeterminate={t: [str(row[0]) for row in rows] for t, rows in self.limbo.items()},
            acked_ts={t: {str(row[0]): row[0] for row in rows} for t, rows in self.oracle.items()},
            key_columns=("ts",),
            table=self.table,
            expiry_cutoffs=expiry_cutoffs,
            offboarded=self.offboarded,
        )

    def resolve(self) -> None:
        """Check the cluster, limbo and expiry allowed for; then each
        limbo row that landed joins the oracle, and the rows a sweep
        took (older than the cutoff) leave it."""
        violations = self.checker(self.cutoffs).check_all()
        assert not violations, "\n".join(v.format() for v in violations)
        for tenant in TENANTS:
            where = f"FROM {self.table} WHERE tenant_id = {tenant}"
            seen = {row["ts"] for row in self.store.query(f"SELECT ts {where}").rows}
            cutoff = self.cutoffs.get(tenant, BASE_TS)
            kept = [row for row in self.oracle[tenant] if row[0] in seen or row[0] >= cutoff]
            self.oracle[tenant] = kept + [row for row in self.limbo[tenant] if row[0] in seen]
            self.limbo[tenant] = []

    @invariant()
    def every_tenant_reads_its_acked_rows(self):
        if self.faults:
            return  # the heal checks what the faults left
        violations = self.checker().check_all()
        assert not violations, "\n".join(v.format() for v in violations)
        for tenant in TENANTS:
            held = self.oracle[tenant]
            where = f"FROM {self.table} WHERE tenant_id = {tenant}"
            counted = self.store.query(f"SELECT COUNT(*) {where}").rows
            assert (counted[0]["COUNT(*)"] if counted else 0) == len(held)
            # repr: a NaN is no NaN's equal, 1 is 1.0's, -0.0 is 0.0's.
            columns = "ts, log, f" if self.f_added else "ts, log"
            if self.table == VERSIONED:
                columns += ", version"
            rows = self.store.query(f"SELECT {columns} {where}").rows
            assert sorted(
                (row["ts"], row["log"], repr(row.get("f")), row.get("version")) for row in rows
            ) == sorted((ts, log, repr(f), self.versions.get(ts)) for ts, log, _, _, f in held)
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
            where = f"FROM {self.table} WHERE tenant_id = {tenant}"
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
        if self.faults:
            self.heal()
        self.flush_all()
        self.every_tenant_reads_its_acked_rows()
        dropped = self.journal.total_emitted - len(self.journal)
        assert not dropped, f"the journal dropped {dropped} event(s): the example has no full record"


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
    """The Raft cluster, with the rules only replicas have."""

    use_raft = True

    @precondition(lambda self: not self.faults)
    @rule(index=shard_indexes, which=st.sampled_from(["leader", "follower"]))
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

    @precondition(can_arm)
    @rule(tenant=tenants)
    def crash_leader(self, tenant):
        shard = self.home_shard(tenant)
        leader = shard.raft.leader()
        if leader is not None:
            self.arm("crash_leader", leader.node_id, quiesced=leader._quiesced)
            self.crash(shard, leader.node_id)

    @precondition(can_arm)
    @rule(tenant=tenants)
    def crash_during_recovery(self, tenant):
        """A follower crashes and recovers under writes, and the leader
        crashes while the follower catches up."""
        shard = self.home_shard(tenant)
        leader = shard.raft.leader()
        followers = [n.node_id for n in shard.raft.full_replicas() if n is not leader]
        if leader is None or not followers or shard.raft.nodes[followers[0]].stopped:
            return
        self.arm("crash_during_recovery", followers[0], quiesced=leader._quiesced)
        self.crash(shard, followers[0])
        for writer in TENANTS:
            self.put(writer, 5, None)
        shard.recover_replica(followers[0])
        self.crashed.remove((shard, followers[0]))
        self.crash(shard, leader.node_id)

    @precondition(can_arm)
    @rule(
        tenant=tenants,
        cut=st.sampled_from(["both", "from_leader", "to_leader"]),
        everyone=st.booleans(),
        flush=st.booleans(),
    )
    def partition(self, tenant, cut, everyone, flush=False):
        """Cut a shard's leader off from one replica or from all: both
        ways, or only its messages out, or only those to it (it still
        leads, and what it proposes cannot commit); then, maybe, flush
        under the cut."""
        shard = self.home_shard(tenant)
        leader = shard.raft.leader()
        if leader is None:
            return
        others = [n for n in sorted(shard.raft.nodes) if n != leader.node_id]
        others = others if everyone else others[:1]
        name = "partition" if cut == "both" else "one_way_partition"
        self.arm(name, f"{leader.node_id}|{cut}|{','.join(others)}", quiesced=leader._quiesced)
        network = shard.raft.network
        for other in others:
            if cut == "both":
                network.partition(leader.node_id, other)
            elif cut == "from_leader":
                network.partition_one_way(leader.node_id, other)
            else:
                network.partition_one_way(other, leader.node_id)
        if flush:
            self.flush_all()

    @rule()
    def go_idle(self):
        """Two idle seconds: the Raft groups quiesce."""
        count("go_idle")
        self.store.clock.advance(2.0)

    @precondition(lambda self: self.crashed and not self.corrupted)
    @rule()
    def corrupt_crashed_replica_wal_tail(self):
        """At most once an example: a byte of a crashed replica's last
        WAL frame flips at rest.  Raft keeps an entry while a majority
        holds it, so the frame flips once the other replicas, live, hold
        all the victim logged: one disk's loss, of redundant bytes."""
        shard, node_id = self.crashed[0]
        victim = shard.raft.nodes[node_id].persistent
        for node in shard.raft.nodes.values():
            held = node.persistent
            if node.node_id != node_id and (
                node.stopped
                or held.last_log_index() < victim.last_log_index()
                or held.current_term < victim.current_term
            ):
                return
        self.corrupted = True
        if self.wal[node_id].corrupt_tail():
            self.arm("wal_tail_corruption", node_id)


def replay(
    machine: type[WritePathModel], steps: list[tuple[str, dict]], seed: int = 0
) -> WritePathModel:
    """Run one rule program, checking after every step, and tear down."""
    state = machine(seed)
    state.every_tenant_reads_its_acked_rows()
    for name, arguments in steps:
        getattr(state, name)(**arguments)
        state.every_tenant_reads_its_acked_rows()
    state.teardown()
    return state


def test_a_new_leader_serves_the_rows_its_predecessor_acked():
    """A run the Raft machine found: shard 0's new leader had not yet
    committed an entry of its own term, so it had not applied the two
    rows of tenant 2 its predecessor acked, and a scan read its store
    without them.  Scans and seals now wait for that commit."""
    replay(
        RaftWritePathModel,
        [
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
        ],
    )


def test_a_later_sweep_never_runs_at_an_earlier_now():
    """A run the plain machine found: a sweep at a quarter of the rows
    after one at half of them swept at an earlier "now", so it kept the
    block ``flush_all`` had archived below the first sweep's cutoff and
    the checker, holding that cutoff, found it alive."""
    replay(
        WritePathModel,
        [
            ("put", dict(count=28, extra=None, tenant=1)),
            ("put", dict(count=35, extra=None, tenant=1)),
            ("sweep_expired", dict(fraction=0.5)),
            ("flush_all", {}),
            ("sweep_expired", dict(fraction=0.25)),
        ],
    )


# One overlapping fault of each seam, then the heal.
FAULT_PROGRAM = [
    ("put", dict(count=40, extra=None, tenant=1)),
    ("put", dict(count=40, extra=None, tenant=2)),
    ("oss_errors", dict(rate=0.5, tears=2)),
    ("flush_all", {}),
    ("partition", dict(tenant=1, cut="both", everyone=False)),
    ("put", dict(count=20, extra=None, tenant=3)),
    ("crash_leader", dict(tenant=2)),
    ("wal_append_fault", dict(tenant=3, torn=True, which="follower")),
    ("put_nowait_then_settle", dict(count=20, extra=None, tenant=2)),
    ("flush_all", {}),
    ("heal", {}),
]
OSS_FAULTS = ("outage", "error", "throttled", "torn_put")


def test_a_fault_program_replays_its_journal_byte_for_byte():
    """An OSS tear, a partition, a leader crash, a torn WAL append and a
    heal, run twice, leave the same journal bytes: replaying a failing
    example reproduces its record.  Each OSS fault the injector counted
    is one ``chaos.fault.oss.*`` event, and ``_system.events`` reads the
    journal's fault events as they are."""
    first, second = (replay(RaftWritePathModel, FAULT_PROGRAM) for _ in range(2))
    assert first.journal.dump() == second.journal.dump()
    events = [e for e in first.journal.events() if e.kind.startswith("chaos.")]
    kinds = Counter(e.kind for e in events)
    for kind in ("oss.torn_put", "partition", "crash_leader", "wal.append_torn"):
        assert kinds[f"chaos.fault.{kind}"] >= 1, kind
    injected = sum(kinds[f"chaos.fault.oss.{kind}"] for kind in OSS_FAULTS)
    assert injected == first.oss.faults_injected
    admin = first.store.connect_admin(first.store.issue_admin_token())
    rows = admin.execute("SELECT * FROM _system.events").rows
    assert [
        (row["seq"], row["kind"], row["target"], row["detail"])
        for row in rows
        if row["kind"].startswith("chaos.")
    ] == [(e.seq, e.kind, e.target, e.detail) for e in events]


def test_an_example_whose_journal_dropped_events_fails():
    state = WritePathModel()
    state.journal._events = deque(state.journal._events, maxlen=4)
    for tenant in TENANTS:
        state.put(tenant, 40, None)
    with pytest.raises(AssertionError, match="journal dropped"):
        state.teardown()


# One explicit rule program per fault kind.  Hypothesis reaches a fault
# rule with some probability an example; a program reaches it on every
# run.  Each names the journal events that show its fault struck (a
# kind, or a kind and its detail) and runs on the machines it names,
# under two seeds, which move the OSS fault draws and election timers.
BOTH = (WritePathModel, RaftWritePathModel)
RAFT = (RaftWritePathModel,)
# 40 rows a tenant: past the 32-row seal, so every home shard seals.
LOAD = [("put", dict(count=40, extra=None, tenant=tenant)) for tenant in TENANTS]


def put(tenant: int, count: int = 20) -> tuple[str, dict]:
    return "put", dict(count=count, extra=None, tenant=tenant)


HEAL = ("heal", {})
PROGRAMS: dict[str, tuple[tuple[type[WritePathModel], ...], list, tuple[str, ...]]] = {
    "leader_crash_mid_stream": (
        RAFT,
        [
            *LOAD,
            ("crash_leader", dict(tenant=1)),
            ("put_nowait_then_settle", dict(count=30, extra=None, tenant=1)),
            put(2, 30),
            ("flush_all", {}),
            HEAL,
        ],
        ("chaos.fault.crash_leader",),
    ),
    "crash_during_recovery": (
        RAFT,
        [*LOAD, ("crash_during_recovery", dict(tenant=2)), put(2), HEAL],
        ("chaos.fault.crash_during_recovery",),
    ),
    "partition_during_flush": (
        RAFT,
        [
            *LOAD,
            ("partition", dict(tenant=1, cut="both", everyone=False, flush=True)),
            put(1),
            HEAL,
        ],
        ("chaos.fault.partition",),
    ),
    "one_way_partition_from_leader": (
        RAFT,
        [
            ("partition", dict(tenant=2, cut="from_leader", everyone=True)),
            *LOAD,
            ("flush_all", {}),
            HEAL,
        ],
        ("chaos.fault.one_way_partition",),
    ),
    "one_way_partition_to_leader_during_flush": (
        RAFT,
        [*LOAD, ("partition", dict(tenant=3, cut="to_leader", everyone=True, flush=True)), HEAL],
        ("chaos.fault.one_way_partition",),
    ),
    "leader_crash_after_quiescing": (
        RAFT,
        [*LOAD, ("flush_all", {}), ("go_idle", {}), ("crash_leader", dict(tenant=1)), put(1), HEAL],
        ("chaos.fault.crash_leader quiesced",),
    ),
    "partition_after_quiescing": (
        RAFT,
        [
            *LOAD,
            ("go_idle", {}),
            ("partition", dict(tenant=2, cut="both", everyone=True)),
            put(2),
            HEAL,
        ],
        ("chaos.fault.partition quiesced",),
    ),
    "oss_errors_tear_archive": (
        BOTH,
        [*LOAD, ("oss_errors", dict(rate=0.5, tears=2)), ("flush_all", {}), put(3), HEAL],
        ("chaos.fault.oss.torn_put", "chaos.fault.oss.error"),
    ),
    "oss_errors_tear_compaction": (
        BOTH,
        [
            *LOAD,
            ("flush_all", {}),
            *LOAD,
            ("flush_all", {}),
            ("oss_errors", dict(rate=0.2, tears=2)),
            ("compact_all", {}),
            HEAL,
        ],
        ("chaos.fault.oss.torn_put",),
    ),
    "oss_outage_during_archive": (
        BOTH,
        [*LOAD, ("oss_outage", {}), ("flush_all", {}), put(1), HEAL],
        ("chaos.fault.oss.outage",),
    ),
    "oss_latency_and_throttling": (
        BOTH,
        [*LOAD, ("oss_slow", dict(spike_s=0.05, every=2)), ("flush_all", {}), HEAL],
        ("chaos.fault.oss.latency seconds=0.05", "chaos.fault.oss.throttled"),
    ),
    "wal_fsync_failure": (
        BOTH,
        [
            *LOAD,
            ("wal_append_fault", dict(tenant=1, torn=False, which="leader", failures=2)),
            put(1),
            HEAL,
        ],
        ("chaos.fault.wal_fsync_failure", "chaos.fault.wal.append_failed"),
    ),
    "torn_wal_append": (
        BOTH,
        [*LOAD, ("wal_append_fault", dict(tenant=2, torn=True, which="leader")), put(2), HEAL],
        ("chaos.fault.torn_wal_append", "chaos.fault.wal.append_torn"),
    ),
    "wal_tail_corruption": (
        RAFT,
        [
            *LOAD,
            ("go_idle", {}),
            ("crash_leader", dict(tenant=1)),
            ("corrupt_crashed_replica_wal_tail", {}),
            put(1),
            HEAL,
        ],
        ("chaos.fault.wal_tail_corruption",),
    ),
    "crash_between_upload_and_drain": (
        BOTH,
        [
            *LOAD,
            ("crash_between_upload_and_drain", dict(tenant=1)),
            ("add_float_column_f", {}),
            HEAL,
            ("compact_all", {}),
        ],
        ("chaos.fault.crash_before_drain",),
    ),
    "versioned_inserts_across_leader_crash": (
        RAFT,
        [
            ("choose_table", dict(versioned=True)),
            ("sql_insert", dict(count=8, tenant=1)),
            ("sql_insert", dict(count=8, tenant=2)),
            ("crash_leader", dict(tenant=1)),
            ("sql_insert", dict(count=8, tenant=1)),
            ("sql_insert", dict(count=8, tenant=3)),
            HEAL,
            ("sql_insert", dict(count=4, tenant=1)),
        ],
        ("chaos.fault.crash_leader",),
    ),
    "lifecycle_under_oss_errors": (
        BOTH,
        [
            *LOAD,
            ("flush_all", {}),
            *LOAD,
            ("oss_errors", dict(rate=0.5, tears=1)),
            ("sweep_expired", dict(fraction=0.5)),
            ("cold_repack", dict(fraction=0.75)),
            ("offboard_tenant", dict(tenant=3)),
            HEAL,
        ],
        ("chaos.fault.oss.error",),
    ),
    "lifecycle_under_shard_crash": (
        BOTH,
        [
            *LOAD,
            ("flush_all", {}),
            *LOAD,
            ("crash_between_upload_and_drain", dict(tenant=1)),
            ("sweep_expired", dict(fraction=0.5)),
            ("cold_repack", dict(fraction=0.75)),
            ("offboard_tenant", dict(tenant=2)),
            HEAL,
        ],
        ("chaos.fault.crash_before_drain",),
    ),
    "mixed": (
        RAFT,
        FAULT_PROGRAM,
        ("chaos.fault.oss.torn_put", "chaos.fault.partition", "chaos.fault.wal.append_torn"),
    ),
}
MACHINES = [(name, machine) for name, (machines, _, _) in PROGRAMS.items() for machine in machines]


def case_id(name: str, machine: type[WritePathModel]) -> str:
    return f"{name}-{'raft' if machine.use_raft else 'plain'}"


@pytest.mark.parametrize(
    "name,machine,seed",
    [(name, machine, seed) for name, machine in MACHINES for seed in (0, 1)],
    ids=[f"{case_id(name, machine)}-s{seed}" for name, machine in MACHINES for seed in (0, 1)],
)
def test_a_fault_program_strikes_and_the_model_holds(name, machine, seed):
    """The program's fault struck, the checks held after every step and
    the heal, and the cluster acked writes."""
    _, steps, struck = PROGRAMS[name]
    state = replay(machine, steps, seed)
    events = state.journal.events()
    seen = {e.kind for e in events} | {f"{e.kind} {e.detail}" for e in events}
    assert [kind for kind in struck if kind not in seen] == []
    assert any(state.oracle.values()), "the program acked no writes"
    if state.table == VERSIONED:
        assert state.versions, "no INSERT was stamped with a version"


@pytest.mark.parametrize(
    "name,machine", MACHINES, ids=[case_id(name, machine) for name, machine in MACHINES]
)
def test_a_fault_program_reruns_byte_for_byte(name, machine):
    _, steps, _ = PROGRAMS[name]
    first, second = (replay(machine, steps, seed=1) for _ in range(2))
    assert first.journal.dump() == second.journal.dump()


TestPlainWritePath = WritePathModel.TestCase
TestPlainWritePath.settings = model_settings()
TestRaftWritePath = RaftWritePathModel.TestCase
TestRaftWritePath.settings = model_settings()
