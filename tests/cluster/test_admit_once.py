"""The admit-once write path at cluster level: a bad batch is rejected
whole before anything is logged, plain and replicated shards build the
same row stores from the same puts, crash recovery reproduces them, and
ingest metering is unchanged."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import LogStore, small_test_config
from repro.chaos.wal_faults import FaultySegmentBackend
from repro.cluster.shard import Shard
from repro.common.clock import VirtualClock
from repro.common.errors import InvalidBatchError
from repro.logblock.schema import ColumnSpec, ColumnType, TableSchema, request_log_schema
from repro.wal.log import MemorySegmentBackend

from tests.conftest import BASE_TS, MICROS, make_rows, rowstore_state


def all_shards(store):
    return sorted(
        (s for w in store.workers.values() for s in w.shards.values()),
        key=lambda s: s.shard_id,
    )


def poisoned(rows):
    bad = dict(rows[len(rows) // 2])
    del bad["ts"]
    return rows[: len(rows) // 2] + [bad] + rows[len(rows) // 2 + 1 :]


def rebuild_plain(shard, backend):
    """The reference model's plain-shard crash seam: a new process over
    the surviving WAL segments (``LogStore.build_shard``)."""
    return Shard(
        shard.shard_id, shard.worker_id, shard.capacity_rps,
        shard.seal_rows, shard.seal_bytes, shard._clock, wal_backend=backend,
    )


class TestPoisonPillBatch:
    def test_plain_shard_rejects_whole_batch_and_wal_stays_replayable(self):
        backends = {}

        def factory(name):
            return backends.setdefault(name, MemorySegmentBackend())

        store = LogStore.create(config=small_test_config(wal_backend_factory=factory))
        store.put(1, make_rows(20, tenant_id=1))
        before = store.pending_rows()

        with pytest.raises(InvalidBatchError, match="ts"):
            store.put(1, poisoned(make_rows(10, tenant_id=1, seed=1)))
        with pytest.raises(InvalidBatchError, match="ts"):
            store.put_nowait(1, poisoned(make_rows(10, tenant_id=1, seed=1)))
        assert store.pending_rows() == before

        store.put(1, make_rows(5, tenant_id=1, seed=2))  # the next put works
        assert store.pending_rows() == before + 5
        for shard in all_shards(store):
            rebuilt = rebuild_plain(shard, backends[f"shard{shard.shard_id}"])
            assert rowstore_state(rebuilt.rowstore) == rowstore_state(shard.rowstore)

    def test_shard_level_write_validates_before_the_wal(self):
        backend = MemorySegmentBackend()
        shard = Shard(0, "w0", 10_000, 1000, 1 << 30, VirtualClock(), wal_backend=backend)
        shard.write(make_rows(4))
        with pytest.raises(InvalidBatchError):
            shard.write(poisoned(make_rows(6, seed=1)))
        assert shard._wal.next_sequence == 1 and shard.pending_rows() == 4
        assert rebuild_plain(shard, backend).pending_rows() == 4

    def test_raft_shard_keeps_accepting_puts(self):
        store = LogStore.create(
            config=small_test_config(use_raft=True, group_commit=True)
        )
        store.put(1, make_rows(20, tenant_id=1))
        with pytest.raises(InvalidBatchError, match="ts"):
            store.put(1, poisoned(make_rows(10, tenant_id=1, seed=1)))
        with pytest.raises(InvalidBatchError, match="ts"):
            store.put_nowait(1, poisoned(make_rows(10, tenant_id=1, seed=1)))
        store.settle_writes()
        store.put(1, make_rows(5, tenant_id=1, seed=2))
        store.clock.advance(0.5)  # heartbeats carry commit to followers
        assert store.pending_rows() == 25
        for shard in all_shards(store):
            shard.verify_raft_consistency()
            stores = [shard.replica_store(n.node_id) for n in shard.raft.full_replicas()]
            assert all(rowstore_state(s) == rowstore_state(stores[0]) for s in stores)


class TestWrongTypedValue:
    """A value of the wrong type used to be acked, then raise
    ``SchemaError`` in every later ``flush_all()`` — wedging archiving
    for the good batches queued behind it as well."""

    @pytest.mark.parametrize(
        "column, value",
        [("latency", "x"), ("latency", True), ("latency", 1.5), ("ip", 7),
         ("fail", 1), ("log", b"raw")],
    )
    @pytest.mark.parametrize("use_raft", [False, True])
    def test_rejected_before_the_log_and_the_next_put_archives(self, use_raft, column, value):
        store = LogStore.create(config=small_test_config(use_raft=use_raft))
        store.put(4, make_rows(100, tenant_id=4))

        def log_positions():
            return [
                shard.raft.leader().persistent.last_log_index()
                if use_raft
                else shard._wal.next_sequence
                for shard in all_shards(store)
            ]

        logged = log_positions()
        bad = make_rows(3, tenant_id=4, seed=1)
        bad[1][column] = value
        for put in (store.put, store.put_nowait):
            with pytest.raises(InvalidBatchError, match=f"column '{column}' expects"):
                put(4, bad)
        store.settle_writes()
        assert store.pending_rows() == 100
        assert log_positions() == logged
        store.put(4, make_rows(20, tenant_id=4, seed=2))
        assert store.flush_all().rows_archived == 120
        assert store.pending_rows() == 0

    def test_float_column_takes_ints_and_unknown_keys_are_dropped(self):
        store = LogStore.create(config=small_test_config())
        rows = make_rows(5, tenant_id=4)
        # Dropped at put(), as archiving drops them: realtime and
        # archived rows agree, and a later DDL meets no value of the key.
        rows[0]["not_in_schema"] = {"nested": [2**70, b"raw", None]}
        rows[1]["not_in_schema"] = 1.5
        store.put(4, rows)
        realtime = [row for shard in all_shards(store) for row in shard.scan_realtime()]
        assert len(realtime) == 5 and all("not_in_schema" not in row for row in realtime)
        assert store.flush_all().rows_archived == 5

    @pytest.mark.parametrize("value", [object, (1, 2), {1, 2}, [object()]])
    @pytest.mark.parametrize("use_raft", [False, True])
    def test_value_without_durable_form_is_refused(self, use_raft, value):
        """The value rule: a value outside the closed set the record
        codec carries (``repro.rowstore.batch``) is refused where rows
        are admitted without a schema, a shard's own row dicts; put()
        drops the key the schema does not know first."""
        store = LogStore.create(config=small_test_config(use_raft=use_raft))
        rows = make_rows(5, tenant_id=4)
        rows[2]["not_in_schema"] = value
        shard = all_shards(store)[0]
        for write in (shard.write, shard.write_async):
            with pytest.raises(InvalidBatchError, match="has no durable form"):
                write(rows)
        store.settle_writes()
        assert store.pending_rows() == 0
        store.put(4, rows)
        assert store.flush_all().rows_archived == 5


class TestDdlOnAKeyAlreadyPut:
    """A key the schema did not know was carried into the row store; a
    DDL that then typed it differently wedged the shard's archive: every
    later ``flush_all()`` raised ``SchemaError`` and the rows stayed
    pending for good."""

    @pytest.mark.parametrize("use_raft", [False, True])
    def test_the_ddl_leaves_the_archive_working(self, use_raft):
        store = LogStore.create(config=small_test_config(use_raft=use_raft))
        rows = make_rows(10, tenant_id=4)
        for i, row in enumerate(rows):
            row["extra"] = i
        store.put(4, rows)
        store.catalog.add_column(ColumnSpec("extra", ColumnType.STRING))
        assert store.flush_all().rows_archived == 10
        assert store.pending_rows() == 0
        late = make_rows(3, tenant_id=4, seed=1)
        late[0]["extra"] = 7
        with pytest.raises(InvalidBatchError, match="column 'extra' expects"):
            store.put(4, late)
        late[0]["extra"] = "seven"
        store.put(4, late)
        assert store.flush_all().rows_archived == 3
        counts = store.query(
            "SELECT COUNT(*) FROM request_log WHERE tenant_id = 4 AND extra = 'seven'"
        ).rows
        assert counts == [{"COUNT(*)": 1}]
        assert store.query("SELECT COUNT(*) FROM request_log").rows == [{"COUNT(*)": 13}]


class TestOutOfRangeValue:
    """An int the archive encoder cannot store as int64 (or, in a
    FLOAT64 column, as a float or an SMA bound) used to be acked, then
    raise ``OverflowError`` in every later ``flush_all()`` of its shard."""

    @pytest.mark.parametrize(
        "column, value",
        [("latency", 2**70), ("latency", -(2**63) - 1), ("score", 10**400), ("score", 2**63)],
    )
    @pytest.mark.parametrize("use_raft", [False, True])
    def test_rejected_at_put_and_the_rows_around_it_archive(self, use_raft, column, value):
        request_log = request_log_schema()
        schema = TableSchema(
            request_log.name, request_log.columns + (ColumnSpec("score", ColumnType.FLOAT64),)
        )
        store = LogStore.create(schema, config=small_test_config(use_raft=use_raft))
        good = make_rows(100, tenant_id=4)
        for i, row in enumerate(good):  # in range: int64's ends, ints and floats mixed
            row["latency"] = (2**63 - 1, -(2**63), None)[i % 3]
            row["score"] = (2**53, 1.5, None, -(2**63))[i % 4]
        store.put(4, good)
        bad = make_rows(3, tenant_id=4, seed=1)
        for row in bad:
            row["score"] = 0.5
        bad[1][column] = value
        for put in (store.put, store.put_nowait):
            with pytest.raises(InvalidBatchError, match=f"column '{column}' holds a value beyond int64"):
                put(4, bad)
        store.settle_writes()
        assert store.pending_rows() == 100
        store.put(4, make_rows(20, tenant_id=4, seed=2))
        assert store.flush_all().rows_archived == 120
        assert store.pending_rows() == 0


class TestUnencodableString:
    """A lone surrogate has no UTF-8 encoding: it used to be acked, then
    raise ``UnicodeEncodeError`` from the block encoder in every later
    ``flush_all()`` of its shard."""

    @pytest.mark.parametrize("column", ["log", "api"])  # tokenized PLAIN text, raw DICT term
    @pytest.mark.parametrize("use_raft", [False, True])
    def test_rejected_at_put_and_the_rows_around_it_archive(self, use_raft, column):
        store = LogStore.create(config=small_test_config(use_raft=use_raft))
        good = make_rows(100, tenant_id=4)
        good[0]["log"] = "İstanbul \u212a 漢字 \x00 ok"  # non-ASCII that does encode
        good[1]["log"] = None
        store.put(4, good)
        bad = make_rows(3, tenant_id=4, seed=1)
        bad[1][column] = "ok \ud800 bad"
        for put in (store.put, store.put_nowait):
            with pytest.raises(InvalidBatchError, match=f"column '{column}' holds text with no UTF-8"):
                put(4, bad)
        store.settle_writes()
        assert store.pending_rows() == 100
        store.put(4, make_rows(20, tenant_id=4, seed=2))
        assert store.flush_all().rows_archived == 120
        assert store.pending_rows() == 0

    def test_rejected_at_sql_insert(self):
        """The front door's batches are admitted against the schema too."""
        store = LogStore.create(config=small_test_config())
        session = store.connect(4, store.issue_token(4))
        insert = "INSERT INTO request_log (ts, log) VALUES (?, ?)"
        session.execute(insert, [1, "fine"])
        for _ in range(2):  # the text path, then the cached all-`?` template
            with pytest.raises(InvalidBatchError, match="column 'log' holds text with no UTF-8"):
                session.execute(insert, [2, "ok \ud800 bad"])
        with pytest.raises(InvalidBatchError, match="column 'latency' holds a value beyond int64"):
            session.execute("INSERT INTO request_log (ts, latency) VALUES (?, ?)", [3, 2**70])
        assert store.pending_rows() == 1
        assert store.flush_all().rows_archived == 1


def non_null(rows):
    return [{k: v for k, v in row.items() if v is not None} for row in rows]


def seeded_ingest(store, nowait=False):
    """12 batches over 3 tenants; every fourth one ragged, with ``bytes``
    and ``None`` values (the per-row admission path)."""
    put = store.put_nowait if nowait else store.put
    for seed in range(12):
        tenant = seed % 3 + 1
        rows = make_rows(40 + 7 * seed, tenant_id=tenant, seed=seed)
        if seed % 4 == 0:
            rows[1]["trace"] = b"\x00" * seed
            rows[2]["log"] = None
        put(tenant, rows)
    store.settle_writes()


# One differential step: (what, argument).  ``archive`` archives the
# first k sealed tables and then fails (the builder's all-or-nothing
# prefix); with ``drain_fails`` the drain command cannot commit either.
STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(1, 25)),
        st.tuples(st.just("seal"), st.just(0)),
        st.tuples(st.just("archive"), st.integers(0, 3)),
        st.tuples(st.just("archive_drain_fails"), st.integers(0, 3)),
        st.tuples(st.just("checkpoint"), st.just(0)),
        st.tuples(st.just("crash"), st.sampled_from(["leader", "follower"])),
    ),
    min_size=1,
    max_size=14,
)


class TestPlainVersusRaft:
    CONFIG = dict(n_workers=2, shards_per_worker=1, seal_rows=64)

    def test_same_puts_build_identical_replica_stores(self):
        plain = LogStore.create(config=small_test_config(**self.CONFIG))
        raft = LogStore.create(
            config=small_test_config(use_raft=True, group_commit=True, **self.CONFIG)
        )
        seeded_ingest(plain)
        seeded_ingest(raft, nowait=True)  # batches coalesce into shared entries
        raft.clock.advance(0.5)
        sealed = 0
        for plain_shard, raft_shard in zip(all_shards(plain), all_shards(raft)):
            total, tables, active, nbytes = rowstore_state(plain_shard.rowstore)
            sealed += len(tables)
            stats = raft_shard.write_stats
            if stats.batches_coalesced:
                assert stats.groups_committed < stats.batches_coalesced
            replicas = [
                rowstore_state(raft_shard.replica_store(node.node_id))
                for node in raft_shard.raft.full_replicas()
            ]
            assert all(state == replicas[0] for state in replicas)
            # A group that coalesces a ragged batch is one batch over the
            # union of the keys: the same rows in the same tables, the
            # others carrying (and sized with) a null ``trace``.
            r_total, r_tables, r_active, r_nbytes = replicas[0]
            assert (r_total, list(map(non_null, r_tables)), non_null(r_active)) == (
                total, list(map(non_null, tables)), non_null(active),
            )
            assert 0 <= r_nbytes - nbytes <= 13 * total
        assert sealed >= 4  # batches crossed seal_rows on the way

    def test_replica_crash_recover_reproduces_the_row_store(self):
        raft = LogStore.create(
            config=small_test_config(use_raft=True, group_commit=True, **self.CONFIG)
        )
        seeded_ingest(raft, nowait=True)
        raft.clock.advance(0.5)
        for shard in all_shards(raft):
            follower = next(
                n for n in shard.raft.full_replicas() if n is not shard.raft.leader()
            )
            expected = rowstore_state(shard.replica_store(follower.node_id))
            shard.crash_replica(follower.node_id)
            shard.recover_replica(follower.node_id)  # fresh store, WAL replay
            raft.clock.advance(1.0)
            assert rowstore_state(shard.replica_store(follower.node_id)) == expected
            shard.verify_raft_consistency()

    def test_plain_crash_recover_reproduces_the_row_store(self):
        backends = {}
        plain = LogStore.create(
            config=small_test_config(
                wal_backend_factory=lambda name: backends.setdefault(
                    name, MemorySegmentBackend()
                ),
                **self.CONFIG,
            )
        )
        seeded_ingest(plain)
        for shard in all_shards(plain):
            rebuilt = rebuild_plain(shard, backends[f"shard{shard.shard_id}"])
            assert rowstore_state(rebuilt.rowstore) == rowstore_state(shard.rowstore)

    @settings(max_examples=30, deadline=None)
    @given(STEPS)
    def test_one_state_machine_under_faults(self, steps):
        """A plain shard and a three-replica Raft shard fed the same
        writes, seals, partial archives, failed drains, checkpoints and
        crashes hold byte-identical row stores after every step, and
        each shard's archived plus realtime rows are every acked row
        exactly once."""
        pair = ShardPair()
        for step in steps:
            pair.run(*step)
            pair.check()


class ShardPair:
    """The same steps against a plain shard and a Raft shard."""

    SEAL_ROWS = 10

    def __init__(self):
        self.clock = VirtualClock()
        self.backend = FaultySegmentBackend("shard0")
        self.plain = self._plain()
        self.raft = Shard(
            1, "w0", 10_000, self.SEAL_ROWS, 1 << 30, self.clock, use_raft=True
        )
        self.acked: list[str] = []
        self.archived = {"plain": [], "raft": []}

    def _plain(self):
        return Shard(
            0, "w0", 10_000, self.SEAL_ROWS, 1 << 30, self.clock, wal_backend=self.backend
        )

    def shards(self):
        return {"plain": self.plain, "raft": self.raft}

    def run(self, what, arg):
        if what == "write":
            first = len(self.acked)
            rows = [
                {"tenant_id": 1, "ts": BASE_TS + i * MICROS, "log": f"row-{i}"}
                for i in range(first, first + arg)
            ]
            for shard in self.shards().values():
                shard.write(rows)
            self.acked += [row["log"] for row in rows]
        elif what == "seal":
            for shard in self.shards().values():
                shard.seal_active()
        elif what.startswith("archive"):
            self._archive(arg, drain_fails=what == "archive_drain_fails")
        elif what == "checkpoint":
            for shard in self.shards().values():
                shard.checkpoint()
        else:
            self._crash(arg)

    def _archive(self, k, drain_fails):
        taken = {name: shard.take_sealed() for name, shard in self.shards().items()}
        assert len(taken["plain"]) == len(taken["raft"])
        for name, shard in self.shards().items():
            done = taken[name][:k]
            self.archived[name] += [row["log"] for _, table in done for row in table.scan()]
            if drain_fails:
                self._break_log(name)
            shard.finish_archive(len(done))
            if drain_fails:
                self._heal_log(name)

    def _break_log(self, name):
        if name == "plain":
            self.backend.fail_next_appends(1)
        else:
            for node in self.raft.raft.nodes.values():
                node.stop()

    def _heal_log(self, name):
        if name == "plain":
            self.backend.heal()
        else:
            for node in self.raft.raft.nodes.values():
                node.restart()
            self.raft.raft.wait_for_leader()

    def _crash(self, which):
        # A plain crash with a drain pending would re-archive the table:
        # the exactly-once gap both shard kinds share, not checked here.
        if not self.plain._pending_drain:
            self.plain = self._plain()
        group = self.raft.raft
        leader = group.wait_for_leader()
        victim = leader if which == "leader" else next(
            node for node in group.full_replicas() if node is not leader
        )
        self.raft.crash_replica(victim.node_id)
        self.clock.advance(0.5)
        self.raft.recover_replica(victim.node_id)

    def check(self):
        group = self.raft.raft
        group.wait_for_leader()
        self.clock.advance(0.5)  # heartbeats carry the commit index
        leader = group.leader()
        expected = self.plain.rowstore.serialize_state()
        for node in group.full_replicas():
            assert node.last_applied == leader.commit_index
            assert self.raft.replica_store(node.node_id).serialize_state() == expected
        for name, shard in self.shards().items():
            realtime = [row["log"] for row in shard.scan_realtime()]
            assert sorted(self.archived[name] + realtime) == sorted(self.acked)


def test_usage_meter_bytes_match_the_parent_commit():
    """``_system.tenants.bytes_ingested`` is in the admission estimate's
    unit.  The integers were read off the commit before ``RowBatch``
    (per-row ``approx_rows_bytes`` in ``Broker._dispatch``).  ``trace``
    is not a schema column, so admission now drops it: each tenant's one
    ragged batch meters neither its name nor the bytes it held (seeds 0,
    4, 8: that many bytes)."""
    store = LogStore.create(config=small_test_config())
    seeded_ingest(store)
    usage = {t: store.obs.meter.usage(t) for t in (1, 2, 3)}
    trace_bytes = {1: 0, 2: 4, 3: 8}
    assert {t: u.bytes_ingested for t, u in usage.items()} == {
        t: before - len("trace") - trace_bytes[t]
        for t, before in {1: 38805, 2: 42614, 3: 46426}.items()
    }
    assert {t: u.rows_ingested for t, u in usage.items()} == {1: 286, 2: 314, 3: 342}
