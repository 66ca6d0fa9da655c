"""Archive-path failure atomicity: nothing lost, nothing duplicated.

These are regression tests for bugs the chaos invariant checker
surfaced: a torn upload leaking a partial object past compensation,
an unreplicated seal diverging replica stores, and non-idempotent
drain commands double-dropping memtables after an indeterminate
settle.
"""

from __future__ import annotations

import pytest

from repro.builder.builder import DataBuilder
from repro.chaos.oss_faults import ChaosObjectStore
from repro.cluster.config import small_test_config
from repro.cluster.logstore import LogStore
from repro.common.clock import VirtualClock
from repro.common.errors import SchemaError, TransientStoreError
from repro.oss.store import InMemoryObjectStore
from repro.wal.log import MemorySegmentBackend

BASE_TS = 1_605_052_800_000_000


def make_rows(tenant_id: int, count: int, tag: str) -> list[dict]:
    return [
        {
            "tenant_id": tenant_id,
            "ts": BASE_TS + i * 1_000,
            "ip": "10.0.0.1",
            "api": "/api/v1",
            "latency": 5,
            "fail": False,
            "log": f"{tag}:{i}",
        }
        for i in range(count)
    ]


def make_chaos_store(**config_overrides):
    clock = VirtualClock()
    chaos = ChaosObjectStore(InMemoryObjectStore(), clock, seed=9)
    config = small_test_config(
        n_workers=1,
        shards_per_worker=1,
        seal_rows=100,
        block_rows=64,
        **config_overrides,
    )
    store = LogStore.create(config=config, backend=chaos, clock=clock)
    return store, chaos


class TestArchiveFailureAtomicity:
    def test_failed_archive_preserves_memtables(self):
        store, chaos = make_chaos_store()
        store.put(1, make_rows(1, 250, "keep"))
        before = store.pending_rows()
        chaos.begin_outage()
        with pytest.raises(TransientStoreError):
            store.run_background_tasks()  # all uploads fail
        assert store.pending_rows() == before  # but nothing was dropped
        chaos.end_outage()
        store.flush_all()
        result = store.query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 1")
        assert result.rows[0]["COUNT(*)"] == 250

    def test_torn_upload_leaves_no_partial_object(self):
        store, chaos = make_chaos_store()
        store.put(1, make_rows(1, 250, "torn"))
        # Exhaust the retry layer so the archive genuinely fails: every
        # attempt tears, leaving partial bytes the compensation must
        # clean up (including the in-flight block's path).
        chaos.tear_next_puts(10, 0.5)
        with pytest.raises(TransientStoreError):
            store.run_background_tasks()
        chaos.heal()
        store.janitor.sweep()
        catalog_paths = {entry.path for entry in store.catalog.all_blocks()}
        stored = {
            stat.key
            for stat in store.oss.list(store.config.bucket, "tenants/")
            if stat.key.endswith(".lgb")
        }
        assert stored == catalog_paths  # no partials, no orphans
        # And the rows are still archivable afterwards.
        store.flush_all()
        result = store.query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 1")
        assert result.rows[0]["COUNT(*)"] == 250

    def test_failed_archive_replays_without_duplicates_after_crash(self):
        """Non-raft shard: WAL ARCHIVE records mark drained memtables so
        crash recovery does not resurrect archived rows."""
        from repro.chaos.wal_faults import FaultySegmentBackend
        from repro.cluster.shard import Shard

        backends = {}

        def factory(name):
            backends[name] = FaultySegmentBackend(name)
            return backends[name]

        clock = VirtualClock()
        config = small_test_config(
            n_workers=1,
            shards_per_worker=1,
            seal_rows=100,
            block_rows=64,
            wal_backend_factory=factory,
        )
        store = LogStore.create(config=config, clock=clock)
        store.put(1, make_rows(1, 250, "replay"))
        store.run_background_tasks()  # archives the sealed prefix
        shard = next(iter(store.workers.values())).shards[0]
        live_rows = shard.pending_rows()
        rebuilt = Shard(
            shard.shard_id,
            shard.worker_id,
            shard.capacity_rps,
            shard.seal_rows,
            shard.seal_bytes,
            clock,
            use_raft=False,
            wal_backend=backends["shard0"],
            seed=config.seed,
        )
        # WAL replay drops the archived prefix: same rows as pre-crash.
        assert rebuilt.pending_rows() == live_rows

    def test_explicit_flush_seal_replayable_after_crash(self):
        """Non-raft shard: flush_all seals a below-threshold memtable,
        and the following ARCHIVE record counts that seal in its drop.
        The seal must be durably logged, or replay (which re-derives
        only threshold seals from batch records) has fewer sealed
        tables than the drop and recovery raises."""
        from repro.chaos.wal_faults import FaultySegmentBackend
        from repro.cluster.shard import Shard

        backends = {}

        def factory(name):
            backends[name] = FaultySegmentBackend(name)
            return backends[name]

        clock = VirtualClock()
        config = small_test_config(
            n_workers=1,
            shards_per_worker=1,
            seal_rows=100,
            block_rows=64,
            wal_backend_factory=factory,
        )
        store = LogStore.create(config=config, clock=clock)
        store.put(1, make_rows(1, 50, "flush"))  # below the seal threshold
        store.flush_all()  # explicit seal + archive of the 50 rows
        store.put(1, make_rows(1, 50, "after"))
        shard = next(iter(store.workers.values())).shards[0]
        rebuilt = Shard(
            shard.shard_id,
            shard.worker_id,
            shard.capacity_rps,
            shard.seal_rows,
            shard.seal_bytes,
            clock,
            use_raft=False,
            wal_backend=backends["shard0"],
            seed=config.seed,
        )
        assert rebuilt.pending_rows() == shard.pending_rows() == 50


def plain_store_over_faulty_wal():
    """One plain shard with a 10-row seal threshold over a fault-injecting
    WAL backend: ``(store, shard, backend)``."""
    from repro.chaos.wal_faults import FaultySegmentBackend

    backends = {}

    def factory(name):
        backends[name] = FaultySegmentBackend(name)
        return backends[name]

    config = small_test_config(
        n_workers=1, shards_per_worker=1, seal_rows=10, block_rows=64,
        wal_backend_factory=factory,
    )
    store = LogStore.create(config=config, clock=VirtualClock())
    shard = next(iter(store.workers.values())).shards[0]
    return store, shard, backends["shard0"]


def count_rows(store) -> int:
    result = store.query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 1")
    return result.rows[0]["COUNT(*)"]


class TestPlainDrainFailure:
    def test_failed_drain_append_loses_no_rows(self):
        """Regression: the plain shard took its sealed tables out of the
        row store, so a failed WAL append of the drain record raised
        before the un-archived ones were put back — 20 acked rows were
        then neither on OSS nor queryable."""
        from repro.builder.builder import BuildReport

        store, shard, backend = plain_store_over_faulty_wal()
        store.put(1, make_rows(1, 30, "drain"))
        sealed = shard.take_sealed()
        assert [len(table) for _, table in sealed] == [10, 10, 10]
        store.builder.archive_memtable(sealed[0][1], sealed[0][0], BuildReport())
        backend.fail_next_appends(2)  # the drain record, then its retry
        shard.finish_archive(1)  # the drain stays pending; nothing raises

        assert shard.pending_rows() == 30
        unarchived = {row["log"] for _, table in sealed[1:] for row in table.scan()}
        assert len(unarchived) == 20
        assert {row["log"] for row in shard.scan_realtime()} == unarchived
        assert count_rows(store) == 30  # no row lost, none counted twice
        assert shard.take_sealed() == sealed[1:]  # skips the archived table

        backend.heal()
        assert store.flush_all().rows_archived == 20
        assert shard.rowstore.sealed_dropped == 3 and shard.pending_rows() == 0
        assert count_rows(store) == 30

    def test_rebuilt_shard_continues_the_drain_target(self):
        """A drain carries a cumulative target: a shard rebuilt from its
        WAL must count on from the tables its store already dropped, or
        its next drain targets what is gone and drops nothing."""
        from repro.cluster.shard import Shard

        store, shard, backend = plain_store_over_faulty_wal()
        store.put(1, make_rows(1, 30, "before"))
        assert store.flush_all().rows_archived == 30
        rebuilt = Shard(
            shard.shard_id, shard.worker_id, shard.capacity_rps,
            shard.seal_rows, shard.seal_bytes, store.clock, wal_backend=backend,
        )
        store.workers[shard.worker_id].shards[shard.shard_id] = rebuilt
        assert rebuilt.rowstore.sealed_dropped == 3 and rebuilt.pending_rows() == 0

        store.put(1, make_rows(1, 15, "after"))  # one threshold seal + 5 active rows
        assert store.flush_all().rows_archived == 15
        assert rebuilt.rowstore.sealed_dropped == 5 and rebuilt.pending_rows() == 0
        assert store.flush_all().rows_archived == 0  # nothing left to archive again
        assert count_rows(store) == 45


class TestReplicatedSealAndDrain:
    def test_flush_all_keeps_replicas_byte_identical(self):
        """The seal must go through the Raft log: a local seal on the
        leader would cut different memtable boundaries per replica."""
        store, _chaos = make_chaos_store(
            use_raft=True, replicas=3, wal_only_replicas=1
        )
        store.put(1, make_rows(1, 130, "seal"))
        store.flush_all()
        store.put(1, make_rows(1, 70, "seal2"))
        store.flush_all()
        for worker in store.workers.values():
            for shard in worker.shards.values():
                shard.verify_raft_consistency()  # raises on divergence

    def test_duplicate_drain_command_is_idempotent(self):
        """Drain commands carry a cumulative target: applying the same
        command twice must not double-drop sealed memtables."""
        store, _chaos = make_chaos_store(
            use_raft=True, replicas=3, wal_only_replicas=1
        )
        store.put(1, make_rows(1, 250, "drain"))
        store.flush_all()
        shard = next(iter(store.workers.values())).shards[0]
        from repro.cluster.shard import _CMD_DRAIN_PREFIX

        dropped = shard.rowstore.sealed_dropped
        assert dropped > 0
        leader = shard.raft.wait_for_leader()
        # Re-propose the already-applied cumulative target (the retry
        # after an indeterminate settle).
        command = _CMD_DRAIN_PREFIX + str(dropped).encode()
        index = leader.propose(command)
        shard.raft.settle_acked(index, ack="quorum")
        assert shard.rowstore.sealed_dropped == dropped
        shard.verify_raft_consistency()

    def test_seal_boundaries_survive_leader_change(self):
        store, _chaos = make_chaos_store(
            use_raft=True, replicas=3, wal_only_replicas=1
        )
        store.put(1, make_rows(1, 130, "lc"))
        shard = next(iter(store.workers.values())).shards[0]
        shard.seal_active()
        old_leader = shard.raft.wait_for_leader()
        shard.crash_replica(old_leader.node_id)
        store.clock.advance(2.0)  # elect a new leader
        store.put(1, make_rows(1, 60, "lc2"))
        store.settle_writes()
        shard.recover_replica(old_leader.node_id)
        store.clock.advance(2.0)
        store.flush_all()
        shard.verify_raft_consistency()
        result = store.query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 1")
        assert result.rows[0]["COUNT(*)"] == 190


class TestCompactorCompensation:
    def test_compaction_failure_cleans_partial_uploads(self):
        from repro.builder.compaction import Compactor

        store, chaos = make_chaos_store()
        store.put(1, make_rows(1, 250, "compact"))
        store.flush_all()
        compactor = Compactor(
            store.schema,
            store.catalog,
            codec=store.config.codec,
            block_rows=64,
            small_threshold_rows=500,
            target_rows=1_000,
            janitor=store.janitor,
        )
        chaos.tear_next_puts(10, 0.5)
        try:
            compactor.compact_all()
        except TransientStoreError:
            pass
        chaos.heal()
        store.janitor.sweep()
        catalog_paths = {entry.path for entry in store.catalog.all_blocks()}
        stored = {
            stat.key
            for stat in store.oss.list(store.config.bucket, "tenants/")
            if stat.key.endswith(".lgb")
        }
        assert stored == catalog_paths
        result = store.query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 1")
        assert result.rows[0]["COUNT(*)"] == 250

    def test_compensation_deletes_use_raw_store(self):
        """During the outage that failed the upload, each compensation
        delete must hit the store exactly once and queue an orphan with
        the janitor — not burn the retrying wrapper's full backoff
        budget per path."""
        from collections import Counter

        from repro.builder.compaction import Compactor
        from repro.meta.janitor import Janitor

        class OutageAfterOnePut(ChaosObjectStore):
            """An OSS outage that begins once one PUT went through."""

            def put(self, bucket, key, data):
                super().put(bucket, key, data)
                self.begin_outage()

        class Faults:
            """The journal the chaos store reports each injected fault to."""

            def __init__(self):
                self.delete_attempts: Counter = Counter()

            def emit(self, kind, source, detail=""):
                operation, _, key = detail.partition(" ")
                if operation == "delete":
                    self.delete_attempts[key] += 1

        clock = VirtualClock()
        config = small_test_config(
            n_workers=1, shards_per_worker=1, seal_rows=100, block_rows=64
        )
        store = LogStore.create(config=config, clock=clock)
        store.put(1, make_rows(1, 1100, "raw"))
        store.flush_all()
        flaky, faults = OutageAfterOnePut(store.oss, clock), Faults()
        flaky.attach_journal(faults)
        janitor = Janitor(store.catalog, flaky, store.config.bucket, max_upload_attempts=3)
        compactor = Compactor(
            store.schema,
            store.catalog,
            codec=store.config.codec,
            block_rows=64,
            small_threshold_rows=500,
            target_rows=500,
            janitor=janitor,
        )
        # 1100 rows -> 3 output chunks; the first uploads, the second
        # fails: compensation must delete both it and the uploaded one.
        with pytest.raises(TransientStoreError):
            compactor.compact_tenant(1)
        assert len(janitor.orphans) == 2
        assert len(faults.delete_attempts) == 2
        for key, attempts in faults.delete_attempts.items():
            assert attempts == 1, f"{key} delete retried during outage"
        # After heal the orphan sweep restores catalog/OSS agreement.
        flaky.heal()
        janitor.sweep()
        assert janitor.orphans == []
        catalog_paths = {entry.path for entry in store.catalog.all_blocks()}
        stored = {
            stat.key
            for stat in store.oss.list(store.config.bucket, "tenants/")
            if stat.key.endswith(".lgb")
        }
        assert stored == catalog_paths
        result = store.query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 1")
        assert result.rows[0]["COUNT(*)"] == 1100


class TestOneShardCannotArchive:
    """A shard whose sealed table the builder refuses (here: a builder
    that raises on tenant 1's table, as one did for a key a DDL had typed
    after its rows held it as text) must not hold back the others: every
    other shard archives, and background ticks still run."""

    def make_store(self, monkeypatch):
        # 32 shards, so that tenant 1's shard holds no other tenant of
        # the 20: a table archives all-or-nothing, so shard-mates would
        # stay pending with it.
        config = small_test_config(use_raft=False, n_workers=4, shards_per_worker=8)
        store = LogStore.create(config=config)
        for tenant in range(1, 21):
            store.put(tenant, make_rows(tenant, 10, f"t{tenant}"))
        real_archive = DataBuilder.archive_memtable

        def refuse_tenant_1(builder, memtable, *args, **kwargs):
            if 1 in memtable.tenants():
                raise SchemaError("column 'region' expects int, got <class 'str'>")
            return real_archive(builder, memtable, *args, **kwargs)

        monkeypatch.setattr(DataBuilder, "archive_memtable", refuse_tenant_1)
        return store

    def test_flush_archives_every_other_shard(self, monkeypatch):
        store = self.make_store(monkeypatch)
        for _ in range(2):  # and again on a retry
            with pytest.raises(SchemaError, match="region"):
                store.flush_all()
            assert store.pending_rows() == 10
        archived = {}
        for entry in store.catalog.all_blocks():
            archived[entry.tenant_id] = archived.get(entry.tenant_id, 0) + entry.row_count
        assert archived == {tenant: 10 for tenant in range(2, 21)}

    def test_background_tick_runs_lifecycle_and_alerts_before_raising(self, monkeypatch):
        store = self.make_store(monkeypatch)
        with pytest.raises(SchemaError):
            store.flush_all()
        ticks = []
        real_tick, real_alerts = store.lifecycle.tick, store.evaluate_alerts
        monkeypatch.setattr(store.lifecycle, "tick", lambda now: ticks.append("lifecycle") or real_tick(now))
        monkeypatch.setattr(store, "evaluate_alerts", lambda: ticks.append("alerts") or real_alerts())
        with pytest.raises(SchemaError):
            store.run_background_tasks()
        assert ticks == ["lifecycle", "alerts"]
        assert store.pending_rows() == 10


class TestCrashBetweenUploadAndDrain:
    """A table reaches OSS and the catalog, then the process dies before
    its drain is logged: the rebuilt shard replays the table under the
    same source, and archiving it again must find it published, not add
    a second copy of its rows — also when a column was added since (the
    blocks would encode differently) or a compaction retired its blocks
    (cases the reference model found)."""

    @pytest.mark.parametrize("between", ["nothing", "add_column", "compaction"])
    @pytest.mark.parametrize("use_raft", [False, True])
    def test_replayed_table_is_archived_once(self, use_raft, between):
        from repro.builder.compaction import Compactor
        from repro.chaos.wal_faults import FaultySegmentBackend
        from repro.cluster.shard import Shard
        from repro.logblock.schema import ColumnSpec, ColumnType

        backends = {}

        def factory(name):
            return backends.setdefault(name, FaultySegmentBackend(name))

        raft = dict(use_raft=True, replicas=3, wal_only_replicas=1) if use_raft else {}
        clock = VirtualClock()
        config = small_test_config(
            n_workers=1, shards_per_worker=1, seal_rows=10, block_rows=64,
            wal_backend_factory=factory, **raft,
        )
        store = LogStore.create(config=config, clock=clock)
        store.put(1, make_rows(1, 30, "crash"))
        shard = next(iter(store.workers.values())).shards[0]
        (source, table), (second, other) = shard.take_sealed()[:2]
        store.builder.archive_memtable(table, source)  # no finish_archive: crash
        store.builder.archive_memtable(other, second)
        if between == "add_column":
            store.catalog.add_column(ColumnSpec("extra", ColumnType.STRING))
        elif between == "compaction":
            compactor = Compactor(store.catalog.schema, store.catalog, store.janitor)
            assert compactor.compact_all()

        rebuilt = Shard(
            shard.shard_id, shard.worker_id, shard.capacity_rps,
            shard.seal_rows, shard.seal_bytes, clock,
            wal_backend=backends.get("shard0"), wal_backend_factory=factory,
            seed=config.seed, **raft,
        )
        store.workers[shard.worker_id].shards[shard.shard_id] = rebuilt
        assert rebuilt.take_sealed()[0][0] == source
        assert store.flush_all().rows_archived == 10  # the replayed tables add nothing
        assert count_rows(store) == 30
        assert rebuilt.pending_rows() == 0
        stored = [stat.key for stat in store.oss.list(config.bucket, "tenants/")]
        assert sorted(stored) == sorted(entry.path for entry in store.catalog.all_blocks())


class TestRaftShardRebuild:
    def test_a_rebuilt_shard_resumes_the_drains_its_logs_hold(self):
        """A Raft shard rebuilt over its replicas' logs, which hold a
        drain, starts its drain target from the drained count.  Found by
        the reference model: from zero, the first drain after the
        restart was a no-op, and the table it had just archived stayed
        in the row store too — its rows read twice."""
        from repro.cluster.shard import Shard

        backends = {}
        config = small_test_config(
            n_workers=1, shards_per_worker=1, seal_rows=10, use_raft=True,
            replicas=3, wal_only_replicas=1,
            wal_backend_factory=lambda name: backends.setdefault(name, MemorySegmentBackend()),
        )
        store = LogStore.create(config=config)
        store.put(1, make_rows(1, 30, "before"))
        store.flush_all()
        shard = store.workers["worker-0"].shards[0]
        for node_id in shard.raft.nodes:
            shard.crash_replica(node_id)
        store.workers["worker-0"].add_shard(store.build_shard(0, "worker-0"))
        store.put(1, make_rows(1, 5, "after"))
        store.flush_all()
        assert count_rows(store) == 35
        assert store.pending_rows() == 0

    def test_a_drain_that_commits_late_is_not_counted_twice(self):
        """A leader that hears no replica proposes a seal and a drain it
        cannot commit; both commit once the network heals.  Found by the
        reference model's one-way-partition program: the next archive
        added the still-pending drain on top of the one the log had
        applied, and dropped the table the late seal cut unarchived."""
        config = small_test_config(
            n_workers=1, shards_per_worker=1, seal_rows=10, use_raft=True, replicas=3
        )
        store = LogStore.create(config=config)
        store.put(1, make_rows(1, 14, "before"))
        shard = store.workers["worker-0"].shards[0]
        leader = shard.raft.wait_for_leader()
        for node_id in shard.raft.nodes:
            if node_id != leader.node_id:
                shard.raft.network.partition_one_way(node_id, leader.node_id)
        store.flush_all()
        assert store.pending_rows() == 14  # neither the seal nor the drain committed
        shard.raft.network.heal_all()
        store.clock.advance(2.0)
        store.flush_all()
        assert count_rows(store) == 14
        assert store.pending_rows() == 0


class TestRepublishedOrphan:
    def test_sweep_keeps_a_queued_key_that_was_published_since(self):
        """A failed compaction queues the keys it created when their
        DELETEs fail too; a later compaction of the same victims
        publishes the same keys again.  The sweep must not delete the
        objects the catalog now references."""
        from repro.builder.compaction import Compactor

        class Outage:
            def __init__(self, inner):
                self._inner = inner
                self.puts_allowed = None  # None: no outage

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def put(self, bucket, key, data):
                if self.puts_allowed is not None:
                    if self.puts_allowed <= 0:
                        raise TransientStoreError("injected outage")
                    self.puts_allowed -= 1
                return self._inner.put(bucket, key, data)

            def delete(self, bucket, key):
                if self.puts_allowed is not None:
                    raise TransientStoreError("injected outage")
                return self._inner.delete(bucket, key)

        backend = Outage(InMemoryObjectStore())
        config = small_test_config(
            n_workers=1, shards_per_worker=1, seal_rows=100, block_rows=64
        )
        store = LogStore.create(config=config, backend=backend)
        store.put(1, make_rows(1, 300, "orphan"))
        store.flush_all()  # three 100-row blocks

        def compact():
            return Compactor(
                store.schema, store.catalog, store.janitor,
                codec=config.codec, block_rows=64,
                small_threshold_rows=150, target_rows=150,
            ).compact_tenant(1)

        backend.puts_allowed = 1  # the first output lands, the second fails
        with pytest.raises(TransientStoreError):
            compact()
        queued = store.janitor.orphans
        assert len(queued) == 2  # both discards failed

        backend.puts_allowed = None
        assert compact().blocks_after == 2
        assert {entry.path for entry in store.catalog.all_blocks()} == set(queued)
        assert store.janitor.sweep() == 0
        assert store.janitor.orphans == []
        for path in queued:
            assert backend.exists(config.bucket, path)
        assert count_rows(store) == 300
