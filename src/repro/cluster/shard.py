"""Shard: the unit of placement and write processing.

Each shard runs one state machine: a row store driven by three commands
— a data batch, ``shard-seal`` and a cumulative ``shard-drain`` — that
:func:`apply` executes.  Plain and replicated shards log the same
command bytes and differ in two places only: which log makes a command
durable, and which replica serves reads.

* With ``use_raft`` a three-replica Raft group (one WAL-only replica,
  §3) logs the commands, and every full replica applies them in log
  order; reads go to the current leader's store.
* Without Raft the shard appends each command to a local WAL before
  applying it (phase 1 of §3's write path is "generating the WAL ...
  and writing to local disks"), and crash recovery installs the last
  checkpoint and applies the commands logged after it.  Replication is
  simply absent, which is what the load-balancing experiments want.
"""

from __future__ import annotations

from contextlib import suppress
from operator import attrgetter
from typing import Callable

from repro.common.clock import VirtualClock
from repro.common.errors import (
    BackpressureError,
    ClusterError,
    CorruptionError,
    RaftError,
    WalError,
)
from repro.obs.context import Observability
from repro.obs.recorders import WritePathRecorder, WritePathStats
from repro.raft.group import RaftGroup
from repro.raft.group_commit import GroupCommitQueue, ReplicationPipeline
from repro.raft.node import RaftNode
from repro.rowstore.batch import RowBatch, RowSelection
from repro.rowstore.memtable import MemTable
from repro.rowstore.store import RowStore
from repro.wal.log import SegmentBackend, WriteAheadLog

# Plain-shard WAL record kinds: one shard command (the bytes a Raft
# entry would carry), and a serialized row-store checkpoint.
_WAL_KIND_COMMAND = 20
_WAL_KIND_CHECKPOINT = 21

# A Raft shard's write path: at most this many payload bytes per group
# commit, and this many proposals in flight before a write settles.
_GROUP_COMMIT_BYTES = 1024 * 1024
_PIPELINE_DEPTH = 8

# Command marking the first N sealed memtables ever sealed as archived
# to OSS: they leave the row store at the same log position on every
# replica and in every replay.  Seal and drain commands start with
# b"\x01"; a data command (``RowBatch.to_bytes``) starts with
# ``BATCH_MAGIC``, whose first byte is not b"\x01", so neither can be
# taken for the other.
_CMD_DRAIN_PREFIX = b"\x01shard-drain:"

# Command sealing the active memtable (flush path).  A seal must go
# through the log: a local seal would cut a boundary that neither the
# other replicas nor a WAL replay re-derive, and the drain prefixes
# would diverge with it.
_CMD_SEAL = b"\x01shard-seal"


def apply(store: RowStore, command: bytes) -> None:
    """Execute one shard command against a row store.

    The one state-machine step: every Raft replica's apply callback and
    a plain shard's WAL replay.  A drain carries a *cumulative* target,
    so applying a copy that already took effect drops nothing.
    """
    if command == _CMD_SEAL:
        store.seal_active()
    elif command.startswith(_CMD_DRAIN_PREFIX):
        drop = int(command[len(_CMD_DRAIN_PREFIX) :]) - store.sealed_dropped
        if drop > 0:
            store.drop_sealed_prefix(drop)
    else:
        store.append_many(RowBatch.from_bytes(command))


class Shard:
    """One shard hosted on one worker."""

    def __init__(
        self,
        shard_id: int,
        worker_id: str,
        capacity_rps: float,
        seal_rows: int,
        seal_bytes: int,
        clock: VirtualClock,
        use_raft: bool = False,
        replicas: int = 3,
        wal_only_replicas: int = 1,
        wal_backend: SegmentBackend | None = None,
        group_commit: bool = False,
        group_commit_batches: int = 8,
        write_ack: str = "quorum",
        wal_backend_factory: Callable[[str], SegmentBackend] | None = None,
        seed: int = 0,
        obs: Observability | None = None,
    ) -> None:
        self.shard_id = shard_id
        self.worker_id = worker_id
        self.capacity_rps = capacity_rps
        self.seal_rows = seal_rows
        self.seal_bytes = seal_bytes
        self._clock = clock
        self._write_ack = write_ack
        self._obs = obs if obs is not None else Observability.noop()
        registry = self._obs.registry
        self.write_count = registry.counter(
            "logstore_shard_write_rows_total",
            "Rows written per shard (Figure 13 input).",
            shard=shard_id,
        )
        self.access_count = registry.counter(
            "logstore_shard_accesses_total",
            "Write + scan accesses per shard (Figure 13 input).",
            shard=shard_id,
        )
        # One recorder shared by the group-commit queue and the
        # replication pipeline: all write-path metrics of this shard
        # land in one ``shard=…`` label set.
        self._write_recorder = WritePathRecorder(registry, shard=shard_id)

        # Archive bookkeeping, in sealed memtables: the drain target
        # committed so far, and the archived tables still to drain.
        self._drain_target = 0
        self._pending_drain = 0
        if use_raft:
            self._replica_stores: dict[str, RowStore] = {}

            def apply_factory(node_id: str):
                store = RowStore(seal_rows=seal_rows, seal_bytes=seal_bytes)
                self._replica_stores[node_id] = store
                return lambda entry: apply(store, entry.command)

            def snapshot_factory(node_id: str):
                store = self._replica_stores.get(node_id)
                if store is None:
                    return None
                return store.serialize_state, store.install_state

            wal_factory = None
            if wal_backend_factory is not None:
                wal_factory = lambda node_id: WriteAheadLog(wal_backend_factory(node_id))
            self._raft = RaftGroup(
                f"shard{shard_id}",
                clock,
                apply_factory,
                n_replicas=replicas,
                wal_only_replicas=wal_only_replicas,
                snapshot_factory=snapshot_factory,
                wal_factory=wal_factory,
                seed=seed + shard_id,
                tracer=self._obs.tracer if self._obs.tracer.enabled else None,
                journal=self._obs.journal,
            )
            self._raft.wait_for_leader()
            self._pipeline = ReplicationPipeline(
                self._raft,
                clock,
                depth=_PIPELINE_DEPTH,
                ack=write_ack,
                recorder=self._write_recorder,
                tracer=self._obs.tracer,
                span_attrs={"shard": shard_id},
            )
            # Without group commit every batch is a group of one.
            self._group_queue = GroupCommitQueue(
                self._flush_group,
                max_batches=group_commit_batches if group_commit else 1,
                max_bytes=_GROUP_COMMIT_BYTES,
                size_of=attrgetter("nbytes"),
                admit=self._admit_batch,
                throttle_fn=self._leader_throttle,
                recorder=self._write_recorder,
                tracer=self._obs.tracer,
                span_attrs={"shard": shard_id},
            )
        else:
            self._raft = None
            self._rowstore = RowStore(seal_rows=seal_rows, seal_bytes=seal_bytes)
            if wal_backend is None and wal_backend_factory is not None:
                wal_backend = wal_backend_factory(f"shard{shard_id}")
            self._wal = WriteAheadLog(wal_backend)
            self._recover_from_wal()

    @property
    def raft(self) -> RaftGroup | None:
        return self._raft

    @property
    def rowstore(self) -> RowStore:
        """The store quorum-acked reads are served from.

        Replicated shards serve from the *current* leader's replica:
        with quorum acks the leader is the one replica guaranteed to
        have applied a settled write, once it has committed an entry of
        its own term (scans and seals wait for that first).  When no
        live full-replica leader exists (election in flight, leader
        crashed, WAL-only leader), fall back to the live full replica
        that has applied the most — ties broken by node id so every run
        picks the same store.
        """
        if self._raft is None:
            return self._rowstore
        return self._replica_stores[self._reader().node_id]

    def _reader(self) -> RaftNode:
        """The replica whose store :attr:`rowstore` serves."""
        leader = self._raft.leader()
        if leader is not None and not leader.stopped and leader.node_id in self._replica_stores:
            return leader
        candidates = [n for n in self._raft.full_replicas() if not n.stopped]
        if not candidates:
            candidates = self._raft.full_replicas()
        return max(candidates, key=lambda n: (n.last_applied, n.node_id))

    def _await_reader(self, leader: RaftNode, index: int, timeout_s: float = 5.0) -> None:
        """A full-replica leader serves reads itself.  Under a WAL-only
        leader they come from a follower, which learns of a commit from
        the next AppendEntries: wait, at most ``timeout_s``, until it
        has applied ``index``."""
        if leader.node_id in self._replica_stores:
            return
        deadline = self._clock.now() + timeout_s
        while self._reader().last_applied < index and self._clock.now() < deadline:
            self._clock.advance(0.01)

    @property
    def write_stats(self) -> WritePathStats:
        """Typed view over this shard's write-path metrics."""
        return self._write_recorder.view()

    def _recover_from_wal(self) -> None:
        """Rebuild the row store from the shard WAL (crash recovery).

        Installs the last checkpoint, then applies the commands logged
        after it in WAL order — the replay a Raft replica runs — so
        seals and drains land exactly where they did before the crash
        and recovery re-creates neither lost *nor duplicate* rows.  The
        next drain target continues from what the store has dropped.
        """
        state: bytes | None = None
        commands: list[bytes] = []
        for record in self._wal.replay():
            if record.kind == _WAL_KIND_CHECKPOINT:
                state, commands = record.body, []
            elif record.kind == _WAL_KIND_COMMAND:
                commands.append(record.body)
            else:
                raise CorruptionError(
                    f"shard {self.shard_id}: unknown WAL record kind {record.kind}"
                )
        if state is not None:
            self._rowstore.install_state(state)
        for command in commands:
            apply(self._rowstore, command)
        self._drain_target = self._rowstore.sealed_dropped

    def _commit(self, command: bytes) -> bool:
        """Make a seal or drain command durable and applied.

        A plain shard appends it to its WAL, then applies it; a failed
        append applies nothing.  A Raft shard proposes it and waits for
        the configured ack; each full replica applies it from the log.
        False when it did not commit — on a Raft shard its fate may be
        unknown, which a seal and a cumulative drain both tolerate.
        """
        if self._raft is None:
            try:
                self._wal.append(_WAL_KIND_COMMAND, command)
            except (WalError, OSError):
                return False
            apply(self._rowstore, command)
            return True
        leader = self._raft.leader()
        if leader is None:
            return False
        try:
            index = leader.propose(command)
            self._raft.settle_acked(index, ack=self._write_ack)
        except (RaftError, BackpressureError):  # NotLeaderError is a RaftError
            return False
        self._await_reader(leader, index)
        return True

    # -- write path -----------------------------------------------------

    def _leader_throttle(self) -> float:
        leader = self._raft.leader()
        return leader.backpressure.throttle if leader is not None else 1.0

    def _admit_batch(self, batch: RowBatch) -> None:
        """§4.2 admission gate: reject before buffering when the leader's
        sync queue cannot hold the whole pending group plus this batch."""
        leader = self._raft.leader()
        if leader is None:
            return  # election in flight; replication settles it later
        # The whole pending group flushes as ONE log entry carrying the
        # concatenated rows, so gate on one entry of the combined size
        # (the batches' admission estimates, not an encoded length).
        nbytes = self._group_queue.pending_bytes + batch.nbytes
        if not leader.sync_queue.can_accept(1, nbytes):
            leader.sync_queue.stats.rejected += 1
            leader.backpressure.reevaluate()
            self._obs.journal.emit(
                "shard.backpressure.trip",
                f"shard{self.shard_id}",
                detail=f"sync queue full ({nbytes} bytes pending)",
            )
            raise BackpressureError(
                f"shard {self.shard_id}: sync queue cannot admit batch "
                f"({len(self._group_queue) + 1} pending batches, {nbytes} bytes)"
            )

    def _flush_group(self, batches: list[RowBatch]) -> None:
        """Commit a coalesced group: one command, one Raft entry."""
        group = RowBatch.concat(batches)
        self._pipeline.submit(group.to_bytes())
        self._write_recorder.rows_committed.add(len(group))

    def write(self, rows: RowBatch | list[dict]) -> None:
        """Ingest a batch of rows and wait for the configured ack."""
        self.write_async(rows)
        self.settle_writes()

    def write_async(self, rows: RowBatch | list[dict]) -> None:
        """Admit a batch without waiting for replication to settle.

        The batch normally arrives admitted (``LogStore.put`` built the
        :class:`RowBatch`); a plain row list is admitted here, so an
        invalid row is rejected before any WAL append, Raft proposal or
        memtable write.

        Raft shards offer it to the group-commit queue; a later
        :meth:`settle_writes` is the durability barrier.  Plain shards
        log it to the WAL and append it to the row store at once.
        Raises :class:`BackpressureError` when §4.2 flow control
        rejects the batch — nothing is admitted in that case.
        """
        batch = RowBatch.of(rows)
        count = len(batch)
        if not count:
            return
        with self._obs.tracer.span("shard.write", shard=self.shard_id, rows=count):
            if self._raft is None:
                self._wal.append(_WAL_KIND_COMMAND, batch.to_bytes())
                self._rowstore.append_many(batch)
            else:
                self._group_queue.offer(batch)
        self.write_count.add(count)
        self.access_count.add(count)

    def flush_writes(self) -> None:
        """Propose the partial group now, without waiting for its ack.

        The first half of :meth:`settle_writes`: a broker proposes every
        touched shard's group before it settles any, so all of them
        replicate during the same clock advance.  A flush refused by
        backpressure stays queued for :meth:`settle_writes` to retry.
        """
        if self._raft is not None:
            with suppress(BackpressureError):
                self._group_queue.flush()

    def settle_writes(self, timeout_s: float = 5.0) -> None:
        """Flush any partial group and drain the replication window.

        A flush refused by replication backpressure is retried after
        settling the in-flight window (which drains the leader's sync
        queue), so this is the barrier after which every admitted batch
        has reached the configured ack.
        """
        if self._raft is None:
            return
        deadline = self._clock.now() + timeout_s
        while True:
            try:
                self._group_queue.flush()
                break
            except BackpressureError:
                if self._clock.now() >= deadline:
                    raise
                self._pipeline.settle()
                self._clock.advance(0.01)
        self._pipeline.settle()

    def _settle_before(self) -> None:
        """Settle admitted writes ahead of a seal, archive or checkpoint.

        Without it a group still queued (``put_nowait`` with no
        ``settle_writes``) would be proposed *after* the seal command,
        and ``flush_all()`` would archive nothing of it.  With no leader
        it does not wait for one; a settle that fails leaves the writes
        queued or in flight for the next barrier (which raises until
        they commit), and the caller goes on with what is applied.
        """
        if self._raft is None or self._raft.leader() is None:
            return
        with suppress(RaftError, BackpressureError):
            self.settle_writes()
        self._catch_up_leader()

    def _catch_up_leader(self) -> None:
        """Raft's read rule: a leader that has committed no entry of its
        own term yet may not have applied writes its predecessor acked.
        Wait, at most the settle timeout, until it commits one (its
        election no-op), which commits and applies all before it, and
        until the replica reads come from applied it."""
        leader = self._raft.leader() if self._raft is not None else None
        if leader is not None:
            log, commit = leader.persistent, leader.commit_index
            if commit < log.last_log_index() and log.term_at(commit) < log.current_term:
                with suppress(RaftError):
                    self._raft.settle_acked(commit + 1)
            self._await_reader(leader, leader.commit_index)

    def checkpoint(self) -> int:
        """The §3 checkpoint task.

        Raft shards snapshot their replicated log (after settling the
        writes admitted so far); plain shards write a row-store snapshot
        into the WAL and truncate older segments.  Returns the snapshot
        index (Raft) or the WAL sequence of the checkpoint record.
        """
        if self._raft is not None:
            self._settle_before()
            return self._raft.checkpoint()
        sequence = self._wal.append(_WAL_KIND_CHECKPOINT, self._rowstore.serialize_state())
        self._wal.truncate_before(sequence)
        return sequence

    # -- archiving ------------------------------------------------------

    def seal_active(self) -> None:
        """Seal the active memtable (flush path) through the log.

        Every replica, and a plain shard's WAL replay, then cuts the
        same boundary.  Writes admitted before the call are settled
        first, so the seal cuts after them.  A seal that fails to commit
        seals nothing; a copy that commits after an indeterminate settle
        seals an empty (or tiny) memtable — harmless, and the same on
        every replica.
        """
        self._settle_before()
        rows = len(self.rowstore.active)
        if rows and self._commit(_CMD_SEAL):
            self._obs.journal.emit(
                "shard.seal", f"shard{self.shard_id}", detail=f"rows={rows}"
            )

    def _archived_prefix(self, store: RowStore) -> int:
        """Sealed tables at the head of ``store`` that are on OSS but not
        drained from it yet (drain pending, or committed and in flight)."""
        return max(0, self._drain_target + self._pending_drain - store.sealed_dropped)

    def take_sealed(self) -> list[tuple[str, MemTable]]:
        """``(source, table)`` for each sealed memtable ready for the
        data builder, oldest first.

        A snapshot: nothing leaves the row store here.  Archived tables
        leave through the drain command :meth:`finish_archive` commits,
        so neither a failed archive nor a failed drain loses rows, and
        a leadership change never resurrects archived ones.  Tables
        archived but not yet drained from the store are skipped.
        Admitted writes are settled first.

        ``source`` is ``s<shard>-<seal seq>``, the table's position in
        the shard's sealed sequence (``sealed_dropped`` plus its place
        in the sealed list): replicated state, so every replica and
        every WAL replay gives a table the same source, and a table
        archived again after a crash before its drain keeps its blocks'
        names.
        """
        self._settle_before()
        # A shard rebuilt over its replicas' logs resumes from the
        # drains they applied; a pending drain whose settle timed out
        # may have committed since, and what it dropped is not pending.
        dropped = self.rowstore.sealed_dropped
        if dropped > self._drain_target:
            target = self._drain_target + self._pending_drain
            self._drain_target, self._pending_drain = dropped, max(0, target - dropped)
        self._flush_pending_drain()
        store = self.rowstore
        skip = self._archived_prefix(store)
        first = store.sealed_dropped + skip
        return [
            (f"s{self.shard_id}-{first + i}", table)
            for i, table in enumerate(store.take_sealed()[skip:])
        ]

    def finish_archive(self, archived: int) -> bool:
        """Record that the first ``archived`` tables :meth:`take_sealed`
        returned reached OSS + catalog (the builder archives in order).

        They join the pending drain, committed now or, when that fails
        (no leader, WAL append error), on the next archive cycle.
        Returns whether the drain committed now.
        """
        self._pending_drain += archived
        self._flush_pending_drain()
        return not self._pending_drain

    def _flush_pending_drain(self) -> None:
        """Commit the pending drain; keep it pending on failure.

        The command carries the cumulative target (``_drain_target`` +
        pending) rather than a relative count: a settle that times out
        leaves the command's fate unknown, and a relative retry would
        double-drop if the first copy later committed.  An absolute
        target makes any number of committed copies equivalent.
        """
        if not self._pending_drain:
            return
        target = self._drain_target + self._pending_drain
        if self._commit(_CMD_DRAIN_PREFIX + str(target).encode()):
            self._drain_target = target
            self._pending_drain = 0

    # -- fault injection -------------------------------------------------

    def crash_replica(self, node_id: str) -> None:
        """Hard-crash one Raft replica (volatile state lost, WAL kept)."""
        if self._raft is None:
            raise ClusterError(f"shard {self.shard_id} has no replicas to crash")
        self._raft.crash_node(node_id)

    def recover_replica(self, node_id: str) -> None:
        """Recover a crashed replica from its WAL (fresh row store)."""
        if self._raft is None:
            raise ClusterError(f"shard {self.shard_id} has no replicas to recover")
        self._raft.recover_node(node_id)

    def replica_store(self, node_id: str) -> RowStore | None:
        """A specific replica's row store (invariant checks)."""
        if self._raft is None:
            return None
        return self._replica_stores.get(node_id)

    def scan_realtime(self, min_ts=None, max_ts=None, tenant_id=None) -> RowSelection:
        """Rows still in the local row store and not yet on OSS."""
        self.access_count.add()
        with self._obs.tracer.span("shard.scan", shard=self.shard_id) as span:
            self._catch_up_leader()
            store = self.rowstore
            rows = store.scan(
                min_ts, max_ts, tenant_id, skip_sealed=self._archived_prefix(store)
            )
            span.set(rows=len(rows))
        return rows

    def pending_rows(self) -> int:
        """Rows held locally: the row store's (an archived table whose
        drain has not committed included) plus those in a queued group."""
        queued = sum(map(len, self._group_queue)) if self._raft is not None else 0
        return self.rowstore.row_count() + queued

    def verify_raft_consistency(self) -> None:
        """Assert fully-caught-up replicas hold byte-identical stores.

        Replicas at the same ``last_applied`` must have *identical*
        serialized row-store state — not just equal row counts — since
        every state transition (batch append, seal, drain) is a
        deterministic function of the applied log prefix.
        """
        if self._raft is None:
            return
        live = [n for n in self._raft.full_replicas() if not n.stopped]
        caught_up = [n for n in live if n.commit_index == n.last_applied]
        by_applied: dict[int, dict[str, bytes]] = {}
        for node in caught_up:
            state = self._replica_stores[node.node_id].serialize_state()
            by_applied.setdefault(node.last_applied, {})[node.node_id] = state
        for applied, states in by_applied.items():
            if len(set(states.values())) > 1:
                raise ClusterError(
                    f"replica divergence on shard {self.shard_id} at "
                    f"last_applied={applied}: {sorted(states)}"
                )
