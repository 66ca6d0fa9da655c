"""A Raft replica with LogStore's backpressure integration (§3, §4.2).

Features implemented:

* leader election with randomized timeouts, pre-vote-free standard Raft;
* log replication with conflict rewind (`next_index` backoff);
* commit advancement restricted to current-term entries (Raft §5.4.2);
* durable WAL of entries and term/vote changes, with recovery;
* *WAL-only replica* mode: the paper keeps a complete row store on two
  replicas and only the WAL on the third ("a trade-off between storage
  cost and availability") — a WAL-only node persists and acks entries
  but has no apply callback;
* BFC queues: ``sync_queue`` for entries awaiting replication and
  ``apply_queue`` for committed entries awaiting application; when the
  apply queue saturates, followers flag ``backpressured`` in replies and
  the leader's :class:`BackpressureController` throttles producers;
* quiescence: an idle, caught-up group stops heartbeating and drops its
  election deadlines once every follower acked ``AppendEntries(quiesce=
  True)``; a proposal, a role change, any other ``AppendEntries`` or a
  :class:`SimNetwork` fault callback wakes it, and a woken follower
  times out from the wake.

The node is event-driven: timers run on a :class:`VirtualClock`, and
messages arrive through a :class:`SimNetwork`.
"""

from __future__ import annotations

import random
import struct
import zlib
from typing import Callable

from repro.common.clock import VirtualClock
from repro.common.errors import (
    BackpressureError,
    CorruptionError,
    NotLeaderError,
    RaftError,
)
from repro.raft.backpressure import BackpressureController, BoundedQueue
from repro.raft.messages import (
    AppendEntries,
    AppendEntriesReply,
    InstallSnapshot,
    InstallSnapshotReply,
    LogEntry,
    RequestVote,
    RequestVoteReply,
)
from repro.raft.network import SimNetwork
from repro.raft.state import LeaderState, PersistentState, Role, VolatileState
from repro.wal.log import WriteAheadLog

# WAL entry kinds private to raft
_WAL_KIND_ENTRY = 10
_WAL_KIND_TERM = 11
_WAL_KIND_SNAPSHOT = 12

# Record layouts, little-endian: a fixed header, then the variable part
# as it is.
#   entry      <QQ term, index>     + command
#   term/vote  <QB term, has_vote>  + voted_for as UTF-8 (empty if none)
#   snapshot   <QQ index, term>     + serialized state machine
_U64_PAIR = struct.Struct("<QQ")
_TERM_VOTE = struct.Struct("<QB")


def _split(what: str, body: bytes, head: struct.Struct) -> tuple[tuple, bytes]:
    """A record's header fields and the bytes after them."""
    if len(body) < head.size:
        raise CorruptionError(f"raft {what} record of {len(body)} bytes lacks its header")
    return head.unpack_from(body), body[head.size :]


def encode_entry(entry: LogEntry) -> bytes:
    return _U64_PAIR.pack(entry.term, entry.index) + entry.command


def decode_entry(body: bytes) -> LogEntry:
    """The :class:`LogEntry` of an entry record (raises CorruptionError)."""
    (term, index), command = _split("entry", body, _U64_PAIR)
    if term < 1 or index < 1:
        raise CorruptionError(f"raft entry record with term {term}, index {index}")
    return LogEntry(term=term, index=index, command=command)


def encode_term_vote(term: int, voted_for: str | None) -> bytes:
    if voted_for is None:
        return _TERM_VOTE.pack(term, 0)
    return _TERM_VOTE.pack(term, 1) + voted_for.encode()


def decode_term_vote(body: bytes) -> tuple[int, str | None]:
    (term, has_vote), vote = _split("term/vote", body, _TERM_VOTE)
    if has_vote == 0 and not vote:
        return term, None
    if has_vote != 1:
        raise CorruptionError(f"raft term/vote record with vote flag {has_vote}")
    try:
        return term, vote.decode()
    except UnicodeDecodeError as exc:
        raise CorruptionError(f"raft term/vote record: {exc}") from None


def encode_snapshot(index: int, term: int, state: bytes) -> bytes:
    return _U64_PAIR.pack(index, term) + state


def decode_snapshot(body: bytes) -> tuple[int, int, bytes]:
    """``(index, term, state)`` of a snapshot record."""
    (index, term), state = _split("snapshot", body, _U64_PAIR)
    return index, term, state


# Barrier entry a new leader appends when it inherits an uncommitted
# tail from prior terms.  §5.4.2 forbids committing prior-term entries
# by counting replicas; committing one entry of the *current* term
# commits the whole prefix.  Never handed to the apply callback.
NOOP_COMMAND = b"\x00raft-noop"

DEFAULT_ELECTION_TIMEOUT_S = 0.15
DEFAULT_HEARTBEAT_INTERVAL_S = 0.03
DEFAULT_MAX_ENTRIES_PER_APPEND = 64


class RaftNode:
    """One replica of a Raft group."""

    def __init__(
        self,
        node_id: str,
        peers: list[str],
        clock: VirtualClock,
        network: SimNetwork,
        apply_callback: Callable[[LogEntry], None] | None = None,
        snapshot_provider: Callable[[], bytes] | None = None,
        snapshot_installer: Callable[[bytes], None] | None = None,
        wal: WriteAheadLog | None = None,
        election_timeout_s: float = DEFAULT_ELECTION_TIMEOUT_S,
        heartbeat_interval_s: float = DEFAULT_HEARTBEAT_INTERVAL_S,
        apply_queue_items: int = 1024,
        apply_queue_bytes: int = 64 * 1024 * 1024,
        sync_queue_items: int = 4096,
        sync_queue_bytes: int = 256 * 1024 * 1024,
        seed: int = 0,
        tracer=None,
        journal=None,
    ) -> None:
        self.node_id = node_id
        self.peers = [p for p in peers if p != node_id]
        self._clock = clock
        self._network = network
        self._apply = apply_callback
        self._tracer = tracer
        self._journal = journal
        self._snapshot_provider = snapshot_provider
        self._snapshot_installer = snapshot_installer
        self._latest_snapshot_state: bytes = b""
        self._wal = wal if wal is not None else WriteAheadLog()
        self._election_timeout = election_timeout_s
        self._heartbeat_interval = heartbeat_interval_s
        # zlib.crc32, not hash(): string hashing is salted per process
        # and would make election timing nondeterministic across runs.
        self._rng = random.Random(zlib.crc32(f"{seed}:{node_id}".encode()))

        self.persistent = PersistentState()
        self.volatile = VolatileState()
        self.leader_state = LeaderState()
        self.role = Role.FOLLOWER
        self.leader_id: str | None = None
        self._stopped = False
        # Bumped on every role change or election-timer reset: a
        # heartbeat chain scheduled under an older generation stops.
        self._timer_generation = 0
        # When the election timeout falls due (None while leading), and
        # when the one clock timer armed for it fires (None: none armed).
        self._election_deadline: float | None = None
        self._election_timer_at: float | None = None
        # True while idle: a follower without an election deadline, or a
        # leader whose heartbeat chain ended.  A leader collects in
        # ``_quiesce_acks`` the followers that acked its quiesce message
        # (None while it is not quiescing).
        self._quiesced = False
        self._quiesce_acks: set[str] | None = None

        # §4.2: the two queues added to Raft's blocking points.
        self.sync_queue: BoundedQueue[LogEntry] = BoundedQueue(
            f"{node_id}.sync_queue", sync_queue_items, sync_queue_bytes
        )
        self.apply_queue: BoundedQueue[LogEntry] = BoundedQueue(
            f"{node_id}.apply_queue", apply_queue_items, apply_queue_bytes
        )
        self.backpressure = BackpressureController(
            [self.sync_queue, self.apply_queue],
            clock=clock,
            recovery_interval_s=heartbeat_interval_s,
        )

        self._recover_from_wal()
        network.register(node_id, self._on_message, self._wake)
        self._reset_election_timer()

    # -- convenience -------------------------------------------------------

    @property
    def is_leader(self) -> bool:
        return self.role is Role.LEADER

    @property
    def stopped(self) -> bool:
        """True while the node is offline (crash fault injection)."""
        return self._stopped

    @property
    def is_wal_only(self) -> bool:
        """True for the storage-saving replica that never applies."""
        return self._apply is None

    @property
    def commit_index(self) -> int:
        return self.volatile.commit_index

    @property
    def last_applied(self) -> int:
        return self.volatile.last_applied

    def stop(self) -> None:
        """Take the node offline (crash simulation)."""
        self._stopped = True
        self._network.unregister(self.node_id)

    def restart(self) -> None:
        """Bring a stopped node back (state machine NOT rewound here;
        callers recreate the node from its WAL for true crash recovery)."""
        if not self._stopped:
            return
        self._stopped = False
        self._network.register(self.node_id, self._on_message, self._wake)
        self._become_follower(self.persistent.current_term, None)

    # -- durability -------------------------------------------------------

    def _persist_term_vote(self) -> None:
        body = encode_term_vote(self.persistent.current_term, self.persistent.voted_for)
        self._wal.append(_WAL_KIND_TERM, body)

    def _persist_entries(self, entries: list[LogEntry]) -> None:
        """Durably record a batch of entries with one coalesced WAL flush."""
        if not entries:
            return
        frames = [(_WAL_KIND_ENTRY, encode_entry(entry)) for entry in entries]
        if self._tracer is not None:
            with self._tracer.span(
                "wal.flush",
                node=self.node_id,
                entries=len(frames),
                bytes=sum(len(body) for _, body in frames),
            ):
                self._wal.append_many(frames)
            return
        self._wal.append_many(frames)

    def _recover_from_wal(self) -> None:
        """Rebuild persistent state from the WAL (idempotent on fresh WAL)."""
        entries: dict[int, LogEntry] = {}
        snapshot_index = 0
        snapshot_term = 0
        snapshot_state = b""
        for record in self._wal.replay():
            if record.kind == _WAL_KIND_TERM:
                term, voted_for = decode_term_vote(record.body)
                self.persistent.current_term = term
                self.persistent.voted_for = voted_for
            elif record.kind == _WAL_KIND_ENTRY:
                entry = decode_entry(record.body)
                # A later record for the same index supersedes (conflict
                # truncation rewrites suffixes).
                entries[entry.index] = entry
                for stale in [i for i in entries if i > entry.index]:
                    if entries[stale].term < entry.term:
                        del entries[stale]
            elif record.kind == _WAL_KIND_SNAPSHOT:
                snapshot_index, snapshot_term, snapshot_state = decode_snapshot(record.body)
                entries = {i: e for i, e in entries.items() if i > snapshot_index}
            else:
                raise CorruptionError(
                    f"{self.node_id}: unknown raft WAL record kind {record.kind}"
                )
        self.persistent.snapshot_index = snapshot_index
        self.persistent.snapshot_term = snapshot_term
        self.persistent.log = [entries[i] for i in sorted(entries)]
        # Drop any gap-suffix (can occur if truncation removed a prefix).
        compact: list[LogEntry] = []
        for position, entry in enumerate(
            self.persistent.log, start=snapshot_index + 1
        ):
            if entry.index != position:
                break
            compact.append(entry)
        self.persistent.log = compact
        if snapshot_index > 0:
            self._latest_snapshot_state = snapshot_state
            if self._snapshot_installer is not None:
                self._snapshot_installer(snapshot_state)
            self.volatile.commit_index = snapshot_index
            self.volatile.last_applied = snapshot_index

    # -- timers ------------------------------------------------------------

    def _reset_election_timer(self) -> None:
        """Push the election deadline out by a fresh randomized timeout.

        Only the deadline moves: the armed timer is kept while it fires
        no later than the deadline, and re-armed when it fires early
        (:meth:`_on_election_timer`).  A follower hearing AppendEntries
        at any rate therefore keeps at most one live timer on the clock;
        only a deadline *earlier* than the armed timer arms a new one.
        """
        self._quiesced = False
        self._timer_generation += 1
        timeout = self._election_timeout * (1.0 + self._rng.random())
        self._election_deadline = deadline = self._clock.now() + timeout
        armed = self._election_timer_at
        if armed is None or deadline < armed:
            self._arm_election_timer(deadline)

    def _arm_election_timer(self, when: float) -> None:
        self._election_timer_at = when
        self._clock.call_at(when, lambda: self._on_election_timer(when))

    def _on_election_timer(self, when: float) -> None:
        if when != self._election_timer_at:
            return  # superseded by an earlier deadline
        self._election_timer_at = None
        deadline = self._election_deadline
        if self._stopped or deadline is None:
            return  # a restart or step-down sets a new deadline and re-arms
        if self._clock.now() < deadline:
            self._arm_election_timer(deadline)
            return
        if self.role is not Role.LEADER:
            self._start_election()
        self._reset_election_timer()

    def _schedule_heartbeat(self) -> None:
        generation = self._timer_generation
        self._clock.call_later(self._heartbeat_interval, lambda: self._on_heartbeat(generation))

    def _on_heartbeat(self, generation: int) -> None:
        if self._stopped or generation != self._timer_generation or not self.is_leader:
            return
        idle = self._can_quiesce()
        if idle and self._quiesce_acks is not None and len(self._quiesce_acks) == len(self.peers):
            self._quiesced = True  # every follower is quiet: end the chain
            return
        self._quiesce_acks = set() if idle else None
        self._broadcast_append_entries(quiesce=idle)
        self._schedule_heartbeat()

    def _can_quiesce(self) -> bool:
        last = self.persistent.last_log_index()
        match = self.leader_state.match_index
        return (
            self.volatile.commit_index == self.volatile.last_applied == last
            and all(match.get(peer) == last for peer in self.peers)
            and not len(self.sync_queue)
            and self.backpressure.throttle == 1.0
        )

    def _wake(self) -> None:
        """Leave quiescence: a proposal, or a network fault (the stand-in
        for a node-liveness service).  A woken follower's election
        timeout runs from now."""
        self._quiesce_acks = None
        if self._stopped or not self._quiesced:
            return
        if self.is_leader:
            self._quiesced = False
            self._schedule_heartbeat()
        else:
            self._reset_election_timer()

    # -- role transitions ---------------------------------------------------

    def _become_follower(self, term: int, leader_id: str | None) -> None:
        changed = term != self.persistent.current_term
        self.persistent.current_term = term
        if changed:
            self.persistent.voted_for = None
            self._persist_term_vote()
        self.role = Role.FOLLOWER
        self.leader_id = leader_id
        self._reset_election_timer()

    def _start_election(self) -> None:
        self.role = Role.CANDIDATE
        self.persistent.current_term += 1
        self.persistent.voted_for = self.node_id
        self._persist_term_vote()
        self.leader_id = None
        self._votes = {self.node_id}
        request = RequestVote(
            term=self.persistent.current_term,
            candidate_id=self.node_id,
            last_log_index=self.persistent.last_log_index(),
            last_log_term=self.persistent.last_log_term(),
        )
        if not self.peers:  # single-node group elects itself immediately
            self._become_leader()
            return
        for peer in self.peers:
            self._network.send(self.node_id, peer, request)

    def _become_leader(self) -> None:
        self.role = Role.LEADER
        self.leader_id = self.node_id
        if self._journal is not None:
            self._journal.emit(
                "raft.leader_elected",
                self.node_id,
                detail=f"term={self.persistent.current_term}",
            )
        last = self.persistent.last_log_index()
        self.leader_state = LeaderState(
            next_index={peer: last + 1 for peer in self.peers},
            match_index={peer: 0 for peer in self.peers},
        )
        # Leaders run no election timeout; this also ends any older
        # heartbeat chain.
        self._timer_generation += 1
        self._election_deadline = None
        self._quiesced = False
        self._quiesce_acks = None
        self._schedule_heartbeat()
        if last > self.volatile.commit_index:
            # Uncommitted tail inherited from prior terms: §5.4.2 blocks
            # committing it by counting, so seed one no-op entry of the
            # new term — committing it commits everything before it.
            try:
                self.propose(NOOP_COMMAND)  # broadcasts it
                return
            except BackpressureError:
                pass  # the throttle decayed; heartbeats still go out
        self._broadcast_append_entries()
        if not self.peers:
            self._advance_commit_index()

    # -- client API -------------------------------------------------------

    def propose(self, command: bytes) -> int:
        """Leader-only: replicate ``command``; returns its log index.

        Raises :class:`NotLeaderError` on a follower and
        :class:`BackpressureError` when the sync queue is saturated
        (§4.2 — the caller must slow down).
        """
        return self.propose_many([command])[0]

    def propose_many(self, commands: list[bytes]) -> list[int]:
        """Leader-only: replicate a batch of commands as consecutive entries.

        Admission is all-or-nothing against the sync queue (a rejection
        never leaves a half-admitted group), the WAL write is one
        coalesced frame flush (:meth:`WriteAheadLog.append_many`), and
        the whole group goes out in one ``AppendEntries`` broadcast.
        """
        if self._stopped:
            raise NotLeaderError("node is stopped", None)
        if self.role is not Role.LEADER:
            raise NotLeaderError(f"{self.node_id} is not the leader", self.leader_id)
        if not commands:
            return []
        total_bytes = sum(len(command) for command in commands)
        if not self.sync_queue.can_accept(len(commands), total_bytes):
            self.sync_queue.stats.rejected += 1
            # §4.2: a rejection is the BFC signal — decay the producer
            # throttle immediately so upstream slows down.
            self.backpressure.reevaluate()
            raise BackpressureError(
                f"queue {self.sync_queue.name!r} cannot admit group of "
                f"{len(commands)} entries / {total_bytes} bytes"
            )
        term, first = self.persistent.current_term, self.persistent.last_log_index() + 1
        entries = [LogEntry(term, first + i, command) for i, command in enumerate(commands)]
        self._wake()
        for entry in entries:
            self.sync_queue.push(entry)
            self.persistent.append(entry)
        self._persist_entries(entries)
        self._broadcast_append_entries()
        if not self.peers:
            self._advance_commit_index()
        return [entry.index for entry in entries]

    def throttle(self) -> float:
        """Current BFC throttle in (0, 1] — fraction of nominal rate."""
        return self.backpressure.reevaluate()

    # -- snapshotting (LogStore's periodic checkpointing, §3) ----------------

    def take_snapshot(self) -> int:
        """Compact the log at ``last_applied``; returns the new snapshot index.

        Requires a ``snapshot_provider`` (the state machine's serializer).
        The snapshot record is persisted, then WAL segments that only
        contain compacted history are truncated — the actual disk-space
        reclamation of the checkpoint task.
        """
        if self._snapshot_provider is None:
            raise RaftError(f"{self.node_id} has no snapshot provider")
        index = self.volatile.last_applied
        if index <= self.persistent.snapshot_index:
            return self.persistent.snapshot_index  # nothing new to compact
        term = self.persistent.term_at(index)
        state = self._snapshot_provider()
        self._latest_snapshot_state = state
        self.persistent.compact_to(index, term)
        marker_seq = self._wal.append(_WAL_KIND_SNAPSHOT, encode_snapshot(index, term, state))
        # Re-persist the live tail (entries past the snapshot) *after*
        # the marker so truncating older segments cannot drop them.
        self._persist_entries(list(self.persistent.log))
        self._wal.truncate_before(marker_seq)
        return index

    def _send_install_snapshot(self, peer: str) -> None:
        message = InstallSnapshot(
            term=self.persistent.current_term,
            leader_id=self.node_id,
            last_included_index=self.persistent.snapshot_index,
            last_included_term=self.persistent.snapshot_term,
            state=self._latest_snapshot_state,
        )
        self._network.send(self.node_id, peer, message)

    def _handle_install_snapshot(self, msg: InstallSnapshot) -> None:
        if msg.term > self.persistent.current_term:
            self._become_follower(msg.term, msg.leader_id)
        if msg.term < self.persistent.current_term:
            reply = InstallSnapshotReply(
                term=self.persistent.current_term,
                follower_id=self.node_id,
                last_included_index=msg.last_included_index,
                success=False,
            )
            self._network.send(self.node_id, msg.leader_id, reply)
            return
        self.role = Role.FOLLOWER
        self.leader_id = msg.leader_id
        self._reset_election_timer()
        if msg.last_included_index > self.persistent.snapshot_index:
            existing = self.persistent.entry_at(msg.last_included_index)
            if existing is not None and existing.term == msg.last_included_term:
                # Snapshot covers a prefix we already have: just compact.
                self.persistent.compact_to(msg.last_included_index, msg.last_included_term)
            else:
                self.persistent.reset_to_snapshot(
                    msg.last_included_index, msg.last_included_term
                )
            self._latest_snapshot_state = msg.state
            if self._snapshot_installer is not None:
                self._snapshot_installer(msg.state)
            self.apply_queue.drain()
            self.volatile.commit_index = max(
                self.volatile.commit_index, msg.last_included_index
            )
            self.volatile.last_applied = msg.last_included_index
            marker_seq = self._wal.append(
                _WAL_KIND_SNAPSHOT,
                encode_snapshot(msg.last_included_index, msg.last_included_term, msg.state),
            )
            self._wal.truncate_before(marker_seq)
        reply = InstallSnapshotReply(
            term=self.persistent.current_term,
            follower_id=self.node_id,
            last_included_index=msg.last_included_index,
            success=True,
        )
        self._network.send(self.node_id, msg.leader_id, reply)

    def _handle_install_snapshot_reply(self, msg: InstallSnapshotReply) -> None:
        if msg.term > self.persistent.current_term:
            self._become_follower(msg.term, None)
            return
        if self.role is not Role.LEADER or not msg.success:
            return
        self.leader_state.match_index[msg.follower_id] = max(
            self.leader_state.match_index.get(msg.follower_id, 0),
            msg.last_included_index,
        )
        self.leader_state.next_index[msg.follower_id] = msg.last_included_index + 1
        if self.leader_state.next_index[msg.follower_id] <= self.persistent.last_log_index():
            self._send_append_entries(msg.follower_id)

    # -- replication --------------------------------------------------------

    def _broadcast_append_entries(self, quiesce: bool = False) -> None:
        for peer in self.peers:
            self._send_append_entries(peer, quiesce)

    def _send_append_entries(self, peer: str, quiesce: bool = False) -> None:
        next_index = self.leader_state.next_index.get(peer, 1)
        if next_index <= self.persistent.snapshot_index:
            # The entries this follower needs were compacted away by a
            # checkpoint: ship the snapshot instead.
            self._send_install_snapshot(peer)
            return
        prev_index = next_index - 1
        prev_term = self.persistent.term_at(prev_index) if prev_index > 0 else 0
        entries = self.persistent.entries_from(next_index, DEFAULT_MAX_ENTRIES_PER_APPEND)
        message = AppendEntries(
            term=self.persistent.current_term,
            leader_id=self.node_id,
            prev_log_index=prev_index,
            prev_log_term=prev_term,
            entries=entries,
            leader_commit=self.volatile.commit_index,
            quiesce=quiesce,
        )
        self._network.send(self.node_id, peer, message)

    # -- message dispatch ---------------------------------------------------

    def _on_message(self, source: str, message: object) -> None:
        if self._stopped:
            return
        if isinstance(message, RequestVote):
            self._handle_request_vote(message)
        elif isinstance(message, RequestVoteReply):
            self._handle_vote_reply(message)
        elif isinstance(message, AppendEntries):
            self._handle_append_entries(message)
        elif isinstance(message, AppendEntriesReply):
            self._handle_append_reply(message)
        elif isinstance(message, InstallSnapshot):
            self._handle_install_snapshot(message)
        elif isinstance(message, InstallSnapshotReply):
            self._handle_install_snapshot_reply(message)

    def _handle_request_vote(self, msg: RequestVote) -> None:
        if msg.term > self.persistent.current_term:
            self._become_follower(msg.term, None)
        granted = False
        if msg.term == self.persistent.current_term:
            not_voted = self.persistent.voted_for in (None, msg.candidate_id)
            log_ok = (msg.last_log_term, msg.last_log_index) >= (
                self.persistent.last_log_term(),
                self.persistent.last_log_index(),
            )
            if not_voted and log_ok:
                granted = True
                self.persistent.voted_for = msg.candidate_id
                self._persist_term_vote()
                self._reset_election_timer()
        reply = RequestVoteReply(
            term=self.persistent.current_term, voter_id=self.node_id, vote_granted=granted
        )
        self._network.send(self.node_id, msg.candidate_id, reply)

    def _handle_vote_reply(self, msg: RequestVoteReply) -> None:
        if msg.term > self.persistent.current_term:
            self._become_follower(msg.term, None)
            return
        if self.role is not Role.CANDIDATE or msg.term != self.persistent.current_term:
            return
        if msg.vote_granted:
            self._votes.add(msg.voter_id)
            if len(self._votes) * 2 > len(self.peers) + 1:
                self._become_leader()

    def _handle_append_entries(self, msg: AppendEntries) -> None:
        if msg.term > self.persistent.current_term:
            self._become_follower(msg.term, msg.leader_id)
        if msg.term < self.persistent.current_term:
            self._reply_append(msg.leader_id, success=False, match_index=0)
            return
        # Valid leader for our term.
        self.role = Role.FOLLOWER
        self.leader_id = msg.leader_id
        self._reset_election_timer()

        if msg.prev_log_index < self.persistent.snapshot_index:
            # Everything at or before our snapshot is committed state;
            # tell the leader where we actually are.
            self._reply_append(
                msg.leader_id, success=True, match_index=self.persistent.snapshot_index
            )
            return

        prev_ok = (
            msg.prev_log_index == 0
            or msg.prev_log_index == self.persistent.snapshot_index
            or (
                msg.prev_log_index <= self.persistent.last_log_index()
                and self.persistent.term_at(msg.prev_log_index) == msg.prev_log_term
            )
        )
        if not prev_ok:
            hint = min(msg.prev_log_index - 1, self.persistent.last_log_index())
            self._reply_append(msg.leader_id, success=False, match_index=hint)
            return

        # §4.2 BFC: refuse new entries while the apply queue is saturated.
        backpressured = False
        new_entries = [
            e for e in msg.entries if e.index > self.persistent.snapshot_index
        ]
        accepted: list[LogEntry] = []
        for entry in new_entries:
            existing = self.persistent.entry_at(entry.index)
            if existing is not None:
                if existing.term != entry.term:
                    self.persistent.truncate_from(entry.index)
                else:
                    continue  # duplicate of what we already have
            if self.apply_queue.saturation >= 1.0 and not self.is_wal_only:
                backpressured = True
                break
            self.persistent.append(entry)
            accepted.append(entry)
        # One coalesced WAL flush for the whole accepted run (§3 group
        # commit: followers pay one fsync per AppendEntries, not per entry).
        self._persist_entries(accepted)

        match = min(
            self.persistent.last_log_index(),
            msg.prev_log_index + len(new_entries) if not backpressured
            else self.persistent.last_log_index(),
        )
        if msg.leader_commit > self.volatile.commit_index:
            self.volatile.commit_index = min(msg.leader_commit, self.persistent.last_log_index())
            self._enqueue_committed()
        self._reply_append(
            msg.leader_id, success=True, match_index=match, backpressured=backpressured
        )
        self._drain_apply_queue()
        if (
            msg.quiesce
            and self.persistent.last_log_index() == msg.prev_log_index + len(msg.entries)
            and self.volatile.last_applied == self.volatile.commit_index == msg.leader_commit
        ):
            self._quiesced = True
            self._election_deadline = None  # the armed timer fires once and exits

    def _reply_append(
        self, leader: str, success: bool, match_index: int, backpressured: bool = False
    ) -> None:
        reply = AppendEntriesReply(
            term=self.persistent.current_term,
            follower_id=self.node_id,
            success=success,
            match_index=match_index,
            backpressured=backpressured,
        )
        self._network.send(self.node_id, leader, reply)

    def _handle_append_reply(self, msg: AppendEntriesReply) -> None:
        if msg.term > self.persistent.current_term:
            self._become_follower(msg.term, None)
            return
        if self.role is not Role.LEADER or msg.term != self.persistent.current_term:
            return
        if msg.backpressured:
            was_throttled = self.backpressure.throttle < 1.0
            self.backpressure.penalize()
            if not was_throttled and self._journal is not None:
                # Journal the *transition* into throttling, not every
                # penalized round trip — one trip event per episode.
                self._journal.emit(
                    "raft.backpressure.trip",
                    self.node_id,
                    detail=f"follower={msg.follower_id} "
                    f"throttle={self.backpressure.throttle:.3f}",
                )
        elif msg.success:
            # Calm round trip: let the throttle recover from local state.
            self.backpressure.reevaluate()
        if msg.success:
            self.leader_state.match_index[msg.follower_id] = max(
                self.leader_state.match_index.get(msg.follower_id, 0), msg.match_index
            )
            self.leader_state.next_index[msg.follower_id] = (
                self.leader_state.match_index[msg.follower_id] + 1
            )
            if self._quiesce_acks is not None and msg.match_index == self.persistent.last_log_index():
                self._quiesce_acks.add(msg.follower_id)
            self._advance_commit_index()
            if self.leader_state.next_index[msg.follower_id] <= self.persistent.last_log_index():
                self._send_append_entries(msg.follower_id)
        else:
            rewind = max(1, min(msg.match_index + 1, self.leader_state.next_index.get(msg.follower_id, 1) - 1))
            self.leader_state.next_index[msg.follower_id] = rewind
            self._send_append_entries(msg.follower_id)

    def _advance_commit_index(self) -> None:
        last = self.persistent.last_log_index()
        if self.peers:
            # Highest index replicated on a majority: the leader always
            # counts itself, so we need the p-th largest peer match_index
            # where 1 + p is a majority of the full group.
            n_nodes = len(self.peers) + 1
            peers_needed = (n_nodes // 2 + 1) - 1
            matches = sorted(self.leader_state.match_index.values(), reverse=True)
            if peers_needed > len(matches):
                return
            candidate = min(last, matches[peers_needed - 1]) if peers_needed else last
        else:
            candidate = last
        if candidate <= self.volatile.commit_index:
            return
        # §5.4.2: only an entry from the current term commits by counting.
        if self.persistent.term_at(candidate) != self.persistent.current_term:
            return
        self.volatile.commit_index = candidate
        self._enqueue_committed()
        self._drain_apply_queue()

    # -- applying -------------------------------------------------------

    def _enqueue_committed(self) -> None:
        """Move newly committed entries from the log to the apply queue."""
        while self.volatile.last_applied + len(self.apply_queue) < self.volatile.commit_index:
            index = self.volatile.last_applied + len(self.apply_queue) + 1
            entry = self.persistent.entry_at(index)
            if entry is None:
                break
            try:
                self.apply_queue.push(entry)
            except BackpressureError:
                break
        # Remove replicated entries from the leader's sync queue.
        while len(self.sync_queue) and self.sync_queue.peek().index <= self.volatile.commit_index:
            self.sync_queue.pop()

    def _drain_apply_queue(self, limit: int | None = None) -> None:
        """Apply committed entries to the local state machine in order."""
        while len(self.apply_queue) and (limit is None or limit > 0):
            entry = self.apply_queue.peek()
            if entry.index != self.volatile.last_applied + 1:
                # Stale or out-of-order (can happen after leadership churn);
                # drop anything at-or-below last_applied, otherwise wait.
                if entry.index <= self.volatile.last_applied:
                    self.apply_queue.pop()
                    continue
                break
            self.apply_queue.pop()
            if self._apply is not None and entry.command != NOOP_COMMAND:
                self._apply(entry)
            self.volatile.last_applied = entry.index
            if limit is not None:
                limit -= 1
