"""Raft RPC message types (Ongaro & Ousterhout, used by LogStore §3).

Messages are plain dataclasses delivered over the simulated network.
``LogEntry.command`` carries opaque bytes — in LogStore these are the
serialized batches of log records appended to the row store.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class LogEntry:
    """One replicated log entry."""

    term: int
    index: int
    command: bytes


@dataclass(frozen=True)
class RequestVote:
    """Candidate → peers: ask for a vote in ``term``."""

    term: int
    candidate_id: str
    last_log_index: int
    last_log_term: int


@dataclass(frozen=True)
class RequestVoteReply:
    """Peer → candidate."""

    term: int
    voter_id: str
    vote_granted: bool


@dataclass(frozen=True)
class AppendEntries:
    """Leader → follower: heartbeat / replicate entries."""

    term: int
    leader_id: str
    prev_log_index: int
    prev_log_term: int
    entries: tuple[LogEntry, ...] = field(default_factory=tuple)
    leader_commit: int = 0
    # The leader is caught up and idle: a follower whose log ends here
    # with ``leader_commit`` applied may drop its election deadline.
    quiesce: bool = False


@dataclass(frozen=True)
class InstallSnapshot:
    """Leader → lagging follower: replace its log prefix with a snapshot.

    Sent when the follower's ``next_index`` has been compacted away on
    the leader (LogStore's periodic checkpointing truncates WALs, §3).
    ``state`` is the opaque serialized state machine at
    ``last_included_index``.
    """

    term: int
    leader_id: str
    last_included_index: int
    last_included_term: int
    state: bytes


@dataclass(frozen=True)
class InstallSnapshotReply:
    """Follower → leader."""

    term: int
    follower_id: str
    last_included_index: int
    success: bool


@dataclass(frozen=True)
class AppendEntriesReply:
    """Follower → leader."""

    term: int
    follower_id: str
    success: bool
    # Index of the last log entry the follower matches up to (on success),
    # or a hint for the leader to rewind next_index (on failure).
    match_index: int = 0
    # True when the follower rejected because its apply/sync queues are
    # saturated — the leader's backpressure controller slows producers
    # instead of retrying immediately (§4.2 Raft-with-BFC).
    backpressured: bool = False
