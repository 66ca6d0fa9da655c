"""Group commit and pipelined replication for the write path (§3, §4.2).

The paper's headline write throughput comes from a write path that
batches aggressively and acknowledges at quorum.  Two cooperating
pieces implement that here:

* :class:`GroupCommitQueue` — a leader-side coalescing buffer.  Client
  batches admitted concurrently are folded into **one** proposal (one
  Raft entry, one WAL frame flush) when the group reaches a size/byte
  threshold, or at the write barrier (``Shard.settle_writes``), which
  flushes whatever arrived since the last flush — no timer decides when
  a partial group goes out.  The §4.2 BFC throttle shrinks the
  effective group size under pressure, so an overloaded group commits
  smaller groups sooner instead of buffering more.

* :class:`ReplicationPipeline` — a bounded window of in-flight Raft
  proposals.  Instead of settling each proposal to commit before the
  next one starts (N replication round-trips for N groups), the shard
  keeps up to ``depth`` proposals outstanding and settles them as a
  wave, so N groups pay roughly one round-trip.  Settlement waits for
  the configured ack bar — ``"quorum"`` (majority commit, the paper's
  cloud-native setting) or ``"all"`` (every live replica).

Both are deterministic under the :class:`VirtualClock` simulation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.common.clock import VirtualClock
from repro.common.errors import BackpressureError, NotLeaderError, RaftError
from repro.obs.recorders import WritePathRecorder, WritePathStats
from repro.obs.tracing import Tracer
from repro.raft.group import RaftGroup

_NOOP_TRACER = Tracer(None, enabled=False)

DEFAULT_GROUP_BATCHES = 8
DEFAULT_GROUP_BYTES = 1 * 1024 * 1024
DEFAULT_PIPELINE_DEPTH = 8
DEFAULT_SETTLE_STEP_S = 0.005
DEFAULT_SETTLE_TIMEOUT_S = 10.0


class GroupCommitQueue:
    """Coalesces concurrently admitted batches into single proposals.

    ``flush_fn`` receives the list of pending batches and must make them
    durable as one unit (one Raft entry / one WAL flush).  ``size_of``
    estimates a batch's payload bytes for the byte threshold.  An
    optional ``admit`` hook runs on the candidate batch before it is
    accepted and raises :class:`BackpressureError` when the downstream
    queues are saturated (§4.2 — BFC gates admission, not just
    replication); a rejected batch is not buffered.  An optional
    ``throttle_fn`` (the leader's AIMD throttle, in (0, 1]) shrinks the
    effective group size while pressure is high.  A group below both
    thresholds waits for an explicit :meth:`flush` (the barrier).
    """

    def __init__(
        self,
        flush_fn: Callable[[list], None],
        max_batches: int = DEFAULT_GROUP_BATCHES,
        max_bytes: int = DEFAULT_GROUP_BYTES,
        size_of: Callable[[object], int] | None = None,
        admit: Callable[[object], None] | None = None,
        throttle_fn: Callable[[], float] | None = None,
        recorder: WritePathRecorder | None = None,
        tracer: Tracer | None = None,
        span_attrs: dict | None = None,
    ) -> None:
        if max_batches < 1:
            raise ValueError(f"max_batches must be >= 1, got {max_batches}")
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self._flush_fn = flush_fn
        self._max_batches = max_batches
        self._max_bytes = max_bytes
        self._size_of = size_of if size_of is not None else len
        self._admit = admit
        self._throttle_fn = throttle_fn
        self._recorder = recorder if recorder is not None else WritePathRecorder()
        self._tracer = tracer if tracer is not None else _NOOP_TRACER
        self._span_attrs = dict(span_attrs) if span_attrs else {}
        self._pending: list = []
        self._pending_bytes = 0

    @property
    def stats(self) -> WritePathStats:
        """Typed view over the recorder's registry children."""
        return self._recorder.view()

    def __len__(self) -> int:
        return len(self._pending)

    def __iter__(self):
        """The pending batches, oldest first."""
        return iter(self._pending)

    @property
    def pending_bytes(self) -> int:
        return self._pending_bytes

    def effective_max_batches(self) -> int:
        """Group-size ceiling after the BFC throttle (never below 1)."""
        if self._throttle_fn is None:
            return self._max_batches
        throttle = self._throttle_fn()
        return max(1, int(self._max_batches * throttle))

    def offer(self, batch) -> None:
        """Admit one batch; flushes when a group threshold is reached.

        A :class:`BackpressureError` from the admission gate means the
        batch was NOT buffered and the caller must back off and retry.
        Once admitted a batch is never lost: if a threshold-triggered
        flush fails the group stays pending for a later offer/flush;
        replication backpressure is swallowed, any other error (no
        leader) propagates.
        """
        if self._admit is not None:
            self._admit(batch)
        self._pending.append(batch)
        self._pending_bytes += self._size_of(batch)
        if (
            len(self._pending) >= self.effective_max_batches()
            or self._pending_bytes >= self._max_bytes
        ):
            try:
                self.flush()
            except BackpressureError:
                pass  # group re-stashed; admission keeps gating callers

    def flush(self) -> bool:
        """Commit the pending group as one unit; True when one flushed.

        When ``flush_fn`` raises (replication backpressure, or no leader
        within the pipeline's timeout) the group was not proposed: it is
        kept pending (nothing is lost) and the error propagates, so the
        barrier that asked for the flush fails instead of acking.
        """
        if not self._pending:
            return False
        batches = self._pending
        nbytes = self._pending_bytes
        self._pending = []
        self._pending_bytes = 0
        with self._tracer.span(
            "group_commit", batches=len(batches), bytes=nbytes, **self._span_attrs
        ):
            try:
                self._flush_fn(batches)
            except Exception:
                # Re-stash at the front so ordering survives the retry.
                self._pending = batches + self._pending
                self._pending_bytes += nbytes
                raise
        self._recorder.groups_committed.add()
        self._recorder.batches_coalesced.add(len(batches))
        self._recorder.bytes_committed.add(nbytes)
        self._recorder.group_sizes.observe(len(batches))
        return True


@dataclass
class _Inflight:
    """One proposed-but-not-yet-acknowledged group."""

    index: int
    command: bytes
    submitted_at: float


class ReplicationPipeline:
    """Bounded window of in-flight proposals against one Raft group.

    ``submit`` proposes without settling; when the window is full it
    first settles the oldest proposal.  ``settle`` drains the whole
    window — the write wave's barrier.  A leader crash mid-window is
    handled by re-proposing any group whose entry was displaced from
    the new leader's log (detected by comparing the command at the
    proposed index), so admitted groups are never lost.
    """

    def __init__(
        self,
        group: RaftGroup,
        clock: VirtualClock,
        depth: int = DEFAULT_PIPELINE_DEPTH,
        ack: str = "quorum",
        settle_step_s: float = DEFAULT_SETTLE_STEP_S,
        settle_timeout_s: float = DEFAULT_SETTLE_TIMEOUT_S,
        recorder: WritePathRecorder | None = None,
        tracer: Tracer | None = None,
        span_attrs: dict | None = None,
    ) -> None:
        if depth < 1:
            raise ValueError(f"pipeline depth must be >= 1, got {depth}")
        if ack not in ("quorum", "all"):
            raise RaftError(f"unknown ack mode {ack!r}")
        self._group = group
        self._clock = clock
        self._depth = depth
        self._ack = ack
        self._step = settle_step_s
        self._timeout = settle_timeout_s
        self._recorder = recorder if recorder is not None else WritePathRecorder()
        self._tracer = tracer if tracer is not None else _NOOP_TRACER
        self._span_attrs = dict(span_attrs) if span_attrs else {}
        self._inflight: deque[_Inflight] = deque()

    @property
    def stats(self) -> WritePathStats:
        """Typed view over the recorder's registry children."""
        return self._recorder.view()

    def __len__(self) -> int:
        return len(self._inflight)

    @property
    def ack(self) -> str:
        return self._ack

    def submit(self, command: bytes) -> int:
        """Propose ``command``; settles the oldest first if the window is full.

        Raises :class:`BackpressureError` when the leader's sync queue
        rejects the proposal (the §4.2 signal to slow down).
        """
        while len(self._inflight) >= self._depth:
            self._settle_oldest()
        deadline = self._clock.now() + self._timeout
        with self._tracer.span(
            "raft.replicate", bytes=len(command), ack=self._ack, **self._span_attrs
        ) as span:
            while True:
                try:
                    index = self._group.propose_async(command)
                    break
                except NotLeaderError:
                    # Election in flight: wait it out.  Backpressure, by
                    # contrast, propagates immediately — it is flow control.
                    if self._clock.now() >= deadline:
                        raise
                    self._clock.advance(self._step)
            span.set(index=index)
        self._inflight.append(_Inflight(index, command, self._clock.now()))
        self._recorder.inflight_peak.set_max(len(self._inflight))
        return index

    def settle(self) -> None:
        """Drain the in-flight window (the write wave's barrier)."""
        while self._inflight:
            self._settle_oldest()

    def _settle_oldest(self) -> None:
        inflight = self._inflight[0]
        deadline = self._clock.now() + self._timeout
        while self._clock.now() < deadline:
            leader = self._group.leader()
            if leader is None:
                self._clock.advance(self._step)
                continue
            if inflight.index <= leader.persistent.snapshot_index:
                # Compacted away by a checkpoint — only committed,
                # applied entries are ever compacted, so it is durable.
                self._acked(inflight)
                return
            entry = leader.persistent.entry_at(inflight.index)
            if entry is None or entry.command != inflight.command:
                # Leadership changed and our entry did not survive onto
                # the new leader's timeline: re-propose it (at-least-once;
                # the displaced copy was never committed, so no duplicate).
                self._repropose(inflight)
                continue
            if self._group.acked(inflight.index, self._ack):
                self._acked(inflight)
                return
            self._clock.advance(self._step)
        raise RaftError(
            f"group at index {inflight.index} failed to reach "
            f"{self._ack!r} ack within {self._timeout}s"
        )

    def _acked(self, inflight: _Inflight) -> None:
        self._inflight.popleft()
        self._recorder.commit_latency.observe(self._clock.now() - inflight.submitted_at)

    def _repropose(self, inflight: _Inflight) -> None:
        try:
            inflight.index = self._group.propose_async(inflight.command)
            self._recorder.reproposals.add()
        except (BackpressureError, NotLeaderError):
            # Leader busy or still electing: give the cluster time and
            # let the settle loop retry.
            self._clock.advance(self._step)
