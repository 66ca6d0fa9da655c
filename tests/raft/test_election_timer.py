"""One election timer per node: the deadline moves, the timer does not.

A follower resets its election deadline on every AppendEntries; the
clock must not collect one timer per reset, and elections must still
fire at the virtual times the randomized timeouts dictate — counted
from the last AppendEntries an active follower heard, or from the
network fault that woke a quiesced one.
"""

from __future__ import annotations

import itertools

from repro import LogStore, small_test_config
from repro.common.clock import VirtualClock
from repro.raft.group import RaftGroup
from repro.raft.state import Role


def make_group(seed: int = 0) -> tuple[RaftGroup, VirtualClock]:
    clock = VirtualClock()
    group = RaftGroup("g", clock, lambda node_id: (lambda entry: None), seed=seed)
    group.wait_for_leader()
    return group, clock


def test_pending_timers_do_not_grow_with_append_entries():
    """Every proposal is one AppendEntries per follower, each a reset of
    its election deadline.  The clock's timer heap stays the same size
    whether the leader sends a hundred of them or a thousand."""
    group, clock = make_group()
    leader = group.leader()
    peaks = []
    for proposals in (100, 1000):
        peak = 0
        for i in range(proposals):
            leader.propose(b"x%d" % i)
            clock.advance(0.005)  # longer than a round trip
            peak = max(peak, clock.pending_timers())
        peaks.append(peak)
    # Three election timers (at most one live each, plus the few made
    # stale by an earlier deadline), one heartbeat, in-flight messages.
    assert peaks[1] <= peaks[0] + 4
    assert peaks[1] < 20


def test_pending_timers_stay_bounded_over_heartbeats():
    group, clock = make_group()
    counts = []
    for heartbeats in (10, 100, 1000):
        clock.advance(0.03 * heartbeats)
        counts.append(clock.pending_timers())
    assert max(counts) - min(counts) <= 4
    assert max(counts) < 20


def _campaign_time(clock, follower, term):
    give_up = clock.now() + 1.0
    while follower.persistent.current_term == term and clock.now() < give_up:
        clock.advance(0.0001)
    assert follower.role is Role.CANDIDATE
    return clock.now()


def test_active_follower_campaigns_within_one_to_two_timeouts_of_last_append():
    """A follower of a busy leader times out from the last
    AppendEntries it heard."""
    group, clock = make_group()
    leader = group.leader()
    follower = next(n for n in group.full_replicas() if n is not leader)
    timeout = follower._election_timeout
    heard = []
    handle = follower._handle_append_entries

    def recording(message):
        heard.append((clock.now(), message.quiesce))
        handle(message)

    follower._handle_append_entries = recording
    for i in range(40):  # 0.2 s of writes keeps the group awake
        leader.propose(b"w%d" % i)
        clock.advance(0.005)
    last_heard, quiesce = heard[-1]
    assert not quiesce and not follower._quiesced
    term = follower.persistent.current_term
    group.network.partition(leader.node_id, follower.node_id)
    campaigned = _campaign_time(clock, follower, term)
    assert last_heard + timeout <= campaigned <= last_heard + 2 * timeout + 0.0001


def test_quiesced_follower_campaigns_within_one_to_two_timeouts_of_the_partition():
    """A quiesced follower hears nothing and keeps no deadline; the
    partition's fault callback re-arms its timer from that moment."""
    group, clock = make_group()
    leader = group.leader()
    follower = next(n for n in group.full_replicas() if n is not leader)
    timeout = follower._election_timeout
    clock.advance(1.0)
    assert follower._quiesced and leader._quiesced
    term = follower.persistent.current_term
    woken = clock.now()
    group.network.partition(leader.node_id, follower.node_id)
    campaigned = _campaign_time(clock, follower, term)
    assert woken + timeout <= campaigned <= woken + 2 * timeout + 0.0001


def request(tenant: int, seq: int) -> dict:
    return {
        "tenant_id": tenant,
        "ts": 1_605_052_800_000_000 + seq * 1_000,
        "ip": f"10.0.0.{seq % 16}",
        "api": f"/api/v{seq % 3}",
        "latency": (seq * 37) % 500 + 1,
        "fail": seq % 19 == 0,
        "log": f"rid:leader_crash_mid_pipeline:0:{tenant}:{seq}",
    }


def test_leader_elections_keep_their_virtual_times():
    """Seeded leader crash mid-pipeline (two workers, one three-replica
    shard each; tenants 1 and 2 stream 50-row batches and shard 0's
    leader crashes after four rounds): the ``raft.leader_elected``
    journal events (who, which term, when) are pinned to the last bit of
    the virtual time.  The term-1 elections are those the per-reset
    timer scheme produced; the term-2 one comes earlier than it did
    before quiescence (0.9277…), because idle groups draw fewer
    election-timeout values from each node's RNG."""
    config = small_test_config(
        n_workers=2,
        shards_per_worker=1,
        seal_rows=200,
        block_rows=64,
        target_rows_per_logblock=400,
        tracing_enabled=False,
        seed=3_409_051_228,
        use_raft=True,
        replicas=3,
        wal_only_replicas=1,
    )
    store = LogStore.create(config=config)
    firsts = itertools.count(0, 50)

    def write_both_tenants() -> None:
        for tenant in (1, 2):
            first = next(firsts)
            store.put(tenant, [request(tenant, seq) for seq in range(first, first + 50)])

    for _ in range(4):
        write_both_tenants()
        store.clock.advance(0.05)
    shard = store.workers["worker-0"].shards[0]
    shard.crash_replica(shard.raft.leader().node_id)
    for _ in range(8):
        write_both_tenants()
        store.clock.advance(0.25)
    elected = [
        (event.target, event.detail, event.at_s)
        for event in store.obs.journal.events()
        if event.kind == "raft.leader_elected"
    ]
    assert elected == [
        ("shard0/r0", "term=1", 0.15963264067344807),
        ("shard1/r1", "term=1", 0.4071050098811774),
        ("shard0/r1", "term=2", 0.821338646186561),
    ]
