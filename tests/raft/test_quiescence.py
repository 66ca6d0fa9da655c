"""Quiescence: an idle Raft group sends nothing and keeps no timers.

A caught-up leader sends one ``AppendEntries(quiesce=True)``; once every
follower has acked it at the last index, the leader ends its heartbeat
chain and the followers have dropped their election deadlines.  A
proposal, a role change or a network fault wakes the group, and a
woken follower times out from the moment it was woken.
"""

from __future__ import annotations

import pytest

from repro.common.clock import VirtualClock
from repro.raft.group import RaftGroup
from repro.raft.messages import AppendEntries
from repro.raft.state import Role


def make_group(seed: int = 0) -> tuple[RaftGroup, VirtualClock]:
    clock = VirtualClock()
    group = RaftGroup("g", clock, lambda node_id: (lambda entry: None), seed=seed)
    group.wait_for_leader()
    return group, clock


def settle_quiet(group: RaftGroup, clock: VirtualClock) -> None:
    """Advance past the slowest armed election timer (a WAL-only
    replica's, up to 1.2 s) and check the group went quiet."""
    clock.advance(2.0)
    assert all(node._quiesced for node in group.nodes.values() if not node.stopped)
    assert clock.pending_timers() == 0


def record_quiesce_sends(group: RaftGroup, leader) -> list[tuple[bool, float]]:
    """``(quiesce, leader throttle)`` of every AppendEntries the leader sends."""
    sent = []
    send = group.network.send

    def recording(source, destination, message):
        if source == leader.node_id and isinstance(message, AppendEntries):
            sent.append((message.quiesce, leader.backpressure.throttle))
        send(source, destination, message)

    group.network.send = recording
    return sent


def test_idle_group_keeps_no_timers_and_sends_nothing():
    group, clock = make_group()
    group.propose(b"one", ack="all")
    settle_quiet(group, clock)
    sent = group.network.messages_sent
    clock.advance(10.0)
    assert group.network.messages_sent == sent
    assert clock.pending_timers() == 0
    assert group.leader() is not None


def test_proposal_wakes_the_group_and_it_quiesces_again():
    group, clock = make_group()
    settle_quiet(group, clock)
    leader = group.leader()
    index = group.propose(b"wake", ack="all")
    assert all(node.commit_index >= index for node in group.nodes.values())
    assert all(node.persistent.entry_at(index).command == b"wake" for node in group.nodes.values())
    settle_quiet(group, clock)
    assert group.leader() is leader


def test_lost_quiesce_message_keeps_the_leader_heartbeating():
    """The leader ends its chain only after every follower acked: a
    follower that missed the quiesce message is sent it again instead
    of timing out and calling an election."""
    group, clock = make_group()
    leader = group.leader()
    term = leader.persistent.current_term
    follower = next(n for n in group.full_replicas() if n is not leader)
    handle = follower._handle_append_entries
    lost = []

    def lossy(message):
        if message.quiesce and not lost:
            lost.append(message)
            return
        handle(message)

    follower._handle_append_entries = lossy
    settle_quiet(group, clock)
    assert lost
    assert group.leader() is leader
    assert all(node.persistent.current_term == term for node in group.nodes.values())


@pytest.mark.parametrize("crash", ["stop_leader", "crash_node"])
def test_leader_crash_while_quiesced_elects_within_one_to_two_timeouts(crash):
    group, clock = make_group()
    acked = {group.propose(b"acked%d" % i, ack="all"): b"acked%d" % i for i in range(5)}
    settle_quiet(group, clock)
    old = group.leader()
    term = old.persistent.current_term
    timeout = min(node._election_timeout for node in group.nodes.values())
    crashed_at = clock.now()
    if crash == "stop_leader":
        group.stop_leader()
    else:
        group.crash_node(old.node_id)
    while group.leader() is None and clock.now() < crashed_at + 1.0:
        clock.advance(0.001)
    new = group.leader()
    assert new is not None and new is not old
    assert new.persistent.current_term > term
    # The timeout fires 1-2 timeouts after the crash; the votes take a
    # round trip (a few ms) on top.
    assert crashed_at + timeout <= clock.now() <= crashed_at + 2 * timeout + 0.01
    for index, command in acked.items():
        assert new.persistent.entry_at(index).command == command
    after = group.propose(b"after", ack="quorum")
    assert new.commit_index >= after


@pytest.mark.parametrize("fault", ["symmetric", "one_way", "lossy"])
def test_fault_while_quiesced_converges_after_heal(fault):
    group, clock = make_group()
    group.propose(b"before", ack="all")
    settle_quiet(group, clock)
    leader = group.leader()
    follower = next(n for n in group.full_replicas() if n is not leader)
    network = group.network
    if fault == "symmetric":
        network.partition(leader.node_id, follower.node_id)
    elif fault == "one_way":
        network.partition_one_way(leader.node_id, follower.node_id)
    else:
        network.set_drop_probability(0.3)
    assert not follower._quiesced  # the fault woke it
    clock.advance(2.0)
    if fault == "lossy":
        network.set_drop_probability(0.0)
    else:
        network.heal_all()
    index = group.propose(b"after", settle_s=5.0, ack="all")
    settle_quiet(group, clock)
    final = group.leader()
    for node in group.nodes.values():
        assert node.commit_index == final.commit_index >= index
        assert node.persistent.current_term == final.persistent.current_term
        assert node.persistent.entry_at(index).command == b"after"


def test_recover_node_into_a_quiet_group_keeps_the_term():
    group, clock = make_group()
    group.propose(b"before", ack="all")
    settle_quiet(group, clock)
    leader = group.leader()
    term = leader.persistent.current_term
    victim = next(n for n in group.full_replicas() if n is not leader).node_id
    group.crash_node(victim)
    clock.advance(1.0)
    assert not leader._quiesced  # cannot collect the crashed follower's ack
    group.recover_node(victim)
    settle_quiet(group, clock)
    assert group.leader() is leader
    assert all(node.persistent.current_term == term for node in group.nodes.values())
    assert group.nodes[victim].commit_index == leader.commit_index


def test_lagging_follower_keeps_the_group_awake():
    group, clock = make_group()
    settle_quiet(group, clock)
    leader = group.leader()
    follower = next(n for n in group.full_replicas() if n is not leader)
    group.stop_node(follower.node_id)
    index = leader.propose(b"unseen")  # commits on the other two; the follower lags
    sent = record_quiesce_sends(group, leader)
    clock.advance(10.0)
    assert sent and not any(quiesce for quiesce, _ in sent)
    assert not leader._quiesced
    group.restart_node(follower.node_id)
    settle_quiet(group, clock)
    assert group.leader() is leader
    assert follower.persistent.entry_at(index).command == b"unseen"


def test_throttled_leader_does_not_quiesce():
    group, clock = make_group()
    settle_quiet(group, clock)
    leader = group.leader()
    sent = record_quiesce_sends(group, leader)
    leader.propose(b"wake")
    leader.backpressure.penalize()
    leader.backpressure.penalize()
    assert leader.backpressure.throttle < 1.0
    clock.advance(5.0)
    throttled = [quiesce for quiesce, throttle in sent if throttle < 1.0]
    assert throttled and not any(throttled)
    # Calm replies recover the throttle; then the group goes quiet.
    assert leader.backpressure.throttle == 1.0
    assert leader._quiesced
    assert leader.role is Role.LEADER
