"""The Raft WAL record codec: fixed headers, no pickle, typed failures.

An entry record is ``<QQ term, index>`` plus the command, a term/vote
record ``<QB term, has_vote>`` plus the vote's UTF-8, a snapshot record
``<QQ index, term>`` plus the state.  Damage to a replica's WAL must end
in :class:`CorruptionError` or, when it hits the final frame, in a
torn-tail repair that recovers exactly the frames before it — never in a
wrong entry or any other exception.
"""

from __future__ import annotations

import ast
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.raft
from repro.cluster.shard import Shard
from repro.common.clock import VirtualClock
from repro.common.errors import CorruptionError
from repro.raft.group import RaftGroup
from repro.raft.messages import LogEntry
from repro.raft.network import SimNetwork
from repro.raft.node import (
    RaftNode,
    decode_entry,
    decode_snapshot,
    decode_term_vote,
    encode_entry,
    encode_snapshot,
    encode_term_vote,
)
from repro.wal.log import MemorySegmentBackend, WriteAheadLog
from repro.wal.record import (
    ENTRY_HEAD_SIZE,
    HEADER_SIZE,
    WalEntryEncoder,
    decode_frame,
    encode_frame,
)

from tests.conftest import make_rows

U64 = st.integers(min_value=0, max_value=2**64 - 1)
POSITIVE = st.integers(min_value=1, max_value=2**64 - 1)


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(term=POSITIVE, index=POSITIVE, command=st.binary(max_size=64))
    def test_entry(self, term, index, command):
        entry = LogEntry(term=term, index=index, command=command)
        assert decode_entry(encode_entry(entry)) == entry

    @settings(max_examples=200, deadline=None)
    @given(term=U64, voted_for=st.none() | st.text(max_size=16))
    def test_term_vote(self, term, voted_for):
        assert decode_term_vote(encode_term_vote(term, voted_for)) == (term, voted_for)

    @settings(max_examples=200, deadline=None)
    @given(index=U64, term=U64, state=st.binary(max_size=64))
    def test_snapshot(self, index, term, state):
        assert decode_snapshot(encode_snapshot(index, term, state)) == (index, term, state)


class TestUndecodable:
    @pytest.mark.parametrize(
        "decode, body",
        [
            (decode_entry, b""),
            (decode_entry, encode_entry(LogEntry(1, 1, b""))[:-1]),
            (decode_entry, encode_entry(LogEntry(0, 1, b"x"))),  # terms start at 1
            (decode_entry, encode_entry(LogEntry(1, 0, b"x"))),  # so do indexes
            (decode_term_vote, encode_term_vote(3, None)[:-1]),
            (decode_term_vote, encode_term_vote(3, None) + b"n1"),  # vote, no flag
            (decode_term_vote, encode_term_vote(3, "n1")[:8] + b"\x02n1"),
            (decode_term_vote, encode_term_vote(3, None)[:8] + b"\x01\xff\xfe"),
            (decode_snapshot, encode_snapshot(4, 2, b"")[:-1]),
        ],
    )
    def test_raises_corruption_error(self, decode, body):
        with pytest.raises(CorruptionError):
            decode(body)

    def test_unknown_record_kind_fails_recovery(self):
        wal = WriteAheadLog()
        wal.append(99, b"not a raft record")
        with pytest.raises(CorruptionError):
            RaftNode("n0", ["n0"], VirtualClock(), SimNetwork(VirtualClock()), wal=wal)


def test_raft_package_does_not_import_pickle():
    """Durable Raft records go through the codec above, never pickle."""
    root = pathlib.Path(repro.raft.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] in ("pickle", "_pickle", "cPickle") for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


# -- damage to a replica's WAL ------------------------------------------------


def _state(node: RaftNode) -> tuple:
    persistent = node.persistent
    return (
        persistent.current_term,
        persistent.voted_for,
        persistent.snapshot_index,
        persistent.snapshot_term,
        tuple(persistent.log),
        node._latest_snapshot_state,
    )


def _recover(segment: bytes) -> RaftNode:
    """A fresh replica over one WAL segment holding ``segment``."""
    backend = MemorySegmentBackend()
    backend.append(0, segment)
    clock = VirtualClock()
    return RaftNode(
        "g/r0",
        ["g/r0", "g/r1", "g/r2"],
        clock,
        SimNetwork(clock),
        apply_callback=lambda entry: None,
        snapshot_installer=lambda state: None,
        wal=WriteAheadLog(backend),
    )


@pytest.fixture(scope="module")
def leader_wal() -> bytes:
    """A leader's one-segment WAL: term/vote, entries and a snapshot."""
    clock = VirtualClock()
    applied: dict[str, list[bytes]] = {}

    def apply_factory(node_id):
        commands = applied.setdefault(node_id, [])
        return lambda entry: commands.append(entry.command)

    def snapshot_factory(node_id):
        return (lambda: b"|".join(applied[node_id])), (lambda state: None)

    group = RaftGroup(
        "g", clock, apply_factory, wal_only_replicas=0, snapshot_factory=snapshot_factory
    )
    leader = group.wait_for_leader()
    for i in range(3):
        group.propose(b"cmd-%d" % i)
    leader.take_snapshot()
    group.propose(b"after-snapshot")
    [segment] = leader._wal.backend.segments()
    data = leader._wal.backend.read(segment)
    assert len(data) < 1024  # keeps the exhaustive walks below quick
    return data


def _frame_starts(data: bytes) -> list[int]:
    starts, offset = [], 0
    while offset < len(data):
        starts.append(offset)
        offset = decode_frame(data, offset).next_offset
    return starts


def test_records_recover_to_the_same_state(leader_wal):
    node = _recover(leader_wal)
    assert node.persistent.snapshot_index == 3
    assert [entry.command for entry in node.persistent.log] == [b"after-snapshot"]
    assert node._latest_snapshot_state == b"cmd-0|cmd-1|cmd-2"
    assert _state(_recover(leader_wal)) == _state(node)


def test_every_truncation_recovers_the_whole_frames_before_it(leader_wal):
    starts = _frame_starts(leader_wal) + [len(leader_wal)]
    for cut in range(len(leader_wal)):
        boundary = max(start for start in starts if start <= cut)
        node = _recover(leader_wal[:cut])
        assert node._wal.torn_tail_bytes_discarded == cut - boundary
        assert _state(node) == _state(_recover(leader_wal[:boundary])), cut


def test_every_bit_flip_is_detected(leader_wal):
    starts = _frame_starts(leader_wal)
    final = starts[-1]
    intact_prefix = _state(_recover(leader_wal[:final]))
    repaired = 0
    for position in range(len(leader_wal)):
        for bit in range(8):
            damaged = bytearray(leader_wal)
            damaged[position] ^= 1 << bit
            try:
                node = _recover(bytes(damaged))
            except CorruptionError:
                continue
            # Only damage inside the final frame may be repaired as a
            # tear, and the repair keeps exactly the frames before it.
            assert position >= final, (position, bit)
            assert node._wal.torn_tail_bytes_discarded == len(leader_wal) - final
            assert _state(node) == intact_prefix
            repaired += 1
    assert repaired >= (len(leader_wal) - final - HEADER_SIZE) * 8


@pytest.mark.parametrize("damage", ["cut", "cut after the carried frame", "overwrite"])
def test_a_frame_carried_inside_a_torn_payload_is_still_a_tear(damage):
    """A torn entry whose row bytes carry a whole, CRC-valid entry frame
    — even one with the next sequence — is repaired as a tear: those
    bytes are not an acknowledged frame hidden by a flipped length."""
    backend = MemorySegmentBackend()
    wal = WriteAheadLog(backend)
    wal.append(1, b"acked")
    carried = encode_frame(WalEntryEncoder.encode(2, 1, b"crafted row"))
    prefix = b"row:"
    torn = encode_frame(WalEntryEncoder.encode(1, 1, prefix + carried + b":row"))
    if damage == "cut":
        torn = torn[:-2]
    elif damage == "cut after the carried frame":
        torn = torn[: HEADER_SIZE + ENTRY_HEAD_SIZE + len(prefix) + len(carried)]
    else:
        torn = torn[:-1] + bytes([torn[-1] ^ 0xFF])
    backend.append(0, torn)
    recovered = WriteAheadLog(backend)
    assert [entry.body for entry in recovered.replay()] == [b"acked"]
    assert recovered.torn_tail_bytes_discarded == len(torn)


def test_each_replica_recovers_the_same_log_and_row_store():
    """Crash and recover every replica of a group-commit shard in turn:
    its log comes back from the records as it was, and its row store
    (rebuilt from a snapshot record plus entry records) matches."""
    clock = VirtualClock()
    shard = Shard(
        0, "worker-0", capacity_rps=10_000.0, seal_rows=100_000, seal_bytes=1 << 30,
        clock=clock, use_raft=True, group_commit=True,
    )
    for seed in range(6):
        shard.write_async(make_rows(20, tenant_id=1, seed=seed))
    shard.settle_writes()
    shard.checkpoint()
    for seed in range(6, 12):
        shard.write_async(make_rows(20, tenant_id=2, seed=seed))
    shard.settle_writes()
    shard.raft.settle(0.5)

    group = shard.raft
    stores_before = {
        node_id: store.serialize_state() for node_id, store in shard._replica_stores.items()
    }
    for node_id in list(group.nodes):
        before = _state(group.nodes[node_id])
        shard.crash_replica(node_id)
        shard.recover_replica(node_id)
        assert _state(group.nodes[node_id]) == before, node_id
        group.settle(1.0)
    for node_id, state in stores_before.items():
        assert shard.replica_store(node_id).serialize_state() == state, node_id
    shard.verify_raft_consistency()
