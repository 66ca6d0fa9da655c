"""The put path's shortcuts change no route, no virtual second and no
batch: a one-shard route is not apportioned, a one-task wave is its
task, the transpose equals a per-key sweep, and only Raft shards enter
the broker's replication barrier."""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import LogStore, small_test_config
from repro.cluster.shard import Shard
from repro.common.utils import wave_elapsed
from repro.flow.router import RouteRule, RoutingTable
from repro.rowstore.batch import _transpose

from tests.conftest import make_rows


def largest_remainder(weights, batch_size):
    """Largest-remainder apportioning of ``batch_size`` over ``weights``."""
    exact = [(shard, weight * batch_size) for shard, weight in weights]
    floors = {shard: int(value) for shard, value in exact}
    remainder = batch_size - sum(floors.values())
    by_fraction = sorted(exact, key=lambda sv: sv[1] - int(sv[1]), reverse=True)
    for shard, _value in by_fraction[:remainder]:
        floors[shard] += 1
    return {shard: count for shard, count in floors.items() if count > 0}


@settings(max_examples=200, deadline=None)
@given(
    weights=st.dictionaries(
        st.integers(0, 63), st.floats(0.001, 1000.0), min_size=1, max_size=4
    ),
    batch_size=st.integers(0, 1000),
)
def test_split_batch_is_largest_remainder_for_every_built_rule(weights, batch_size):
    rule = RouteRule.from_dict(7, weights)
    table = RoutingTable()
    table.set_rule(rule)
    assert table.split_batch(7, batch_size) == largest_remainder(rule.weights, batch_size)


@settings(max_examples=200, deadline=None)
@given(
    duration=st.floats(0.0, 1e6, allow_nan=False) | st.sampled_from([0.0, 5e-324, 1e-9]),
    width=st.integers(1, 16),
)
def test_a_one_task_wave_is_its_task_bit_for_bit(duration, width):
    elapsed = wave_elapsed([duration], width)
    assert struct.pack("<d", elapsed) == struct.pack("<d", 0 + duration)


def per_key_sweep(rows):
    """The transpose's reference: the union of the keys in first-seen
    order, one list per key, a null where a row lacks the key."""
    names = tuple(dict.fromkeys(key for row in rows for key in row))
    return names, [[row.get(name) for row in rows] for name in names]


@pytest.mark.parametrize(
    "rows",
    [
        make_rows(50),
        [{"ts": 1, "tenant_id": 2}, {"tenant_id": 2, "ts": 3}],
        [{"ts": 1, "a": "x"}, {"ts": 2}, {"ts": 3, "b": None}],
        [{"ts": 1, "a": 1}, {"ts": 2, "b": 2}],
        [{"ts": 1}, {"ts": 2}, {"ts": 3}],
        [{"a": 1}, {"b": 2}],
        [{}, {}],
    ],
    ids=["uniform", "key-order", "ragged", "same-width", "one-key", "one-key-differs", "empty"],
)
def test_transpose_equals_the_per_key_sweep(rows):
    assert _transpose(rows) == per_key_sweep(rows)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.dictionaries(st.sampled_from("abcd"), st.integers() | st.none() | st.text()),
        min_size=1,
        max_size=12,
    )
)
def test_transpose_equals_the_per_key_sweep_on_any_rows(rows):
    assert _transpose(rows) == per_key_sweep(rows)


def count_settles(monkeypatch):
    settled = []
    real = Shard.settle_writes

    def counting(shard, *args, **kwargs):
        settled.append(shard.shard_id)
        return real(shard, *args, **kwargs)

    monkeypatch.setattr(Shard, "settle_writes", counting)
    return settled


def test_a_plain_put_enters_no_barrier(monkeypatch):
    store = LogStore.create(config=small_test_config(use_raft=False))
    settled = count_settles(monkeypatch)
    for tenant in (1, 2, 3):
        store.put(tenant, make_rows(20, tenant_id=tenant, seed=tenant))
    assert settled == []
    assert all(not broker._pending_shards for broker in store.brokers)
    assert store.pending_rows() == 60


def test_a_raft_put_returns_once_the_leader_commits_it(monkeypatch):
    store = LogStore.create(config=small_test_config(use_raft=True))
    settled = count_settles(monkeypatch)
    shards = {s.shard_id: s for w in store.workers.values() for s in w.shards.values()}
    for tenant in (1, 2, 3):
        (shard_id,) = store.put(tenant, make_rows(20, tenant_id=tenant, seed=tenant))
        assert settled[-1] == shard_id
        leader = shards[shard_id].raft.leader()
        assert leader.commit_index >= leader.persistent.last_log_index()
    assert all(not broker._pending_shards for broker in store.brokers)
    assert store.pending_rows() == 60
