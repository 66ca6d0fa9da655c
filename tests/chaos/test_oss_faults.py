"""ChaosObjectStore: each fault mode, healing, and journal recording."""

from __future__ import annotations

import pytest

from repro.chaos.oss_faults import ChaosObjectStore
from repro.common.clock import VirtualClock
from repro.common.errors import TransientStoreError
from repro.obs.events import EventJournal
from repro.oss.store import InMemoryObjectStore


@pytest.fixture
def chaos():
    clock = VirtualClock()
    store = ChaosObjectStore(InMemoryObjectStore(), clock, seed=7)
    store.create_bucket("b")
    return store


def test_passthrough_when_healthy(chaos):
    chaos.put("b", "k", b"data")
    assert chaos.get("b", "k") == b"data"
    assert chaos.exists("b", "k")
    assert [s.key for s in chaos.list("b")] == ["k"]
    assert chaos.faults_injected == 0


def test_outage_fails_every_call_until_healed(chaos):
    chaos.begin_outage()
    with pytest.raises(TransientStoreError):
        chaos.put("b", "k", b"x")
    with pytest.raises(TransientStoreError):
        chaos.list("b")
    chaos.end_outage()
    chaos.put("b", "k", b"x")
    assert chaos.faults_injected == 2


def test_throttle_every_nth_call(chaos):
    chaos.set_throttle_every(3)
    outcomes = []
    for i in range(6):
        try:
            chaos.exists("b", f"k{i}")
            outcomes.append("ok")
        except TransientStoreError:
            outcomes.append("fail")
    # Calls 2 and 5 after the set_throttle call offset deterministically.
    assert outcomes.count("fail") == 2


def test_error_rate_is_deterministic_per_seed():
    def run(seed):
        clock = VirtualClock()
        store = ChaosObjectStore(InMemoryObjectStore(), clock, seed=seed)
        store.create_bucket("b")
        store.set_error_rate(0.5)
        out = []
        for i in range(20):
            try:
                store.exists("b", f"k{i}")
                out.append(1)
            except TransientStoreError:
                out.append(0)
        return out

    assert run(3) == run(3)
    assert run(3) != run(4)


def test_latency_spike_charges_the_clock():
    clock = VirtualClock()
    store = ChaosObjectStore(InMemoryObjectStore(), clock, seed=0)
    store.create_bucket("b")
    store.set_latency_spike(0.25)
    before = clock.now()
    store.put("b", "k", b"x")
    assert clock.now() - before == pytest.approx(0.25)


def test_torn_put_leaves_partial_object_and_raises(chaos):
    chaos.tear_next_puts(1, 0.5)
    with pytest.raises(TransientStoreError):
        chaos.put("b", "k", b"0123456789")
    # The partial prefix landed in the backing store.
    assert chaos.inner.get("b", "k") == b"01234"
    # The next put is whole again (but collides with the partial —
    # callers go through the retrying store, which repairs it).
    chaos.delete("b", "k")
    chaos.put("b", "k", b"0123456789")
    assert chaos.get("b", "k") == b"0123456789"


def test_heal_clears_every_mode(chaos):
    chaos.begin_outage()
    chaos.set_error_rate(1.0)
    chaos.set_throttle_every(1)
    chaos.set_latency_spike(1.0)
    chaos.tear_next_puts(5)
    chaos.heal()
    for i in range(5):
        chaos.put("b", f"k{i}", b"x")  # would fail under any armed mode


def test_validation_rejects_bad_rates(chaos):
    with pytest.raises(ValueError):
        chaos.set_error_rate(1.5)
    with pytest.raises(ValueError):
        chaos.tear_next_puts(1, 1.0)


def test_faults_are_emitted_to_an_attached_journal(chaos):
    chaos.begin_outage()  # before attaching: not recorded anywhere
    journal = EventJournal()
    chaos.attach_journal(journal)
    with pytest.raises(TransientStoreError):
        chaos.put("b", "k", b"x")
    chaos.heal()
    assert [(e.kind, e.target, e.detail) for e in journal.events()] == [
        ("chaos.fault.oss.outage", "oss", "put k"),
        ("chaos.fault.oss.heal", "oss", ""),
    ]
