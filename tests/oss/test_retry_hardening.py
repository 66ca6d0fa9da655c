"""Hardened retry layer: backoff cap, jitter, budget, torn-put repair."""

from __future__ import annotations

import pytest

from repro.chaos.oss_faults import ChaosObjectStore
from repro.common.clock import VirtualClock
from repro.common.errors import ObjectAlreadyExists, TransientStoreError
from repro.oss.retry import RetryingObjectStore
from repro.oss.store import InMemoryObjectStore


def make_store(**kwargs):
    clock = VirtualClock()
    flaky = ChaosObjectStore(InMemoryObjectStore(), clock, seed=1)
    store = RetryingObjectStore(flaky, clock=clock, **kwargs)
    store.create_bucket("b")
    return clock, flaky, store


def test_backoff_is_capped_at_max_backoff():
    clock, flaky, store = make_store(
        max_attempts=5, backoff_s=0.1, max_backoff_s=0.2, jitter=0.0
    )
    flaky.fail_next(4)
    store.put("b", "k", b"x")
    # Delays 0.1, 0.2 (capped from 0.2), 0.2 (capped from 0.4), 0.2 (capped from 0.8).
    assert store.stats.backoff_s == pytest.approx(0.1 + 0.2 + 0.2 + 0.2)
    assert clock.now() == pytest.approx(0.7)


def test_jitter_is_deterministic_per_seed():
    def total_backoff(seed):
        clock, flaky, store = make_store(
            max_attempts=4, backoff_s=0.05, jitter=0.5, seed=seed
        )
        flaky.fail_next(3)
        store.put("b", "k", b"x")
        return store.stats.backoff_s

    assert total_backoff(7) == total_backoff(7)
    assert total_backoff(7) != total_backoff(8)


def test_jitter_scales_delay_above_base():
    _clock, flaky, store = make_store(max_attempts=2, backoff_s=0.1, jitter=0.5)
    flaky.fail_next(1)
    store.put("b", "k", b"x")
    assert 0.1 <= store.stats.backoff_s <= 0.15


def test_budget_exhaustion_gives_up_before_max_attempts():
    _clock, flaky, store = make_store(
        max_attempts=10, backoff_s=1.0, max_backoff_s=1.0, budget_s=2.5, jitter=0.0
    )
    attempts_before = store.stats.attempts
    flaky.fail_next(10)
    with pytest.raises(TransientStoreError):
        store.get("b", "k")
    # 1.0 + 1.0 fits the 2.5s budget; the third sleep would not.
    assert store.stats.budget_exhausted == 1
    assert store.stats.giveups == 1
    assert store.stats.attempts - attempts_before == 3


def test_torn_put_is_repaired_in_place():
    clock = VirtualClock()
    chaos = ChaosObjectStore(InMemoryObjectStore(), clock, seed=0)
    store = RetryingObjectStore(chaos, clock=clock, backoff_s=0.01)
    store.create_bucket("b")
    chaos.tear_next_puts(1, 0.5)
    store.put("b", "k", b"0123456789")
    # The retry saw ObjectAlreadyExists from the partial object, verified
    # the bytes differed, deleted the tear and rewrote the whole object.
    assert store.get("b", "k") == b"0123456789"
    assert store.stats.torn_puts_repaired == 1


def test_put_of_a_taken_key_keeps_equal_bytes_and_repairs_different_ones():
    """Keys name their bytes, so a taken key holding equal bytes is the
    same object (not created, on any attempt), and one holding other
    bytes can only hold a torn upload (repaired)."""
    _clock, _flaky, store = make_store()
    assert store.put("b", "k", b"x") is True
    assert store.put("b", "k", b"x") is False
    assert store.stats.torn_puts_repaired == 0
    assert store.put("b", "k", b"y") is True
    assert store.get("b", "k") == b"y"
    assert store.stats.torn_puts_repaired == 1


def test_retried_put_that_actually_landed_is_idempotent():
    clock = VirtualClock()
    inner = InMemoryObjectStore()

    class TearAfterWrite:
        """PUT succeeds but the success response is lost."""

        def __init__(self):
            self.armed = 1

        def __getattr__(self, name):
            return getattr(inner, name)

        def put(self, bucket, key, data):
            inner.put(bucket, key, data)
            if self.armed:
                self.armed -= 1
                raise TransientStoreError("response lost after commit")

    store = RetryingObjectStore(TearAfterWrite(), clock=clock, backoff_s=0.01)
    store.create_bucket("b")
    store.put("b", "k", b"payload")
    assert store.get("b", "k") == b"payload"
    # Whole bytes matched, so no repair was needed.
    assert store.stats.torn_puts_repaired == 0


def test_retry_counters_mirrored_to_registry():
    from repro.obs.context import Observability

    obs = Observability()
    clock = VirtualClock()
    flaky = ChaosObjectStore(InMemoryObjectStore(), clock, seed=1)
    store = RetryingObjectStore(flaky, clock=clock, obs=obs)
    store.create_bucket("b")
    flaky.fail_next(2)
    store.put("b", "k", b"x")
    snapshot = obs.registry.snapshot()
    assert snapshot.counter_total("logstore_oss_retry_attempts_total") == store.stats.attempts
    assert snapshot.counter_total("logstore_oss_retry_retries_total") == 2
    assert snapshot.counter_total("logstore_oss_retry_giveups_total") == 0


def test_validation_rejects_bad_hardening_params():
    inner = InMemoryObjectStore()
    with pytest.raises(ValueError):
        RetryingObjectStore(inner, max_backoff_s=0.01, backoff_s=0.1)
    with pytest.raises(ValueError):
        RetryingObjectStore(inner, budget_s=-1)
    with pytest.raises(ValueError):
        RetryingObjectStore(inner, jitter=-0.1)
