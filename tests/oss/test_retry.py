"""Retry layer and fault-injection tests."""

import pytest

from repro.chaos.oss_faults import ChaosObjectStore
from repro.common.clock import VirtualClock
from repro.common.errors import NoSuchKey, TransientStoreError
from repro.oss.retry import RetryStats, RetryingObjectStore
from repro.oss.store import InMemoryObjectStore


def stack(fail_rate=0.0, seed=0, max_attempts=4):
    inner = InMemoryObjectStore()
    clock = VirtualClock()
    flaky = ChaosObjectStore(inner, clock, seed=seed)
    flaky.set_error_rate(fail_rate)
    retrying = RetryingObjectStore(flaky, max_attempts=max_attempts, clock=clock)
    return inner, flaky, retrying, clock


class TestInjectedFailures:
    def test_fail_next_forces_failures(self):
        _inner, flaky, _retrying, _clock = stack()
        flaky.create_bucket("b")
        flaky.fail_next(2)
        with pytest.raises(TransientStoreError):
            flaky.put("b", "k", b"x")
        with pytest.raises(TransientStoreError):
            flaky.put("b", "k", b"x")
        flaky.put("b", "k", b"x")  # third attempt succeeds
        assert flaky.faults_injected == 2

    def test_failure_has_no_partial_effect(self):
        inner, flaky, _retrying, _clock = stack()
        flaky.create_bucket("b")
        flaky.fail_next(1)
        with pytest.raises(TransientStoreError):
            flaky.put("b", "k", b"x")
        assert not inner.exists("b", "k")

    def test_deterministic_with_seed(self):
        results = []
        for _ in range(2):
            _inner, flaky, _retrying, _clock = stack(fail_rate=0.5, seed=7)
            outcomes = []
            for i in range(20):
                try:
                    flaky.exists("b", "op")
                    outcomes.append(True)
                except TransientStoreError:
                    outcomes.append(False)
            results.append(outcomes)
        assert results[0] == results[1]


class TestRetryingStore:
    def test_transparent_when_healthy(self):
        _inner, _flaky, retrying, _clock = stack()
        retrying.create_bucket("b")
        retrying.put("b", "k", b"payload")
        assert retrying.get("b", "k") == b"payload"
        assert retrying.stats.retries == 0

    def test_retries_through_transient_failures(self):
        _inner, flaky, retrying, _clock = stack()
        retrying.create_bucket("b")
        retrying.put("b", "k", b"payload")
        flaky.fail_next(2)
        assert retrying.get("b", "k") == b"payload"
        assert retrying.stats.retries == 2

    def test_gives_up_after_max_attempts(self):
        _inner, flaky, retrying, _clock = stack(max_attempts=3)
        retrying.create_bucket("b")
        retrying.stats = RetryStats()  # ignore setup ops
        flaky.fail_next(10)
        with pytest.raises(TransientStoreError):
            retrying.get("b", "k")
        assert retrying.stats.giveups == 1
        assert retrying.stats.attempts == 3

    def test_backoff_charged_exponentially(self):
        inner = InMemoryObjectStore()
        clock = VirtualClock()
        flaky = ChaosObjectStore(inner, clock)
        retrying = RetryingObjectStore(flaky, clock=clock, jitter=0.0)
        retrying.create_bucket("b")
        retrying.put("b", "k", b"x")
        flaky.fail_next(3)
        before = clock.now()
        retrying.get("b", "k")
        # 0.05 + 0.1 + 0.2 seconds of backoff (jitter disabled)
        assert clock.now() - before == pytest.approx(0.35)

    def test_permanent_errors_not_retried(self):
        _inner, _flaky, retrying, _clock = stack()
        retrying.create_bucket("b")
        retrying.stats = RetryStats()  # ignore setup ops
        with pytest.raises(NoSuchKey):
            retrying.get("b", "missing")
        assert retrying.stats.attempts == 1

    def test_survives_sustained_flakiness(self):
        """End-to-end: a 20%-flaky store still serves every request."""
        inner, _flaky, retrying, _clock = stack(fail_rate=0.2, seed=3, max_attempts=6)
        retrying.create_bucket("b")
        for i in range(50):
            retrying.put("b", f"k{i}", b"v%d" % i)
        for i in range(50):
            assert retrying.get("b", f"k{i}") == b"v%d" % i
        assert retrying.stats.retries > 0  # faults actually happened

    def test_validation(self):
        inner = InMemoryObjectStore()
        with pytest.raises(ValueError):
            RetryingObjectStore(inner, max_attempts=0)
        with pytest.raises(ValueError):
            RetryingObjectStore(inner, backoff_s=-1)
        with pytest.raises(ValueError):
            ChaosObjectStore(inner, VirtualClock()).set_error_rate(2.0)


class TestFullStackWithFaults:
    def test_logstore_over_flaky_backend(self):
        """A whole LogStore cluster on a flaky backend behind retries."""
        from repro.cluster.config import small_test_config
        from repro.cluster.logstore import LogStore
        from tests.conftest import make_rows

        inner = InMemoryObjectStore()
        flaky = ChaosObjectStore(inner, VirtualClock(), seed=5)
        retrying = RetryingObjectStore(flaky, max_attempts=8)
        store = LogStore.create(config=small_test_config(), backend=retrying)
        store.put(1, make_rows(500, tenant_id=1))
        # Every archive upload and the first query reads hit injected
        # transient failures; retries must carry the system through.
        flaky.fail_next(3)
        store.flush_all()
        flaky.fail_next(2)
        result = store.query(
            "SELECT COUNT(*) FROM request_log WHERE tenant_id = 1 AND latency >= 100"
        )
        assert result.rows[0]["COUNT(*)"] > 0
        assert flaky.faults_injected >= 5
        assert retrying.stats.retries >= 5
        assert retrying.stats.giveups == 0
