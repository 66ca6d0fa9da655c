"""Retry layer for transient object-store failures.

Real object stores throttle and fail transiently (HTTP 5xx, connection
resets); production clients retry with **capped exponential backoff and
jitter** and bound the total time any one operation may spend retrying.
The wrapper below adds that behaviour to any backend;
:class:`repro.chaos.oss_faults.ChaosObjectStore` is the seeded fault
injector the tests and chaos runs drive it with.

Hardening details:

* backoff doubles per retry but is capped at ``max_backoff_s``;
* each sleep gets **deterministic seeded jitter** (a seeded RNG scales
  the delay by ``[1, 1 + jitter)``), so herds of clients decorrelate
  while every run stays replayable;
* a **per-operation retry budget** (``budget_s``) bounds the total
  backoff one logical operation may accumulate — when the budget is
  exhausted the operation gives up even if attempts remain, which is
  what keeps tail latency bounded during a long brownout;
* ``put`` is **idempotent** on content-addressed keys.  Every archived
  object's key carries a digest of its bytes
  (:func:`repro.meta.janitor.object_key`), so a key that already holds
  the same bytes is a success on any attempt, and a key that holds
  different bytes can only hold a torn upload, which is deleted and
  rewritten.  ``put`` reports whether it created the object, so the
  publisher discards only what it wrote.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.common.clock import Clock, VirtualClock
from repro.common.errors import ObjectAlreadyExists, TransientStoreError
from repro.oss.store import ObjectStat, ObjectStore

DEFAULT_MAX_ATTEMPTS = 4
DEFAULT_BACKOFF_S = 0.05
DEFAULT_MAX_BACKOFF_S = 2.0
DEFAULT_BUDGET_S = 30.0
DEFAULT_JITTER = 0.25


@dataclass
class RetryStats:
    """How often the retry layer had to intervene."""

    attempts: int = 0
    retries: int = 0
    giveups: int = 0
    budget_exhausted: int = 0
    backoff_s: float = 0.0
    torn_puts_repaired: int = 0


class RetryingObjectStore:
    """Retries transient failures with capped, jittered backoff.

    Backoff sleeps are charged to ``clock`` (simulated time).  An
    operation gives up — the last error propagates — after
    ``max_attempts`` consecutive transient failures *or* once its
    accumulated backoff exceeds ``budget_s``, whichever comes first.
    Callers treat that like any other storage outage.

    When an ``obs`` handle is given, attempt/retry/giveup/backoff
    counters are mirrored into the metrics registry under
    ``logstore_oss_retry_*`` so dashboards see the retry pressure.
    """

    def __init__(
        self,
        inner: ObjectStore,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        backoff_s: float = DEFAULT_BACKOFF_S,
        clock: Clock | None = None,
        max_backoff_s: float = DEFAULT_MAX_BACKOFF_S,
        budget_s: float = DEFAULT_BUDGET_S,
        jitter: float = DEFAULT_JITTER,
        seed: int = 0,
        obs=None,
    ) -> None:
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if backoff_s < 0:
            raise ValueError(f"backoff_s must be >= 0, got {backoff_s}")
        if max_backoff_s < backoff_s:
            raise ValueError(
                f"max_backoff_s ({max_backoff_s}) must be >= backoff_s ({backoff_s})"
            )
        if budget_s < 0:
            raise ValueError(f"budget_s must be >= 0, got {budget_s}")
        if jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {jitter}")
        self._inner = inner
        self._max_attempts = max_attempts
        self._backoff = backoff_s
        self._max_backoff = max_backoff_s
        self._budget = budget_s
        self._jitter = jitter
        self._rng = random.Random(seed)
        self._clock = clock if clock is not None else VirtualClock()
        self.stats = RetryStats()
        if obs is not None:
            registry = obs.registry
            self._attempts_counter = registry.counter(
                "logstore_oss_retry_attempts_total", "Object-store calls attempted."
            )
            self._retries_counter = registry.counter(
                "logstore_oss_retry_retries_total", "Transient failures retried."
            )
            self._giveups_counter = registry.counter(
                "logstore_oss_retry_giveups_total", "Operations that exhausted retries."
            )
            self._backoff_counter = registry.counter(
                "logstore_oss_retry_backoff_seconds_total",
                "Cumulative backoff charged to the clock.",
            )
        else:
            self._attempts_counter = None
            self._retries_counter = None
            self._giveups_counter = None
            self._backoff_counter = None

    @property
    def inner(self) -> ObjectStore:
        return self._inner

    def _next_delay(self, attempt: int) -> float:
        """Capped exponential backoff with deterministic seeded jitter."""
        base = min(self._backoff * (2 ** (attempt - 1)), self._max_backoff)
        return base * (1.0 + self._rng.random() * self._jitter)

    def _record_attempt(self) -> None:
        self.stats.attempts += 1
        if self._attempts_counter is not None:
            self._attempts_counter.add()

    def _record_retry(self, delay: float) -> None:
        self.stats.retries += 1
        self.stats.backoff_s += delay
        if self._retries_counter is not None:
            self._retries_counter.add()
            self._backoff_counter.add(delay)

    def _record_giveup(self, budget_exhausted: bool) -> None:
        self.stats.giveups += 1
        if budget_exhausted:
            self.stats.budget_exhausted += 1
        if self._giveups_counter is not None:
            self._giveups_counter.add()

    def _call(self, operation, *args):
        spent = 0.0
        for attempt in range(1, self._max_attempts + 1):
            self._record_attempt()
            try:
                return operation(*args)
            except TransientStoreError:
                if attempt == self._max_attempts:
                    self._record_giveup(budget_exhausted=False)
                    raise
                delay = self._next_delay(attempt)
                if spent + delay > self._budget:
                    self._record_giveup(budget_exhausted=True)
                    raise
                spent += delay
                self._record_retry(delay)
                self._clock.sleep(delay)

    # -- ObjectStore interface, all routed through _call ---------------------

    def create_bucket(self, bucket: str) -> None:
        self._call(self._inner.create_bucket, bucket)

    def delete_bucket(self, bucket: str) -> None:
        self._call(self._inner.delete_bucket, bucket)

    def put(self, bucket: str, key: str, data: bytes) -> bool:
        """PUT ``data``; returns whether this call created the object.

        A key that already holds ``data`` is a success that created
        nothing — also when a lost response hid an earlier attempt's
        write.  A key holding other bytes holds a torn upload (a whole
        object would match its key's digest): it is deleted and
        rewritten, and counts in ``torn_puts_repaired``.
        """

        def attempt_put() -> bool:
            try:
                self._inner.put(bucket, key, data)
                return True
            except ObjectAlreadyExists:
                if self._inner.get(bucket, key) == data:
                    return False
            self.stats.torn_puts_repaired += 1
            self._inner.delete(bucket, key)
            self._inner.put(bucket, key, data)
            return True

        return self._call(attempt_put)

    def get(self, bucket: str, key: str) -> bytes:
        return self._call(self._inner.get, bucket, key)

    def get_range(self, bucket: str, key: str, start: int, length: int) -> bytes:
        return self._call(self._inner.get_range, bucket, key, start, length)

    def head(self, bucket: str, key: str) -> ObjectStat:
        return self._call(self._inner.head, bucket, key)

    def exists(self, bucket: str, key: str) -> bool:
        return self._call(self._inner.exists, bucket, key)

    def list(self, bucket: str, prefix: str = "") -> list[ObjectStat]:
        return self._call(self._inner.list, bucket, prefix)

    def delete(self, bucket: str, key: str) -> None:
        self._call(self._inner.delete, bucket, key)
