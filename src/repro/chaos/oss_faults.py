"""Object-store fault injector.

:class:`ChaosObjectStore` wraps a raw backend and sits *under* the
cluster's :class:`~repro.oss.metered.MeteredObjectStore` (pass it as
``LogStore.create(backend=...)``), so the whole store stack above —
metering, retry layers, builder, compactor, caches — sees its faults
exactly where a real object store would produce them.

Fault modes (all deterministic: one seeded RNG, virtual-clock time):

* **outage** — every call raises :class:`TransientStoreError` until
  healed (a full OSS brownout);
* **error rate** — each call fails independently with probability p
  (sustained flakiness / throttling storms);
* **throttle every N** — every Nth call fails (deterministic rate
  limiting);
* **fail next N** — the next N calls fail (a precise test scenario);
* **latency spike** — each call charges extra seconds to the clock
  before executing (degraded-but-working OSS);
* **torn upload** — the next PUT writes a prefix of the object's bytes
  into the backend and then fails, leaving a partial object behind —
  the nastiest real-world failure, because the retry then collides
  with the damaged object.

Injected faults are emitted to the cluster's event journal once one is
attached (:meth:`ChaosObjectStore.attach_journal`, after the cluster
that owns the journal is built); normal passthrough calls are not
(they would bloat the journal without adding information — workload
ops are recorded at the workload layer).
"""

from __future__ import annotations

import random

from repro.common.clock import Clock
from repro.common.errors import TransientStoreError
from repro.oss.store import ObjectStat, ObjectStore


class ChaosObjectStore:
    """Fault-injecting object store for chaos runs."""

    def __init__(
        self,
        inner: ObjectStore,
        clock: Clock,
        seed: int = 0,
    ) -> None:
        self._inner = inner
        self._clock = clock
        self._journal = None
        self._rng = random.Random(seed)
        self._outage = False
        self._error_rate = 0.0
        self._throttle_every = 0
        self._latency_s = 0.0
        self._torn_puts = 0
        self._torn_fraction = 0.5
        self._forced_failures = 0
        self._calls = 0
        self.faults_injected = 0

    @property
    def inner(self) -> ObjectStore:
        return self._inner

    def attach_journal(self, journal) -> None:
        """Late-bind the event journal (the cluster is built after us)."""
        self._journal = journal

    # -- fault controls --------------------------------------------------

    def _note(self, kind: str, detail: str = "") -> None:
        if self._journal is not None:
            self._journal.emit(f"chaos.{kind}", "oss", detail=detail)

    def begin_outage(self) -> None:
        self._outage = True
        self._note("fault.oss.outage.begin")

    def end_outage(self) -> None:
        self._outage = False
        self._note("fault.oss.outage.end")

    def set_error_rate(self, rate: float) -> None:
        if not 0 <= rate <= 1:
            raise ValueError(f"error rate must be in [0, 1], got {rate}")
        self._error_rate = rate
        self._note("fault.oss.error_rate", f"rate={rate}")

    def fail_next(self, count: int = 1) -> None:
        """Make the next ``count`` calls fail before the inner call, so a
        failed PUT has no partial effect (atomic-PUT semantics)."""
        self._forced_failures += count
        self._note("fault.oss.fail_next", f"count={count}")

    def set_throttle_every(self, n: int) -> None:
        """Fail every ``n``-th call (0 disables)."""
        self._throttle_every = n
        self._note("fault.oss.throttle", f"every={n}")

    def set_latency_spike(self, seconds: float) -> None:
        self._latency_s = seconds
        self._note("fault.oss.latency", f"seconds={seconds}")

    def tear_next_puts(self, count: int = 1, fraction: float = 0.5) -> None:
        """Make the next ``count`` PUTs upload partially and fail."""
        if not 0 <= fraction < 1:
            raise ValueError(f"torn fraction must be in [0, 1), got {fraction}")
        self._torn_puts += count
        self._torn_fraction = fraction
        self._note("fault.oss.tear_arm", f"count={count} fraction={fraction}")

    def heal(self) -> None:
        """Clear every active fault mode."""
        self._outage = False
        self._error_rate = 0.0
        self._throttle_every = 0
        self._latency_s = 0.0
        self._torn_puts = 0
        self._forced_failures = 0
        self._note("fault.oss.heal")

    # -- fault evaluation ------------------------------------------------

    def _before(self, operation: str, key: str = "") -> None:
        self._calls += 1
        if self._latency_s:
            self._clock.sleep(self._latency_s)
        if self._forced_failures > 0:
            self._forced_failures -= 1
            self._fail(operation, key, "forced")
        if self._outage:
            self._fail(operation, key, "outage")
        if self._throttle_every and self._calls % self._throttle_every == 0:
            self._fail(operation, key, "throttled")
        if self._error_rate and self._rng.random() < self._error_rate:
            self._fail(operation, key, "error")

    def _fail(self, operation: str, key: str, why: str) -> None:
        self.faults_injected += 1
        self._note(f"fault.oss.{why}", f"{operation} {key}".strip())
        raise TransientStoreError(f"injected OSS {why} in {operation} {key}")

    # -- ObjectStore interface -------------------------------------------

    def create_bucket(self, bucket: str) -> None:
        self._before("create_bucket")
        self._inner.create_bucket(bucket)

    def delete_bucket(self, bucket: str) -> None:
        self._before("delete_bucket")
        self._inner.delete_bucket(bucket)

    def put(self, bucket: str, key: str, data: bytes) -> None:
        self._before("put", key)
        if self._torn_puts > 0:
            self._torn_puts -= 1
            torn = data[: int(len(data) * self._torn_fraction)]
            self._inner.put(bucket, key, torn)
            self.faults_injected += 1
            self._note("fault.oss.torn_put", f"{key} kept={len(torn)}/{len(data)}")
            raise TransientStoreError(f"injected torn upload of {key}")
        self._inner.put(bucket, key, data)

    def get(self, bucket: str, key: str) -> bytes:
        self._before("get", key)
        return self._inner.get(bucket, key)

    def get_range(self, bucket: str, key: str, start: int, length: int) -> bytes:
        self._before("get_range", key)
        return self._inner.get_range(bucket, key, start, length)

    def head(self, bucket: str, key: str) -> ObjectStat:
        self._before("head", key)
        return self._inner.head(bucket, key)

    def exists(self, bucket: str, key: str) -> bool:
        self._before("exists", key)
        return self._inner.exists(bucket, key)

    def list(self, bucket: str, prefix: str = "") -> list[ObjectStat]:
        self._before("list", prefix)
        return self._inner.list(bucket, prefix)

    def delete(self, bucket: str, key: str) -> None:
        self._before("delete", key)
        self._inner.delete(bucket, key)
