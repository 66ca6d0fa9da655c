"""repro.chaos: fault injectors and the invariant checker.

The simulated cluster (virtual clock, simulated network, in-memory OSS)
makes deterministic simulation testing possible: faults enter through
injectors planted where the real dependency would fail, and the
write-path reference model (``tests/model``) arms them as rules.

* :mod:`repro.chaos.oss_faults` — object-store fault injector (errors,
  outages, latency spikes, throttling, torn uploads);
* :mod:`repro.chaos.wal_faults` — WAL segment-backend faults (failed
  fsync, torn append, tail corruption);
* :mod:`repro.chaos.invariants` — :class:`InvariantChecker`, which checks
  a cluster against an oracle's acked and indeterminate row keys.
"""

from repro.chaos.invariants import InvariantChecker, InvariantViolation
from repro.chaos.oss_faults import ChaosObjectStore
from repro.chaos.wal_faults import FaultySegmentBackend

__all__ = [
    "ChaosObjectStore",
    "FaultySegmentBackend",
    "InvariantChecker",
    "InvariantViolation",
]
