"""repro.chaos: deterministic fault injection and invariant checking.

The simulated cluster (virtual clock, simulated network, in-memory OSS)
makes FoundationDB-style deterministic simulation testing possible: a
chaos run is fully described by ``(scenario, seed)``, every fault and
workload op lands on the virtual clock in a reproducible order, and the
run's events land in the cluster's event journal, whose bytes are
identical across re-runs.

Pieces:

* :mod:`repro.chaos.oss_faults` — object-store fault injector (errors,
  outages, latency spikes, throttling, torn uploads);
* :mod:`repro.chaos.wal_faults` — WAL segment-backend faults (failed
  fsync, torn tail, checksum corruption);
* :mod:`repro.chaos.ledger` — the write ledger tracking which rows the
  cluster acknowledged (the ground truth invariants are checked
  against);
* :mod:`repro.chaos.plan` — :class:`FaultPlan`/:class:`Nemesis`, the
  seeded fault scheduler;
* :mod:`repro.chaos.invariants` — :class:`InvariantChecker`;
* :mod:`repro.chaos.runner` — :class:`ChaosRunner`/:class:`ChaosContext`;
* :mod:`repro.chaos.scenarios` — the scenario library.
"""

from repro.chaos.invariants import InvariantChecker, InvariantViolation
from repro.chaos.ledger import WriteLedger
from repro.chaos.oss_faults import ChaosObjectStore
from repro.chaos.plan import FaultPlan, Nemesis
from repro.chaos.runner import ChaosContext, ChaosResult, ChaosRunner, derive_seed
from repro.chaos.scenarios import SCENARIOS
from repro.chaos.wal_faults import FaultySegmentBackend

__all__ = [
    "ChaosContext",
    "ChaosObjectStore",
    "derive_seed",
    "ChaosResult",
    "ChaosRunner",
    "FaultPlan",
    "FaultySegmentBackend",
    "InvariantChecker",
    "InvariantViolation",
    "Nemesis",
    "SCENARIOS",
    "WriteLedger",
]
