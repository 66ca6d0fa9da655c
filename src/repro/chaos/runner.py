"""The chaos harness: build a cluster, hurt it, heal it, check it.

A run is fully described by ``(scenario, seed)``.  The runner derives
every random stream from that pair, drives all time through one
:class:`~repro.common.clock.VirtualClock`, and records everything that
happens — faults, workload outcomes, invariant results — in the
cluster's :class:`~repro.obs.events.EventJournal` beside the cluster's
own seals and elections.  Re-running the same pair reproduces the same
journal byte for byte, so a failure in CI is a repro recipe, not an
anecdote.

Lifecycle::

    runner = ChaosRunner("leader_crash_mid_pipeline", seed=3)
    result = runner.run()
    assert result.ok, result.summary()

``run()`` builds the cluster with fault injectors planted at every
seam (OSS backend, WAL segment backends, Raft network), executes the
scenario body (workload interleaved with faults), heals everything,
quiesces, and hands the healed cluster to the
:class:`~repro.chaos.invariants.InvariantChecker`.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field

from repro.chaos.invariants import InvariantChecker, InvariantViolation
from repro.chaos.ledger import WriteLedger
from repro.chaos.oss_faults import ChaosObjectStore
from repro.chaos.wal_faults import FaultySegmentBackend
from repro.cluster.config import small_test_config
from repro.cluster.logstore import LogStore
from repro.common.clock import VirtualClock
from repro.common.errors import ChaosError, InvariantViolationError
from repro.obs.events import EventJournal, JournalEvent
from repro.oss.store import InMemoryObjectStore

# Timestamp base for workload rows (microseconds): 2020-11-11 00:00:00,
# matching the rest of the test suite's data.
_BASE_TS = 1_605_052_800_000_000


def derive_seed(scenario: str, seed: int) -> int:
    """The master RNG seed for a run — stable across processes."""
    return zlib.crc32(f"{scenario}:{seed}".encode())


class ChaosContext:
    """Everything a scenario body needs: the cluster, the injectors,
    the workload helpers, and the bookkeeping that keeps the run
    deterministic and checkable."""

    def __init__(
        self,
        scenario: str,
        seed: int,
        store: LogStore,
        chaos_oss: ChaosObjectStore,
        wal_backends: dict[str, FaultySegmentBackend],
        rng: random.Random,
        ledger_key_columns: tuple[str, ...] = ("log",),
    ) -> None:
        self.scenario = scenario
        self.seed = seed
        self.store = store
        self.chaos_oss = chaos_oss
        self.wal_backends = wal_backends
        self.journal = store.obs.journal
        self.rng = rng
        self.clock = store.clock
        self.ledger = WriteLedger(key_columns=ledger_key_columns)
        self.crashed: list[tuple[object, str]] = []  # (shard, node_id)
        self._batch_seq = 0
        # Lifecycle bookkeeping for the invariant checker: the highest
        # expiry cutoff each tenant was swept at (rows older than it
        # are *allowed* to be gone) and the tenants offboarded mid-run
        # (all their rows must be gone).
        self.expiry_cutoffs: dict[int, int] = {}
        self.offboarded: set[int] = set()
        self._lifecycle_now_ts: int | None = None

    def record(self, kind: str, target: str, detail: str = "") -> None:
        """Emit one chaos event (``chaos.<kind>``) to the cluster journal,
        where ``_system.events`` shows it next to seals and elections."""
        self.journal.emit(f"chaos.{kind}", target, detail=detail)

    def chaos_events(self) -> list[JournalEvent]:
        """The retained journal events the chaos run emitted."""
        return [e for e in self.journal.events() if e.kind.startswith("chaos.")]

    # -- topology --------------------------------------------------------

    def shards(self) -> list:
        result = []
        for worker in self.store.workers.values():
            result.extend(worker.shards.values())
        result.sort(key=lambda s: s.shard_id)
        return result

    def raft_shards(self) -> list:
        return [s for s in self.shards() if s.raft is not None]

    # -- workload --------------------------------------------------------

    def make_rows(self, tenant_id: int, count: int) -> list[dict]:
        """Deterministic rows with globally unique ``log`` keys."""
        rows = []
        for _ in range(count):
            seq = self._batch_seq
            self._batch_seq += 1
            rows.append(
                {
                    "tenant_id": tenant_id,
                    "ts": _BASE_TS + seq * 1_000,
                    "ip": f"10.0.0.{seq % 16}",
                    "api": f"/api/v{seq % 3}",
                    "latency": (seq * 37) % 500 + 1,
                    "fail": seq % 19 == 0,
                    "log": f"rid:{self.scenario}:{self.seed}:{tenant_id}:{seq}",
                }
            )
        return rows

    def write_batch(self, tenant_id: int, count: int = 50) -> bool:
        """Submit one batch; record the client-visible outcome."""
        rows = self.make_rows(tenant_id, count)
        try:
            self.store.put(tenant_id, rows)
        except Exception as exc:
            self.ledger.record_indeterminate(tenant_id, rows)
            self.record(
                "workload.put.failed",
                f"tenant:{tenant_id}",
                f"rows={count} {type(exc).__name__}",
            )
            return False
        self.ledger.record_acked(tenant_id, rows)
        self.record("workload.put.ok", f"tenant:{tenant_id}", f"rows={count}")
        return True

    def archive(self) -> bool:
        """One background archive pass; failures are survivable."""
        try:
            report = self.store.run_background_tasks()
        except Exception as exc:
            self.record("workload.archive.failed", "builder", type(exc).__name__)
            return False
        self.record(
            "workload.archive.ok", "builder", f"blocks={report.blocks_written}"
        )
        return True

    def advance(self, seconds: float) -> None:
        self.clock.advance(seconds)

    # -- lifecycle workload (sweeps / repacks / offboarding under fire) --

    def sweep_lifecycle(self, now_ts: int) -> bool:
        """One expiry sweep at ``now_ts``; survivable under faults.

        Records each retention-bearing tenant's cutoff so the checker
        knows which acked rows became expiry-eligible.
        """
        for info in self.store.catalog.tenants():
            if info.retention_s is None:
                continue
            cutoff = self.store.catalog.retention_cutoff(now_ts, info.retention_s)
            previous = self.expiry_cutoffs.get(info.tenant_id)
            if previous is None or cutoff > previous:
                self.expiry_cutoffs[info.tenant_id] = cutoff
        if self._lifecycle_now_ts is None or now_ts > self._lifecycle_now_ts:
            self._lifecycle_now_ts = now_ts
        try:
            report = self.store.sweep_expired(now_ts)
        except Exception as exc:
            self.record("workload.sweep.failed", "lifecycle", type(exc).__name__)
            return False
        self.record(
            "workload.sweep.ok",
            "lifecycle",
            f"expired={report.blocks_expired} orphans={report.orphans_swept}",
        )
        return True

    def cold_repack(self, now_ts: int) -> bool:
        """One cold-tier repack pass; survivable under faults."""
        try:
            results = self.store.cold_compact(now_ts)
        except Exception as exc:
            self.record("workload.cold.failed", "lifecycle", type(exc).__name__)
            return False
        packed = sum(r.blocks_before for r in results if r.repacked)
        self.record("workload.cold.ok", "lifecycle", f"blocks_packed={packed}")
        return True

    def offboard_tenant(self, tenant_id: int, export: bool = True) -> bool:
        """Offboard one tenant under the active fault schedule.

        The tenant is marked offboarded regardless of outcome — after
        healing, :meth:`heal_and_quiesce` re-runs the (idempotent)
        offboard and the checker demands zero residue.
        """
        self.offboarded.add(tenant_id)
        try:
            report = self.store.lifecycle.offboarder.offboard(
                tenant_id, export=export
            )
        except Exception as exc:
            self.record(
                "workload.offboard.failed",
                f"tenant:{tenant_id}",
                type(exc).__name__,
            )
            return False
        self.record(
            "workload.offboard.ok",
            f"tenant:{tenant_id}",
            f"deleted={report.deleted_objects} failed={report.failed_deletes} "
            f"verified={report.verified}",
        )
        return report.verified

    # -- fault helpers (journal-recording wrappers) ----------------------

    def crash_replica(self, shard, node_id: str) -> bool:
        if (shard, node_id) in self.crashed:
            return False
        if shard.raft is not None and shard.raft.nodes[node_id].stopped:
            return False
        shard.crash_replica(node_id)
        self.crashed.append((shard, node_id))
        self.record("fault.raft.crash", node_id)
        return True

    def crash_leader(self, shard) -> str | None:
        leader = shard.raft.leader() if shard.raft is not None else None
        if leader is None:
            return None
        return leader.node_id if self.crash_replica(shard, leader.node_id) else None

    def recover_replica(self, shard, node_id: str) -> bool:
        if (shard, node_id) not in self.crashed:
            return False
        shard.recover_replica(node_id)
        self.crashed.remove((shard, node_id))
        self.record("fault.raft.recover", node_id)
        return True

    def partition(self, shard, a: str, b: str) -> None:
        shard.raft.network.partition(a, b)
        self.record("fault.net.partition", f"{a}|{b}")

    def partition_one_way(self, shard, src: str, dst: str) -> None:
        shard.raft.network.partition_one_way(src, dst)
        self.record("fault.net.partition_one_way", f"{src}->{dst}")

    def heal_partition(self, shard, a: str, b: str) -> None:
        shard.raft.network.heal(a, b)
        self.record("fault.net.heal", f"{a}|{b}")

    def corrupt_wal_tail(self, backend_name: str) -> bool:
        """Flip a byte in a (crashed) replica's WAL tail, if it has one."""
        backend = self.wal_backends.get(backend_name)
        return backend.corrupt_tail() if backend is not None else False

    def crash_and_rebuild_shard(self, shard):
        """Simulated process crash of a whole shard.

        Every replica's in-memory row store dies with the process; the
        WAL segment backends are the durable medium and survive.
        Rebuilding the shard over the same backends runs torn-tail
        repair and WAL replay (a Raft group re-elects and re-applies
        its log) — exactly what a restarted worker would do.
        """
        self.record("fault.shard.crash", f"shard{shard.shard_id}")
        self.crashed = [(s, node) for s, node in self.crashed if s is not shard]
        rebuilt = self.store.build_shard(shard.shard_id, shard.worker_id)
        self.store.workers[shard.worker_id].add_shard(rebuilt)
        self.record(
            "fault.shard.rebuilt",
            f"shard{shard.shard_id}",
            f"rows_recovered={rebuilt.pending_rows()}",
        )
        return rebuilt

    # -- plan pumping ----------------------------------------------------

    def pump_plan(self, plan) -> None:
        """Fire every plan action that is due at the current time."""
        for action in plan.pop_due(self.clock.now()):
            self.record("plan.fire", action.name)
            action.apply()

    # -- heal + quiesce --------------------------------------------------

    def heal_and_quiesce(self) -> None:
        """Clear every fault and drive the cluster to a settled state."""
        self.record("phase.heal", "cluster")
        self.chaos_oss.heal()
        for backend in self.wal_backends.values():
            backend.heal()
        for shard in self.raft_shards():
            shard.raft.network.heal_all()
        for shard, node_id in sorted(self.crashed, key=lambda c: c[1]):
            shard.recover_replica(node_id)
            self.record("fault.raft.recover", node_id)
        self.crashed.clear()
        # Let elections finish and recovered replicas catch up.
        self.advance(2.0)
        self._retry("settle", self.store.settle_writes)
        self._retry("flush", self.store.flush_all)
        # Lifecycle convergence: offboards re-run (idempotent — they
        # re-delete whatever the mid-run crash left), the last sweep
        # replays at its recorded cutoff (expiry is exactly-once, so a
        # replay only picks up what the crash dropped), and the janitor's
        # orphan queue drains.  The checker then proves zero residue.
        for tenant_id in sorted(self.offboarded):
            self.store.lifecycle.offboarder.offboard(tenant_id, export=False)
        if self._lifecycle_now_ts is not None:
            self.store.lifecycle.sweeper.sweep(self._lifecycle_now_ts)
        self.store.janitor.sweep()
        self.record("phase.quiesced", "cluster")

    def _retry(self, what: str, fn, rounds: int = 30, pause_s: float = 0.5) -> None:
        last: Exception | None = None
        for _ in range(rounds):
            try:
                fn()
                return
            except Exception as exc:  # leaderless windows, stragglers
                last = exc
                self.advance(pause_s)
        raise ChaosError(f"cluster failed to {what} after healing: {last!r}") from last


@dataclass
class ChaosResult:
    """Outcome of one chaos run."""

    scenario: str
    seed: int
    store: LogStore  # the healed cluster, open to ``_system.*`` queries
    ledger: WriteLedger
    violations: list[InvariantViolation] = field(default_factory=list)

    @property
    def journal(self) -> EventJournal:
        """Every chaos event beside the cluster's own seals and
        elections; same-seed runs have equal dumps and digests."""
        return self.store.obs.journal

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def digest(self) -> str:
        return self.journal.digest()

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} VIOLATION(S)"
        lines = [
            f"chaos run {self.scenario} seed={self.seed}: {status}",
            f"  acked rows: {self.ledger.acked_count()}  "
            f"indeterminate: {self.ledger.indeterminate_count()}",
            f"  events: {self.journal.total_emitted}  digest: {self.digest[:16]}",
        ]
        lines.extend(f"  {v.format()}" for v in self.violations)
        return "\n".join(lines)


class ChaosRunner:
    """Build, break, heal, and check one cluster from ``(scenario, seed)``."""

    def __init__(self, scenario: str, seed: int = 0, config_overrides: dict | None = None):
        from repro.chaos.scenarios import SCENARIOS

        if scenario not in SCENARIOS:
            known = ", ".join(sorted(SCENARIOS))
            raise ChaosError(f"unknown scenario {scenario!r}; known: {known}")
        self._spec = SCENARIOS[scenario]
        self.scenario = scenario
        self.seed = seed
        self._overrides = config_overrides or {}

    def build_context(self) -> ChaosContext:
        master = derive_seed(self.scenario, self.seed)
        clock = VirtualClock()
        chaos_oss = ChaosObjectStore(InMemoryObjectStore(), clock, seed=master + 1)
        wal_backends: dict[str, FaultySegmentBackend] = {}
        journal: EventJournal | None = None  # the cluster's, once it exists

        def wal_backend_factory(name: str) -> FaultySegmentBackend:
            # The durable medium outlives a crash: a rebuilt shard reopens it.
            if name not in wal_backends:
                wal_backends[name] = FaultySegmentBackend(name)
                wal_backends[name].attach_journal(journal)
            return wal_backends[name]

        overrides = dict(
            n_workers=2,
            shards_per_worker=1,
            seal_rows=200,
            block_rows=64,
            target_rows_per_logblock=400,
            tracing_enabled=False,
            seed=master,
        )
        overrides.update(self._spec.config)
        overrides.update(self._overrides)
        if not overrides.get("event_journal_enabled", True):
            raise ChaosError("a chaos run records its events in the journal; keep it enabled")
        config = small_test_config(wal_backend_factory=wal_backend_factory, **overrides)
        store = LogStore.create(config=config, backend=chaos_oss, clock=clock)
        journal = store.obs.journal
        chaos_oss.attach_journal(journal)
        for backend in wal_backends.values():
            backend.attach_journal(journal)
        ctx = ChaosContext(
            scenario=self.scenario,
            seed=self.seed,
            store=store,
            chaos_oss=chaos_oss,
            wal_backends=wal_backends,
            rng=random.Random(master),
            ledger_key_columns=self._spec.probe_key_columns,
        )
        ctx.record("phase.start", self.scenario, f"seed={self.seed}")
        return ctx

    def run(self, check: bool = True) -> ChaosResult:
        ctx = self.build_context()
        self._spec.body(ctx)
        ctx.heal_and_quiesce()
        violations: list[InvariantViolation] = []
        if check:
            checker = InvariantChecker(
                ctx.store,
                ctx.ledger,
                table=self._spec.probe_table,
                expiry_cutoffs=ctx.expiry_cutoffs,
                offboarded=ctx.offboarded,
            )
            violations = checker.check_all()
        self._export_metrics(ctx, violations)
        dropped = ctx.journal.total_emitted - len(ctx.journal)
        if dropped:
            raise ChaosError(
                f"the journal dropped {dropped} event(s) off its ring; "
                "the run has no complete record"
            )
        return ChaosResult(
            scenario=self.scenario,
            seed=self.seed,
            store=ctx.store,
            ledger=ctx.ledger,
            violations=violations,
        )

    def run_or_raise(self) -> ChaosResult:
        result = self.run()
        if not result.ok:
            raise InvariantViolationError(result.summary())
        return result

    def _export_metrics(self, ctx: ChaosContext, violations) -> None:
        registry = ctx.store.obs.registry
        registry.counter(
            "logstore_chaos_events_total", "Events the chaos run emitted to the journal."
        ).add(len(ctx.chaos_events()))
        registry.counter(
            "logstore_chaos_faults_injected_total", "OSS faults injected."
        ).add(ctx.chaos_oss.faults_injected)
        registry.counter(
            "logstore_chaos_acked_rows_total", "Rows acked to the chaos workload."
        ).add(ctx.ledger.acked_count())
        registry.counter(
            "logstore_chaos_violations_total", "Invariant violations found."
        ).add(len(violations))
