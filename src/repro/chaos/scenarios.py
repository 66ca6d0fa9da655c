"""The scenario library: staged failures the paper's design must survive.

Each scenario is a workload interleaved with faults on the virtual
clock.  Bodies only *stage* trouble — they never assert.  The runner
heals everything afterwards and the invariant checker decides whether
the cluster kept its promises.  Bodies therefore swallow the
exceptions a real client would see (recording them in the ledger as
indeterminate) and keep going: chaos runs measure what survives, not
what raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.builder.compaction import Compactor
from repro.chaos.plan import Nemesis
from repro.chaos.runner import ChaosContext

_RAFT = dict(use_raft=True, replicas=3, wal_only_replicas=1)


@dataclass(frozen=True)
class Scenario:
    """A named, configured, replayable failure story."""

    name: str
    description: str
    body: Callable[[ChaosContext], None]
    config: dict = field(default_factory=dict)
    # What the durability probe looks at: the table the workload wrote
    # (None = the store's current schema) and the columns that identify
    # a row in the ledger.  Classic request-log workloads key on the
    # globally unique ``log`` string; versioned-table sessions key on
    # ``(run_id, version)`` so exactly-once means no duplicate version.
    probe_table: str | None = None
    probe_key_columns: tuple[str, ...] = ("log",)


def _make_compactor(ctx: ChaosContext) -> Compactor:
    """Build a compactor that publishes and retires through the store's
    janitor (over the fault-injected OSS), so the invariant checker
    accounts for its orphans."""
    store = ctx.store
    return Compactor(
        store.schema,
        store.catalog,
        store.janitor,
        codec=store.config.codec,
        block_rows=store.config.block_rows,
        small_threshold_rows=500,
        target_rows=1_000,
        obs=store.obs,
    )


# -- staged scenarios ------------------------------------------------------


def _leader_crash_mid_pipeline(ctx: ChaosContext) -> None:
    """Kill a shard leader while writes are streaming; keep writing
    through the election; archive after the new leader settles."""
    for _ in range(4):
        ctx.write_batch(1)
        ctx.write_batch(2)
        ctx.advance(0.05)
    shard = ctx.raft_shards()[0]
    ctx.crash_leader(shard)
    for _ in range(8):
        ctx.write_batch(1)
        ctx.write_batch(2)
        ctx.advance(0.25)
    ctx.archive()


def _partition_during_archiving(ctx: ChaosContext) -> None:
    """Cut a leader off from one follower right as sealed memtables
    are being drained to OSS; the drain proposal must still commit
    through the surviving quorum (or defer, never double-archive)."""
    for _ in range(12):
        ctx.write_batch(1)
        ctx.advance(0.05)
    shard = ctx.raft_shards()[0]
    leader = shard.raft.leader()
    followers = [n for n in shard.raft._node_ids if leader is None or n != leader.node_id]
    if leader is not None:
        ctx.partition(shard, leader.node_id, followers[0])
    ctx.archive()
    for _ in range(4):
        ctx.write_batch(1)
        ctx.advance(0.25)
    ctx.archive()


def _asymmetric_partition_ingest(ctx: ChaosContext) -> None:
    """One-way partition: the leader's messages stop reaching a
    follower while the follower's still arrive.  The starved follower
    calls elections and destabilises the term; acked writes must
    survive the churn."""
    for _ in range(4):
        ctx.write_batch(1)
        ctx.advance(0.05)
    shard = ctx.raft_shards()[0]
    leader = shard.raft.leader()
    if leader is not None:
        victim = next(n for n in shard.raft._node_ids if n != leader.node_id)
        ctx.partition_one_way(shard, leader.node_id, victim)
    for _ in range(10):
        ctx.write_batch(1)
        ctx.advance(0.25)


def _quiesced_leader_crash(ctx: ChaosContext) -> None:
    """Let idle Raft groups quiesce, then crash one shard's leader and
    cut another's off from a follower: no heartbeat notices, only the
    network's fault callback wakes them.  Writes resume, then heal."""

    def write(rounds: int, pause_s: float) -> None:
        for _ in range(rounds):
            ctx.write_batch(1)
            ctx.write_batch(2)
            ctx.advance(pause_s)

    write(4, 0.05)
    ctx.advance(2.0)
    crashed, partitioned = ctx.raft_shards()[:2]
    ctx.crash_leader(crashed)
    leader = partitioned.raft.leader().node_id
    follower = next(n for n in partitioned.raft._node_ids if n != leader)
    ctx.partition(partitioned, leader, follower)
    write(8, 0.25)
    ctx.heal_partition(partitioned, leader, follower)
    write(4, 0.25)
    ctx.archive()


def _oss_brownout_during_compaction(ctx: ChaosContext) -> None:
    """OSS goes flaky mid-compaction: the run must either finish
    atomically after retries or compensate — never register half the
    output chunks."""
    for _ in range(10):
        ctx.write_batch(1, 60)
        ctx.advance(0.05)
    ctx.archive()
    compactor = _make_compactor(ctx)
    ctx.chaos_oss.set_error_rate(0.55)
    ctx.chaos_oss.tear_next_puts(2, 0.4)
    try:
        compactor.compact_all()
        ctx.record("workload.compact.ok", "compactor")
    except Exception as exc:
        ctx.record("workload.compact.failed", "compactor", type(exc).__name__)
    ctx.chaos_oss.heal()
    try:
        compactor.compact_all()
        ctx.record("workload.compact.ok", "compactor")
    except Exception as exc:
        ctx.record("workload.compact.retry_failed", "compactor", type(exc).__name__)


def _torn_upload_retry_storm(ctx: ChaosContext) -> None:
    """Several uploads tear mid-PUT under sustained flakiness; the
    retrying uploader must repair the partial objects byte-for-byte."""
    for _ in range(8):
        ctx.write_batch(1, 60)
        ctx.write_batch(2, 60)
        ctx.advance(0.05)
    ctx.chaos_oss.tear_next_puts(3, 0.4)
    ctx.chaos_oss.set_error_rate(0.25)
    ctx.archive()
    ctx.chaos_oss.heal()
    ctx.archive()


def _crash_during_recovery(ctx: ChaosContext) -> None:
    """Crash a follower, recover it, and kill the leader while the
    recovered node is still catching up — the worst-timed double
    failure a three-replica group can survive."""
    shard = ctx.raft_shards()[0]
    follower = next(
        n for n in shard.raft._node_ids if n != shard.raft.leader().node_id
    )
    for _ in range(4):
        ctx.write_batch(1)
        ctx.advance(0.05)
    ctx.crash_replica(shard, follower)
    for _ in range(6):
        ctx.write_batch(1)
        ctx.advance(0.1)
    ctx.recover_replica(shard, follower)
    ctx.crash_leader(shard)
    for _ in range(8):
        ctx.write_batch(1)
        ctx.advance(0.25)


def _oss_outage_archive_retry(ctx: ChaosContext) -> None:
    """A full OSS brownout while the builder archives: every sealed
    memtable must survive in the shard and archive cleanly after the
    outage ends."""
    for _ in range(12):
        ctx.write_batch(1, 60)
        ctx.advance(0.05)
    ctx.chaos_oss.begin_outage()
    ctx.archive()  # fails; sealed memtables must be preserved
    for _ in range(4):
        ctx.write_batch(1, 60)
        ctx.advance(0.05)
    ctx.chaos_oss.end_outage()
    ctx.archive()


def _archive_crash_before_drain(ctx: ChaosContext) -> None:
    """Each shard's oldest sealed table reaches OSS and the catalog, then
    the shard's process dies before the drain is logged.  The rebuilt
    shard replays the table under the same source, so archiving it
    again — under flaky OSS — must find its blocks, not store its rows
    a second time."""
    for _ in range(8):
        ctx.write_batch(1, 60)
        ctx.write_batch(2, 60)
        ctx.advance(0.05)
    for shard in ctx.shards():
        sealed = shard.take_sealed()
        if sealed:
            source, table = sealed[0]
            ctx.store.builder.archive_memtable(table, source)
            ctx.record("workload.archive.undrained", source)
            ctx.crash_and_rebuild_shard(shard)
    ctx.chaos_oss.set_error_rate(0.2)
    ctx.archive()
    ctx.chaos_oss.heal()
    for _ in range(2):
        ctx.write_batch(1, 60)
        ctx.advance(0.05)
    ctx.archive()


def _wal_torn_tail_crash(ctx: ChaosContext) -> None:
    """A plain (non-Raft) shard dies mid-fsync, leaving a torn WAL
    tail; the rebuilt shard must recover exactly the acked prefix."""
    shard = ctx.shards()[0]
    backend = ctx.wal_backends[f"shard{shard.shard_id}"]
    # Find a tenant routed to this shard so the torn append hits it.
    tenant = 1
    for candidate in range(1, 17):
        ctx.write_batch(candidate, 20)
        if backend.inner.segments():
            tenant = candidate
            break
    for _ in range(6):
        ctx.write_batch(tenant, 40)
        ctx.advance(0.02)
    backend.tear_next_appends(1, 0.5)
    ctx.write_batch(tenant, 40)  # fails mid-append: indeterminate
    ctx.crash_and_rebuild_shard(shard)
    for _ in range(4):
        ctx.write_batch(tenant, 40)
        ctx.advance(0.02)
    ctx.archive()


def _session_insert_crash(ctx: ChaosContext) -> None:
    """Kill the Raft leader while a SQL session streams versioned
    INSERTs into an append-only table.  Every acked ``(run_id,
    version)`` pair must be readable exactly once after healing —
    INSERT-as-UPDATE never loses an acked version and never makes one
    visible twice."""
    store = ctx.store
    session = store.connect(1, store.issue_token(1))
    session.execute(
        "CREATE TABLE workflow_runs ("
        "run_id STRING, status STRING, payload STRING, VERSION BY run_id)"
    )
    single = session.prepare(
        "INSERT INTO workflow_runs (run_id, status, payload) VALUES (?, ?, ?)"
    )
    pair = session.prepare(
        "INSERT INTO workflow_runs (run_id, status, payload)"
        " VALUES (?, ?, ?), (?, ?, ?)"
    )

    def run_params(seq: int) -> tuple:
        run_id = f"run:{seq % 24}"
        status = "running" if seq % 3 else "succeeded"
        return (run_id, status, f"payload:{ctx.scenario}:{ctx.seed}:{seq}")

    def insert(statement, params, label: str) -> None:
        try:
            result = statement.execute(params)
        except Exception as exc:
            # The session stamps rows (versions included) before the
            # put, so the client knows exactly which rows are in limbo.
            ctx.ledger.record_indeterminate(1, session.last_insert_rows)
            ctx.record("workload.insert.failed", "session", f"{label} {type(exc).__name__}")
        else:
            ctx.ledger.record_acked(1, result.rows)
            ctx.record("workload.insert.ok", "session", f"{label} rows={result.rows_inserted}")

    seq = 0
    for _ in range(12):
        insert(single, run_params(seq), f"seq={seq}")
        seq += 1
        insert(pair, run_params(seq) + run_params(seq + 1), f"seq={seq},{seq + 1}")
        seq += 2
        ctx.advance(0.02)
    for shard in ctx.raft_shards():
        ctx.crash_leader(shard)
    for _ in range(10):
        insert(single, run_params(seq), f"seq={seq}")
        seq += 1
        insert(pair, run_params(seq) + run_params(seq + 1), f"seq={seq},{seq + 1}")
        seq += 2
        ctx.advance(0.25)
    ctx.archive()
    for _ in range(4):
        insert(single, run_params(seq), f"seq={seq}")
        seq += 1
        ctx.advance(0.05)


def _lifecycle_crash_sweep_offboard(ctx: ChaosContext) -> None:
    """OSS faults tear through an expiry sweep and a tenant offboard
    while other tenants keep writing, and a shard crashes mid-storm.

    Tenant 1 carries a retention policy (cold after 30m, expire after
    1h), tenant 2 is offboarded mid-fault, tenant 3 is the control with
    no policy.  The checker must find: no acked unexpired row lost,
    expiry converged exactly once after healing, and zero residue —
    catalog, OSS prefix, or query-visible — for the offboarded tenant.
    """
    store = ctx.store
    for tenant in (1, 2, 3):
        store.register_tenant(tenant)
    store.set_retention(1, ttl="1h", cold_age="30m")
    for _ in range(8):
        for tenant in (1, 2, 3):
            ctx.write_batch(tenant, 40)
        ctx.advance(0.05)
    ctx.archive()
    # Rows carry ts = BASE + seq µs-steps; lifecycle "now" values below
    # place the cold and expiry cutoffs *inside* the written range, so
    # newer tenant-1 rows must survive both transitions.
    base = 1_605_052_800_000_000
    half_hour_us = 1_800_000_000
    hour_us = 3_600_000_000
    ctx.cold_repack(base + 500_000 + half_hour_us)  # cold cutoff: seq < 500
    for tenant in (1, 3):
        ctx.write_batch(tenant, 40)
    ctx.archive()
    ctx.chaos_oss.set_error_rate(0.6)
    ctx.sweep_lifecycle(base + 800_000 + hour_us)  # expiry cutoff: seq < 800
    ctx.crash_and_rebuild_shard(ctx.shards()[0])
    for _ in range(4):
        ctx.write_batch(3, 40)
        ctx.advance(0.1)
    ctx.offboard_tenant(2)  # export + delete, mid-fault
    for _ in range(3):
        ctx.write_batch(1, 40)
        ctx.write_batch(3, 40)
        ctx.advance(0.1)
    ctx.sweep_lifecycle(base + 800_000 + hour_us)  # retry still under fire


def _random_mixed(ctx: ChaosContext) -> None:
    """Nemesis: a seeded random storm of OSS, WAL, and network faults
    over a steady multi-tenant workload."""
    plan = Nemesis(ctx.rng).build_plan(ctx, duration_s=15.0, mean_gap_s=1.5, mean_hold_s=1.0)
    tenants = [1, 2, 3]
    step = 0
    while step < 60 or not plan.exhausted:
        ctx.pump_plan(plan)
        ctx.write_batch(tenants[step % len(tenants)], 40)
        if step % 10 == 9:
            ctx.archive()
        ctx.advance(0.25)
        step += 1
        if step > 400:
            break


SCENARIOS: dict[str, Scenario] = {
    spec.name: spec
    for spec in [
        Scenario(
            "leader_crash_mid_pipeline",
            "Shard leader crashes during streaming ingest; election mid-stream.",
            _leader_crash_mid_pipeline,
            config=dict(_RAFT),
        ),
        Scenario(
            "partition_during_archiving",
            "Leader partitioned from a follower while draining memtables to OSS.",
            _partition_during_archiving,
            config=dict(_RAFT),
        ),
        Scenario(
            "asymmetric_partition_ingest",
            "One-way partition starves a follower of heartbeats during ingest.",
            _asymmetric_partition_ingest,
            config=dict(_RAFT),
        ),
        Scenario(
            "quiesced_leader_crash",
            "Idle Raft groups quiesce; a leader crash and a partition wake them.",
            _quiesced_leader_crash,
            config=dict(_RAFT),
        ),
        Scenario(
            "oss_brownout_during_compaction",
            "OSS errors + torn uploads while the compactor rewrites blocks.",
            _oss_brownout_during_compaction,
        ),
        Scenario(
            "torn_upload_retry_storm",
            "Archive uploads tear mid-PUT under sustained OSS flakiness.",
            _torn_upload_retry_storm,
        ),
        Scenario(
            "crash_during_recovery",
            "Leader crashes while a recovered follower is still catching up.",
            _crash_during_recovery,
            config=dict(_RAFT),
        ),
        Scenario(
            "oss_outage_archive_retry",
            "Full OSS outage during archiving; memtables must survive and retry.",
            _oss_outage_archive_retry,
            config=dict(_RAFT),
        ),
        Scenario(
            "archive_crash_before_drain",
            "Plain shards crash between a table's upload and its drain.",
            _archive_crash_before_drain,
        ),
        Scenario(
            "archive_crash_before_drain_raft",
            "Raft shards crash between a table's upload and its drain.",
            _archive_crash_before_drain,
            config=dict(_RAFT),
        ),
        Scenario(
            "wal_torn_tail_crash",
            "Plain shard crashes mid-fsync with a torn WAL tail; rebuild recovers.",
            _wal_torn_tail_crash,
        ),
        Scenario(
            "session_insert_crash",
            "Raft leader crashes while a SQL session streams versioned INSERTs.",
            _session_insert_crash,
            config=dict(_RAFT),
            probe_table="workflow_runs",
            probe_key_columns=("run_id", "version"),
        ),
        Scenario(
            "lifecycle_crash_sweep_offboard",
            "OSS faults + a shard crash interrupt an expiry sweep and a tenant offboard.",
            _lifecycle_crash_sweep_offboard,
        ),
        Scenario(
            "random_mixed",
            "Seeded Nemesis storm: mixed OSS/WAL/network faults over steady load.",
            _random_mixed,
            config=dict(_RAFT),
        ),
    ]
}
