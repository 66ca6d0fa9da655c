#!/usr/bin/env python3
"""Operations playbook: scale-out, node failure, checkpoint, backup.

Walks the day-2 operations the paper's controller performs:

1. the live hotspot loop (§4.1.3) detects overload and *scales the
   cluster* (Algorithm 1's ScaleCluster branch);
2. a worker "fails"; its shards are re-hosted and the system keeps
   serving (§3: node recovery);
3. a Raft-backed shard is *checkpointed*, compacting its log (§3);
4. a tenant is *backed up* to a second object store, purged, and
   *restored* (§3: backup/migration).

Run:  python examples/operations.py
"""

from repro import LogStore, small_test_config
from repro.common.clock import VirtualClock
from repro.meta import BackupTask, Catalog
from repro.oss import InMemoryObjectStore, MeteredObjectStore, oss_default
from repro.workload import LogRecordGenerator, WorkloadConfig, tenant_traffic

MICROS = 1_000_000


def rows_for(generator, tenant_id, count, start_ts):
    return [
        generator.record(tenant_id, start_ts + i * 1000)
        for i in range(count)
    ]


def main() -> None:
    store = LogStore.create(config=small_test_config())
    generator = LogRecordGenerator(WorkloadConfig(n_tenants=8, seed=17))
    base_ts = 1_605_052_800 * MICROS

    # Seed some data.
    for tenant in range(1, 5):
        store.put(tenant, rows_for(generator, tenant, 400, base_ts))
    store.flush_all()

    # -- 1. overload → automatic scale-out -----------------------------------
    watermark = (
        store.controller.topology.alpha
        * store.controller.topology.total_worker_capacity()
    )
    print(f"cluster: {len(store.workers)} workers, watermark "
          f"{watermark / 1000:.0f}k records/s")
    heavy = tenant_traffic(8, 0.99, watermark * 1.4)
    event = store.rebalance(heavy)
    print(f"offered {sum(heavy.values()) / 1000:.0f}k rps -> "
          f"scaled={event.scaled}; cluster now {len(store.workers)} workers "
          f"({store.config.n_shards} shards)")
    event = store.rebalance(heavy)
    print(f"second pass: rebalanced={event.rebalanced}, "
          f"routes={event.routes_after}")

    # -- 2. worker failure -----------------------------------------------------
    shard_id = next(iter(store.controller.routing.rule_for(1).shards()))
    victim = store.controller.topology.shard_worker[shard_id]
    moves = store.fail_worker(victim)
    print(f"\nfailed {victim}; re-hosted shards: {moves}")
    count = store.query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 1")
    print(f"tenant 1 still queryable: {count.rows[0]['COUNT(*)']} rows")

    # -- 3. Raft checkpoint ------------------------------------------------------
    raft_store = LogStore.create(
        config=small_test_config(n_workers=1, shards_per_worker=1, use_raft=True)
    )
    raft_store.put(1, rows_for(generator, 1, 300, base_ts))
    raft_store.clock.advance(1.0)
    shard = raft_store.workers["worker-0"].shards[0]
    log_before = len(shard.raft.wait_for_leader().persistent.log)
    index = shard.checkpoint()
    log_after = len(shard.raft.wait_for_leader().persistent.log)
    print(f"\nraft checkpoint at index {index}: leader log "
          f"{log_before} -> {log_after} entries "
          f"(WAL-only replica: {shard.raft.wal_only_replicas()[0].node_id})")

    # -- 4. backup / purge / restore ---------------------------------------------
    vault = MeteredObjectStore(InMemoryObjectStore(), oss_default(), VirtualClock())
    task = BackupTask(store.catalog, store.oss, store.config.bucket, store.janitor)
    backup = task.backup_tenant(2, vault, "vault")
    print(f"\nbacked up tenant 2: {backup.blocks_copied} blocks, "
          f"{backup.bytes_copied} bytes")

    store.offboard_tenant(2, export=False)
    print("purged tenant 2 from the cluster")

    store.catalog.register_tenant(2, name="restored")
    restore = BackupTask.restore_tenant(
        vault, "vault", 2, store.catalog, store.oss, store.config.bucket
    )
    print(f"restored tenant 2: {restore.blocks_copied + restore.blocks_skipped} "
          "blocks re-registered")
    count = store.query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 2")
    print(f"tenant 2 rows after restore: {count.rows[0]['COUNT(*)']}")

    # -- 5. controller restart (catalog persistence) --------------------------
    key = store.persist_catalog()
    backend = store.oss.inner  # the durable object store survives
    from repro import LogStore as LS

    reopened = LS.attach(backend, config=small_test_config())
    count = reopened.query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 1")
    print(f"\ncontroller restart: catalog snapshot {key} reloaded; "
          f"tenant 1 rows visible again: {count.rows[0]['COUNT(*)']}")


if __name__ == "__main__":
    main()
