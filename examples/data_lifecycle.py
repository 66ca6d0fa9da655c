#!/usr/bin/env python3
"""Multi-tenant data lifecycle: isolation, retention, compaction (§3.1).

Shows the storage-management consequences of per-tenant LogBlock
directories:

* differentiated retention policies per tenant (diagnostics vs archive);
* expiry that deletes one tenant's old blocks without touching anyone
  else's data — no compaction or rewrite needed;
* per-tenant usage accounting (the billing quantities);
* background compaction merging a tenant's small LogBlocks;
* a filesystem-backed object store so you can inspect the blocks.

Run:  python examples/data_lifecycle.py
"""

import os
import tempfile

from repro import LogStore, small_test_config
from repro.builder.compaction import Compactor
from repro.common.utils import human_bytes
from repro.oss.store import LocalFsObjectStore
from repro.query.planner import parse_timestamp
from repro.workload import LogRecordGenerator, WorkloadConfig

MICROS = 1_000_000

_GENERATOR = LogRecordGenerator(WorkloadConfig(n_tenants=3, seed=9))


def make_rows(count: int, tenant_id: int, seed: int, start_ts: int) -> list[dict]:
    """Deterministic hourly batch for one tenant."""
    import random

    rng = random.Random(tenant_id * 1009 + seed)
    return [
        _GENERATOR.record(tenant_id, start_ts + int(i * 3_600 * MICROS / count), rng)
        for i in range(count)
    ]


def main() -> None:
    root = tempfile.mkdtemp(prefix="logstore-oss-")
    store = LogStore.create(
        config=small_test_config(seal_rows=1_000),
        backend=LocalFsObjectStore(root),
    )
    base_ts = parse_timestamp("2020-11-11 00:00:00")

    # Three tenants with different lifecycle policies.
    store.register_tenant(1, name="web-frontend", retention_s=7 * 86_400)
    store.register_tenant(2, name="payments-audit", retention_s=None)  # keep forever
    store.register_tenant(3, name="batch-diagnostics", retention_s=3_600)

    # Ingest several hours of data in hourly batches, archiving as we go
    # (each batch becomes at least one LogBlock per tenant).
    for hour in range(4):
        start = base_ts + hour * 3_600 * MICROS
        for tenant in (1, 2, 3):
            store.put(tenant, make_rows(800, tenant_id=tenant, seed=hour, start_ts=start))
        store.flush_all()

    print(f"OSS root: {root}")
    print("\nper-tenant usage (the billing view):")
    for info in sorted(store.catalog.tenants(), key=lambda t: t.tenant_id):
        print(f"  tenant {info.tenant_id} ({info.name or 'unnamed'}): "
              f"{len(info.blocks)} LogBlocks, {human_bytes(info.total_bytes)}, "
              f"{info.total_rows} rows, retention="
              f"{'forever' if info.retention_s is None else f'{info.retention_s:.0f}s'}")

    print("\nobject layout (one directory per tenant):")
    for stat in store.oss.list(store.config.bucket)[:6]:
        print(f"  {stat.key}  ({human_bytes(stat.size)})")
    print("  ...")

    # -- retention sweep -----------------------------------------------------
    now_ts = base_ts + 4 * 3_600 * MICROS
    report = store.sweep_expired(now_ts)
    print(f"\nretention sweep at t=+4h: deleted {report.blocks_expired} blocks, "
          f"reclaimed {human_bytes(report.bytes_reclaimed)}, "
          f"tenants touched: {sorted(report.tenants_touched)}")
    for tenant in (1, 2, 3):
        count = store.query(
            f"SELECT COUNT(*) FROM request_log WHERE tenant_id = {tenant}"
        ).rows[0]["COUNT(*)"]
        print(f"  tenant {tenant} rows still queryable: {count}")

    # -- compaction -----------------------------------------------------------
    compactor = Compactor(
        store.schema, store.catalog, store.janitor,
        codec=store.config.codec, block_rows=store.config.block_rows,
        small_threshold_rows=1_000, target_rows=4_000,
    )
    before = len(store.catalog.blocks_for(2))
    result = compactor.compact_tenant(2)
    after = len(store.catalog.blocks_for(2))
    print(f"\ncompaction of tenant 2: {before} blocks -> {after} "
          f"({result.rows_rewritten} rows rewritten, "
          f"{human_bytes(result.bytes_before)} -> {human_bytes(result.bytes_after)})")
    count = store.query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 2")
    print(f"  tenant 2 rows after compaction: {count.rows[0]['COUNT(*)']} (unchanged)")

    # -- account closure -------------------------------------------------------
    purge = store.offboard_tenant(3, export=False)
    print(f"\noffboarded tenant 3 entirely: {purge.deleted_objects} objects deleted, "
          f"verified={purge.verified}")
    remaining = [s.key for s in store.oss.list(store.config.bucket, "tenants/3/")]
    print(f"  objects left under tenants/3/: {remaining}")

    print(f"\n(inspect the surviving LogBlocks under {root})")


if __name__ == "__main__":
    main()
