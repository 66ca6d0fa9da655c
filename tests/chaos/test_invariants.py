"""Invariant checker self-tests.

The positive case (healthy cluster → no violations) is necessary but
not sufficient: a checker that can't *fail* proves nothing.  The
negative tests inject each class of violation directly — deleting an
archived block, duplicating rows, planting phantoms and strays, leaving
an offboarded tenant's residue — and assert the checker reports exactly
that violation.  The checker reads an oracle as the reference model
holds one: each tenant's acked and indeterminate row keys, and the acked
rows' timestamps.
"""

from __future__ import annotations

import pytest

from repro.chaos.invariants import InvariantChecker
from repro.cluster.config import small_test_config
from repro.cluster.logstore import LogStore
from repro.common.errors import InvariantViolationError
from repro.meta.catalog import LogBlockEntry

BASE_TS = 1_605_052_800_000_000


def make_store() -> LogStore:
    config = small_test_config(
        n_workers=2,
        shards_per_worker=1,
        seal_rows=100,
        block_rows=64,
        target_rows_per_logblock=400,
        tracing_enabled=False,
    )
    return LogStore.create(config=config)


def unique_rows(tenant_id: int, count: int, tag: str) -> list[dict]:
    return [
        {
            "tenant_id": tenant_id,
            "ts": BASE_TS + i * 1_000,
            "ip": "10.0.0.1",
            "api": "/api/v1",
            "latency": 5,
            "fail": False,
            "log": f"{tag}:{tenant_id}:{i}",
        }
        for i in range(count)
    ]


class Oracle:
    """Acked and indeterminate ``log`` keys per tenant, with acked ts."""

    def __init__(self) -> None:
        self.acked: dict[int, list[str]] = {}
        self.indeterminate: dict[int, list[str]] = {}
        self.acked_ts: dict[int, dict[str, int]] = {}

    def record_acked(self, tenant_id: int, rows: list[dict]) -> None:
        self.acked.setdefault(tenant_id, []).extend(row["log"] for row in rows)
        self.acked_ts.setdefault(tenant_id, {}).update((row["log"], row["ts"]) for row in rows)

    def record_indeterminate(self, tenant_id: int, rows: list[dict]) -> None:
        self.indeterminate.setdefault(tenant_id, []).extend(row["log"] for row in rows)

    def checker(self, store: LogStore, **lifecycle) -> InvariantChecker:
        return InvariantChecker(
            store, self.acked, self.indeterminate, self.acked_ts, **lifecycle
        )


def write_acked(store: LogStore, oracle: Oracle, tenant_id: int, count: int, tag="r"):
    rows = unique_rows(tenant_id, count, tag)
    store.put(tenant_id, rows)
    oracle.record_acked(tenant_id, rows)
    return rows


def names(violations) -> set[str]:
    return {v.invariant for v in violations}


def test_healthy_cluster_has_no_violations():
    store, oracle = make_store(), Oracle()
    write_acked(store, oracle, 1, 250)
    write_acked(store, oracle, 2, 120)
    store.flush_all()
    checker = oracle.checker(store)
    assert checker.check_all() == []
    checker.assert_ok()  # must not raise


def test_checker_catches_acked_write_loss_from_deleted_block():
    """The required negative self-test: a buggy component silently
    drops an archived block (object + catalog entry) — acked rows
    disappear and the checker must say so."""
    store, oracle = make_store(), Oracle()
    write_acked(store, oracle, 1, 250)
    store.flush_all()
    victim = store.catalog.blocks_for(1)[0]
    store.oss.delete(store.config.bucket, victim.path)
    store.catalog.remove_block(victim)
    violations = oracle.checker(store).check_all()
    assert "no_acked_write_lost" in names(violations)
    with pytest.raises(InvariantViolationError):
        oracle.checker(store).assert_ok()


def test_checker_catches_duplicated_rows():
    store, oracle = make_store(), Oracle()
    rows = write_acked(store, oracle, 1, 50)
    store.put(1, rows)  # duplicate delivery the oracle knows nothing about
    violations = oracle.checker(store).check_all()
    assert "no_duplicate_rows" in names(violations)


def test_checker_catches_phantom_rows():
    store, oracle = make_store(), Oracle()
    write_acked(store, oracle, 1, 50)
    store.put(1, unique_rows(1, 10, "phantom"))  # never recorded
    violations = oracle.checker(store).check_all()
    assert names(violations) == {"no_phantom_rows"}


def test_checker_catches_dangling_catalog_entry():
    store, oracle = make_store(), Oracle()
    store.catalog.ensure_tenant(99)
    store.catalog.add_block(
        LogBlockEntry(
            tenant_id=99,
            min_ts=BASE_TS,
            max_ts=BASE_TS + 1,
            path="tenants/99/mt999999-0000-0-1.lgb",
            size_bytes=128,
            row_count=4,
        )
    )
    violations = oracle.checker(store).check_all()
    assert "no_dangling_blocks" in names(violations)


def test_checker_catches_orphaned_object():
    store, oracle = make_store(), Oracle()
    store.oss.put(store.config.bucket, "tenants/99/stray.lgb", b"junk")
    violations = oracle.checker(store).check_all()
    assert "no_orphan_objects" in names(violations)


def test_orphans_awaiting_sweep_are_not_flagged():
    """Objects queued in the janitor's orphan queue are accounted for —
    they are a known cleanup debt, not a leak."""
    store, oracle = make_store(), Oracle()
    store.oss.put(store.config.bucket, "tenants/1/pending.lgb", b"junk")
    store.janitor._orphans["tenants/1/pending.lgb"] = None
    violations = oracle.checker(store).check_all()
    assert violations == []


def test_indeterminate_rows_may_appear_once_or_not_at_all():
    store, oracle = make_store(), Oracle()
    applied = unique_rows(1, 20, "maybe-in")
    missing = unique_rows(1, 20, "maybe-out")
    store.put(1, applied)
    oracle.record_indeterminate(1, applied)
    oracle.record_indeterminate(1, missing)
    assert oracle.checker(store).check_all() == []


def test_expired_rows_may_be_gone_but_not_unexpired_ones():
    """Acked rows older than the tenant's expiry cutoff may be gone; a
    block left wholly before the cutoff means the sweep did not
    converge."""
    store, oracle = make_store(), Oracle()
    write_acked(store, oracle, 1, 250)
    store.flush_all()
    victim = store.catalog.blocks_for(1)[0]
    store.oss.delete(store.config.bucket, victim.path)
    store.catalog.remove_block(victim)
    after_victim = {1: victim.max_ts + 1}
    assert oracle.checker(store, expiry_cutoffs=after_victim).check_all() == []
    at_victim = {1: victim.max_ts}
    violations = oracle.checker(store, expiry_cutoffs=at_victim).check_all()
    assert names(violations) == {"no_acked_write_lost"}
    write_acked(store, oracle, 2, 40)
    store.flush_all()
    cutoffs = {**after_victim, 2: BASE_TS + 10**9}
    violations = oracle.checker(store, expiry_cutoffs=cutoffs).check_all()
    assert names(violations) == {"expiry_converged"}


def test_checker_catches_offboarding_residue():
    """An offboarded tenant must leave no block, object or row behind."""
    store, oracle = make_store(), Oracle()
    write_acked(store, oracle, 1, 60)
    write_acked(store, oracle, 2, 60)
    store.flush_all()
    assert store.offboard_tenant(2).verified
    assert oracle.checker(store, offboarded={2}).check_all() == []
    store.put(2, unique_rows(2, 5, "late"))  # a write after the offboard
    violations = oracle.checker(store, offboarded={2}).check_all()
    assert names(violations) == {"offboard_zero_residue", "offboard_zero_rows"}
