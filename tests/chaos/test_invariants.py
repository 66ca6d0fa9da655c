"""Invariant checker self-tests.

The positive case (healthy cluster → no violations) is necessary but
not sufficient: a checker that can't *fail* proves nothing.  The
negative tests inject each class of violation directly — deleting an
archived block, duplicating rows, planting phantoms and strays — and
assert the checker reports exactly that violation.
"""

from __future__ import annotations

import pytest

from repro.chaos.invariants import InvariantChecker
from repro.chaos.ledger import WriteLedger
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


def write_acked(store: LogStore, ledger: WriteLedger, tenant_id: int, count: int, tag="r"):
    rows = unique_rows(tenant_id, count, tag)
    store.put(tenant_id, rows)
    ledger.record_acked(tenant_id, rows)
    return rows


def names(violations) -> set[str]:
    return {v.invariant for v in violations}


def test_healthy_cluster_has_no_violations():
    store, ledger = make_store(), WriteLedger()
    write_acked(store, ledger, 1, 250)
    write_acked(store, ledger, 2, 120)
    store.flush_all()
    checker = InvariantChecker(store, ledger)
    assert checker.check_all() == []
    checker.assert_ok()  # must not raise


def test_checker_catches_acked_write_loss_from_deleted_block():
    """The required negative self-test: a buggy component silently
    drops an archived block (object + catalog entry) — acked rows
    disappear and the checker must say so."""
    store, ledger = make_store(), WriteLedger()
    write_acked(store, ledger, 1, 250)
    store.flush_all()
    victim = store.catalog.blocks_for(1)[0]
    store.oss.delete(store.config.bucket, victim.path)
    store.catalog.remove_block(victim)
    violations = InvariantChecker(store, ledger).check_all()
    assert "no_acked_write_lost" in names(violations)
    with pytest.raises(InvariantViolationError):
        InvariantChecker(store, ledger).assert_ok()


def test_checker_catches_duplicated_rows():
    store, ledger = make_store(), WriteLedger()
    rows = write_acked(store, ledger, 1, 50)
    store.put(1, rows)  # duplicate delivery the ledger knows nothing about
    violations = InvariantChecker(store, ledger).check_all()
    assert "no_duplicate_rows" in names(violations)


def test_checker_catches_phantom_rows():
    store, ledger = make_store(), WriteLedger()
    write_acked(store, ledger, 1, 50)
    store.put(1, unique_rows(1, 10, "phantom"))  # never recorded
    violations = InvariantChecker(store, ledger).check_all()
    assert names(violations) == {"no_phantom_rows"}


def test_checker_catches_dangling_catalog_entry():
    store, ledger = make_store(), WriteLedger()
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
    violations = InvariantChecker(store, ledger).check_all()
    assert "no_dangling_blocks" in names(violations)


def test_checker_catches_orphaned_object():
    store, ledger = make_store(), WriteLedger()
    store.oss.put(store.config.bucket, "tenants/99/stray.lgb", b"junk")
    violations = InvariantChecker(store, ledger).check_all()
    assert "no_orphan_objects" in names(violations)


def test_orphans_awaiting_sweep_are_not_flagged():
    """Objects queued in the janitor's orphan queue are accounted for —
    they are a known cleanup debt, not a leak."""
    store, ledger = make_store(), WriteLedger()
    store.oss.put(store.config.bucket, "tenants/1/pending.lgb", b"junk")
    store.janitor._orphans["tenants/1/pending.lgb"] = None
    violations = InvariantChecker(store, ledger).check_all()
    assert violations == []


def test_indeterminate_rows_may_appear_once_or_not_at_all():
    store, ledger = make_store(), WriteLedger()
    applied = unique_rows(1, 20, "maybe-in")
    missing = unique_rows(1, 20, "maybe-out")
    store.put(1, applied)
    ledger.record_indeterminate(1, applied)
    ledger.record_indeterminate(1, missing)
    assert InvariantChecker(store, ledger).check_all() == []
