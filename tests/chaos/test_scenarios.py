"""The scenario matrix: every scenario, multiple seeds, replay digests.

This is the acceptance surface for the chaos subsystem: each scenario
must survive its fault schedule with zero invariant violations, and
re-running the same ``(scenario, seed)`` must reproduce the cluster's
event journal byte for byte — a failing run in CI is a repro recipe.
"""

from __future__ import annotations

import pytest

from repro.chaos.runner import ChaosRunner, derive_seed
from repro.chaos.scenarios import SCENARIOS
from repro.common.errors import ChaosError, InvariantViolationError

SEEDS = [0, 1]

MATRIX = [(name, seed) for name in sorted(SCENARIOS) for seed in SEEDS]
# Reruns also cover a raft-crash run past the matrix's seeds.
RERUNS = MATRIX + [("leader_crash_mid_pipeline", 3)]


def test_scenario_library_is_large_enough():
    assert len(SCENARIOS) >= 6
    for name, spec in SCENARIOS.items():
        assert spec.name == name
        assert spec.description


@pytest.mark.parametrize("scenario,seed", MATRIX, ids=[f"{n}-s{s}" for n, s in MATRIX])
def test_scenario_passes_all_invariants(scenario, seed):
    result = ChaosRunner(scenario, seed=seed).run()
    assert result.ok, result.summary()
    assert result.ledger.acked_count() > 0, "scenario acked no writes at all"
    assert len(result.journal) > 0


@pytest.mark.parametrize("scenario,seed", RERUNS, ids=[f"{n}-s{s}" for n, s in RERUNS])
def test_rerun_reproduces_journal_byte_for_byte(scenario, seed):
    first = ChaosRunner(scenario, seed=seed).run()
    second = ChaosRunner(scenario, seed=seed).run()
    assert first.journal.dump() == second.journal.dump()
    assert first.digest == second.digest


def test_different_seeds_diverge():
    a = ChaosRunner("random_mixed", seed=0).run()
    b = ChaosRunner("random_mixed", seed=1).run()
    assert a.digest != b.digest


def test_derive_seed_is_stable_and_scenario_specific():
    assert derive_seed("random_mixed", 0) == derive_seed("random_mixed", 0)
    assert derive_seed("random_mixed", 0) != derive_seed("random_mixed", 1)
    assert derive_seed("random_mixed", 0) != derive_seed("torn_upload_retry_storm", 0)


def test_unknown_scenario_is_rejected():
    with pytest.raises(ChaosError, match="unknown scenario"):
        ChaosRunner("no_such_scenario")


def test_run_or_raise_returns_result_on_clean_run():
    result = ChaosRunner("torn_upload_retry_storm", seed=0).run_or_raise()
    assert result.ok


def test_summary_names_the_run():
    result = ChaosRunner("torn_upload_retry_storm", seed=0).run()
    text = result.summary()
    assert "torn_upload_retry_storm" in text
    assert "seed=0" in text
    assert "OK" in text


def test_chaos_counters_exported_to_registry():
    runner = ChaosRunner("torn_upload_retry_storm", seed=0)
    ctx = runner.build_context()
    runner._spec.body(ctx)
    ctx.heal_and_quiesce()
    runner._export_metrics(ctx, [])
    snapshot = ctx.store.obs.registry.snapshot()
    assert snapshot.counter_total("logstore_chaos_events_total") == len(ctx.chaos_events()) > 0
    assert snapshot.counter_total("logstore_chaos_acked_rows_total") == ctx.ledger.acked_count()
    assert snapshot.counter_total("logstore_chaos_violations_total") == 0


def test_a_rebuilt_shard_keeps_the_configs_group_commit():
    """A crash-rebuilt Raft shard still coalesces under ``group_commit``."""
    overrides = {"group_commit": True}
    ctx = ChaosRunner("leader_crash_mid_pipeline", config_overrides=overrides).build_context()
    rebuilt = [ctx.crash_and_rebuild_shard(shard) for shard in ctx.shards()]
    for i in range(16):
        ctx.store.put_nowait(1 + i % 4, ctx.make_rows(1 + i % 4, 20))
    ctx.store.settle_writes()
    stats = [shard.write_stats for shard in rebuilt if shard.write_stats.groups_committed]
    assert stats and min(stat.mean_group_size() for stat in stats) > 1
