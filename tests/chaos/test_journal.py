"""The cluster event journal is the chaos run's one record.

Same-seed reruns comparing whole journals live in ``test_scenarios``;
this file checks that the journal is complete: every fault the OSS
injector raised, every acked workload row and the invariant verdict is
an event in the journal and in ``_system.events``; a run with no
journal, or one whose ring dropped events, is refused.
"""

from __future__ import annotations

import re
from collections import Counter, deque

import pytest

from repro.chaos.runner import ChaosRunner
from repro.common.errors import ChaosError

CASES = [("session_insert_crash", 0), ("oss_outage_archive_retry", 0)]

OSS_FAULTS = {
    "chaos.fault.oss.error",
    "chaos.fault.oss.outage",
    "chaos.fault.oss.throttled",
    "chaos.fault.oss.torn_put",
}
ACKED = {"chaos.workload.put.ok", "chaos.workload.insert.ok"}


@pytest.mark.parametrize("scenario,seed", CASES, ids=[f"{n}-s{s}" for n, s in CASES])
def test_every_chaos_event_is_in_the_journal_and_system_events(scenario, seed):
    result = ChaosRunner(scenario, seed=seed).run()
    assert result.ok, result.summary()
    journal = result.journal
    assert journal.total_emitted == len(journal)  # nothing fell off the ring
    events = [e for e in journal.events() if e.kind.startswith("chaos.")]
    kinds = Counter(e.kind for e in events)

    # Faults: one event per fault the OSS injector raised.
    snapshot = result.store.obs.registry.snapshot()
    injected = snapshot.counter_total("logstore_chaos_faults_injected_total")
    assert sum(kinds[kind] for kind in OSS_FAULTS) == injected
    # Workload: the acked outcomes account for every acked row.
    acked = sum(
        int(re.search(r"rows=(\d+)", e.detail).group(1)) for e in events if e.kind in ACKED
    )
    assert acked == result.ledger.acked_count() > 0
    # Invariants: the verdict is recorded.
    assert kinds["chaos.invariant.ok"] == 1
    assert kinds["chaos.phase.start"] == kinds["chaos.phase.quiesced"] == 1

    admin = result.store.connect_admin(result.store.issue_admin_token())
    rows = admin.execute("SELECT * FROM _system.events").rows
    seen = [
        (row["seq"], row["kind"], row["target"], row["detail"])
        for row in rows
        if row["kind"].startswith("chaos.")
    ]
    assert seen == [(e.seq, e.kind, e.target, e.detail) for e in events]


def test_a_run_without_a_journal_is_refused():
    with pytest.raises(ChaosError, match="journal"):
        ChaosRunner(
            "random_mixed", config_overrides={"event_journal_enabled": False}
        ).build_context()


def test_a_run_whose_journal_dropped_events_is_refused(monkeypatch):
    build = ChaosRunner.build_context

    def with_a_small_ring(runner):
        ctx = build(runner)
        ctx.journal._events = deque(ctx.journal._events, maxlen=8)
        return ctx

    monkeypatch.setattr(ChaosRunner, "build_context", with_a_small_ring)
    with pytest.raises(ChaosError, match="dropped"):
        ChaosRunner("torn_upload_retry_storm", seed=0).run()
