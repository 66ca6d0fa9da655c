"""Chaos replay determinism for the *cluster* event journal.

The chaos trace proves the harness replays byte-for-byte; this file
proves the cluster's own event journal (elections, seals, archives,
backpressure trips, plus the mirrored chaos events) is just as
deterministic — same ``(scenario, seed)`` twice, identical dumps.
"""

from __future__ import annotations

import pytest

from repro.chaos.runner import ChaosRunner

# A raft-heavy scenario (elections, crashes) and an OSS-heavy one
# (archives, retries) cover the two main journal-emitting seams; the
# quiesced one's elections start from the network's fault callback.
CASES = [
    ("leader_crash_mid_pipeline", 0),
    ("leader_crash_mid_pipeline", 3),
    ("oss_outage_archive_retry", 1),
    ("quiesced_leader_crash", 0),
]


@pytest.mark.parametrize("scenario,seed", CASES, ids=[f"{n}-s{s}" for n, s in CASES])
def test_same_seed_yields_byte_identical_journal(scenario, seed):
    first = ChaosRunner(scenario, seed=seed).run()
    second = ChaosRunner(scenario, seed=seed).run()
    assert first.journal is not None and second.journal is not None
    assert len(first.journal) > 0
    assert first.journal.dump() == second.journal.dump()
    assert first.journal.digest() == second.journal.digest()


def test_different_seeds_diverge():
    a = ChaosRunner("leader_crash_mid_pipeline", seed=0).run()
    b = ChaosRunner("leader_crash_mid_pipeline", seed=1).run()
    assert a.journal.dump() != b.journal.dump()


def test_journal_mirrors_chaos_faults_alongside_cluster_events():
    result = ChaosRunner("leader_crash_mid_pipeline", seed=0).run()
    kinds = set(result.journal.kinds())
    # Chaos-injected events are namespaced; cluster seams keep their own.
    assert any(k.startswith("chaos.fault.") for k in kinds)
    assert "chaos.phase.quiesced" in kinds
    assert "raft.leader_elected" in kinds

    # Every mirrored chaos event also exists in the harness trace.
    trace_kinds = {event.kind for event in result.trace.events}
    for kind in kinds:
        if kind.startswith("chaos."):
            assert kind.removeprefix("chaos.") in trace_kinds
