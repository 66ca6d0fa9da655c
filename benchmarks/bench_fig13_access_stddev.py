"""Figure 13: shard/worker access standard deviation, before vs after
the max-flow balancer, as the skew factor grows.

Paper shape: at low θ the std-dev barely changes ("even without traffic
control, LogStore can cope with the slight skew"); as θ grows the
unbalanced std-dev rises sharply while the balanced one stays low —
"reduce the shard accesses standard deviation by 2.8 times, and the
[worker] accesses standard deviation by 5 times."
"""

import pytest

from harness import emit, run_traffic

from repro.cluster.simulation import access_stddev_series
from repro.cluster.controller import Controller
from repro.common.clock import VirtualClock
from repro.logblock.schema import request_log_schema
from repro.meta.catalog import Catalog

THETAS = [0.0, 0.2, 0.4, 0.6, 0.8, 0.99]


def measure(theta: float):
    run = run_traffic(theta, "maxflow")
    # "Before" = same config/workload, virgin consistent-hash routing.
    virgin = Controller(run.controller.config, Catalog(request_log_schema()), VirtualClock())
    before = access_stddev_series(virgin, run.traffic)
    after = access_stddev_series(run.controller, run.traffic)
    return before, after


@pytest.fixture(scope="module")
def sweep():
    return {theta: measure(theta) for theta in THETAS}


def test_fig13_access_stddev(benchmark, sweep, capsys):
    benchmark.pedantic(lambda: measure(0.99), rounds=1, iterations=1)

    emit(capsys, "", "Figure 13 — access std-dev before/after max-flow balancing")
    emit(
        capsys,
        f"{'θ':>5} {'shard before':>13} {'shard after':>12} "
        f"{'worker before':>14} {'worker after':>13}",
    )
    for theta in THETAS:
        (shard_before, worker_before), (shard_after, worker_after) = sweep[theta]
        emit(
            capsys,
            f"{theta:>5} {shard_before:>13.0f} {shard_after:>12.0f} "
            f"{worker_before:>14.0f} {worker_after:>13.0f}",
        )

    # High skew: balancing reduces shard std-dev by ≥2x and worker
    # std-dev by ≥3x (paper: 2.8x and 5x).
    (shard_before, worker_before), (shard_after, worker_after) = sweep[0.99]
    assert shard_before / max(shard_after, 1e-9) > 2.0
    assert worker_before / max(worker_after, 1e-9) > 3.0

    # Low skew: the unbalanced system is already fine — the before/after
    # difference is small relative to the high-skew change.
    (lb_shard_before, _), (lb_shard_after, _) = sweep[0.0]
    assert abs(lb_shard_before - lb_shard_after) < 0.25 * shard_before

    # Unbalanced skew grows monotonically-ish with θ.
    before_series = [sweep[t][0][0] for t in THETAS]
    assert before_series[-1] > 3 * before_series[0]
