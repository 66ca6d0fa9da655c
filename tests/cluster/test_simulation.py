"""Ingest-simulation tests: the Figure 12–14 model behaves sanely."""

import pytest

from repro.cluster.config import LogStoreConfig
from repro.cluster.controller import Controller
from repro.cluster.simulation import (
    IngestModelParams,
    IngestSimulator,
    access_stddev_series,
)
from repro.common.clock import VirtualClock
from repro.logblock.schema import request_log_schema
from repro.meta.catalog import Catalog
from repro.workload import tenant_traffic


def make_controller(balancer="maxflow", n_workers=8, capacity=50_000.0):
    config = LogStoreConfig(
        n_workers=n_workers,
        shards_per_worker=4,
        worker_capacity_rps=capacity,
        balancer=balancer,
        per_tenant_shard_limit_rps=capacity / 4 * 1.2,
        monitor_interval_s=300,
    )
    return Controller(config, Catalog(request_log_schema()), VirtualClock())


def run(theta, balancer, offered_fraction=0.8, duration_s=1200):
    controller = make_controller(balancer)
    capacity = controller.topology.total_worker_capacity()
    traffic = tenant_traffic(200, theta, capacity * offered_fraction)
    simulator = IngestSimulator(controller, traffic, IngestModelParams(window_s=10))
    result = simulator.run(duration_s, rebalance=(balancer != "none"))
    return result, controller, traffic


class TestUniformLoad:
    def test_all_traffic_processed_at_theta_zero(self):
        result, _c, traffic = run(0.0, "none")
        assert result.steady_state_throughput_rps() == pytest.approx(
            sum(traffic.values()), rel=0.02
        )

    def test_low_latency_at_theta_zero(self):
        result, _c, _t = run(0.0, "none")
        assert result.mean_batch_latency_s() < 0.2


class TestSkewedLoad:
    def test_throughput_collapses_without_balancing(self):
        skewed, _c, traffic = run(0.99, "none")
        assert skewed.steady_state_throughput_rps() < 0.95 * sum(traffic.values())

    def test_latency_explodes_without_balancing(self):
        skewed, _c, _t = run(0.99, "none")
        uniform, _c2, _t2 = run(0.0, "none")
        assert skewed.mean_batch_latency_s() > 20 * uniform.mean_batch_latency_s()

    @pytest.mark.parametrize("balancer", ["greedy", "maxflow"])
    def test_balancers_restore_throughput(self, balancer):
        result, _c, traffic = run(0.99, balancer)
        assert result.steady_state_throughput_rps() == pytest.approx(
            sum(traffic.values()), rel=0.05
        )
        assert result.rebalances >= 1

    def test_maxflow_latency_stays_low(self):
        result, _c, _t = run(0.99, "maxflow")
        assert result.mean_batch_latency_s() < 0.5

    def test_maxflow_uses_fewer_routes_than_greedy(self):
        greedy, _c, _t = run(0.99, "greedy")
        maxflow, _c2, _t2 = run(0.99, "maxflow")
        # Paper Fig 12c: max-flow needs fewer routing rules (allow a
        # small tolerance — the property is "not more than").
        assert maxflow.final_routes() <= greedy.final_routes() * 1.3


class TestAccessStddev:
    def test_balancing_reduces_stddev_at_high_skew(self):
        """Figure 13: max-flow cuts shard/worker access stddev."""
        controller = make_controller("maxflow")
        traffic = tenant_traffic(
            200, 0.99, controller.topology.total_worker_capacity() * 0.8
        )
        before_shard, before_worker = access_stddev_series(controller, traffic)
        simulator = IngestSimulator(controller, traffic)
        simulator.run(1200, rebalance=True)
        after_shard, after_worker = access_stddev_series(controller, traffic)
        assert after_shard < before_shard / 1.5
        assert after_worker < before_worker / 1.5

    def test_low_skew_needs_no_balancing(self):
        """Figure 13 low-θ regime: stddev barely changes."""
        controller = make_controller("maxflow")
        traffic = tenant_traffic(
            200, 0.2, controller.topology.total_worker_capacity() * 0.6
        )
        before_shard, _bw = access_stddev_series(controller, traffic)
        simulator = IngestSimulator(controller, traffic)
        result = simulator.run(1200, rebalance=True)
        after_shard, _aw = access_stddev_series(controller, traffic)
        # No collapse happened and the system stayed fully served.
        assert result.steady_state_throughput_rps() == pytest.approx(
            sum(traffic.values()), rel=0.05
        )


class TestBfcInModel:
    def test_overload_triggers_rejection_not_runaway(self):
        controller = make_controller("none", n_workers=2, capacity=10_000.0)
        traffic = {1: 50_000.0}  # hopeless overload of one tenant
        simulator = IngestSimulator(
            controller, traffic, IngestModelParams(window_s=10, bfc_backlog_limit_s=20)
        )
        result = simulator.run(600, rebalance=False)
        last = result.windows[-1]
        assert last.rejected_rps > 0  # BFC kicked in
        # Backlog is bounded by the BFC limit, not growing without bound.
        backlog = simulator._backlog
        capacity = controller.topology.shard_capacity[0]
        assert all(b <= 25 * capacity for b in backlog.values())


class TestWorkerUtilization:
    def test_near_alpha_after_balancing(self):
        """Figure 14c: after max-flow, worker utilization clusters near
        (but under) the watermark on loaded workers."""
        controller = make_controller("maxflow")
        capacity = controller.topology.total_worker_capacity()
        traffic = tenant_traffic(200, 0.99, capacity * 0.8)
        simulator = IngestSimulator(controller, traffic)
        simulator.run(1200, rebalance=True)
        utilization = simulator.worker_utilization()
        assert max(utilization.values()) <= controller.topology.alpha + 0.1
