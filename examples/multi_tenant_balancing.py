#!/usr/bin/env python3
"""Global traffic control demo (§4): hotspots, greedy vs max-flow.

Simulates a 24-worker cluster under a Zipfian (θ=0.99) tenant mix at
80% of aggregate capacity and shows what each balancing policy does to
throughput, write latency and routing-table size — the Figure 12 story,
plus the Figure 14-style per-worker utilization view.

Run:  python examples/multi_tenant_balancing.py
"""

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

N_TENANTS = 500
THETA = 0.99
DURATION_S = 1800


def build_controller(balancer: str) -> Controller:
    config = LogStoreConfig(
        n_workers=24,
        shards_per_worker=4,
        worker_capacity_rps=100_000,
        balancer=balancer,
        per_tenant_shard_limit_rps=30_000,
        monitor_interval_s=300,
    )
    return Controller(config, Catalog(request_log_schema()), VirtualClock())


def main() -> None:
    print(f"workload: {N_TENANTS} tenants, Zipf θ={THETA}, "
          f"offered = 80% of cluster capacity\n")

    header = f"{'policy':<10} {'throughput':>12} {'batch latency':>14} {'routes':>8} {'rebalances':>11}"
    print(header)
    print("-" * len(header))
    results = {}
    for balancer in ("none", "greedy", "maxflow"):
        controller = build_controller(balancer)
        capacity = controller.topology.total_worker_capacity()
        traffic = tenant_traffic(N_TENANTS, THETA, capacity * 0.8)
        simulator = IngestSimulator(controller, traffic, IngestModelParams(window_s=10))
        result = simulator.run(DURATION_S, rebalance=(balancer != "none"))
        results[balancer] = (controller, simulator, traffic, result)
        print(
            f"{balancer:<10} "
            f"{result.steady_state_throughput_rps() / 1e6:>10.2f}M "
            f"{result.mean_batch_latency_s() * 1000:>11.0f} ms "
            f"{result.final_routes():>8} "
            f"{result.rebalances:>11}"
        )

    # Before/after access skew for max-flow (the Figure 13 metric).
    controller, simulator, traffic, _result = results["maxflow"]
    fresh = build_controller("maxflow")
    before_shard, before_worker = access_stddev_series(fresh, traffic)
    after_shard, after_worker = access_stddev_series(controller, traffic)
    print("\nmax-flow access-rate standard deviation (records/s):")
    print(f"  shards : {before_shard:>10.0f} -> {after_shard:>10.0f} "
          f"({before_shard / max(after_shard, 1):.1f}x lower)")
    print(f"  workers: {before_worker:>10.0f} -> {after_worker:>10.0f} "
          f"({before_worker / max(after_worker, 1):.1f}x lower)")

    # Per-worker utilization after balancing (Figure 14c: near α=0.85).
    utilization = simulator.worker_utilization()
    print("\nper-worker utilization after max-flow balancing "
          f"(watermark α = {controller.topology.alpha}):")
    bars = sorted(utilization.items())
    for worker, value in bars[:8]:
        bar = "#" * int(value * 40)
        print(f"  {worker:<10} {value:5.2f} {bar}")
    print(f"  ... ({len(bars) - 8} more workers, "
          f"max = {max(utilization.values()):.2f})")

    # Show the actual routing rules of the largest tenant.
    rule = controller.routing.rule_for(1)
    print(f"\nrouting rule for the largest tenant (rank 1): "
          f"{ {s: round(w, 2) for s, w in rule.weights} }")


if __name__ == "__main__":
    main()
