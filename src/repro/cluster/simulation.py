"""Ingest simulation for the load-balancing experiments (Figures 12–14).

Python cannot physically push 50M records/s, so throughput/latency under
different balancing policies is computed with a discrete-window queueing
model over the *real* routing tables produced by the real balancers:

* each window, tenant traffic is split across shards by the current
  routing rules (exactly what brokers would do);
* a worker processes at most ``capacity`` records/s; its shards share
  the worker proportionally to offered load;
* unprocessed records accumulate in per-shard backlogs; batch write
  latency is service time plus backlog drain time (a fluid M/D/1 view);
* when a shard's backlog exceeds the BFC limit, new records for it are
  rejected (§4.2) — throughput degrades instead of memory exploding;
* every ``monitor_interval_s`` the controller's hotspot manager runs,
  exactly as Algorithm 1 prescribes, possibly rewriting the routes.

The figure shapes (throughput collapse without balancing at high θ,
recovery with greedy/max-flow, stddev reductions) emerge from the model
rather than being baked in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.controller import Controller
from repro.common.utils import stddev


@dataclass
class AccessStats:
    """Per-entity access counts for the Figure 13/14 std-dev metrics."""

    accesses: dict[object, float] = field(default_factory=dict)

    def record(self, key: object, amount: float = 1.0) -> None:
        self.accesses[key] = self.accesses.get(key, 0.0) + amount

    def stddev(self) -> float:
        if not self.accesses:
            return 0.0
        return stddev(list(self.accesses.values()))


@dataclass
class WindowMetrics:
    """Per-window aggregate measurements."""

    time_s: float
    offered_rps: float
    processed_rps: float
    rejected_rps: float
    mean_batch_latency_s: float
    routes: int


@dataclass
class SimulationResult:
    """Everything the Figure 12–14 benches read out."""

    windows: list[WindowMetrics] = field(default_factory=list)
    shard_accesses: AccessStats = field(default_factory=AccessStats)
    worker_accesses: AccessStats = field(default_factory=AccessStats)
    rebalances: int = 0

    def mean_throughput_rps(self) -> float:
        if not self.windows:
            return 0.0
        return sum(w.processed_rps for w in self.windows) / len(self.windows)

    def steady_state_throughput_rps(self, tail_fraction: float = 0.5) -> float:
        """Throughput over the last ``tail_fraction`` of the run."""
        if not self.windows:
            return 0.0
        tail = self.windows[int(len(self.windows) * (1 - tail_fraction)) :]
        return sum(w.processed_rps for w in tail) / len(tail)

    def mean_batch_latency_s(self, tail_fraction: float = 0.5) -> float:
        if not self.windows:
            return 0.0
        tail = self.windows[int(len(self.windows) * (1 - tail_fraction)) :]
        return sum(w.mean_batch_latency_s for w in tail) / len(tail)

    def final_routes(self) -> int:
        return self.windows[-1].routes if self.windows else 0

    def shard_access_stddev(self) -> float:
        return self.shard_accesses.stddev()

    def worker_access_stddev(self) -> float:
        return self.worker_accesses.stddev()


@dataclass
class IngestModelParams:
    """Queueing-model constants."""

    window_s: float = 10.0
    batch_size: int = 1000  # §6.2 latency "for writing a batch of 1000"
    base_latency_s: float = 0.005  # WAL sync + local write on an idle shard
    bfc_backlog_limit_s: float = 30.0  # reject when backlog > this many
    # seconds of shard capacity (sync/apply queues full, §4.2)


class IngestSimulator:
    """Runs the windowed model against a controller's routing state."""

    def __init__(
        self,
        controller: Controller,
        tenant_traffic: dict[int, float],
        params: IngestModelParams | None = None,
    ) -> None:
        self._controller = controller
        self._traffic = dict(tenant_traffic)
        self.params = params if params is not None else IngestModelParams()
        self._backlog: dict[int, float] = {
            shard: 0.0 for shard in controller.topology.shards
        }
        for tenant_id in self._traffic:
            controller.ensure_route(tenant_id)

    def _route_traffic(self) -> dict[int, dict[int, float]]:
        """tenant → shard → offered records/s under current rules."""
        routing = self._controller.routing
        out: dict[int, dict[int, float]] = {}
        for tenant_id, traffic in self._traffic.items():
            rule = routing.rule_for(tenant_id)
            assert rule is not None
            out[tenant_id] = {shard: traffic * weight for shard, weight in rule.weights}
        return out

    def _step(self, now_s: float, result: SimulationResult) -> WindowMetrics:
        params = self.params
        topology = self._controller.topology
        route_traffic = self._route_traffic()

        # Offered load per shard, with BFC rejection of over-backlogged shards.
        shard_offered: dict[int, float] = {shard: 0.0 for shard in topology.shards}
        rejected = 0.0
        for flows in route_traffic.values():
            for shard, rate in flows.items():
                limit_s = params.bfc_backlog_limit_s
                capacity = topology.shard_capacity[shard]
                if self._backlog[shard] > limit_s * capacity:
                    rejected += rate  # backpressure: reject at ingress
                else:
                    shard_offered[shard] += rate

        # Workers serve their shards proportionally to offered + backlog.
        # The binding processing constraint is the *worker's* capacity: a
        # shard is a queue on its worker, and idle cores drain whichever
        # shard has work (shard capacity only matters to the balancer's
        # flow network, where it spreads tenants).
        shard_processed: dict[int, float] = {}
        worker_utilization: dict[str, float] = {}
        for worker in topology.workers:
            shards = topology.shards_on(worker)
            demand = {
                s: shard_offered[s] + self._backlog[s] / params.window_s for s in shards
            }
            total_demand = sum(demand.values())
            capacity = topology.worker_capacity[worker]
            worker_utilization[worker] = (
                sum(shard_offered[s] for s in shards) / capacity if capacity else 0.0
            )
            if total_demand <= capacity or total_demand == 0:
                served = demand
            else:
                scale = capacity / total_demand
                served = {s: d * scale for s, d in demand.items()}
            for shard in shards:
                shard_processed[shard] = served[shard]

        # Update backlogs and access counters.
        processed_total = 0.0
        for shard in topology.shards:
            arriving = shard_offered[shard] * params.window_s
            serving = shard_processed[shard] * params.window_s
            backlog = self._backlog[shard] + arriving - serving
            self._backlog[shard] = max(0.0, backlog)
            drained = min(arriving + self._backlog[shard], serving)
            processed_total += drained / params.window_s
            result.shard_accesses.record(shard, shard_processed[shard] * params.window_s)
            worker = topology.shard_worker[shard]
            result.worker_accesses.record(worker, shard_processed[shard] * params.window_s)

        # Batch latency: traffic-weighted over tenants and their shards.
        # Fluid model: WAL-sync base cost, batch service time at the
        # worker, a mild M/M/1-style congestion term (capped), and the
        # dominant component under overload — draining the shard backlog.
        weighted_latency = 0.0
        total_rate = 0.0
        for tenant_id, flows in route_traffic.items():
            for shard, rate in flows.items():
                if rate <= 0:
                    continue
                worker = topology.shard_worker[shard]
                capacity = topology.worker_capacity[worker]
                service_rate = max(shard_processed.get(shard, 0.0), 1e-9)
                queue_delay = self._backlog[shard] / service_rate
                utilization = min(worker_utilization[worker], 0.95)
                congestion = 1.0 + utilization * utilization / (1.0 - utilization)
                batch_time = params.batch_size / capacity
                weighted_latency += rate * (
                    params.base_latency_s * congestion + batch_time + queue_delay
                )
                total_rate += rate
        mean_latency = weighted_latency / total_rate if total_rate else 0.0

        offered = sum(self._traffic.values())
        return WindowMetrics(
            time_s=now_s,
            offered_rps=offered,
            processed_rps=processed_total,
            rejected_rps=rejected,
            mean_batch_latency_s=mean_latency,
            routes=self._controller.routing.total_routes(),
        )

    def run(self, duration_s: float, rebalance: bool = True) -> SimulationResult:
        """Simulate ``duration_s`` of ingest; returns all measurements."""
        result = SimulationResult()
        params = self.params
        interval = self._controller.config.monitor_interval_s
        next_rebalance = interval
        now = 0.0
        while now < duration_s:
            window = self._step(now, result)
            result.windows.append(window)
            now += params.window_s
            if rebalance and now >= next_rebalance:
                # Build the sample from *measured* route traffic, like the
                # monitor module does in production.
                sample = self._controller.collect_sample(self._traffic)
                event = self._controller.rebalance(sample)
                if event.rebalanced:
                    result.rebalances += 1
                next_rebalance += interval
        return result

    def window_shard_rates(self) -> dict[int, float]:
        """Current per-shard offered rates (for detail plots)."""
        rates: dict[int, float] = {shard: 0.0 for shard in self._controller.topology.shards}
        for flows in self._route_traffic().values():
            for shard, rate in flows.items():
                rates[shard] += rate
        return rates

    def worker_utilization(self) -> dict[str, float]:
        """Offered/capacity per worker under the current routes."""
        topology = self._controller.topology
        rates = self.window_shard_rates()
        out: dict[str, float] = {}
        for worker in topology.workers:
            offered = sum(rates[s] for s in topology.shards_on(worker))
            out[worker] = offered / topology.worker_capacity[worker]
        return out


def access_stddev_series(
    controller: Controller,
    tenant_traffic: dict[int, float],
) -> tuple[float, float]:
    """(shard_std, worker_std) of access rates under the current routes."""
    topology = controller.topology
    shard_rates: dict[int, float] = {shard: 0.0 for shard in topology.shards}
    for tenant_id, traffic in tenant_traffic.items():
        controller.ensure_route(tenant_id)
        rule = controller.routing.rule_for(tenant_id)
        assert rule is not None
        for shard, weight in rule.weights:
            shard_rates[shard] += traffic * weight
    worker_rates: dict[str, float] = {worker: 0.0 for worker in topology.workers}
    for shard, rate in shard_rates.items():
        worker_rates[topology.shard_worker[shard]] += rate
    return stddev(list(shard_rates.values())), stddev(list(worker_rates.values()))
