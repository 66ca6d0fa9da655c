"""Traffic monitor (§4.1.3): collect metrics, detect hot spots.

"The monitor detects hotspots by collecting runtime traffic or load
metrics of tenants, shards, and workers" and "fill[s] in the input data
(nodes and edges in G(V,E)) required to run the flow network
algorithm."  Hotspot detection combines utilization with queueing
signals, since "skewed shards have higher CPU utilization, but the
reverse is not necessarily true".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.flow.graph import ClusterTopology

DEFAULT_HOT_SHARD_UTILIZATION = 0.9
DEFAULT_HOT_QUEUE_SATURATION = 0.8


@dataclass
class TrafficSample:
    """One monitoring window's measurements.

    All traffic values are records/second averaged over the window.
    ``shard_queue_saturation`` carries the blocked-request signal the
    paper lists among its indicators.
    """

    tenant_traffic: dict[int, float] = field(default_factory=dict)
    shard_traffic: dict[int, float] = field(default_factory=dict)
    worker_traffic: dict[str, float] = field(default_factory=dict)
    shard_queue_saturation: dict[int, float] = field(default_factory=dict)
    # tenant → shard → traffic observed on that route
    route_traffic: dict[int, dict[int, float]] = field(default_factory=dict)

    def tenants_on_shard(self, shard: int) -> dict[int, float]:
        """Γ_Pj — tenants contributing traffic on shard ``shard``."""
        out: dict[int, float] = {}
        for tenant, flows in self.route_traffic.items():
            if shard in flows and flows[shard] > 0:
                out[tenant] = flows[shard]
        return out


@dataclass
class HotspotReport:
    """Output of one detection pass."""

    hot_shards: list[int] = field(default_factory=list)
    hot_workers: list[str] = field(default_factory=list)
    shard_utilization: dict[int, float] = field(default_factory=dict)
    worker_utilization: dict[str, float] = field(default_factory=dict)

    @property
    def any_hot(self) -> bool:
        return bool(self.hot_shards or self.hot_workers)


class TrafficMonitor:
    """Evaluates samples against the topology to find hot spots."""

    def __init__(
        self,
        topology: ClusterTopology,
        hot_shard_utilization: float = DEFAULT_HOT_SHARD_UTILIZATION,
        hot_queue_saturation: float = DEFAULT_HOT_QUEUE_SATURATION,
    ) -> None:
        if not 0 < hot_shard_utilization <= 1:
            raise ValueError("hot_shard_utilization must be in (0, 1]")
        self._topology = topology
        self._hot_util = hot_shard_utilization
        self._hot_queue = hot_queue_saturation

    def check(self, sample: TrafficSample) -> HotspotReport:
        """CheckHotSpot over every shard and worker (Algorithm 1 lines 10-15)."""
        report = HotspotReport()
        for shard in self._topology.shards:
            capacity = self._topology.shard_capacity[shard]
            traffic = sample.shard_traffic.get(shard, 0.0)
            utilization = traffic / capacity if capacity > 0 else 0.0
            report.shard_utilization[shard] = utilization
            queue = sample.shard_queue_saturation.get(shard, 0.0)
            if utilization >= self._hot_util or queue >= self._hot_queue:
                report.hot_shards.append(shard)
        for worker in self._topology.workers:
            capacity = self._topology.worker_capacity[worker]
            traffic = sample.worker_traffic.get(worker, 0.0)
            utilization = traffic / capacity if capacity > 0 else 0.0
            report.worker_utilization[worker] = utilization
            if utilization >= self._topology.alpha:
                report.hot_workers.append(worker)
        return report

    def cluster_headroom(self, sample: TrafficSample) -> bool:
        """Algorithm 1 line 17: Σ f(D_k) <= α · Σ c(D_k).

        True ⇒ rebalancing can absorb the traffic; False ⇒ the cluster
        itself is saturated and must scale out.
        """
        total_traffic = sum(sample.worker_traffic.values())
        total_capacity = self._topology.total_worker_capacity()
        return total_traffic <= self._topology.alpha * total_capacity

    @staticmethod
    def derive_shard_and_worker_traffic(
        sample: TrafficSample, topology: ClusterTopology
    ) -> None:
        """Fill shard/worker traffic from per-route traffic in place."""
        shard_traffic: dict[int, float] = {shard: 0.0 for shard in topology.shards}
        for flows in sample.route_traffic.values():
            for shard, traffic in flows.items():
                shard_traffic[shard] = shard_traffic.get(shard, 0.0) + traffic
        sample.shard_traffic = shard_traffic
        worker_traffic: dict[str, float] = {worker: 0.0 for worker in topology.workers}
        for shard, traffic in shard_traffic.items():
            worker = topology.shard_worker[shard]
            worker_traffic[worker] += traffic
        sample.worker_traffic = worker_traffic
