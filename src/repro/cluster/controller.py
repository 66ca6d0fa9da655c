"""Controller: cluster manager, metadata, hotspot + task scheduling.

Mirrors Figure 3's controller box: it owns the catalog (metadata DB),
builds the cluster topology, initializes routing via consistent hashing
(Algorithm 1 lines 4–7), runs the hotspot manager (monitor → balancer →
router), and schedules background archiving (expiry runs in the
lifecycle tick, :mod:`repro.lifecycle`).
"""

from __future__ import annotations

from repro.builder.builder import BuildReport
from repro.cluster.config import LogStoreConfig
from repro.cluster.worker import Worker, archive_each
from repro.common.clock import VirtualClock
from repro.flow.balancer import (
    Balancer,
    ControllerEvent,
    GlobalTrafficController,
    GreedyBalancer,
    MaxFlowBalancer,
    NoBalancer,
)
from repro.flow.consistent_hash import ConsistentHashRing
from repro.flow.graph import ClusterTopology
from repro.flow.monitor import TrafficMonitor, TrafficSample
from repro.flow.router import RouteRule, RoutingTable
from repro.meta.catalog import Catalog


def build_topology(config: LogStoreConfig) -> ClusterTopology:
    """Shard/worker layout with capacities from the config."""
    shard_worker = {
        shard_id: config.worker_of_shard(shard_id) for shard_id in range(config.n_shards)
    }
    shard_capacity = {shard_id: config.shard_capacity_rps for shard_id in range(config.n_shards)}
    worker_capacity = {
        config.worker_id(i): config.worker_capacity_rps for i in range(config.n_workers)
    }
    return ClusterTopology(shard_worker, shard_capacity, worker_capacity, alpha=config.alpha)


def make_balancer(config: LogStoreConfig, topology: ClusterTopology) -> Balancer:
    if config.balancer == "none":
        return NoBalancer()
    if config.balancer == "greedy":
        return GreedyBalancer(topology, config.per_tenant_shard_limit_rps)
    return MaxFlowBalancer(topology, config.per_tenant_shard_limit_rps)


class Controller:
    """The (single, elected) active controller node."""

    def __init__(
        self,
        config: LogStoreConfig,
        catalog: Catalog,
        clock: VirtualClock,
    ) -> None:
        self.config = config
        self.catalog = catalog
        self._clock = clock
        self.topology = build_topology(config)
        self.ring = ConsistentHashRing(self.topology.shards)
        self.routing = RoutingTable()
        self.hotspot_manager = GlobalTrafficController(
            self.topology,
            TrafficMonitor(self.topology),
            make_balancer(config, self.topology),
            self.routing,
            balancer_factory=lambda topology: make_balancer(config, topology),
            interval_s=config.monitor_interval_s,
        )
        self.workers: dict[str, Worker] = {}

    # -- routing ---------------------------------------------------------

    def ensure_route(self, tenant_id: int) -> None:
        """Initial placement: ConsistentHash(K_i) with weight 100%."""
        if self.routing.rule_for(tenant_id) is None:
            shard = self.ring.shard_for(tenant_id)
            self.routing.set_rule(RouteRule.from_dict(tenant_id, {shard: 1.0}))

    # -- hotspot management ---------------------------------------------

    def retarget(self, topology: ClusterTopology) -> None:
        """Swap in a new topology (scale-out, node failure) atomically:
        the hotspot manager's monitor and balancer are rebuilt against
        it while the routing table is preserved."""
        self.topology = topology
        manager = self.hotspot_manager
        manager.topology = topology
        manager._monitor = TrafficMonitor(topology)
        manager._balancer = make_balancer(self.config, topology)

    def set_scale_hook(self, hook) -> None:
        """Install the ScaleCluster() implementation (Algorithm 1 line 25).

        ``hook`` must provision new workers/shards and return the new
        :class:`ClusterTopology`.
        """
        self.hotspot_manager.scale_cluster = hook

    def rebalance(self, sample: TrafficSample) -> ControllerEvent:
        """One Algorithm-1 iteration against a traffic sample."""
        event = self.hotspot_manager.run_once(sample, now_s=self._clock.now())
        # ScaleCluster() may have replaced the topology; stay in sync.
        self.topology = self.hotspot_manager.topology
        return event

    def collect_sample(self, tenant_traffic: dict[int, float]) -> TrafficSample:
        """Build a monitoring sample from offered traffic + routing rules."""
        route_traffic: dict[int, dict[int, float]] = {}
        for tenant_id, traffic in tenant_traffic.items():
            self.ensure_route(tenant_id)
            rule = self.routing.rule_for(tenant_id)
            assert rule is not None
            route_traffic[tenant_id] = {
                shard: traffic * weight for shard, weight in rule.weights
            }
        return TrafficSample(tenant_traffic=dict(tenant_traffic), route_traffic=route_traffic)

    # -- background tasks -------------------------------------------------

    def register_worker(self, worker: Worker) -> None:
        self.workers[worker.worker_id] = worker

    def archive_all(self) -> BuildReport:
        """Run the data builder on every worker (checkpoint task); a
        worker that fails does not stop the rest (:func:`archive_each`)."""
        return archive_each(
            self.workers.values(), lambda worker, report: report.merge(worker.archive_once())
        )

    def flush_all(self) -> BuildReport:
        """Seal + archive everything on every worker, each tried."""
        return archive_each(
            self.workers.values(), lambda worker, report: report.merge(worker.flush_all())
        )
