"""Tenant routing tables (§4.1.2, §4.1.5).

The controller pushes rules of the form::

    Rules{T0: {P0: X00, P1: X01, P3: X03}, T1: {P3: X13} ...}

to every broker.  Brokers split each tenant's write traffic across its
shards proportionally to the weights.  On an update, the *read* routing
table is the merge of old and new plans for a grace period, "because
the tenant's read request needs to be forwarded to the nodes in both
old and new plans within a period of time" (§4.1.5) — recent data may
still sit in the old shards' row stores until the builder flushes it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.common.errors import FlowError

_WEIGHT_EPSILON = 1e-9


@dataclass(frozen=True)
class RouteRule:
    """Write-routing rule for one tenant: shard → weight (sums to 1)."""

    tenant_id: int
    weights: tuple[tuple[int, float], ...]

    @classmethod
    def from_dict(cls, tenant_id: int, weights: dict[int, float]) -> "RouteRule":
        if not weights:
            raise FlowError(f"tenant {tenant_id}: empty routing rule")
        total = sum(weights.values())
        if total <= 0:
            raise FlowError(f"tenant {tenant_id}: non-positive total weight")
        normalized = tuple(
            (shard, weight / total)
            for shard, weight in sorted(weights.items())
            if weight / total > _WEIGHT_EPSILON
        )
        if not normalized:
            raise FlowError(f"tenant {tenant_id}: all weights negligible")
        return cls(tenant_id, normalized)

    def shards(self) -> list[int]:
        return [shard for shard, _w in self.weights]

    def as_dict(self) -> dict[int, float]:
        return dict(self.weights)

    @property
    def route_count(self) -> int:
        """Number of edges this rule contributes (Figure 12c metric)."""
        return len(self.weights)


class RoutingTable:
    """Versioned tenant → rule mapping with deterministic splitting."""

    def __init__(self, version: int = 0) -> None:
        self.version = version
        self._rules: dict[int, RouteRule] = {}
        self._read_extra: dict[int, set[int]] = {}  # old shards kept for reads
        self._counters: dict[int, itertools.count] = {}

    def set_rule(self, rule: RouteRule) -> None:
        previous = self._rules.get(rule.tenant_id)
        if previous is not None:
            stale = set(previous.shards()) - set(rule.shards())
            if stale:
                self._read_extra.setdefault(rule.tenant_id, set()).update(stale)
        self._rules[rule.tenant_id] = rule
        self._counters.pop(rule.tenant_id, None)

    def rule_for(self, tenant_id: int) -> RouteRule | None:
        return self._rules.get(tenant_id)

    def tenants(self) -> list[int]:
        return sorted(self._rules)

    def total_routes(self) -> int:
        """Total number of routing edges — the paper's "routes" metric."""
        return sum(rule.route_count for rule in self._rules.values())

    # -- write routing ------------------------------------------------------

    def route_write(self, tenant_id: int) -> int:
        """Pick the shard for one write of this tenant.

        Deterministic weighted round-robin: over N consecutive writes the
        realized split converges to the rule's weights without any RNG,
        which keeps simulations reproducible.
        """
        rule = self._rules.get(tenant_id)
        if rule is None:
            raise FlowError(f"no routing rule for tenant {tenant_id}")
        if len(rule.weights) == 1:
            return rule.weights[0][0]
        counter = self._counters.setdefault(tenant_id, itertools.count())
        tick = next(counter)
        # Low-discrepancy selection: walk the cumulative weights with a
        # golden-ratio stride so interleavings stay smooth.
        position = (tick * 0.61803398875) % 1.0
        cumulative = 0.0
        for shard, weight in rule.weights:
            cumulative += weight
            if position < cumulative:
                return shard
        return rule.weights[-1][0]

    def split_batch(self, tenant_id: int, batch_size: int) -> dict[int, int]:
        """Split ``batch_size`` records across the tenant's shards.

        Uses largest-remainder apportionment so the counts match the
        weights as closely as integers allow.
        """
        rule = self._rules.get(tenant_id)
        if rule is None:
            raise FlowError(f"no routing rule for tenant {tenant_id}")
        if batch_size < 0:
            raise FlowError(f"negative batch size {batch_size}")
        if len(rule.weights) == 1:  # a lone weight is exactly 1.0: nothing to apportion
            return {rule.weights[0][0]: batch_size} if batch_size else {}
        exact = [(shard, weight * batch_size) for shard, weight in rule.weights]
        floors = {shard: int(value) for shard, value in exact}
        remainder = batch_size - sum(floors.values())
        by_fraction = sorted(exact, key=lambda sv: sv[1] - int(sv[1]), reverse=True)
        for shard, _value in by_fraction[:remainder]:
            floors[shard] += 1
        return {shard: count for shard, count in floors.items() if count > 0}

    # -- read routing -------------------------------------------------------

    def route_read(self, tenant_id: int) -> list[int]:
        """All shards that may hold recent data for this tenant.

        Union of the current plan and not-yet-flushed old shards.
        """
        rule = self._rules.get(tenant_id)
        shards = set(rule.shards()) if rule is not None else set()
        shards |= self._read_extra.get(tenant_id, set())
        return sorted(shards)

    def clear_read_extra(self, tenant_id: int, shard: int) -> None:
        """Drop an old shard from read routing once its data is on OSS."""
        extra = self._read_extra.get(tenant_id)
        if extra is not None:
            extra.discard(shard)
            if not extra:
                del self._read_extra[tenant_id]

    # -- plan application --------------------------------------------------

    def apply_plan(self, plan: dict[int, dict[int, float]]) -> None:
        """Install a balancer-produced plan atomically (one version bump)."""
        for tenant_id, weights in plan.items():
            self.set_rule(RouteRule.from_dict(tenant_id, weights))
        self.version += 1

    def snapshot(self) -> dict[int, dict[int, float]]:
        """Copy of the current rules (for inspection and tests)."""
        return {tenant: rule.as_dict() for tenant, rule in self._rules.items()}
