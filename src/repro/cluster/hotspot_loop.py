"""The live hotspot-manager loop: metrics → sample → rebalance.

§4.1.3: the monitor "collects tenant traffic f(Ki), shard load f(Pj)
and worker node load f(Dk) ... It will detect load imbalance every 300
seconds."  This module closes the loop against the *actual* write path:
instead of being handed a traffic dictionary, it derives the sample
from the usage meter's per-tenant rows-ingested counters, then runs
Algorithm 1 on the controller — scheduled on the cluster's
clock like any other background task.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.controller import Controller
from repro.common.clock import VirtualClock
from repro.flow.balancer import ControllerEvent
from repro.flow.monitor import TrafficSample
from repro.obs.meter import UsageMeter


@dataclass
class HotspotLoop:
    """Periodic Algorithm-1 execution wired to live counters."""

    controller: Controller
    meter: UsageMeter
    clock: VirtualClock
    events: list[ControllerEvent] = field(default_factory=list)
    _running: bool = False
    _last_tick_s: float = 0.0

    def start(self) -> None:
        """Arm the periodic timer (idempotent)."""
        if self._running:
            return
        self._running = True
        self._last_tick_s = self.clock.now()
        self.clock.call_later(self.controller.config.monitor_interval_s, self._tick)

    def stop(self) -> None:
        self._running = False

    def _tick(self) -> None:
        if not self._running:
            return
        self.run_once()
        self.clock.call_later(self.controller.config.monitor_interval_s, self._tick)

    def window_rates(self, window_s: float) -> dict[int, float]:
        """records/s per tenant since the previous call.

        The loop is the single consumer of the meter's rows-ingested
        windows (:meth:`Counter.window_delta` has one cursor); everyone
        else reads the cumulative values.
        """
        if window_s <= 0:
            raise ValueError(f"window must be positive, got {window_s}")
        return {
            tenant_id: counter.window_delta() / window_s
            for tenant_id, counter in self.meter.rows_ingested().items()
        }

    def run_once(self) -> ControllerEvent:
        """Build a sample from the live counters and rebalance."""
        now = self.clock.now()
        window = max(now - self._last_tick_s, 1e-9)
        self._last_tick_s = now
        rates = self.window_rates(window)
        sample: TrafficSample = self.controller.collect_sample(rates)
        event = self.controller.rebalance(sample)
        self.events.append(event)
        return event
