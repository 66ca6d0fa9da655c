"""LifecycleManager: the background tick that runs the lifecycle.

One object owns the three lifecycle actors (sweeper, cold compactor,
offboarder), hands them the cluster's one janitor, and exposes a single
:meth:`tick` for ``LogStore.run_background_tasks`` — expiry first
(cheapest, frees the most), then cold repacks.

It also publishes the gauge the stalled-sweeper alert
(:func:`stalled_sweeper_rule`) watches, so detection works even when —
especially when — the sweep itself stops running.  A sweeper that
silently stops is invisible in the data path while expired data
accrues storage cost and breaks retention promises.  Wire the rule in
via ``LogStoreConfig.alert_rules``::

    config = small_test_config(
        alert_rules=default_alert_rules() + (stalled_sweeper_rule(5),)
    )
"""

from __future__ import annotations

from repro.lifecycle.cold import ColdCompactor
from repro.lifecycle.offboard import TenantOffboarder
from repro.lifecycle.policy import RetentionPolicy, apply_policy, policy_for
from repro.lifecycle.sweeper import ExpirySweeper, SweepReport
from repro.logblock.writer import DEFAULT_BLOCK_ROWS
from repro.meta.catalog import Catalog
from repro.meta.janitor import Janitor
from repro.obs.alerts import ThresholdRule
from repro.obs.context import Observability

SWEEP_STALLED_TICKS = "logstore_lifecycle_sweep_stalled_ticks"


def stalled_sweeper_rule(stall_ticks: int = 5) -> ThresholdRule:
    """Fire once expired blocks waited ``stall_ticks`` ticks unswept."""
    if stall_ticks < 1:
        raise ValueError(f"stall_ticks must be >= 1, got {stall_ticks}")
    return ThresholdRule(
        name="lifecycle-sweeper-stalled",
        metric=SWEEP_STALLED_TICKS,
        threshold=stall_ticks,
        op=">=",
    )


class LifecycleManager:
    """Background data-lifecycle driver for one cluster."""

    def __init__(
        self,
        catalog: Catalog,
        store,
        bucket: str,
        janitor: Janitor,
        obs: Observability | None = None,
        sweep_enabled: bool = True,
        cold_target_rows: int = 200_000,
        block_rows: int = DEFAULT_BLOCK_ROWS,
        build_indexes: bool = True,
    ) -> None:
        self._catalog = catalog
        self._sweep_enabled = sweep_enabled
        self._obs = obs if obs is not None else Observability.noop()
        self.sweeper = ExpirySweeper(catalog, janitor, obs=self._obs)
        self.cold = ColdCompactor(
            catalog,
            janitor,
            block_rows=block_rows,
            target_rows=cold_target_rows,
            build_indexes=build_indexes,
            obs=self._obs,
        )
        self.offboarder = TenantOffboarder(
            catalog, store, bucket, janitor, obs=self._obs
        )
        self._ticks = 0
        self._last_sweep_tick = 0
        registry = self._obs.registry
        self._ticks_total = registry.counter(
            "logstore_lifecycle_ticks_total", "Background lifecycle ticks."
        )
        self._stalled_ticks = registry.gauge(
            SWEEP_STALLED_TICKS,
            "Ticks since the last expiry sweep while expired blocks wait (else 0).",
        )

    # -- policy ------------------------------------------------------------

    def set_policy(self, tenant_id: int, policy: RetentionPolicy) -> None:
        apply_policy(self._catalog, tenant_id, policy)

    def policy(self, tenant_id: int) -> RetentionPolicy:
        return policy_for(self._catalog, tenant_id)

    # -- background tick ---------------------------------------------------

    @property
    def ticks(self) -> int:
        return self._ticks

    def tick(self, now_ts: int) -> SweepReport | None:
        """One background pass: sweep expiry, then cold repacks.

        Returns the sweep report, or None when sweeping is disabled (in
        which case the stalled-ticks gauge climbs while expired blocks
        wait — the signal the stalled-sweeper alert fires on).
        """
        self._ticks += 1
        self._ticks_total.add()
        if not self._sweep_enabled:
            candidates, _examined = self._catalog.expired_candidates(now_ts)
            self._stalled_ticks.set(self._ticks - self._last_sweep_tick if candidates else 0)
            report = None
        else:
            report = self.sweeper.sweep(now_ts)
            self._last_sweep_tick = self._ticks
            self._stalled_ticks.set(0)
        self.cold.repack_all(now_ts)
        return report
