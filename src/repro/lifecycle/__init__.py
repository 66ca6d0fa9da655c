"""Data lifecycle: retention, zero-read expiry, cold tiering, offboarding.

§3.1 promises "flexible data expiration policies" per tenant; Taurus
(PAPERS.md) frames the cloud-frugality goal — aged data should cost
less to store and *nothing* to delete.  This package delivers both:

* :class:`~repro.lifecycle.policy.RetentionPolicy` — per-tenant TTL and
  cold-age thresholds, stored in the catalog and settable through the
  SQL front door (``ALTER TENANT … SET RETENTION``).
* :class:`~repro.lifecycle.sweeper.ExpirySweeper` — drops whole expired
  LogBlocks with catalog operations plus object DELETEs only: zero OSS
  GETs, zero decoded bytes, O(expired blocks) per sweep.
* :class:`~repro.lifecycle.cold.ColdCompactor` — re-packs aged small
  blocks into large tar-packed segments under a cheaper codec, with
  byte-identical query results from either tier.
* :class:`~repro.lifecycle.offboard.TenantOffboarder` — exports a
  departing tenant to a portable archive, then performs a verified full
  delete (catalog + OSS listing prove nothing remains).
* :class:`~repro.lifecycle.manager.LifecycleManager` — the background
  tick wiring all of the above into ``run_background_tasks``.
"""

from repro.lifecycle.cold import ColdCompactor, ColdRepackResult
from repro.lifecycle.manager import LifecycleManager, stalled_sweeper_rule
from repro.lifecycle.offboard import OffboardReport, TenantOffboarder, export_path
from repro.lifecycle.policy import (
    RetentionPolicy,
    apply_policy,
    format_duration,
    parse_duration,
    policy_for,
)
from repro.lifecycle.sweeper import ExpirySweeper, SweepReport

__all__ = [
    "ColdCompactor",
    "ColdRepackResult",
    "ExpirySweeper",
    "LifecycleManager",
    "OffboardReport",
    "RetentionPolicy",
    "SweepReport",
    "TenantOffboarder",
    "apply_policy",
    "export_path",
    "format_duration",
    "parse_duration",
    "policy_for",
    "stalled_sweeper_rule",
]
