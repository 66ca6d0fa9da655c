"""Zero-read expiry: drop whole aged LogBlocks without fetching a byte.

Because blocks are immutable and the catalog's LogBlock map brackets
every row with ``[min_ts, max_ts]``, retention never needs to *read*
data: a block whose ``max_ts`` predates the TTL cutoff can be dropped
with one catalog removal and one object DELETE.  The sweeper therefore
performs **zero OSS GETs and zero block decodes** by construction — the
point asserted (via :class:`~repro.oss.metered.OssStats`) in tests and
``benchmarks/bench_lifecycle.py``.

Candidate selection bisects the catalog's per-tenant ``blocks_by_age``
index, so each sweep is O(expired blocks), not O(catalog) — the
precondition for the million-tenant catalog of ROADMAP item 2.

The blocks leave through the :class:`~repro.meta.janitor.Janitor`, and
each sweep also retries the janitor's orphan queue, so a healed cluster
converges back to "catalog == OSS" without manual repair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.meta.catalog import Catalog
from repro.meta.janitor import Janitor
from repro.obs.context import Observability

EVENT_LIFECYCLE_SWEEP = "lifecycle.sweep"


@dataclass
class SweepReport:
    """What one :meth:`ExpirySweeper.sweep` call did."""

    blocks_expired: int = 0
    bytes_reclaimed: int = 0
    segments_deleted: int = 0
    orphans_swept: int = 0
    entries_examined: int = 0
    tenants_touched: set[int] = field(default_factory=set)


class ExpirySweeper:
    """Catalog-driven background expiry."""

    def __init__(
        self,
        catalog: Catalog,
        janitor: Janitor,
        obs: Observability | None = None,
    ) -> None:
        self._catalog = catalog
        self._janitor = janitor
        self._obs = obs if obs is not None else Observability.noop()
        registry = self._obs.registry
        self._sweeps_total = registry.counter(
            "logstore_lifecycle_sweeps_total", "Expiry sweeps executed."
        )
        self._expired_blocks_total = registry.counter(
            "logstore_lifecycle_expired_blocks_total",
            "LogBlocks dropped by retention.",
        )
        self._expired_bytes_total = registry.counter(
            "logstore_lifecycle_expired_bytes_total",
            "Stored bytes reclaimed by retention.",
        )
        self._segments_deleted_total = registry.counter(
            "logstore_lifecycle_segments_deleted_total",
            "Cold segment objects deleted once fully expired.",
        )

    def sweep(self, now_ts: int) -> SweepReport:
        """One expiry pass: catalog removals + object DELETEs, no GETs.

        Exactly-once across crashes falls out of the janitor's ordering:
        the catalog entry is removed *before* the object DELETE, so a
        crash in between leaves an unreferenced object that a later
        orphan sweep or reconcile deletes — rows can never resurrect,
        and a DELETE retried after heal treats a missing object as done.
        """
        report = SweepReport()
        candidates, examined = self._catalog.expired_candidates(now_ts)
        report.entries_examined = examined
        released = self._janitor.retire(candidates)
        for entry in candidates:
            self._catalog.note_expired(entry.tenant_id)
            report.bytes_reclaimed += entry.size_bytes
            report.tenants_touched.add(entry.tenant_id)
        report.blocks_expired = len(candidates)
        # An object released that is no entry's own path is a cold
        # segment whose last live member just expired.
        own_paths = {entry.path for entry in candidates}
        report.segments_deleted = len(released.keys() - own_paths)
        report.orphans_swept = self._janitor.sweep()
        self._sweeps_total.add()
        self._expired_blocks_total.add(report.blocks_expired)
        self._expired_bytes_total.add(report.bytes_reclaimed)
        self._segments_deleted_total.add(report.segments_deleted)
        if report.blocks_expired or report.orphans_swept:
            self._obs.journal.emit(
                EVENT_LIFECYCLE_SWEEP,
                "lifecycle.sweeper",
                detail=(
                    f"expired={report.blocks_expired} "
                    f"bytes={report.bytes_reclaimed} "
                    f"segments={report.segments_deleted} "
                    f"orphans={report.orphans_swept} "
                    f"examined={report.entries_examined}"
                ),
            )
        return report
