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

The sweeper is also the cluster's janitor for *orphans*: objects whose
DELETE failed mid-operation elsewhere (compaction compensation deletes,
cold repacks, offboarding).  Sources register their queues and each
sweep drains them, so a healed cluster converges back to "catalog ==
OSS" without manual repair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import NoSuchKey
from repro.meta.catalog import Catalog
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
    """Catalog-driven background expiry with orphan sweeping."""

    def __init__(
        self,
        catalog: Catalog,
        store,
        bucket: str,
        obs: Observability | None = None,
        invalidate=None,
    ) -> None:
        self._catalog = catalog
        self._store = store
        self._bucket = bucket
        self._invalidate = invalidate
        self._orphans: list[tuple[str, str]] = []
        self._orphan_sources: list = []
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
        self._orphans_swept_total = registry.counter(
            "logstore_lifecycle_orphans_swept_total",
            "Orphaned OSS objects cleaned up by the sweeper.",
        )

    # -- orphan plumbing ---------------------------------------------------

    def attach_orphan_source(self, source) -> None:
        """Register an object exposing ``sweep_orphans() -> int``
        (e.g. the compactor, the builder) for draining on each sweep."""
        if source is not None and source not in self._orphan_sources:
            self._orphan_sources.append(source)

    def add_orphan(self, bucket: str, path: str) -> None:
        """Queue an object whose DELETE failed for a later sweep."""
        self._orphans.append((bucket, path))

    @property
    def orphans(self) -> list[tuple[str, str]]:
        """(bucket, path) pairs awaiting deletion retry."""
        return list(self._orphans)

    def sweep_orphans(self) -> int:
        """Retry queued deletes here and in every attached source."""
        remaining: list[tuple[str, str]] = []
        cleared = 0
        for bucket, path in self._orphans:
            try:
                self._store.delete(bucket, path)
                cleared += 1
            except NoSuchKey:
                cleared += 1
            except Exception:
                remaining.append((bucket, path))
        self._orphans = remaining
        for source in self._orphan_sources:
            try:
                cleared += source.sweep_orphans()
            except Exception:
                continue  # a faulted store mid-chaos; retried next sweep
        if cleared:
            self._orphans_swept_total.add(cleared)
        return cleared

    # -- expiry ------------------------------------------------------------

    def expired_candidates(self, now_ts: int):
        """Expired entries + entries-examined bound (catalog bisect)."""
        return self._catalog.expired_candidates(now_ts)

    def sweep(self, now_ts: int) -> SweepReport:
        """One expiry pass: catalog removals + object DELETEs, no GETs.

        Exactly-once across crashes falls out of the ordering: the
        catalog entry is removed *before* the object DELETE, so a crash
        in between leaves an unreferenced object that the next
        orphan/reconcile sweep deletes — rows can never resurrect, and
        a DELETE retried after heal treats ``NoSuchKey`` as success.
        """
        report = SweepReport()
        candidates, examined = self._catalog.expired_candidates(now_ts)
        report.entries_examined = examined
        for entry in candidates:
            self._catalog.remove_block(entry)
            self._catalog.note_expired(entry.tenant_id)
            report.blocks_expired += 1
            report.bytes_reclaimed += entry.size_bytes
            report.tenants_touched.add(entry.tenant_id)
            if entry.segment_path is None:
                self._delete(entry.path)
            elif self._catalog.segment_refcount(entry.segment_path) == 0:
                # Last live member gone: the segment object itself can go.
                self._delete(entry.segment_path)
                report.segments_deleted += 1
            if self._invalidate is not None:
                # A cold member's decoded objects are cached under its own
                # path, its byte ranges under the segment's.
                for path in {entry.path, entry.object_path}:
                    self._invalidate(path)
        report.orphans_swept = self.sweep_orphans()
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

    def reconcile(self) -> int:
        """Recovery sweep: delete stray data objects the catalog disowns.

        A crash between catalog removal and object DELETE (or a lost
        in-memory orphan queue) leaves unreferenced ``.lgb``/``.seg``
        objects behind.  This LISTs the tenant prefix — no GETs — and
        deletes anything not referenced by the live catalog.  Only safe
        on a quiesced cluster (no archive/compaction in flight, whose
        upload-before-register windows would look like strays).
        """
        live = {entry.object_path for entry in self._catalog.all_blocks()}
        live.update(self._catalog.segment_paths())
        removed = 0
        for stat in self._store.list(self._bucket, "tenants/"):
            if not (stat.key.endswith(".lgb") or stat.key.endswith(".seg")):
                continue
            if stat.key in live:
                continue
            try:
                self._store.delete(self._bucket, stat.key)
                removed += 1
            except NoSuchKey:
                removed += 1
            except Exception:
                self._orphans.append((self._bucket, stat.key))
        if removed:
            self._orphans_swept_total.add(removed)
        return removed

    def _delete(self, path: str) -> None:
        try:
            self._store.delete(self._bucket, path)
        except NoSuchKey:
            pass  # already gone (e.g. a healed retry): exactly-once holds
        except Exception:
            self._orphans.append((self._bucket, path))
