"""The janitor: the one way an archived object leaves OSS (§3, §3.1).

Because each tenant's LogBlocks live in their own directory, retiring
data is a metadata change plus per-object DELETEs — whether the data
expired, was compacted or cooled into a segment, belongs to an
offboarded or migrated tenant, or is what a failed upload left behind.
Every retirer hands its objects here, and one rule applies to all:

1. the catalog entry is removed first, so a crash after this point
   leaves an unreferenced object (which :meth:`Janitor.reconcile`
   finds), never a row that comes back;
2. the object gets one DELETE once no live entry references it — a cold
   segment outlives every member but its last.  ``NoSuchKey`` counts as
   done, so a replay after heal is exactly-once; any other failure
   queues the path in the one orphan queue, which :meth:`Janitor.sweep`
   retries;
3. the cache keys of the entry's own path and of the object holding it
   (a cold member's segment) are dropped — after the DELETE, so a
   reader that re-fetches in between cannot leave keys behind.

DELETEs go to the store as given, never through a retrying wrapper:
during the outage that just failed an upload, retried deletes would
burn a full backoff budget per path before the orphan queue took them.
"""

from __future__ import annotations

from typing import Callable

from repro.common.errors import NoSuchKey, ObjectAlreadyExists
from repro.meta.catalog import Catalog, LogBlockEntry
from repro.obs.context import Observability


class Janitor:
    """Retires archived objects: catalog entry, one DELETE, cache keys."""

    def __init__(
        self,
        catalog: Catalog,
        store,
        bucket: str,
        invalidate: Callable[[str], None] | None = None,
        obs: Observability | None = None,
    ) -> None:
        self._catalog = catalog
        self._store = store
        self._bucket = bucket
        self._invalidate = invalidate
        self._orphans: dict[str, None] = {}  # ordered set: a path is queued once
        registry = (obs if obs is not None else Observability.noop()).registry
        self._orphans_swept_total = registry.counter(
            "logstore_lifecycle_orphans_swept_total",
            "Orphaned OSS objects cleaned up by the janitor.",
        )

    @property
    def orphans(self) -> list[str]:
        """Paths whose DELETE failed, awaiting :meth:`sweep`."""
        return list(self._orphans)

    def retire(self, entries: list[LogBlockEntry]) -> dict[str, bool]:
        """Remove registered entries from the catalog and release their
        objects.  Returns each object DELETEd → whether it is gone
        (False: queued as an orphan)."""
        for entry in entries:
            self._catalog.remove_block(entry)
        return self._release(entries)

    def drop_tenant(self, tenant_id: int) -> dict[str, bool]:
        """Unregister a tenant and release every object it held."""
        return self._release(self._catalog.drop_tenant(tenant_id))

    def discard(self, path: str) -> bool:
        """DELETE an object no catalog entry references.  True once it is
        gone; False when the DELETE failed and the path is queued."""
        try:
            self._store.delete(self._bucket, path)
        except NoSuchKey:
            pass
        except Exception:
            self._orphans[path] = None
            return False
        self._orphans.pop(path, None)
        return True

    def discard_failed_upload(
        self, paths: list[str], uploaded: int, error: BaseException
    ) -> None:
        """Discard what a failed run of PUTs over ``paths`` created: the
        first ``uploaded`` and the in-flight one (maybe torn) — unless its
        PUT found the key taken, which ``RetryingObjectStore`` reports only
        on a first attempt: that object is not ours (say, a block archived
        before a controller restart)."""
        created = uploaded + (not isinstance(error, ObjectAlreadyExists))
        for path in paths[:created]:
            self.discard(path)

    def sweep(self) -> int:
        """Retry every queued DELETE; returns how many objects are gone."""
        return self._count_swept(sum(self.discard(path) for path in self.orphans))

    def reconcile(self) -> int:
        """Recovery audit: delete stray data objects the catalog disowns.

        A crash between catalog removal and object DELETE (or an orphan
        queue lost with the process) leaves unreferenced ``.lgb`` /
        ``.seg`` objects behind.  This LISTs the tenant prefix — no
        GETs — and discards anything no live entry references.  Only
        safe on a quiesced cluster (no archive or compaction in flight,
        whose upload-before-register windows would look like strays).
        """
        live = {entry.object_path for entry in self._catalog.all_blocks()}
        strays = [
            stat.key
            for stat in self._store.list(self._bucket, "tenants/")
            if stat.key.endswith((".lgb", ".seg")) and stat.key not in live
        ]
        return self._count_swept(sum(self.discard(path) for path in strays))

    def _release(self, entries: list[LogBlockEntry]) -> dict[str, bool]:
        unreferenced = dict.fromkeys(
            entry.object_path
            for entry in entries
            if entry.segment_path is None
            or not self._catalog.segment_refcount(entry.segment_path)
        )
        gone = {path: self.discard(path) for path in unreferenced}
        if self._invalidate is not None:
            # After the DELETE: a reader still holding an entry may put
            # the blob back until then, but a fetch of a gone object hits
            # NoSuchKey and caches nothing.  A cold member's decoded
            # objects are cached under its own path, its byte ranges
            # under the segment's.
            for path in {p for e in entries for p in (e.path, e.object_path)}:
                self._invalidate(path)
        return gone

    def _count_swept(self, cleared: int) -> int:
        if cleared:
            self._orphans_swept_total.add(cleared)
        return cleared
