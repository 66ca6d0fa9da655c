"""The janitor: the one way an archived object enters or leaves OSS (§3, §3.1).

**In.**  Every archiver — the data builder, the compactor, the cold
compactor — names its objects with :func:`object_key` and hands them to
:meth:`Janitor.publish`, which PUTs them all through the cluster's one
:class:`~repro.oss.retry.RetryingObjectStore`, then registers their
catalog entries, then retires what they replace.  A key names the
object's source and its bytes (§3.2: a LogBlock is self-contained), so
archiving the same rows again — a replay after a crash between upload
and drain — finds its own objects and registers nothing twice, and two
different objects never share a key.  A failed upload discards exactly
the keys its own call created, plus the in-flight one (maybe torn).

**Out.**  Because each tenant's LogBlocks live in their own directory,
retiring data is a metadata change plus per-object DELETEs — whether the
data expired, was compacted or cooled into a segment, belongs to an
offboarded or migrated tenant, or is what a failed upload left behind.
One rule applies to all:

1. the catalog entry is removed first, so a crash after this point
   leaves an unreferenced object (which :meth:`Janitor.reconcile`
   finds), never a row that comes back;
2. the object gets one DELETE once no live entry references it — a cold
   segment outlives every member but its last, and a key re-published
   since it was queued stays.  ``NoSuchKey`` counts as done, so a
   replay after heal is exactly-once; any other failure queues the path
   in the one orphan queue, which :meth:`Janitor.sweep` retries;
3. the cache keys of the entry's own path and of the object holding it
   (a cold member's segment) are dropped — after the DELETE, so a
   reader that re-fetches in between cannot leave keys behind.

DELETEs go to the store as given, never through the retrying wrapper:
during the outage that just failed an upload, retried deletes would
burn a full backoff budget per path before the orphan queue took them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.common.clock import Clock
from repro.common.errors import NoSuchKey
from repro.meta.catalog import Catalog, LogBlockEntry
from repro.obs.context import Observability
from repro.oss.retry import DEFAULT_MAX_ATTEMPTS, RetryingObjectStore, RetryStats


def object_key(tenant_id: int, source: str, blob: bytes, chunk: int | None = None) -> str:
    """The OSS key of an archived object: its source and its bytes.

    A hot block (``chunk`` given) is
    ``tenants/<t>/<source>-<chunk>-<digest>.lgb``, a cold segment
    ``tenants/<t>/cold/<source>-<digest>.seg``; ``digest`` is 16 hex
    characters of the blob's sha256.  ``source`` is ``s<shard>-<seal
    seq>`` for an archived row-store table, :func:`rewrite_source` for
    a compaction output or a cold segment.
    """
    digest = hashlib.sha256(blob).hexdigest()[:16]
    if chunk is None:
        return f"tenants/{tenant_id}/cold/{source}-{digest}.seg"
    return f"tenants/{tenant_id}/{source}-{chunk:04d}-{digest}.lgb"


def rewrite_source(victims: Iterable[LogBlockEntry]) -> str:
    """The source of a rewrite: a short hash of its sorted victim paths."""
    paths = "\n".join(sorted(entry.path for entry in victims))
    return hashlib.sha256(paths.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class ArchiveObject:
    """One object to publish and the catalog entries its bytes hold."""

    key: str
    blob: bytes
    entries: tuple[LogBlockEntry, ...]


class Janitor:
    """Publishes archived objects and retires them: catalog entry, one
    DELETE, cache keys."""

    def __init__(
        self,
        catalog: Catalog,
        store,
        bucket: str,
        invalidate: Callable[[str], None] | None = None,
        obs: Observability | None = None,
        clock: Clock | None = None,
        max_upload_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ) -> None:
        self._catalog = catalog
        self._store = store
        self._bucket = bucket
        self._invalidate = invalidate
        self._upload = RetryingObjectStore(
            store, max_attempts=max_upload_attempts, clock=clock
        )
        self._orphans: dict[str, None] = {}  # ordered set: a path is queued once
        registry = (obs if obs is not None else Observability.noop()).registry
        self._orphans_swept_total = registry.counter(
            "logstore_lifecycle_orphans_swept_total",
            "Orphaned OSS objects cleaned up by the janitor.",
        )

    @property
    def bucket(self) -> str:
        return self._bucket

    @property
    def store(self) -> RetryingObjectStore:
        """The retrying view of the store: publishes PUT through it, and
        archivers read the blocks they rewrite through it."""
        return self._upload

    @property
    def upload_stats(self) -> RetryStats:
        """Cumulative retry counters of every call through :attr:`store`."""
        return self._upload.stats

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

    def publish(
        self, objects: list[ArchiveObject], victims: Sequence[LogBlockEntry] = ()
    ) -> list[LogBlockEntry]:
        """PUT every object, then register every entry, then retire
        ``victims``.  Returns the entries this call registered: an entry
        already in the catalog (a replayed archive) is left as it is.

        If a PUT fails, the catalog is untouched, the keys this call
        created and the in-flight one are discarded, and the error
        propagates — the caller retries the whole publish later.
        """
        created: list[str] = []
        for obj in objects:
            try:
                if self._upload.put(self._bucket, obj.key, obj.blob):
                    created.append(obj.key)
            except BaseException:
                for path in (*created, obj.key):
                    self.discard(path)
                raise
        registered = [
            entry
            for obj in objects
            for entry in obj.entries
            if self._catalog.add_block(entry)
        ]
        self.retire(victims)
        return registered

    def discard(self, path: str) -> bool:
        """DELETE an object no live catalog entry references.  True once
        it is gone; False when the DELETE failed (the path is queued) or
        a live entry references the object (it stays)."""
        if self._catalog.references(path):
            self._orphans.pop(path, None)
            return False
        try:
            self._store.delete(self._bucket, path)
        except NoSuchKey:
            pass
        except Exception:
            self._orphans[path] = None
            return False
        self._orphans.pop(path, None)
        return True

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
        listed = self._store.list(self._bucket, "tenants/")
        return self._count_swept(
            sum(self.discard(s.key) for s in listed if s.key.endswith((".lgb", ".seg")))
        )

    def _release(self, entries: list[LogBlockEntry]) -> dict[str, bool]:
        unreferenced = dict.fromkeys(
            entry.object_path
            for entry in entries
            if not self._catalog.references(entry.object_path)
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
