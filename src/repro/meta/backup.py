"""Tenant backup, restore and migration tasks.

§3 motivates the tar packaging with "tasks like backup, migration, and
data expiration": because a tenant's data is a directory of immutable
packed LogBlocks plus catalog rows, backing a tenant up is a prefix
copy plus one manifest object, and restoring is the inverse — no other
tenant's data is read or written.

The backup manifest (``_backup/<tenant>/tenant.manifest``) is the
tenant's record and every block's catalog entry in the tenant manifest
format (:mod:`repro.meta.manifest`), so a restore rebuilds the tenant
and its LogBlock map without parsing any data.  A cold block is a
member of a segment object: the segment is what is copied, once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import CatalogError, NoSuchKey
from repro.meta.catalog import Catalog, LogBlockEntry
from repro.meta.janitor import Janitor
from repro.meta.manifest import decode_manifest, encode_manifest, install_tenant
from repro.oss.metered import MeteredObjectStore


def manifest_key(tenant_id: int) -> str:
    """OSS key of a tenant's backup manifest."""
    return f"_backup/{tenant_id}/tenant.manifest"


@dataclass
class BackupReport:
    """Outcome of one backup/restore/migration.  The counts are of
    objects: a cold segment holding several blocks counts once."""

    tenant_id: int
    blocks_copied: int = 0
    bytes_copied: int = 0
    blocks_skipped: int = 0  # already present at the destination
    entries: list[LogBlockEntry] = field(default_factory=list)


class BackupTask:
    """Copies one tenant's LogBlocks + catalog state between stores."""

    def __init__(
        self,
        catalog: Catalog,
        store: MeteredObjectStore,
        bucket: str,
        janitor: Janitor,
    ) -> None:
        self._catalog = catalog
        self._store = store
        self._bucket = bucket
        self._janitor = janitor

    def backup_tenant(
        self,
        tenant_id: int,
        destination: MeteredObjectStore,
        dest_bucket: str,
    ) -> BackupReport:
        """Copy every object of ``tenant_id`` plus a manifest object.

        Idempotent: objects already present at the destination (immutable,
        same key) are skipped, so an interrupted backup can be re-run.
        """
        info = self._catalog.tenant(tenant_id)
        destination.create_bucket(dest_bucket)
        report = _copy_objects(
            tenant_id, info.blocks, self._store, self._bucket, destination, dest_bucket
        )
        key = manifest_key(tenant_id)
        try:
            destination.delete(dest_bucket, key)  # manifests are replaceable
        except NoSuchKey:
            pass
        destination.put(dest_bucket, key, encode_manifest([info]))
        return report

    @staticmethod
    def restore_tenant(
        backup_store: MeteredObjectStore,
        backup_bucket: str,
        tenant_id: int,
        catalog: Catalog,
        destination: MeteredObjectStore,
        dest_bucket: str,
    ) -> BackupReport:
        """Rebuild a tenant from a backup into a (possibly fresh) cluster.

        Copies the objects, then registers the tenant (unless ``catalog``
        has it) and every block in ``catalog``.  Fails if the tenant
        already has blocks registered (restore into a clean slate, or
        purge first).
        """
        manifest = decode_manifest(backup_store.get(backup_bucket, manifest_key(tenant_id)))
        if [record.tenant_id for record in manifest.tenants] != [tenant_id]:
            raise CatalogError(f"backup manifest is not tenant {tenant_id}'s alone")
        if catalog.blocks_for(tenant_id):
            raise CatalogError(
                f"tenant {tenant_id} already has data; purge before restoring"
            )
        (record,) = manifest.tenants
        report = _copy_objects(
            tenant_id, record.blocks, backup_store, backup_bucket, destination, dest_bucket
        )
        install_tenant(catalog, record)
        return report

    def migrate_tenant(
        self,
        tenant_id: int,
        destination_catalog: Catalog,
        destination: MeteredObjectStore,
        dest_bucket: str,
        purge_source: bool = True,
    ) -> BackupReport:
        """Move a tenant to another cluster: backup + restore (+ purge)."""
        self.backup_tenant(tenant_id, destination, dest_bucket)
        report = self.restore_tenant(
            destination, dest_bucket, tenant_id, destination_catalog, destination, dest_bucket
        )
        if purge_source:
            self._janitor.drop_tenant(tenant_id)
        return report


def _copy_objects(
    tenant_id: int,
    entries,
    source: MeteredObjectStore,
    source_bucket: str,
    destination: MeteredObjectStore,
    dest_bucket: str,
) -> BackupReport:
    """Copy each distinct object holding ``entries`` once; one already
    at the destination (immutable, same key) is skipped."""
    report = BackupReport(tenant_id=tenant_id, entries=list(entries))
    for path in dict.fromkeys(entry.object_path for entry in entries):
        if destination.exists(dest_bucket, path):
            report.blocks_skipped += 1
        else:
            blob = source.get(source_bucket, path)
            destination.put(dest_bucket, path, blob)
            report.blocks_copied += 1
            report.bytes_copied += len(blob)
    return report
