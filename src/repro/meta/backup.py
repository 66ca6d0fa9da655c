"""Tenant backup, restore and migration tasks.

§3 motivates the tar packaging with "tasks like backup, migration, and
data expiration": because a tenant's data is a directory of immutable
packed LogBlocks plus catalog rows, backing a tenant up is a prefix
copy plus one manifest object, and restoring is the inverse — no other
tenant's data is read or written.

The backup manifest (``_backup/<tenant>/manifest.json``) records every
block's catalog entry so a restore can rebuild the LogBlock map without
parsing any data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.common.errors import CatalogError, NoSuchKey, TenantNotFound
from repro.meta.catalog import Catalog, LogBlockEntry
from repro.meta.janitor import Janitor
from repro.oss.metered import MeteredObjectStore

MANIFEST_VERSION = 1


def _manifest_key(tenant_id: int) -> str:
    return f"_backup/{tenant_id}/manifest.json"


@dataclass
class BackupReport:
    """Outcome of one backup/restore/migration."""

    tenant_id: int
    blocks_copied: int = 0
    bytes_copied: int = 0
    blocks_skipped: int = 0  # already present at the destination
    entries: list[LogBlockEntry] = field(default_factory=list)


def _serialize_entries(tenant_id: int, entries: list[LogBlockEntry]) -> bytes:
    payload = {
        "version": MANIFEST_VERSION,
        "tenant_id": tenant_id,
        "blocks": [
            {
                "min_ts": entry.min_ts,
                "max_ts": entry.max_ts,
                "path": entry.path,
                "size_bytes": entry.size_bytes,
                "row_count": entry.row_count,
            }
            for entry in entries
        ],
    }
    return json.dumps(payload, indent=2).encode("utf-8")


def _deserialize_entries(data: bytes) -> tuple[int, list[LogBlockEntry]]:
    payload = json.loads(data.decode("utf-8"))
    if payload.get("version") != MANIFEST_VERSION:
        raise CatalogError(f"unsupported backup manifest version {payload.get('version')}")
    tenant_id = payload["tenant_id"]
    entries = [
        LogBlockEntry(
            tenant_id=tenant_id,
            min_ts=block["min_ts"],
            max_ts=block["max_ts"],
            path=block["path"],
            size_bytes=block["size_bytes"],
            row_count=block["row_count"],
        )
        for block in payload["blocks"]
    ]
    return tenant_id, entries


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
        """Copy every block of ``tenant_id`` plus a manifest object.

        Idempotent: blocks already present at the destination (immutable,
        same path) are skipped, so an interrupted backup can be re-run.
        """
        entries = self._catalog.blocks_for(tenant_id)
        if not entries:
            # Distinguish "no data" from "no such tenant".
            self._catalog.tenant(tenant_id)  # raises TenantNotFound
        report = BackupReport(tenant_id=tenant_id)
        destination.create_bucket(dest_bucket)
        for entry in entries:
            if destination.exists(dest_bucket, entry.path):
                report.blocks_skipped += 1
            else:
                blob = self._store.get(self._bucket, entry.path)
                destination.put(dest_bucket, entry.path, blob)
                report.blocks_copied += 1
                report.bytes_copied += len(blob)
            report.entries.append(entry)
        manifest = _serialize_entries(tenant_id, entries)
        key = _manifest_key(tenant_id)
        try:
            destination.delete(dest_bucket, key)  # manifests are replaceable
        except NoSuchKey:
            pass
        destination.put(dest_bucket, key, manifest)
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

        Re-registers every block in ``catalog`` and copies the objects.
        Fails if the tenant already has blocks registered (restore into
        a clean slate, or purge first).
        """
        manifest = backup_store.get(backup_bucket, _manifest_key(tenant_id))
        manifest_tenant, entries = _deserialize_entries(manifest)
        if manifest_tenant != tenant_id:
            raise CatalogError(
                f"backup manifest is for tenant {manifest_tenant}, not {tenant_id}"
            )
        if catalog.blocks_for(tenant_id):
            raise CatalogError(
                f"tenant {tenant_id} already has data; purge before restoring"
            )
        report = BackupReport(tenant_id=tenant_id)
        for entry in entries:
            blob = backup_store.get(backup_bucket, entry.path)
            if destination.exists(dest_bucket, entry.path):
                report.blocks_skipped += 1
            else:
                destination.put(dest_bucket, entry.path, blob)
                report.blocks_copied += 1
                report.bytes_copied += len(blob)
            catalog.add_block(entry)
            report.entries.append(entry)
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
        try:
            info = self._catalog.tenant(tenant_id)
            destination_catalog.register_tenant(
                tenant_id, name=info.name, retention_s=info.retention_s
            )
        except TenantNotFound:
            raise
        except CatalogError:
            pass  # already registered at the destination
        report = self.restore_tenant(
            destination, dest_bucket, tenant_id, destination_catalog, destination, dest_bucket
        )
        if purge_source:
            self._janitor.drop_tenant(tenant_id)
        return report
