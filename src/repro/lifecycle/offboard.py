"""Tenant offboarding: portable export, then a *verified* full delete.

A departing tenant gets two guarantees:

* **Portability** — every LogBlock (hot object or cold-segment member)
  is copied, byte-for-byte, into one tar-packed archive under
  ``_export/``, alongside the tenant's manifest
  (:mod:`repro.meta.manifest`): its record and every block's catalog
  entry, the block at position *i* being member :func:`export_member`.
  The members are self-contained LogBlocks, so the archive is readable
  with nothing but :mod:`repro.tarpack`, :mod:`repro.logblock` and
  :mod:`repro.meta.manifest`.
* **Proof of deletion** — after the delete, verification re-checks the
  three places data could hide: the catalog (tenant unregistered), the
  OSS listing (``tenants/<id>/`` empty), and — at the cluster facade —
  a live query returning zero rows.  The report carries any residue
  found, so "deleted" is a checked claim, not an assumption.

Offboarding is idempotent: re-running after a mid-delete crash (or
against an already-gone tenant) re-deletes what remains and re-verifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import TenantNotFound
from repro.meta.catalog import Catalog
from repro.meta.janitor import Janitor
from repro.meta.manifest import encode_manifest
from repro.obs.context import Observability
from repro.tarpack.packer import PackBuilder

EVENT_LIFECYCLE_OFFBOARD = "lifecycle.offboard"

EXPORT_MANIFEST_MEMBER = "tenant.manifest"


def export_path(tenant_id: int) -> str:
    """OSS key of a tenant's offboarding archive."""
    return f"_export/tenant-{tenant_id:06d}.pack"


def export_member(position: int) -> str:
    """Archive member of the manifest's ``position``-th block."""
    return f"block-{position:06d}.lgb"


@dataclass
class OffboardReport:
    """Everything one offboarding run did — and proved."""

    tenant_id: int
    export_key: str | None = None
    exported_blocks: int = 0
    exported_bytes: int = 0
    deleted_objects: int = 0
    failed_deletes: int = 0
    query_rows: int | None = None
    residue: list[str] = field(default_factory=list)
    verified: bool = False


class TenantOffboarder:
    """Export-then-delete with built-in residue verification."""

    def __init__(
        self,
        catalog: Catalog,
        store,
        bucket: str,
        janitor: Janitor,
        obs: Observability | None = None,
    ) -> None:
        self._catalog = catalog
        self._store = store
        self._bucket = bucket
        self._janitor = janitor
        self._obs = obs if obs is not None else Observability.noop()
        registry = self._obs.registry
        self._offboards_total = registry.counter(
            "logstore_lifecycle_offboards_total", "Tenants offboarded."
        )
        self._exported_bytes_total = registry.counter(
            "logstore_lifecycle_exported_bytes_total",
            "Bytes written to offboarding archives.",
        )

    # -- export ------------------------------------------------------------

    def export_tenant(self, tenant_id: int) -> tuple[str, int, int]:
        """Pack the tenant's blocks + catalog manifest into ``_export/``.

        Returns ``(key, n_blocks, archive_bytes)``.  Reading data back
        is inherent to export — this is the one lifecycle operation
        that legitimately performs GETs.
        """
        info = self._catalog.tenant(tenant_id)
        blocks = list(info.blocks)
        builder = PackBuilder()
        for i, block in enumerate(blocks):
            if block.segment_path is None:
                blob = self._store.get(self._bucket, block.path)
            else:
                blob = self._store.get_range(
                    self._bucket,
                    block.segment_path,
                    block.segment_offset,
                    block.segment_length,
                )
            builder.add(export_member(i), blob)
        builder.add(EXPORT_MANIFEST_MEMBER, encode_manifest([info]))
        archive = builder.build()
        key = export_path(tenant_id)
        self._store.put(self._bucket, key, archive)
        self._exported_bytes_total.add(len(archive))
        self._obs.journal.emit(
            EVENT_LIFECYCLE_OFFBOARD,
            f"tenant{tenant_id}",
            detail=f"export blocks={len(blocks)} bytes={len(archive)} key={key}",
            tenant_id=tenant_id,
        )
        return key, len(blocks), len(archive)

    # -- delete + verify ---------------------------------------------------

    def offboard(self, tenant_id: int, export: bool = True) -> OffboardReport:
        """Export (optional), delete everything, then verify the delete."""
        report = OffboardReport(tenant_id=tenant_id)
        known = True
        try:
            self._catalog.tenant(tenant_id)
        except TenantNotFound:
            known = False  # idempotent re-run: nothing to export, verify only
        gone: list[bool] = []
        if known:
            if export:
                key, n_blocks, n_bytes = self.export_tenant(tenant_id)
                report.export_key = key
                report.exported_blocks = n_blocks
                report.exported_bytes = n_bytes
            gone += self._janitor.drop_tenant(tenant_id).values()
        # Stragglers outside the catalog (orphans from earlier crashes,
        # a DELETE that just failed) also belong to the departing
        # tenant: one more try by prefix listing.
        for stat in self._store.list(self._bucket, f"tenants/{tenant_id}/"):
            gone.append(self._janitor.discard(stat.key))
        report.deleted_objects = sum(gone)
        report.failed_deletes = len(gone) - report.deleted_objects
        report.residue = self.verify_residue(tenant_id)
        report.verified = not report.residue and report.failed_deletes == 0
        self._offboards_total.add()
        self._obs.journal.emit(
            EVENT_LIFECYCLE_OFFBOARD,
            f"tenant{tenant_id}",
            detail=(
                f"delete objects={report.deleted_objects} "
                f"failed={report.failed_deletes} verified={report.verified}"
            ),
            tenant_id=tenant_id,
        )
        return report

    def verify_residue(self, tenant_id: int) -> list[str]:
        """Anything of the tenant still in the catalog or OSS (LIST only)."""
        residue: list[str] = []
        try:
            info = self._catalog.tenant(tenant_id)
        except TenantNotFound:
            pass
        else:
            residue.append(f"catalog: tenant {tenant_id} still registered")
            for block in info.blocks:
                residue.append(f"catalog: block {block.path}")
        for stat in self._store.list(self._bucket, f"tenants/{tenant_id}/"):
            residue.append(f"oss: object {stat.key}")
        return residue
