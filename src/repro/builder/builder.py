"""DataBuilder: sealed memtables → per-tenant LogBlocks on OSS (§3.1).

Phase 2 of the hybrid write path.  The row-store table — "organized
only by the timestamp, rather than separated by tenants" — is divided
per tenant, each tenant's rows are chunked into LogBlocks of at most
``target_rows`` rows (sorted by timestamp), encoded with
:class:`~repro.logblock.writer.LogBlockWriter`, uploaded under the
tenant's OSS directory, and registered in the catalog's LogBlock map so
brokers can find them.

Two halves, both in a fixed tenant order, so catalog contents and
registration order depend only on the rows:

* **build** (CPU: encoding, compression, index construction), tenant
  by tenant;
* **publish** (I/O + metadata) through :meth:`Janitor.publish
  <repro.meta.janitor.Janitor.publish>`, after every block is built.

Each block is named by its table's ``source`` (``s<shard>-<seal seq>``,
the same on every replica and every WAL replay) and its bytes, so
archiving a table again after a crash before its drain re-finds the
blocks already registered instead of adding a second copy.  How often
the upload retries had to intervene surfaces as
``BuildReport.upload_retries``.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.codec.registry import DEFAULT_CODEC
from repro.common.errors import BuildError
from repro.logblock.schema import TableSchema
from repro.logblock.writer import DEFAULT_BLOCK_ROWS, LogBlockWriter
from repro.meta.catalog import Catalog, LogBlockEntry
from repro.meta.janitor import ArchiveObject, Janitor, object_key
from repro.obs.context import Observability
from repro.rowstore.batch import RowSelection
from repro.rowstore.memtable import MemTable

DEFAULT_TARGET_ROWS = 200_000


@dataclass
class TenantBuildStats:
    """Per-tenant slice of a :class:`BuildReport` (the billing view)."""

    tenant_id: int
    blocks_written: int = 0
    rows_archived: int = 0
    bytes_uploaded: int = 0

    def merge(self, other: "TenantBuildStats") -> "TenantBuildStats":
        if other.tenant_id != self.tenant_id:
            raise BuildError(
                f"cannot merge stats of tenant {other.tenant_id} into {self.tenant_id}"
            )
        self.blocks_written += other.blocks_written
        self.rows_archived += other.rows_archived
        self.bytes_uploaded += other.bytes_uploaded
        return self


@dataclass
class BuildReport:
    """Mergeable counters for one or more archiving runs.

    Workers fill one report per :meth:`DataBuilder.archive_memtable`
    call; the controller merges worker reports into a cluster-wide one.
    ``entries`` lists every LogBlock registered, in registration order;
    blocks a replayed archive found registered already are not counted.
    """

    memtables_converted: int = 0
    blocks_written: int = 0
    rows_archived: int = 0
    bytes_uploaded: int = 0
    upload_retries: int = 0
    build_s: float = 0.0
    upload_s: float = 0.0
    per_tenant: dict[int, TenantBuildStats] = field(default_factory=dict)
    entries: list[LogBlockEntry] = field(default_factory=list)

    def tenant(self, tenant_id: int) -> TenantBuildStats:
        """Get-or-create the per-tenant slice."""
        stats = self.per_tenant.get(tenant_id)
        if stats is None:
            stats = TenantBuildStats(tenant_id)
            self.per_tenant[tenant_id] = stats
        return stats

    def merge(self, other: "BuildReport") -> "BuildReport":
        """Fold ``other`` into this report (in place); returns ``self``."""
        self.memtables_converted += other.memtables_converted
        self.blocks_written += other.blocks_written
        self.rows_archived += other.rows_archived
        self.bytes_uploaded += other.bytes_uploaded
        self.upload_retries += other.upload_retries
        self.build_s += other.build_s
        self.upload_s += other.upload_s
        for tenant_id, stats in other.per_tenant.items():
            self.tenant(tenant_id).merge(stats)
        self.entries.extend(other.entries)
        return self


class DataBuilder:
    """Converts sealed memtables into per-tenant LogBlocks on OSS."""

    def __init__(
        self,
        schema: TableSchema,
        catalog: Catalog,
        janitor: Janitor,
        codec: str = DEFAULT_CODEC,
        block_rows: int = DEFAULT_BLOCK_ROWS,
        target_rows: int = DEFAULT_TARGET_ROWS,
        build_indexes: bool = True,
        obs: Observability | None = None,
    ) -> None:
        if target_rows <= 0:
            raise BuildError(f"target_rows must be positive, got {target_rows}")
        self._obs = obs if obs is not None else Observability.noop()
        registry = self._obs.registry
        self._memtables_total = registry.counter(
            "logstore_builder_memtables_total", "Sealed memtables archived."
        )
        self._blocks_total = registry.counter(
            "logstore_builder_blocks_written_total", "LogBlocks written to OSS."
        )
        self._rows_total = registry.counter(
            "logstore_builder_rows_archived_total", "Rows archived to OSS."
        )
        self._bytes_total = registry.counter(
            "logstore_builder_bytes_uploaded_total", "LogBlock bytes uploaded."
        )
        from repro.obs.recorders import EncodeModeRecorder

        self._encode_modes = EncodeModeRecorder(registry)
        self._schema = schema
        self._catalog = catalog
        self._janitor = janitor
        self._codec = codec
        self._block_rows = block_rows
        self._target_rows = target_rows
        self._build_indexes = build_indexes

    @property
    def schema(self) -> TableSchema:
        """The schema blocks are written under.

        The catalog is the schema authority (§3: DDL goes through the
        controller), so archiving always uses its *live* schema — rows
        ingested before an additive DDL archive under the evolved
        schema, with the new columns as nulls.
        """
        return self._catalog.schema if self._catalog is not None else self._schema

    # -- the conversion ----------------------------------------------------

    def archive_memtable(
        self, memtable: MemTable, source: str, report: BuildReport | None = None
    ) -> BuildReport:
        """Convert one sealed memtable; returns the (given) report.

        Splits the memtable per tenant, builds LogBlocks of at most
        ``target_rows`` timestamp-sorted rows each, and publishes them
        with a :class:`~repro.meta.catalog.LogBlockEntry` per block —
        all or nothing.  ``source`` names the table (``s<shard>-<seal
        seq>``); archiving the same rows under the same source again
        before the shard drained them stores nothing, even when the
        schema changed or a compaction, sweep or offboard retired their
        blocks since.
        """
        if not memtable.sealed:
            raise BuildError("cannot archive an unsealed memtable; seal it first")
        if report is None:
            report = BuildReport()
        fingerprint = memtable.fingerprint()
        if self._catalog.published(source, fingerprint):
            return report
        with self._obs.tracer.span("builder.archive", rows=len(memtable)):
            ts_column = memtable.ts_column
            groups = memtable.rows_by_tenant()
            tenant_order = sorted(groups)
            schema = self.schema  # live catalog schema, fixed for this memtable

            build_start = time.perf_counter()
            built_per_tenant = [
                self._build_tenant(schema, tenant_id, groups[tenant_id], ts_column, source)
                for tenant_id in tenant_order
            ]
            report.build_s += time.perf_counter() - build_start

            upload_start = time.perf_counter()
            retries_before = self._janitor.upload_stats.retries
            try:
                registered = self._janitor.publish(
                    [block for blocks in built_per_tenant for block in blocks]
                )
            finally:
                report.upload_retries += self._janitor.upload_stats.retries - retries_before
                report.upload_s += time.perf_counter() - upload_start
            for entry in registered:
                self._count(entry, report)
            self._catalog.note_published(source, fingerprint)

            report.memtables_converted += 1
            self._memtables_total.add()
            for tenant_id, blocks in zip(tenant_order, built_per_tenant):
                self._obs.journal.emit(
                    "builder.archive",
                    source,
                    detail=f"blocks={len(blocks)} rows={len(groups[tenant_id])}",
                    tenant_id=tenant_id,
                )
        return report

    def drained(self, sources: Iterable[str]) -> None:
        """The shard drained these archived tables: no replay brings
        them back."""
        self._catalog.note_drained(sources)

    def _build_tenant(
        self,
        schema: TableSchema,
        tenant_id: int,
        rows: RowSelection,
        ts_column: str,
        source: str,
    ) -> list[ArchiveObject]:
        """Encode one tenant's LogBlocks."""
        # The one gather of the archive path, schema columns only (keys
        # the schema does not know were carried this far and end here):
        # a typed memtable column as one vector ``take``.
        columns = {
            name: col
            for name in schema.column_names()
            if (col := rows.column(name, typed=True)) is not None
        }
        built: list[ArchiveObject] = []
        for chunk_idx in range(0, len(rows), self._target_rows):
            chunk_end = chunk_idx + self._target_rows
            writer = LogBlockWriter(
                schema,
                codec=self._codec,
                block_rows=self._block_rows,
                build_indexes=self._build_indexes,
            )
            writer.append_columns(
                {name: col[chunk_idx:chunk_end] for name, col in columns.items()}
            )
            blob = writer.finish()
            self._encode_modes.record(writer.encode_stats)
            # rows_by_tenant() yields timestamp order, so the chunk
            # bounds are its first/last rows.
            ts = columns[ts_column][chunk_idx:chunk_end]
            key = object_key(tenant_id, source, blob, len(built))
            entry = LogBlockEntry(
                tenant_id=tenant_id,
                min_ts=int(ts[0]),
                max_ts=int(ts[-1]),
                path=key,
                size_bytes=len(blob),
                row_count=len(ts),
            )
            built.append(ArchiveObject(key, blob, (entry,)))
        return built

    def _count(self, entry: LogBlockEntry, report: BuildReport) -> None:
        report.blocks_written += 1
        report.rows_archived += entry.row_count
        report.bytes_uploaded += entry.size_bytes
        self._blocks_total.add()
        self._rows_total.add(entry.row_count)
        self._bytes_total.add(entry.size_bytes)
        stats = report.tenant(entry.tenant_id)
        stats.blocks_written += 1
        stats.rows_archived += entry.row_count
        stats.bytes_uploaded += entry.size_bytes
        report.entries.append(entry)
