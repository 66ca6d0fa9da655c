"""DataBuilder: sealed memtables → per-tenant LogBlocks on OSS (§3.1).

Phase 2 of the hybrid write path.  The row-store table — "organized
only by the timestamp, rather than separated by tenants" — is divided
per tenant, each tenant's rows are chunked into LogBlocks of at most
``target_rows`` rows (sorted by timestamp), encoded with
:class:`~repro.logblock.writer.LogBlockWriter`, uploaded under the
tenant's OSS directory, and registered in the catalog's LogBlock map so
brokers can find them.

Two halves, both in a fixed tenant order, so object names, catalog
contents and registration order depend only on the rows:

* **build** (CPU: encoding, compression, index construction), tenant
  by tenant;
* **upload + register** (I/O + metadata), after every block is built.

Uploads go through :class:`~repro.oss.retry.RetryingObjectStore`; how
often the retry layer had to intervene surfaces as
``BuildReport.upload_retries``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.codec.registry import DEFAULT_CODEC
from repro.common.clock import Clock, VirtualClock
from repro.common.errors import BuildError
from repro.logblock.schema import TableSchema
from repro.logblock.writer import DEFAULT_BLOCK_ROWS, LogBlockWriter
from repro.meta.catalog import Catalog, LogBlockEntry
from repro.meta.janitor import Janitor
from repro.obs.context import Observability
from repro.oss.retry import (
    DEFAULT_BACKOFF_S,
    DEFAULT_MAX_ATTEMPTS,
    RetryingObjectStore,
)
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
    ``entries`` lists every LogBlock registered, in registration order.
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


@dataclass(frozen=True)
class _BuiltBlock:
    """One encoded-but-not-yet-uploaded LogBlock."""

    tenant_id: int
    path: str
    blob: bytes
    min_ts: int
    max_ts: int
    row_count: int
    # The writer's EncodeStats, carried out of the parallel build stage
    # and folded into the registry serially (registries are not assumed
    # thread-safe for interleaved label creation).
    encode_stats: object = None


def block_path(tenant_id: int, memtable_seq: int, chunk_idx: int, min_ts: int, max_ts: int) -> str:
    """Deterministic OSS key for one archived LogBlock.

    Stable under parallel builds (the sequence numbers are assigned
    before the fan-out) and matches the ``tenants/<id>/*.lgb`` layout
    the catalog-rebuild scan expects.
    """
    return (
        f"tenants/{tenant_id}/"
        f"mt{memtable_seq:06d}-{chunk_idx:04d}-{min_ts}-{max_ts}.lgb"
    )


class DataBuilder:
    """Converts sealed memtables into per-tenant LogBlocks on OSS."""

    def __init__(
        self,
        schema: TableSchema,
        oss,
        bucket: str,
        catalog: Catalog,
        janitor: Janitor,
        codec: str = DEFAULT_CODEC,
        block_rows: int = DEFAULT_BLOCK_ROWS,
        target_rows: int = DEFAULT_TARGET_ROWS,
        build_indexes: bool = True,
        max_upload_attempts: int = DEFAULT_MAX_ATTEMPTS,
        upload_backoff_s: float = DEFAULT_BACKOFF_S,
        retry_clock: Clock | None = None,
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
        self._bucket = bucket
        self._catalog = catalog
        self._janitor = janitor
        self._codec = codec
        self._block_rows = block_rows
        self._target_rows = target_rows
        self._build_indexes = build_indexes
        self._upload = RetryingObjectStore(
            oss,
            max_attempts=max_upload_attempts,
            backoff_s=upload_backoff_s,
            clock=retry_clock if retry_clock is not None else VirtualClock(),
        )
        self._memtable_seq = 0
        self._lock = threading.Lock()

    @property
    def schema(self) -> TableSchema:
        """The schema blocks are written under.

        The catalog is the schema authority (§3: DDL goes through the
        controller), so archiving always uses its *live* schema — rows
        ingested before an additive DDL archive under the evolved
        schema, with the new columns as nulls.
        """
        return self._catalog.schema if self._catalog is not None else self._schema

    @property
    def upload_stats(self):
        """Cumulative :class:`~repro.oss.retry.RetryStats` of all uploads."""
        return self._upload.stats

    # -- the conversion ----------------------------------------------------

    def archive_memtable(self, memtable: MemTable, report: BuildReport | None = None) -> BuildReport:
        """Convert one sealed memtable; returns the (given) report.

        Splits the memtable per tenant, builds LogBlocks of at most
        ``target_rows`` timestamp-sorted rows each, uploads them, and
        registers a :class:`~repro.meta.catalog.LogBlockEntry` per block.  The
        whole call is serialized per builder so that concurrent workers
        sharing one builder still produce deterministic object names.
        """
        if not memtable.sealed:
            raise BuildError("cannot archive an unsealed memtable; seal it first")
        if report is None:
            report = BuildReport()
        with self._obs.tracer.span(
            "builder.archive", rows=len(memtable)
        ), self._lock:
            memtable_seq = self._memtable_seq
            self._memtable_seq += 1

            ts_column = memtable.ts_column
            groups = memtable.rows_by_tenant()
            tenant_order = sorted(groups)
            schema = self.schema  # live catalog schema, fixed for this memtable

            build_start = time.perf_counter()
            built_per_tenant = [
                self._build_tenant(schema, tenant_id, groups[tenant_id], ts_column, memtable_seq)
                for tenant_id in tenant_order
            ]
            report.build_s += time.perf_counter() - build_start

            upload_start = time.perf_counter()
            retries_before = self._upload.stats.retries
            all_built = [b for blocks in built_per_tenant for b in blocks]
            # Upload every block BEFORE registering any of them, so the
            # memtable archives all-or-nothing.  A failure mid-upload
            # leaves the catalog untouched; the janitor deletes the
            # already-uploaded blocks (queueing any delete that fails
            # during the outage) and the caller can retry the whole
            # memtable without duplicating rows.
            uploaded = 0
            try:
                for built in all_built:
                    self._catalog.ensure_tenant(built.tenant_id)
                    self._upload.put(self._bucket, built.path, built.blob)
                    uploaded += 1
            except BaseException as exc:
                report.upload_retries += self._upload.stats.retries - retries_before
                report.upload_s += time.perf_counter() - upload_start
                self._janitor.discard_failed_upload(
                    [built.path for built in all_built], uploaded, exc
                )
                raise
            for built in all_built:
                self._register(built, report)
            report.upload_retries += self._upload.stats.retries - retries_before
            report.upload_s += time.perf_counter() - upload_start

            report.memtables_converted += 1
            self._memtables_total.add()
            for tenant_id, blocks in zip(tenant_order, built_per_tenant):
                self._obs.journal.emit(
                    "builder.archive",
                    f"memtable{memtable_seq}",
                    detail=f"blocks={len(blocks)} rows={len(groups[tenant_id])}",
                    tenant_id=tenant_id,
                )
        return report

    def _build_tenant(
        self,
        schema: TableSchema,
        tenant_id: int,
        rows: RowSelection,
        ts_column: str,
        memtable_seq: int,
    ) -> list[_BuiltBlock]:
        """Encode one tenant's LogBlocks."""
        # The one gather of the archive path, schema columns only (keys
        # the schema does not know were carried this far and end here):
        # a typed memtable column as one vector ``take``.
        columns = {
            name: col
            for name in schema.column_names()
            if (col := rows.column(name, typed=True)) is not None
        }
        built: list[_BuiltBlock] = []
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
            # rows_by_tenant() yields timestamp order, so the chunk
            # bounds are its first/last rows.
            ts = columns[ts_column][chunk_idx:chunk_end]
            min_ts, max_ts = int(ts[0]), int(ts[-1])
            built.append(
                _BuiltBlock(
                    tenant_id=tenant_id,
                    path=block_path(
                        tenant_id,
                        memtable_seq,
                        chunk_idx // self._target_rows,
                        min_ts,
                        max_ts,
                    ),
                    blob=blob,
                    min_ts=min_ts,
                    max_ts=max_ts,
                    row_count=len(ts),
                    encode_stats=writer.encode_stats,
                )
            )
        return built

    def _register(self, built: _BuiltBlock, report: BuildReport) -> None:
        self._encode_modes.record(built.encode_stats)
        entry = LogBlockEntry(
            tenant_id=built.tenant_id,
            min_ts=built.min_ts,
            max_ts=built.max_ts,
            path=built.path,
            size_bytes=len(built.blob),
            row_count=built.row_count,
        )
        self._catalog.add_block(entry)
        report.blocks_written += 1
        report.rows_archived += built.row_count
        report.bytes_uploaded += len(built.blob)
        self._blocks_total.add()
        self._rows_total.add(built.row_count)
        self._bytes_total.add(len(built.blob))
        stats = report.tenant(built.tenant_id)
        stats.blocks_written += 1
        stats.rows_archived += built.row_count
        stats.bytes_uploaded += len(built.blob)
        report.entries.append(entry)
