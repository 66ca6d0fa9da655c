"""Background compaction: merge a tenant's small LogBlocks (§3.1).

Frequent archiving of a lightly loaded tenant produces many small
LogBlocks, each costing a catalog entry, an OSS object, and extra GET
round-trips at query time.  The compactor rewrites runs of small blocks
into right-sized ones: read the victims' columns back, merge them
by timestamp, re-encode at ``target_rows`` per block, and publish the
replacements through the janitor, which retires the victims after.

Because LogBlocks are immutable and self-contained, compaction is
crash-safe by ordering alone: new blocks are uploaded and registered
before any old block is removed, so every intermediate state is
queryable.  Outputs are named by their victims and their bytes, so a
rerun over the same victims re-finds what an interrupted run uploaded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.codec.registry import DEFAULT_CODEC
from repro.common.errors import BuildError
from repro.logblock.reader import LogBlockReader
from repro.logblock.schema import TableSchema
from repro.logblock.writer import DEFAULT_BLOCK_ROWS, LogBlockWriter
from repro.meta.catalog import TIER_HOT, Catalog, LogBlockEntry
from repro.meta.janitor import ArchiveObject, Janitor, object_key, rewrite_source
from repro.obs.context import Observability
from repro.tarpack.reader import PackReader


@dataclass
class CompactionResult:
    """What one :meth:`Compactor.compact_tenant` call did."""

    tenant_id: int
    blocks_before: int = 0
    blocks_after: int = 0
    rows_rewritten: int = 0
    bytes_before: int = 0
    bytes_after: int = 0
    upload_retries: int = 0

    @property
    def compacted(self) -> bool:
        return self.blocks_after > 0


def rewrite_blocks(
    store, bucket: str, victims: list[LogBlockEntry], schema: TableSchema,
    target_rows: int, **writer_options,
) -> list[tuple[LogBlockWriter, bytes, int, int, int]]:
    """Re-encode ``victims`` merged by timestamp, ``target_rows`` at a time.

    Returns ``(writer, blob, min_ts, max_ts, row_count)`` per output
    block.  Columns are read whole, concatenated and gathered by one
    stable argsort of ``ts`` (ties keep victim, then row order).  Each
    victim is read under its own self-contained schema: a block written
    before an additive DDL lacks the newest columns, and the rewrite
    surfaces those as nulls.
    """
    if "ts" not in schema.column_names():
        raise BuildError(f"schema {schema.name!r} has no 'ts' column to merge by")
    columns: dict[str, list] = {name: [] for name in schema.column_names()}
    total = 0
    for block in victims:
        reader = LogBlockReader(PackReader(store, bucket, block.path, block.size_bytes))
        stored = reader.meta().schema.column_names()
        for name, values in columns.items():
            values.extend(
                reader.read_column(name) if name in stored else [None] * reader.row_count
            )
        total += reader.row_count
    order = np.argsort(np.array(columns["ts"], dtype=np.int64), kind="stable").tolist()
    columns = {name: [values[i] for i in order] for name, values in columns.items()}
    rewritten = []
    for start in range(0, total, target_rows):
        chunk = {name: values[start : start + target_rows] for name, values in columns.items()}
        writer = LogBlockWriter(schema, **writer_options)
        writer.append_columns(chunk)
        ts = chunk["ts"]
        rewritten.append((writer, writer.finish(), int(ts[0]), int(ts[-1]), len(ts)))
    return rewritten


class Compactor:
    """Merges one tenant's small LogBlocks into ``target_rows``-sized ones."""

    def __init__(
        self,
        schema: TableSchema,
        catalog: Catalog,
        janitor: Janitor,
        codec: str = DEFAULT_CODEC,
        block_rows: int = DEFAULT_BLOCK_ROWS,
        small_threshold_rows: int = 10_000,
        target_rows: int = 200_000,
        build_indexes: bool = True,
        obs: Observability | None = None,
    ) -> None:
        if small_threshold_rows <= 0:
            raise BuildError(
                f"small_threshold_rows must be positive, got {small_threshold_rows}"
            )
        if target_rows < small_threshold_rows:
            raise BuildError(
                f"target_rows ({target_rows}) must be >= small_threshold_rows "
                f"({small_threshold_rows}); compaction output would stay small"
            )
        self._schema = schema
        self._catalog = catalog
        self._janitor = janitor
        self._codec = codec
        self._block_rows = block_rows
        self._small_threshold = small_threshold_rows
        self._target_rows = target_rows
        self._build_indexes = build_indexes
        self._obs = obs if obs is not None else Observability.noop()
        registry = self._obs.registry
        self._runs_total = registry.counter(
            "logstore_compaction_runs_total", "Compaction runs that merged blocks."
        )
        self._blocks_merged_total = registry.counter(
            "logstore_compaction_blocks_merged_total", "Small blocks retired."
        )
        self._rows_rewritten_total = registry.counter(
            "logstore_compaction_rows_rewritten_total", "Rows rewritten by compaction."
        )
        from repro.obs.recorders import EncodeModeRecorder

        self._encode_modes = EncodeModeRecorder(registry)

    def candidates(self, tenant_id: int) -> list[LogBlockEntry]:
        """The tenant's hot blocks below the small-block threshold (a
        cold member is no object of its own; its segment is packed)."""
        return [
            block
            for block in self._catalog.blocks_for(tenant_id)
            if block.tier == TIER_HOT and block.row_count < self._small_threshold
        ]

    def compact_tenant(self, tenant_id: int) -> CompactionResult:
        """Merge the tenant's small blocks; no-op below two victims."""
        result = CompactionResult(tenant_id=tenant_id)
        victims = self.candidates(tenant_id)
        if len(victims) < 2:
            return result
        with self._obs.tracer.span(
            "builder.compact", tenant=tenant_id, victims=len(victims)
        ):
            self._compact(tenant_id, victims, result)
        self._runs_total.add()
        self._blocks_merged_total.add(result.blocks_before)
        self._rows_rewritten_total.add(result.rows_rewritten)
        if result.compacted:
            self._obs.journal.emit(
                "compactor.compact",
                f"tenant{tenant_id}",
                detail=f"blocks {result.blocks_before}->{result.blocks_after} "
                f"rows={result.rows_rewritten}",
                tenant_id=tenant_id,
            )
        return result

    def _compact(
        self, tenant_id: int, victims: list[LogBlockEntry], result: CompactionResult
    ) -> None:
        result.blocks_before = len(victims)
        result.bytes_before = sum(block.size_bytes for block in victims)
        janitor = self._janitor
        retries_before = janitor.upload_stats.retries  # victim reads retry too
        source = rewrite_source(victims)
        outputs: list[ArchiveObject] = []
        for writer, blob, min_ts, max_ts, row_count in rewrite_blocks(
            janitor.store, janitor.bucket, victims, self._schema, self._target_rows,
            codec=self._codec,
            block_rows=self._block_rows,
            build_indexes=self._build_indexes,
        ):
            self._encode_modes.record(writer.encode_stats)
            key = object_key(tenant_id, source, blob, len(outputs))
            entry = LogBlockEntry(tenant_id, min_ts, max_ts, key, len(blob), row_count)
            outputs.append(ArchiveObject(key, blob, (entry,)))

        # The victims' entries go even when an object DELETE fails (the
        # rows already live in the outputs; keeping a victim registered
        # would double-count them) — the janitor queues the object.
        try:
            janitor.publish(outputs, victims)
        finally:
            result.upload_retries = janitor.upload_stats.retries - retries_before
        result.blocks_after = len(outputs)
        result.bytes_after = sum(len(obj.blob) for obj in outputs)
        result.rows_rewritten = sum(e.row_count for obj in outputs for e in obj.entries)

    def compact_all(self) -> list[CompactionResult]:
        """Run :meth:`compact_tenant` for every registered tenant."""
        results = []
        for info in sorted(self._catalog.tenants(), key=lambda t: t.tenant_id):
            result = self.compact_tenant(info.tenant_id)
            if result.compacted:
                results.append(result)
        return results
