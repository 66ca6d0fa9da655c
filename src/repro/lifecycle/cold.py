"""Cold tiering: re-pack aged small LogBlocks into large tar segments.

A lightly loaded tenant's aged data is many small hot blocks, each a
separate OSS object billed at hot-tier rates.  The cold compactor
rewrites a tenant's aged run into one **segment**: a tar-packed object
(``tenants/<id>/cold/….seg``, reusing :mod:`repro.tarpack`) whose
members are ordinary self-contained LogBlocks re-encoded under a
stronger codec and larger chunks.  Queries are untouched — a cold
catalog entry carries ``(segment_path, segment_offset, segment_length)``
and the executor reads the member in place through a
:class:`~repro.tarpack.reader.SubrangeReader`, so results are
byte-identical across tiers (asserted in tests and
``benchmarks/bench_lifecycle.py``, along with the ≥2× shrink).

Crash safety follows the hot compactor's: the segment is published
through the janitor (:mod:`repro.meta.janitor`), which uploads it and
registers its members *before* retiring any victim, so every
intermediate state is queryable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.builder.compaction import rewrite_blocks
from repro.common.errors import BuildError
from repro.logblock.writer import DEFAULT_BLOCK_ROWS
from repro.meta.catalog import TIER_COLD, Catalog, LogBlockEntry
from repro.meta.janitor import ArchiveObject, Janitor, object_key, rewrite_source
from repro.obs.context import Observability
from repro.tarpack.packer import PackBuilder
from repro.tarpack.reader import BytesRangeReader, PackReader

EVENT_LIFECYCLE_COLD = "lifecycle.cold_pack"

# lzma trades CPU for ratio — exactly right for data that is read
# rarely but stored for its whole retention window.
DEFAULT_COLD_CODEC = "lzma"


@dataclass
class ColdRepackResult:
    """What one :meth:`ColdCompactor.repack_tenant` call did."""

    tenant_id: int
    blocks_before: int = 0
    blocks_after: int = 0
    rows_repacked: int = 0
    bytes_before: int = 0
    bytes_after: int = 0
    segment_paths: list[str] = field(default_factory=list)

    @property
    def repacked(self) -> bool:
        return self.blocks_after > 0


class ColdCompactor:
    """Demotes a tenant's aged hot blocks into tar-packed cold segments."""

    def __init__(
        self,
        catalog: Catalog,
        janitor: Janitor,
        codec: str = DEFAULT_COLD_CODEC,
        block_rows: int = DEFAULT_BLOCK_ROWS,
        target_rows: int = 200_000,
        build_indexes: bool = True,
        obs: Observability | None = None,
    ) -> None:
        if target_rows <= 0:
            raise BuildError(f"target_rows must be positive, got {target_rows}")
        self._catalog = catalog
        self._janitor = janitor
        self._codec = codec
        self._block_rows = block_rows
        self._target_rows = target_rows
        self._build_indexes = build_indexes
        self._obs = obs if obs is not None else Observability.noop()
        registry = self._obs.registry
        self._repacks_total = registry.counter(
            "logstore_lifecycle_cold_repacks_total",
            "Cold repack runs that demoted blocks.",
        )
        self._cold_blocks_total = registry.counter(
            "logstore_lifecycle_cold_blocks_packed_total",
            "Hot blocks demoted into cold segments.",
        )
        self._cold_segments_total = registry.counter(
            "logstore_lifecycle_cold_segments_total",
            "Cold segment objects written.",
        )
        self._cold_bytes_before_total = registry.counter(
            "logstore_lifecycle_cold_bytes_before_total",
            "Hot bytes retired by cold repacks.",
        )
        self._cold_bytes_after_total = registry.counter(
            "logstore_lifecycle_cold_bytes_after_total",
            "Cold bytes written by repacks.",
        )
        from repro.obs.recorders import EncodeModeRecorder

        self._encode_modes = EncodeModeRecorder(registry)

    # -- candidate selection ----------------------------------------------

    def candidates(self, tenant_id: int, now_ts: int) -> list[LogBlockEntry]:
        """The tenant's hot blocks older than its ``cold_age_s``."""
        return [
            block
            for block in self._catalog.cold_candidates(now_ts)
            if block.tenant_id == tenant_id
        ]

    # -- repack ------------------------------------------------------------

    def repack_tenant(self, tenant_id: int, now_ts: int) -> ColdRepackResult:
        """Demote the tenant's aged hot blocks; no-op without any."""
        result = ColdRepackResult(tenant_id=tenant_id)
        victims = self.candidates(tenant_id, now_ts)
        if not victims:
            return result
        with self._obs.tracer.span(
            "lifecycle.cold_pack", tenant=tenant_id, victims=len(victims)
        ):
            self._repack(tenant_id, victims, result)
        self._repacks_total.add()
        self._cold_blocks_total.add(result.blocks_before)
        self._cold_segments_total.add(len(result.segment_paths))
        self._cold_bytes_before_total.add(result.bytes_before)
        self._cold_bytes_after_total.add(result.bytes_after)
        if result.repacked:
            self._obs.journal.emit(
                EVENT_LIFECYCLE_COLD,
                f"tenant{tenant_id}",
                detail=(
                    f"blocks {result.blocks_before}->{result.blocks_after} "
                    f"bytes {result.bytes_before}->{result.bytes_after}"
                ),
                tenant_id=tenant_id,
            )
        return result

    def repack_all(self, now_ts: int) -> list[ColdRepackResult]:
        """Run :meth:`repack_tenant` for every tenant with candidates."""
        tenant_ids = sorted(
            {block.tenant_id for block in self._catalog.cold_candidates(now_ts)}
        )
        results = []
        for tenant_id in tenant_ids:
            result = self.repack_tenant(tenant_id, now_ts)
            if result.repacked:
                results.append(result)
        return results

    def _repack(
        self, tenant_id: int, victims: list[LogBlockEntry], result: ColdRepackResult
    ) -> None:
        result.blocks_before = len(victims)
        result.bytes_before = sum(block.size_bytes for block in victims)

        # Re-encode into target_rows-sized members under the cold codec.
        janitor = self._janitor
        members: list[tuple[str, bytes, int, int, int]] = []
        for writer, blob, min_ts, max_ts, n_rows in rewrite_blocks(
            janitor.store, janitor.bucket, victims, self._catalog.schema, self._target_rows,
            codec=self._codec,
            block_rows=self._block_rows,
            build_indexes=self._build_indexes,
        ):
            self._encode_modes.record(writer.encode_stats)
            name = f"b{len(members):04d}-{min_ts}-{max_ts}.lgb"
            members.append((name, blob, min_ts, max_ts, n_rows))

        builder = PackBuilder()
        for name, blob, _min, _max, _n in members:
            builder.add(name, blob)
        segment = builder.build()
        segment_key = object_key(tenant_id, rewrite_source(victims), segment)
        # Member extents within the finished segment, for the catalog.
        probe = PackReader(BytesRangeReader(segment), janitor.bucket, segment_key)
        entries: list[LogBlockEntry] = []
        for name, blob, min_ts, max_ts, n_rows in members:
            start, length = probe.member_extent(name)
            entries.append(
                LogBlockEntry(
                    tenant_id=tenant_id,
                    min_ts=min_ts,
                    max_ts=max_ts,
                    path=f"{segment_key}#{name}",
                    size_bytes=length,
                    row_count=n_rows,
                    tier=TIER_COLD,
                    segment_path=segment_key,
                    segment_offset=start,
                    segment_length=length,
                )
            )

        # Members go live before the hot victims retire; a victim's entry
        # goes even when its object DELETE fails (its rows already live
        # in the segment) — the janitor queues the object instead.
        janitor.publish([ArchiveObject(segment_key, segment, tuple(entries))], victims)
        result.bytes_after = sum(entry.size_bytes for entry in entries)
        result.rows_repacked = sum(entry.row_count for entry in entries)
        result.blocks_after = len(entries)
        result.segment_paths.append(segment_key)
