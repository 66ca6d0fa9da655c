"""Controller-side metadata: tenants, schemas, and the LogBlock map.

§3.1: "the metadata manager in the controller will update the
information of each tenant, including the path, size and timestamp
range of the new LogBlocks."  The LogBlock map is the first filter of
the data-skipping strategy (Figure 8 step 1): given ``tenant_id`` and a
timestamp range, return only the LogBlocks that can contain matches.

Each tenant owns an OSS directory (``tenants/<id>/``) of LogBlocks in
chronological order, plus a retention policy used by the expiry task.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable
from bisect import bisect_left, insort
from dataclasses import dataclass, field

from repro.common.errors import CatalogError, TenantNotFound
from repro.logblock.schema import TableSchema

# Storage tiers for a LogBlock.  Hot blocks are standalone OSS objects;
# cold blocks live as members inside a tar-packed segment object and
# carry (segment_path, segment_offset, segment_length) locating their
# bytes within it.
TIER_HOT = "hot"
TIER_COLD = "cold"


@dataclass(frozen=True)
class LogBlockEntry:
    """One row of the LogBlock map: ``<tenant_id, min_ts, max_ts>`` → path."""

    tenant_id: int
    min_ts: int
    max_ts: int
    path: str
    size_bytes: int
    row_count: int
    tier: str = TIER_HOT
    segment_path: str | None = None
    segment_offset: int = 0
    segment_length: int = 0

    def overlaps(self, min_ts: int | None, max_ts: int | None) -> bool:
        """Whether this block's time range intersects [min_ts, max_ts]."""
        if min_ts is not None and self.max_ts < min_ts:
            return False
        if max_ts is not None and self.min_ts > max_ts:
            return False
        return True

    def covered_by(
        self,
        low: int | None,
        high: int | None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> bool:
        """Whether every row's timestamp provably falls inside the bound.

        The builder guarantees ``[min_ts, max_ts]`` brackets every row
        of the block, so full coverage lets the tier-1 aggregate
        pushdown answer COUNT(*)/MIN(ts)/MAX(ts) from this entry alone.
        """
        if low is not None:
            if low_inclusive:
                if self.min_ts < low:
                    return False
            elif self.min_ts <= low:
                return False
        if high is not None:
            if high_inclusive:
                if self.max_ts > high:
                    return False
            elif self.max_ts >= high:
                return False
        return True

    def sort_key(self):
        return (self.min_ts, self.max_ts, self.path)

    def age_key(self):
        """Ordering for the retention index: oldest ``max_ts`` first."""
        return (self.max_ts, self.path)

    @property
    def object_path(self) -> str:
        """The OSS object actually holding this block's bytes."""
        return self.segment_path if self.segment_path is not None else self.path


@dataclass(frozen=True)
class VersionSpec:
    """Append-only versioned-table declaration (``VERSION BY key``).

    ``key_column`` identifies the logical entity; ``version_column``
    orders its versions (stamped at ingest when absent).  A read of the
    table's *current* state keeps only the greatest version per key.
    """

    key_column: str
    version_column: str


@dataclass
class TenantInfo:
    """Registered tenant with its lifecycle policy.

    ``retention_s`` of ``None`` means keep forever (archival tenants);
    otherwise LogBlocks whose ``max_ts`` is older than ``now -
    retention_s`` are expired (§3.1 "flexible data expiration policies").
    """

    tenant_id: int
    name: str = ""
    retention_s: float | None = None
    created_at: float = 0.0
    total_bytes: int = 0
    total_rows: int = 0
    blocks: list[LogBlockEntry] = field(default_factory=list)
    # Lifecycle policy + bookkeeping (repro.lifecycle).  ``cold_age_s``
    # of None disables cold tiering; ``expired_blocks_total`` counts
    # blocks dropped by retention over the tenant's lifetime.
    cold_age_s: float | None = None
    expired_blocks_total: int = 0
    # Retention index: the same entries as ``blocks``, ordered by
    # (max_ts, path) so expiry candidate selection is a bisect + slice
    # — O(expired blocks) examined, never O(catalog).
    blocks_by_age: list[LogBlockEntry] = field(default_factory=list, repr=False)

    def directory(self) -> str:
        return f"tenants/{self.tenant_id}/"


class Catalog:
    """Thread-safe tenant + LogBlock-map registry.

    Also the schema authority: §3's controller "manages the database
    schema and guarantees schema consistency.  When performing DDL
    operations, the controller will update the catalog and synchronize
    the changes to each broker" — brokers read :attr:`schema` live, so
    an :meth:`update_schema` is visible to every subsequent plan.
    """

    def __init__(self, schema: TableSchema) -> None:
        self._schema = schema
        self._schema_version = 1
        self._version_spec: VersionSpec | None = None
        self._tenants: dict[int, TenantInfo] = {}
        # segment object path -> number of live catalog entries packed
        # inside it; a cold segment object may be deleted only once its
        # refcount drops to zero.
        self._segment_refs: dict[str, int] = {}
        # Every registered entry path: registration is idempotent.
        self._paths: set[str] = set()
        # Row-store tables published but maybe not drained from their
        # shard: source -> the table's MemTable.fingerprint.
        self._undrained: dict[str, str] = {}
        self._lock = threading.Lock()

    def published(self, source: str, fingerprint: str) -> bool:
        """Whether the table ``source`` names, with these rows, was
        published and may not be drained yet (a crash between the two
        replays it)."""
        return self._undrained.get(source) == fingerprint

    def note_published(self, source: str, fingerprint: str) -> None:
        self._undrained[source] = fingerprint

    def note_drained(self, sources: Iterable[str]) -> None:
        for source in sources:
            self._undrained.pop(source, None)

    @property
    def version_spec(self) -> VersionSpec | None:
        return self._version_spec

    def set_version_spec(self, key_column: str, version_column: str) -> None:
        """Declare the schema's table as append-only versioned."""
        self._schema.column(key_column)
        self._schema.column(version_column)
        self._version_spec = VersionSpec(key_column, version_column)

    @property
    def schema(self) -> TableSchema:
        return self._schema

    @property
    def schema_version(self) -> int:
        return self._schema_version

    def update_schema(self, new_schema: TableSchema) -> int:
        """Apply an additive DDL; returns the new schema version.

        Compatibility rules: same table name; every existing column is
        preserved with identical type/index/tokenize; new columns may
        only be appended.  LogBlocks written under older versions stay
        readable (they are self-contained) — readers surface the new
        columns as nulls for old blocks.
        """
        with self._lock:
            current = self._schema
            if new_schema.name != current.name:
                raise CatalogError(
                    f"cannot rename table {current.name!r} to {new_schema.name!r}"
                )
            if len(new_schema.columns) < len(current.columns):
                raise CatalogError("dropping columns is not supported")
            for old_col, new_col in zip(current.columns, new_schema.columns):
                if old_col != new_col:
                    raise CatalogError(
                        f"column {old_col.name!r} changed; only additive DDL is allowed"
                    )
            self._schema = new_schema
            self._schema_version += 1
            return self._schema_version

    def add_column(self, spec) -> int:
        """Convenience DDL: append one column."""
        new_schema = TableSchema(self._schema.name, self._schema.columns + (spec,))
        return self.update_schema(new_schema)

    def replace_schema(self, new_schema: TableSchema) -> int:
        """Non-additive DDL: swap the table definition wholesale.

        Only legal while no LogBlocks exist (front-door CREATE TABLE on
        a fresh store) — archived blocks were written under the old
        definition and this class has no migration story for them.
        Clears any versioned-table declaration; the caller re-applies
        it against the new schema.
        """
        with self._lock:
            for info in self._tenants.values():
                if info.blocks:
                    raise CatalogError(
                        "cannot replace the schema once LogBlocks exist "
                        f"(tenant {info.tenant_id} has {len(info.blocks)})"
                    )
            self._schema = new_schema
            self._schema_version += 1
            self._version_spec = None
            return self._schema_version

    # -- tenants -----------------------------------------------------------

    def register_tenant(
        self,
        tenant_id: int,
        name: str = "",
        retention_s: float | None = None,
        created_at: float = 0.0,
    ) -> TenantInfo:
        with self._lock:
            if tenant_id in self._tenants:
                raise CatalogError(f"tenant {tenant_id} already registered")
            info = TenantInfo(tenant_id, name, retention_s, created_at)
            self._tenants[tenant_id] = info
            return info

    def ensure_tenant(self, tenant_id: int, created_at: float = 0.0) -> TenantInfo:
        """Get-or-create (auto-registration on first write)."""
        with self._lock:
            info = self._tenants.get(tenant_id)
            if info is None:
                info = TenantInfo(tenant_id, created_at=created_at)
                self._tenants[tenant_id] = info
            return info

    def tenant(self, tenant_id: int) -> TenantInfo:
        with self._lock:
            info = self._tenants.get(tenant_id)
        if info is None:
            raise TenantNotFound(f"tenant {tenant_id} is not registered")
        return info

    def tenants(self) -> list[TenantInfo]:
        with self._lock:
            return list(self._tenants.values())

    def set_retention(self, tenant_id: int, retention_s: float | None) -> None:
        self.tenant(tenant_id).retention_s = retention_s

    def set_cold_age(self, tenant_id: int, cold_age_s: float | None) -> None:
        self.tenant(tenant_id).cold_age_s = cold_age_s

    def note_expired(self, tenant_id: int, n_blocks: int = 1) -> None:
        """Record blocks dropped by retention (lifetime counter)."""
        info = self.tenant(tenant_id)
        with self._lock:
            info.expired_blocks_total += n_blocks

    def drop_tenant(self, tenant_id: int) -> list[LogBlockEntry]:
        """Unregister a tenant; returns its blocks for deletion."""
        with self._lock:
            info = self._tenants.pop(tenant_id, None)
            if info is not None:
                for entry in info.blocks:
                    self._paths.discard(entry.path)
                    if entry.segment_path is not None:
                        refs = self._segment_refs.get(entry.segment_path, 0) - 1
                        if refs <= 0:
                            self._segment_refs.pop(entry.segment_path, None)
                        else:
                            self._segment_refs[entry.segment_path] = refs
        if info is None:
            raise TenantNotFound(f"tenant {tenant_id} is not registered")
        return list(info.blocks)

    # -- LogBlock map ------------------------------------------------------

    def add_block(self, entry: LogBlockEntry) -> bool:
        """Record a newly archived LogBlock; False, changing nothing, when
        its path is registered already (a replayed archive)."""
        info = self.ensure_tenant(entry.tenant_id)
        with self._lock:
            if entry.path in self._paths:
                return False
            self._paths.add(entry.path)
            insort(info.blocks, entry, key=LogBlockEntry.sort_key)
            insort(info.blocks_by_age, entry, key=LogBlockEntry.age_key)
            info.total_bytes += entry.size_bytes
            info.total_rows += entry.row_count
            if entry.segment_path is not None:
                self._segment_refs[entry.segment_path] = (
                    self._segment_refs.get(entry.segment_path, 0) + 1
                )
        return True

    def remove_block(self, entry: LogBlockEntry) -> None:
        info = self.tenant(entry.tenant_id)
        with self._lock:
            try:
                info.blocks.remove(entry)
            except ValueError:
                raise CatalogError(f"block {entry.path} not in catalog") from None
            self._paths.discard(entry.path)
            try:
                info.blocks_by_age.remove(entry)
            except ValueError:
                pass  # pre-index entries (restored snapshots) are tolerated
            info.total_bytes -= entry.size_bytes
            info.total_rows -= entry.row_count
            if entry.segment_path is not None:
                refs = self._segment_refs.get(entry.segment_path, 0) - 1
                if refs <= 0:
                    self._segment_refs.pop(entry.segment_path, None)
                else:
                    self._segment_refs[entry.segment_path] = refs

    def references(self, object_path: str) -> bool:
        """Whether a live entry's bytes are in this object: a hot block
        at that path, or a cold member of that segment."""
        with self._lock:
            return object_path in self._paths or object_path in self._segment_refs

    def segment_refcount(self, segment_path: str) -> int:
        """Live catalog entries still packed inside a cold segment."""
        with self._lock:
            return self._segment_refs.get(segment_path, 0)

    def segment_paths(self) -> list[str]:
        """Every cold segment object with at least one live entry."""
        with self._lock:
            return sorted(self._segment_refs)

    def blocks_for(
        self,
        tenant_id: int,
        min_ts: int | None = None,
        max_ts: int | None = None,
    ) -> list[LogBlockEntry]:
        """LogBlock-map filter (Figure 8 step 1): prune by tenant + range."""
        try:
            info = self.tenant(tenant_id)
        except TenantNotFound:
            return []
        with self._lock:
            return [block for block in info.blocks if block.overlaps(min_ts, max_ts)]

    def all_blocks(self) -> list[LogBlockEntry]:
        with self._lock:
            out: list[LogBlockEntry] = []
            for info in self._tenants.values():
                out.extend(info.blocks)
            return out

    # -- retention index (repro.lifecycle) -----------------------------------

    @staticmethod
    def retention_cutoff(now_ts: int, retention_s: float) -> int:
        """Rows with ``ts < cutoff`` have outlived the TTL (µs clock)."""
        return now_ts - int(retention_s * 1_000_000)

    def expired_candidates(
        self, now_ts: int
    ) -> tuple[list[LogBlockEntry], int]:
        """Blocks every row of which has outlived its tenant's TTL.

        A block is expired iff ``max_ts < now - retention_s`` — partial
        overlap keeps the block (rows age out at block granularity, as
        in any immutable-segment store).  Selection bisects the
        per-tenant ``blocks_by_age`` index, so the scan examines exactly
        the expired entries: O(expired blocks) work plus O(log n) per
        tenant with a TTL, never O(catalog).

        Returns ``(candidates, entries_examined)``; the second element
        is the scan-cost bound asserted by tests and benchmarks.
        """
        candidates: list[LogBlockEntry] = []
        examined = 0
        with self._lock:
            for info in self._tenants.values():
                if info.retention_s is None or not info.blocks_by_age:
                    continue
                cutoff = self.retention_cutoff(now_ts, info.retention_s)
                idx = bisect_left(
                    info.blocks_by_age, cutoff, key=lambda b: b.max_ts
                )
                if idx:
                    candidates.extend(info.blocks_by_age[:idx])
                    examined += idx
        return candidates, examined

    def cold_candidates(
        self, now_ts: int, max_rows: int | None = None
    ) -> list[LogBlockEntry]:
        """Hot blocks old enough for the cold tier (per-tenant cold_age).

        The aged prefix comes from the same ``blocks_by_age`` bisect as
        expiry; within it only hot-tier entries (optionally below a row
        threshold) qualify — already-cold members are skipped.
        """
        out: list[LogBlockEntry] = []
        with self._lock:
            for info in self._tenants.values():
                if info.cold_age_s is None or not info.blocks_by_age:
                    continue
                cutoff = self.retention_cutoff(now_ts, info.cold_age_s)
                idx = bisect_left(
                    info.blocks_by_age, cutoff, key=lambda b: b.max_ts
                )
                for block in info.blocks_by_age[:idx]:
                    if block.tier != TIER_HOT:
                        continue
                    if max_rows is not None and block.row_count > max_rows:
                        continue
                    out.append(block)
        return out

    # -- accounting (per-tenant billing, §1/§3.1) ----------------------------

    def tenant_usage(self, tenant_id: int) -> tuple[int, int]:
        """(bytes, rows) archived for a tenant — the billing quantities."""
        info = self.tenant(tenant_id)
        return info.total_bytes, info.total_rows

    def usage_by_tenant(self) -> dict[int, int]:
        """tenant_id → archived bytes, for skew statistics (Figure 2)."""
        with self._lock:
            return {tid: info.total_bytes for tid, info in self._tenants.items()}
