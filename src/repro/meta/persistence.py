"""Catalog persistence: the controller's metadata DB (Figure 3).

The catalog (tenants, retention policies, schema, LogBlock map) must
survive controller restarts.  Two mechanisms:

* **Snapshots** — :func:`save_catalog` writes a tenant manifest of
  every tenant plus the schema (:mod:`repro.meta.manifest`) into the
  object store under ``_meta/catalog/<seq>.manifest`` (objects are
  immutable, so each save is a new sequence number; old snapshots are
  pruned).  :func:`load_catalog_into` restores the newest snapshot into
  a live catalog.
* **Rebuild by scan** — :func:`rebuild_catalog_from_store` reconstructs
  the LogBlock map with no snapshot at all, by listing the tenant
  directories and reading each block's self-contained meta; the §3.2
  "self-contained" design makes the catalog always recoverable from
  the data.  A torn upload (its pack ends past its bytes) is skipped
  and left to :meth:`~repro.meta.janitor.Janitor.reconcile`.
"""

from __future__ import annotations

import re

from repro.common.errors import CatalogError, CorruptionError, InvalidRange, SerializationError
from repro.logblock.reader import LogBlockReader
from repro.meta.catalog import TIER_COLD, TIER_HOT, Catalog, LogBlockEntry
from repro.meta.manifest import decode_manifest, encode_manifest, install_tenant
from repro.tarpack.reader import PackReader

SNAPSHOT_PREFIX = "_meta/catalog/"
_SNAPSHOT_SUFFIX = ".manifest"
KEEP_SNAPSHOTS = 3

_BLOCK_PATH_RE = re.compile(r"^tenants/(\d+)/.+\.lgb$")
_SEGMENT_PATH_RE = re.compile(r"^tenants/(\d+)/cold/.+\.seg$")


def serialize_catalog(catalog: Catalog) -> bytes:
    """The catalog as a snapshot: every tenant's manifest plus the schema."""
    return encode_manifest(catalog.tenants(), catalog.schema, catalog.schema_version)


def restore_catalog(catalog: Catalog, data: bytes) -> None:
    """Load a snapshot into a (fresh) catalog in place."""
    manifest = decode_manifest(data)
    if manifest.schema is None:
        raise CorruptionError("a tenant manifest without a schema is no catalog snapshot")
    if catalog.tenants():
        raise CatalogError("restore requires an empty catalog")
    # The snapshot is the schema authority: install it directly (the
    # additive-DDL check applies to live changes, not to restores).
    catalog._schema = manifest.schema
    catalog._schema_version = manifest.schema_version
    for record in manifest.tenants:
        install_tenant(catalog, record)


def _snapshot_key(sequence: int) -> str:
    return f"{SNAPSHOT_PREFIX}{sequence:08d}{_SNAPSHOT_SUFFIX}"


def _existing_snapshots(store, bucket: str) -> list[int]:
    stats = store.list(bucket, SNAPSHOT_PREFIX)
    sequences = []
    for stat in stats:
        name = stat.key[len(SNAPSHOT_PREFIX):]
        if name.endswith(_SNAPSHOT_SUFFIX):
            try:
                sequences.append(int(name[: -len(_SNAPSHOT_SUFFIX)]))
            except ValueError:
                continue
    return sorted(sequences)


def save_catalog(catalog: Catalog, store, bucket: str) -> str:
    """Write a new catalog snapshot; prunes old ones.  Returns its key."""
    sequences = _existing_snapshots(store, bucket)
    sequence = (sequences[-1] + 1) if sequences else 0
    key = _snapshot_key(sequence)
    store.put(bucket, key, serialize_catalog(catalog))
    for old in sequences[: max(0, len(sequences) + 1 - KEEP_SNAPSHOTS)]:
        store.delete(bucket, _snapshot_key(old))
    return key


def load_catalog_into(catalog: Catalog, store, bucket: str) -> bool:
    """Restore the newest snapshot into ``catalog``.

    Returns False (catalog untouched) when no snapshot exists.
    """
    sequences = _existing_snapshots(store, bucket)
    if not sequences:
        return False
    data = store.get(bucket, _snapshot_key(sequences[-1]))
    restore_catalog(catalog, data)
    return True


def rebuild_catalog_from_store(catalog: Catalog, store, bucket: str) -> int:
    """Disaster recovery: rebuild the LogBlock map by scanning OSS.

    Lists ``tenants/`` and reads each block's self-contained meta to
    recover row counts and timestamp ranges.  Tenant lifecycle metadata
    (names, retention) is not stored in blocks and comes back as
    defaults.  An object whose pack members end past its size is a
    torn upload: it is not registered.  Returns the number of blocks
    registered.
    """
    if catalog.all_blocks():
        raise CatalogError("rebuild requires an empty LogBlock map")
    count = 0
    for stat in store.list(bucket, "tenants/"):
        pack = PackReader(store, bucket, stat.key, stat.size)
        match = _BLOCK_PATH_RE.match(stat.key)
        if match is not None and _whole(pack, stat.size):
            tenant_id = int(match.group(1))
            catalog.add_block(
                _entry_from_block_reader(
                    LogBlockReader(pack),
                    tenant_id=tenant_id,
                    path=stat.key,
                    size_bytes=stat.size,
                )
            )
            count += 1
            continue
        match = _SEGMENT_PATH_RE.match(stat.key)
        if match is not None and _whole(pack, stat.size):
            count += _rebuild_segment(catalog, pack, int(match.group(1)))
    return count


def _whole(pack: PackReader, size: int) -> bool:
    """Whether every member of the pack ends within the object's
    ``size`` bytes (a torn upload keeps only a prefix)."""
    try:
        return pack.data_start + pack.manifest().data_length <= size
    except (SerializationError, InvalidRange):
        return False


def _entry_from_block_reader(
    reader: LogBlockReader,
    tenant_id: int,
    path: str,
    size_bytes: int,
    tier: str = TIER_HOT,
    segment_path: str | None = None,
    segment_offset: int = 0,
    segment_length: int = 0,
) -> LogBlockEntry:
    """One catalog entry from a block's self-contained meta."""
    meta = reader.meta()
    ts_values = None
    if "ts" in meta.schema.column_names():
        sma = meta.column_sma("ts")
        ts_values = (sma.min_value, sma.max_value)
    if ts_values is None or ts_values[0] is None:
        raise CatalogError(f"block {path} has no ts range; cannot rebuild")
    return LogBlockEntry(
        tenant_id=tenant_id,
        min_ts=int(ts_values[0]),
        max_ts=int(ts_values[1]),
        path=path,
        size_bytes=size_bytes,
        row_count=meta.row_count,
        tier=tier,
        segment_path=segment_path,
        segment_offset=segment_offset,
        segment_length=segment_length,
    )


def _rebuild_segment(catalog: Catalog, segment: PackReader, tenant_id: int) -> int:
    """Re-register every cold member of one tar-packed segment.

    Cold members are themselves self-contained LogBlocks, so the
    segment manifest plus each member's meta recovers the full entries
    (path, extent, timestamp range, row count) with no snapshot.
    """
    from repro.tarpack.reader import SubrangeReader

    store, bucket, segment_key = segment.store, segment.bucket, segment.key
    count = 0
    for name in segment.member_names():
        start, length = segment.member_extent(name)
        member = SubrangeReader(store, bucket, segment_key, start, length)
        reader = LogBlockReader(PackReader(member, bucket, f"{segment_key}#{name}"))
        catalog.add_block(
            _entry_from_block_reader(
                reader,
                tenant_id=tenant_id,
                path=f"{segment_key}#{name}",
                size_bytes=length,
                tier=TIER_COLD,
                segment_path=segment_key,
                segment_offset=start,
                segment_length=length,
            )
        )
        count += 1
    return count
