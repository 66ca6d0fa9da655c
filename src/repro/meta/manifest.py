"""The tenant manifest: how tenants and their LogBlock maps become bytes.

§3.1 keeps each tenant's LogBlocks as a directory that can be retrieved,
expired and moved on its own; the controller's LogBlock map names them.
One codec turns that map into bytes wherever it leaves the controller:
the catalog snapshot (every tenant plus the schema), a tenant's backup
and a tenant's offboarding export.

The format is the checksummed record of :mod:`repro.common.record` with
a JSON body::

    "\\x89TM"  u8 version  u32 CRC-32 of the body
    {"schema": <hex of TableSchema.to_bytes> | null,
     "schema_version": <int> | null,
     "tenants": [{"tenant_id", "name", "retention_s", "created_at",
                  "cold_age_s", "expired_blocks_total",
                  "blocks": [{every LogBlockEntry field but tenant_id}]}]}

Every entry round-trips in full, its tier and segment window included.
A truncation, a flipped bit, a wrong magic, an unknown version, and a
body that passes its checksum but does not parse are all
:class:`CorruptionError`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from repro.common.errors import CatalogError, CorruptionError, SerializationError
from repro.common.record import pack_record, unpack_record
from repro.logblock.schema import TableSchema
from repro.meta.catalog import TIER_COLD, TIER_HOT, Catalog, LogBlockEntry, TenantInfo

MANIFEST_MAGIC = b"\x89TM"

_NONE = type(None)
_NUMBER = (int, float)
_MANIFEST_FIELDS = {"schema": (str, _NONE), "schema_version": (int, _NONE), "tenants": (list,)}
_TENANT_FIELDS = {
    "tenant_id": (int,),
    "name": (str,),
    "retention_s": (*_NUMBER, _NONE),
    "created_at": _NUMBER,
    "cold_age_s": (*_NUMBER, _NONE),
    "expired_blocks_total": (int,),
    "blocks": (list,),
}
_ENTRY_FIELDS = {
    "min_ts": (int,),
    "max_ts": (int,),
    "path": (str,),
    "size_bytes": (int,),
    "row_count": (int,),
    "tier": (str,),
    "segment_path": (str, _NONE),
    "segment_offset": (int,),
    "segment_length": (int,),
}


@dataclass(frozen=True)
class TenantRecord:
    """One tenant as a manifest carries it: its record and its entries."""

    tenant_id: int
    name: str
    retention_s: float | None
    created_at: float
    cold_age_s: float | None
    expired_blocks_total: int
    blocks: tuple[LogBlockEntry, ...]


@dataclass(frozen=True)
class TenantManifest:
    """A decoded manifest; a snapshot also carries the schema."""

    tenants: tuple[TenantRecord, ...]
    schema: TableSchema | None = None
    schema_version: int | None = None


def encode_manifest(
    tenants: Iterable[TenantInfo],
    schema: TableSchema | None = None,
    schema_version: int | None = None,
) -> bytes:
    """The manifest of ``tenants`` (and of the schema, for a snapshot)."""
    payload = {
        "schema": None if schema is None else schema.to_bytes().hex(),
        "schema_version": schema_version,
        "tenants": [
            {
                **{name: getattr(info, name) for name in _TENANT_FIELDS if name != "blocks"},
                "blocks": [
                    {name: getattr(entry, name) for name in _ENTRY_FIELDS}
                    for entry in info.blocks
                ],
            }
            for info in sorted(tenants, key=lambda info: info.tenant_id)
        ],
    }
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return pack_record(MANIFEST_MAGIC, (body.encode("utf-8"),))


def decode_manifest(data: bytes) -> TenantManifest:
    """The manifest in ``data``; anything else is :class:`CorruptionError`."""
    body = unpack_record(MANIFEST_MAGIC, data, "tenant manifest")
    try:
        payload = _checked_fields(json.loads(str(body, "utf-8")), _MANIFEST_FIELDS)
        schema, version = payload["schema"], payload["schema_version"]
        if (schema is None) != (version is None):
            raise ValueError("a schema travels with its version")
        return TenantManifest(
            tenants=tuple(_record(tenant) for tenant in payload["tenants"]),
            schema=None if schema is None else TableSchema.from_bytes(bytes.fromhex(schema)),
            schema_version=version,
        )
    except (ValueError, TypeError, SerializationError) as exc:
        raise CorruptionError(f"undecodable tenant manifest: {exc}") from None


def install_tenant(catalog: Catalog, record: TenantRecord) -> None:
    """Register ``record``'s tenant unless ``catalog`` has it (a live
    record wins), then every entry of it."""
    try:
        info = catalog.register_tenant(
            record.tenant_id,
            name=record.name,
            retention_s=record.retention_s,
            created_at=record.created_at,
        )
        info.cold_age_s = record.cold_age_s
        info.expired_blocks_total = record.expired_blocks_total
    except CatalogError:
        pass
    for entry in record.blocks:
        catalog.add_block(entry)


def _record(tenant) -> TenantRecord:
    fields = _checked_fields(tenant, _TENANT_FIELDS)
    blocks = tuple(_entry(fields["tenant_id"], block) for block in fields.pop("blocks"))
    return TenantRecord(**fields, blocks=blocks)


def _entry(tenant_id: int, block) -> LogBlockEntry:
    fields = _checked_fields(block, _ENTRY_FIELDS)
    cold = fields["segment_path"] is not None
    if fields["tier"] != (TIER_COLD if cold else TIER_HOT):
        raise ValueError(f"entry {fields['path']!r} has tier {fields['tier']!r}")
    return LogBlockEntry(tenant_id=tenant_id, **fields)


def _checked_fields(obj, types: dict) -> dict:
    if not isinstance(obj, dict) or set(obj) != set(types):
        raise ValueError(f"expected the fields {sorted(types)}")
    return {name: _checked(obj[name], types[name]) for name in types}


def _checked(value, types: tuple):
    # ``type(...) in``, not ``isinstance``: a JSON ``true`` is no int.
    if type(value) not in types:
        raise ValueError(f"unexpected {type(value).__name__} {value!r}")
    return value

