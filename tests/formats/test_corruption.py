"""Every checksummed durable format under damage, from one table.

For each row of :data:`FORMATS` (a sample, and a decoder that reads it
in full), every truncation, every single-bit flip (a wrong magic, an
unknown version), a byte appended and a foreign payload (a pickle, a
shard command) raise the format's error: ``CorruptionError`` for the
``repro.common.record`` envelope, its base ``SerializationError`` for
the LogBlock members and the pack manifest.  Damage past the framing
under a recomputed checksum raises it or decodes, and nothing else.
WAL frames recover the frames before damage instead (``tests/wal``).
Not checksummed, so not here: the pack preamble, Bloom, BKD, column
blocks (``codec=none`` ones are raw) and v2 / v3 members.
"""

import zlib
from dataclasses import dataclass
from functools import cache
from typing import Callable

import pytest

from repro.common.bytesio import BinaryReader
from repro.common.errors import CorruptionError, SerializationError
from repro.lifecycle.offboard import EXPORT_MANIFEST_MEMBER
from repro.logblock.inverted import InvertedIndex
from repro.logblock.schema import request_log_schema
from repro.logblock.writer import LogBlockMeta
from repro.meta.backup import BackupTask, manifest_key
from repro.meta.catalog import Catalog
from repro.meta.manifest import decode_manifest
from repro.meta.persistence import restore_catalog, serialize_catalog
from repro.rowstore import RowBatch
from repro.tarpack.manifest import Manifest, MemberEntry
from repro.tarpack.reader import PackReader

from tests.logblock.test_inverted import answers, damage_sample
from tests.logblock.test_writer_reader import golden_block, reader_for
from tests.meta.test_backup import tiered_store
from tests.rowstore.test_record_codec import LONG, decode_state, every_kind, state_of_three_tables

LONG_SAMPLE = 4096  # one flipped bit per byte, and damage in the first KiB only


@dataclass(frozen=True)
class Format:
    sample: bytes
    decode: Callable[[bytes], object]
    crc_at: int  # offset of the little-endian CRC-32
    body_at: int  # first byte the CRC covers, to the sample's end
    damage_from: int  # first byte only the reader's own checks vouch for
    error: type = SerializationError


def record(sample: bytes, decode, damage_from: int = 0) -> Format:
    return Format(sample, decode, 4, 8, 8 + damage_from, CorruptionError)


def read_meta(data: bytes):
    meta = LogBlockMeta.from_bytes(data)
    blocks = [meta.block_header("log", block) for block in range(meta.n_blocks)]
    return [meta.column_sma(name) for name in meta.schema.column_names()], blocks


def meta_format() -> Format:
    raw = reader_for(golden_block()).pack.read_member("meta")
    past_schema = BinaryReader(raw, 9)  # magic, version, crc, then the schema
    past_schema.read_len_prefixed()
    return Format(raw, read_meta, 5, 9, past_schema.offset)


@cache
def tenant_manifests() -> tuple[bytes, bytes, bytes]:
    """A catalog snapshot, a backup and an export of hot and cold blocks."""
    store = tiered_store()
    oss, bucket = store.oss, store.config.bucket
    BackupTask(store.catalog, oss, bucket, store.janitor).backup_tenant(1, oss, "vault")
    export = PackReader(oss, bucket, store.lifecycle.offboarder.export_tenant(1)[0])
    backup = oss.get("vault", manifest_key(1))
    return serialize_catalog(store.catalog), backup, export.read_member(EXPORT_MANIFEST_MEMBER)


def read_batch(data: bytes):
    return RowBatch.from_bytes(data).columns


FORMATS: dict[str, Callable[[], Format]] = {
    # Past <rows, nbytes>: a batch's row count is not bounded.
    "row batch": lambda: record(every_kind().to_bytes(), read_batch, 12),
    "row batch, framed ints": lambda: record(every_kind(LONG).to_bytes(), read_batch, 12),
    "row-store state": lambda: record(state_of_three_tables(), decode_state, 16),
    "LogBlock meta v4": meta_format,
    "inverted index v4": lambda: Format(  # damage past the fixed header
        damage_sample().to_bytes(), lambda data: answers(InvertedIndex.from_bytes(data)), 0, 4, 21
    ),
    "pack manifest": lambda: Format(
        Manifest([MemberEntry("meta", 0, 10), MemberEntry("idx/ip", 10, 250)]).to_bytes(),
        lambda data: Manifest.from_bytes(data).entries(), 5, 13, 13,
    ),
    "catalog snapshot": lambda: record(
        tenant_manifests()[0], lambda data: restore_catalog(Catalog(request_log_schema()), data)
    ),
    "backup manifest": lambda: record(tenant_manifests()[1], decode_manifest),
    "export manifest": lambda: record(tenant_manifests()[2], decode_manifest),
}


fmt = cache(lambda name: FORMATS[name]())
FOREIGN = (b"\x80\x05\x95" + bytes(20), b"\x01shard-seal")  # a pickle, a shard command


def flips(data: bytes):
    for i in range(len(data)):
        for bit in range(8) if len(data) < LONG_SAMPLE else (i % 8,):
            damaged = bytearray(data)
            damaged[i] ^= 1 << bit
            yield bytes(damaged)


@pytest.mark.parametrize("name", FORMATS)
def test_every_truncation_and_bit_flip_raises(name):
    f = fmt(name)
    f.decode(f.sample)
    cuts = [f.sample[:cut] for cut in range(len(f.sample))]
    for data in cuts + list(flips(f.sample)) + [f.sample + b"\0", *FOREIGN]:
        with pytest.raises(f.error):
            f.decode(data)


@pytest.mark.parametrize("name", ["row batch", "row-store state", "catalog snapshot", "backup manifest"])
def test_an_unknown_record_version_is_named(name):
    f = fmt(name)
    for version in (0, 2, 255):
        with pytest.raises(CorruptionError, match="version"):
            f.decode(f.sample[:3] + bytes((version,)) + f.sample[4:])


@pytest.mark.parametrize("name", FORMATS)
def test_damage_under_a_valid_checksum_is_typed(name):
    f = fmt(name)
    end = len(f.sample) if len(f.sample) < LONG_SAMPLE else f.damage_from + 1024
    for position in range(f.damage_from, end):
        for value in (0x00, 0x01, 0x07, 0x80, 0xFF):
            damaged = bytearray(f.sample)
            damaged[position] = value
            crc = zlib.crc32(damaged[f.body_at :])
            damaged[f.crc_at : f.crc_at + 4] = crc.to_bytes(4, "little")
            try:
                f.decode(bytes(damaged))
            except f.error:
                pass
