"""Every checksummed durable format under damage, from one table.

For each row of :data:`FORMATS` (a sample, and a decoder that reads it
in full), every truncation, every single-bit flip (a wrong magic, an
unknown version), a byte appended and a foreign payload (a pickle, a
shard command) raise the format's error: ``CorruptionError`` for the
``repro.common.record`` envelope, its base ``SerializationError`` for
the LogBlock members and the pack manifest.  Damage past the framing
under a recomputed checksum raises it or decodes, and nothing else.
WAL frames recover the frames before damage instead (``tests/wal``).

A LogBlock v8 member carries no checksum of its own: the pack manifest
(v3) holds one per member and ``PackReader.read_member`` checks it.  So
for a v8 pack under every codec (:data:`CODECS`) every truncation and
single-bit flip of every member read through the pack raises, and so
does every one of its preamble (:func:`test_every_damaged_preamble_is_refused`)
and its manifest (a :data:`FORMATS` row).  Beneath the pack, each member
decoder (:data:`UNCHECKED`, column blocks and the v8 meta, index and
Bloom members) raises ``SerializationError`` or decodes — never
``IndexError``, ``ValueError`` or ``UnicodeDecodeError``.  v7 members
checksum themselves and are :data:`FORMATS` rows.
"""

import zlib
from dataclasses import dataclass
from functools import cache
from typing import Callable

import pytest

from repro.common.bytesio import BinaryReader
from repro.common.errors import CorruptionError, SerializationError
from repro.lifecycle.offboard import EXPORT_MANIFEST_MEMBER
from repro.logblock.bkd import BkdIndex
from repro.logblock.bloom import BloomFilter
from repro.common.strings import Strings
from repro.logblock.column import block_values, decode_block_arrays, encode_block
from repro.logblock.inverted import InvertedIndex
from repro.logblock.reader import _v7_member
from repro.logblock.schema import ColumnType, request_log_schema
from repro.logblock.writer import LogBlockMeta, LogBlockWriter
from repro.meta.backup import BackupTask, manifest_key
from repro.meta.catalog import Catalog
from repro.meta.manifest import decode_manifest
from repro.meta.persistence import restore_catalog, serialize_catalog
from repro.rowstore import RowBatch
from repro.tarpack.manifest import PREAMBLE_SIZE, Manifest, read_preamble
from repro.tarpack.reader import BytesRangeReader, PackReader

from tests.conftest import make_rows
from tests.logblock.test_inverted import answers, damage_sample
from tests.logblock.test_bkd import build as build_numeric
from tests.logblock.test_writer_reader import V7_FIXTURE, golden_block, reader_for
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
    crc_init: int = 0  # the running CRC the body's is continued from


def record(sample: bytes, decode, damage_from: int = 0) -> Format:
    return Format(sample, decode, 4, 8, 8 + damage_from, CorruptionError)


def read_meta(data: bytes):
    meta = LogBlockMeta.from_bytes(data)
    names = meta.schema.column_names()
    blocks = [meta.block_header(name, block) for name in names for block in range(meta.n_blocks)]
    return [meta.column_sma(name) for name in names], blocks


def meta_v7() -> Format:
    raw = reader_for(V7_FIXTURE.read_bytes()).pack.read_member("meta")
    past_schema = BinaryReader(raw, 9)  # magic, version, crc, then the schema
    past_schema.read_len_prefixed()
    # The CRC covers the version byte first.
    return Format(raw, read_meta, 5, 9, past_schema.offset, crc_init=zlib.crc32(raw[4:5]))


@cache
def tenant_manifests() -> tuple[bytes, bytes, bytes]:
    """A catalog snapshot, a backup and an export of hot and cold blocks."""
    store = tiered_store()
    oss, bucket = store.oss, store.config.bucket
    BackupTask(store.catalog, oss, bucket, store.janitor).backup_tenant(1, oss, "vault")
    export = PackReader(oss, bucket, store.lifecycle.offboarder.export_tenant(1)[0])
    backup = oss.get("vault", manifest_key(1))
    return serialize_catalog(store.catalog), backup, export.read_member(EXPORT_MANIFEST_MEMBER)


def pack_manifest(blob: bytes) -> Format:
    """The manifest of a packed LogBlock, as its pack stores it: from v3
    its CRC covers the preamble first."""
    preamble = blob[:PREAMBLE_SIZE]
    raw = blob[PREAMBLE_SIZE : PREAMBLE_SIZE + read_preamble(blob)]

    def decode(data: bytes):
        manifest = Manifest.from_bytes(data, preamble)
        return [manifest.extent(name) for name in manifest.names()], manifest.crcs

    covered = zlib.crc32(preamble) if raw[4] == 3 else 0
    return Format(raw, decode, 5, 13, 13, crc_init=covered)


def v7(member: bytes) -> bytes:
    """A v7 index or Bloom member: the v8 one behind its CRC-32."""
    return zlib.crc32(member).to_bytes(4, "little") + member


def read_inverted(data: bytes):
    return answers(InvertedIndex.from_bytes(data))


def read_numeric(data: bytes):
    index = BkdIndex.from_bytes(data)
    probes = [index.range_rows(), index.range_rows(40, 90, False), index.in_rows([7, 8])]
    return index.row_count, [rows.tolist() for rows in probes]


def numeric_sample():
    """Repeated values with gaps of 7 and nulls: counts and row ids."""
    return build_numeric([(i * 7) % 100 if i % 9 else None for i in range(300)])


def bloom_sample() -> bytes:
    bloom = BloomFilter.for_items(40)
    bloom.add_many([f"10.0.0.{i}" for i in range(40)])
    return bloom.to_bytes()


def read_bloom(data: bytes):
    bloom = BloomFilter.from_bytes(data)
    return [bloom.might_contain(f"10.0.0.{i}") for i in range(0, 80, 7)]


def as_v7(decode):
    """Read a v7 member as ``LogBlockReader`` does: checked, then decoded."""
    return lambda data: decode(_v7_member(data, "member"))


def read_batch(data: bytes):
    return RowBatch.from_bytes(data).columns


FORMATS: dict[str, Callable[[], Format]] = {
    # Past <rows, nbytes>: a batch's row count is not bounded.
    "row batch": lambda: record(every_kind().to_bytes(), read_batch, 12),
    "row batch, framed ints": lambda: record(every_kind(LONG).to_bytes(), read_batch, 12),
    "row-store state": lambda: record(state_of_three_tables(), decode_state, 16),
    "LogBlock meta v7": meta_v7,
    "inverted index v7": lambda: Format(  # damage past the fixed header
        v7(damage_sample().to_bytes()), as_v7(read_inverted), 0, 4, 21
    ),
    # Value gaps, counts and row-id gaps; damage past crc, flags, row and value counts, base.
    "numeric index v7": lambda: Format(
        v7(numeric_sample().to_bytes()), as_v7(read_numeric), 0, 4, 9
    ),
    # Hash count and bits; damage past the crc.
    "Bloom filter v7": lambda: Format(v7(bloom_sample()), as_v7(read_bloom), 0, 4, 4),
    "pack manifest v2": lambda: pack_manifest(V7_FIXTURE.read_bytes()),
    "pack manifest v3": lambda: pack_manifest(golden_block()),
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
            crc = zlib.crc32(damaged[f.body_at :], f.crc_init)
            damaged[f.crc_at : f.crc_at + 4] = crc.to_bytes(4, "little")
            try:
                f.decode(bytes(damaged))
            except f.error:
                pass


# -- LogBlock v8: the pack checks every member -------------------------------

CODECS = ("none", "zlib", "lzma")


@cache
def v8_pack(codec: str) -> bytes:
    """A small v8 LogBlock: three blocks of every column, an index of
    each indexed column and Bloom filters, its members under ``codec``."""
    writer = LogBlockWriter(request_log_schema(), codec=codec, block_rows=16)
    writer.append_many(make_rows(40, seed=3))
    return writer.finish()


class _Serving:
    """A pack's object store that answers every ranged GET with ``data``."""

    def __init__(self, data: bytes) -> None:
        self.data = data

    def get_range(self, bucket: str, key: str, start: int, length: int) -> bytes:
        return self.data


@pytest.mark.parametrize("codec", CODECS)
def test_every_truncation_and_bit_flip_of_a_v8_member_raises(codec):
    """Each member as the store would return it damaged — cut short or
    with a bit flipped — fails ``read_member``'s manifest check; the
    intact pack reads whole."""
    blob = v8_pack(codec)
    reader = reader_for(blob)
    assert (reader.meta().version, reader.pack.manifest().version) == (8, 3)
    for column in reader.meta().schema.column_names():
        reader.read_column(column)
        if reader.has_index(column):
            reader.read_index(column)
    assert reader.read_bloom("ip").might_contain("192.168.0.1")
    manifest, data_start = reader.pack.manifest(), reader.pack.data_start
    names = manifest.names()
    assert sum(name.startswith("col/") for name in names) == 3 * 7
    for name in names:
        start, length = reader.pack.member_extent(name)
        member = blob[start : start + length]
        for data in [member[:cut] for cut in range(length)] + list(flips(member)):
            pack = PackReader(_Serving(data), "b", "k")
            pack.attach_manifest(manifest, data_start)
            with pytest.raises(CorruptionError, match=repr(name)):
                pack.read_member(name)


@pytest.mark.parametrize("codec", CODECS)
def test_every_damaged_preamble_is_refused(codec):
    """Every truncation and single-bit flip of the 12-byte preamble —
    a reserved byte included, which the v3 manifest's CRC covers —
    fails opening the pack."""
    blob = v8_pack(codec)
    preamble, rest = blob[:PREAMBLE_SIZE], blob[PREAMBLE_SIZE:]
    PackReader(BytesRangeReader(blob), "b", "k", len(blob)).manifest()
    for damaged in [preamble[:cut] for cut in range(PREAMBLE_SIZE)] + list(flips(preamble)):
        data = damaged + rest
        with pytest.raises(SerializationError):
            PackReader(BytesRangeReader(data), "b", "k", len(data)).manifest()


# String blocks: every length class — empty, ASCII, multi-byte UTF-8,
# longer than a one-byte length — and nulls; under 16 rows a block is
# PLAIN, and repeated values make one DICT.
PLAIN_ROWS = ["GET /a", "", None, "日志 é ß", "x" * 150, "tail\u00e9", None, "ok", "ünï"]
DICT_ROWS = PLAIN_ROWS * 3


def read_block(rows: list, ctype: ColumnType = ColumnType.STRING):
    def decode(data: bytes) -> list:
        return block_values(decode_block_arrays(data, ctype, len(rows)))

    return decode


UNCHECKED = {
    "string block, PLAIN": (PLAIN_ROWS, ColumnType.STRING),
    "string block, DICT": (DICT_ROWS, ColumnType.STRING),
    "INT64 block, FOR": ([3, None, -(1 << 62), 0, 7], ColumnType.INT64),
    "INT64 block, delta": ([-(1 << 63), -5, -5, 0, 300, (1 << 63) - 1], ColumnType.INT64),
    "TIMESTAMP block, delta": (
        [1_600_000_000_000_000 + 3 * i for i in range(20)], ColumnType.TIMESTAMP
    ),
    "BOOL block": ([True, None, False, True] * 5, ColumnType.BOOL),
}


@pytest.mark.parametrize("name", UNCHECKED)
def test_an_unchecked_block_raises_its_error_or_decodes(name):
    rows, ctype = UNCHECKED[name]
    sample, decode = encode_block(rows, ctype), read_block(rows, ctype)
    plain = isinstance(decode_block_arrays(sample, ctype, len(rows)), Strings)
    assert plain == ("PLAIN" in name) and decode(sample) == rows
    for data in [sample[:cut] for cut in range(len(sample))] + [sample + b"\0", *FOREIGN]:
        with pytest.raises(SerializationError):
            decode(data)
    decoded = 0
    for data in flips(sample):
        try:
            decode(data)
            decoded += 1
        except SerializationError:
            pass
    assert 0 < decoded < 8 * len(sample)  # value flips decode; length flips cannot


def meta_v8() -> bytes:
    return reader_for(golden_block()).pack.read_member("meta")


# The v8 members the pack checks: beneath it, their decoders' own
# checks answer for what a damaged member would do.
V8_MEMBERS = {
    "LogBlock meta v8": (meta_v8, read_meta),
    "inverted index v8": (lambda: damage_sample().to_bytes(), read_inverted),
    "numeric index v8": (lambda: numeric_sample().to_bytes(), read_numeric),
    "Bloom filter v8": (bloom_sample, read_bloom),
}


@pytest.mark.parametrize("name", V8_MEMBERS)
def test_a_damaged_v8_member_raises_its_error_or_decodes(name):
    sample, decode = V8_MEMBERS[name][0](), V8_MEMBERS[name][1]
    decode(sample)
    cuts = [sample[:cut] for cut in range(len(sample))]
    raised = 0
    for data in cuts + list(flips(sample)) + [sample + b"\0", *FOREIGN]:
        try:
            decode(data)
        except SerializationError:
            raised += 1
    assert raised >= len(cuts) // 2  # most truncations cut a section short


@pytest.mark.parametrize("change", [-1, 1])
def test_a_length_section_that_disagrees_with_its_text_raises(change):
    sample = bytearray(encode_block(PLAIN_ROWS, ColumnType.STRING))
    first_length = 2 + sample[0]  # past the null bitset and the encoding byte
    assert sample[first_length] == len(PLAIN_ROWS[0])
    sample[first_length] += change
    with pytest.raises(SerializationError, match="disagree|overrun"):
        read_block(PLAIN_ROWS)(bytes(sample))
