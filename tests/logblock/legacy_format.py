"""The LogBlock v2/v3 encoders.

The writer emits format v4 only; readers still decode v2 and v3.  These
are the encoders that used to live in ``src/`` (``Sma.write_to``,
``InvertedIndex.to_bytes`` and ``LogBlockMeta.to_bytes(version)`` as of
v3), kept here as the oracle that differential and compatibility tests
write old blocks with.  :func:`downgrade_block` of the golden corpus is
held to the parent writer's bytes (``tests/fixtures``), so "v3 as these
functions write it" and "v3 as it was written" cannot drift apart.
"""

from __future__ import annotations

from repro.codec import get_codec
from repro.common.bytesio import BinaryReader, BinaryWriter
from repro.logblock.inverted import InvertedIndex
from repro.logblock.reader import LogBlockReader
from repro.logblock.schema import IndexType, TableSchema
from repro.logblock.sma import KIND_BOOL, KIND_FLOAT, KIND_INT, KIND_NONE, KIND_STR, Sma
from repro.logblock.writer import (
    META_MAGIC,
    META_MEMBER,
    LogBlockMeta,
    LogBlockWriter,
    index_member,
)
from repro.tarpack.packer import PackBuilder
from repro.tarpack.reader import BytesRangeReader, PackReader


def _write_value(writer: BinaryWriter, value) -> None:
    if value is None:
        writer.write_u8(KIND_NONE)
    elif isinstance(value, bool):
        writer.write_u8(KIND_BOOL)
        writer.write_u8(1 if value else 0)
    elif isinstance(value, int):
        writer.write_u8(KIND_INT)
        writer.write_i64(value)
    elif isinstance(value, float):
        writer.write_u8(KIND_FLOAT)
        writer.write_f64(value)
    elif isinstance(value, str):
        writer.write_u8(KIND_STR)
        writer.write_str(value)
    else:
        raise TypeError(f"unsupported SMA value type: {type(value)}")


def write_sma(writer: BinaryWriter, sma: Sma, include_sum: bool = True) -> None:
    writer.write_uvarint(sma.row_count)
    writer.write_uvarint(sma.null_count)
    _write_value(writer, sma.min_value)
    _write_value(writer, sma.max_value)
    if include_sum:
        _write_value(writer, sma.sum_value)


def sma_bytes(sma: Sma, include_sum: bool = True) -> bytes:
    """One SMA as v3 (v2 without the sum) wrote it; also the tests'
    bit-exact comparator (-0.0 vs 0.0, int vs float, NaN payloads)."""
    writer = BinaryWriter()
    write_sma(writer, sma, include_sum)
    return writer.getvalue()


def read_sma(data: bytes, include_sum: bool = True) -> Sma:
    return Sma.read_from(BinaryReader(data), include_sum=include_sum)


def inverted_v3_bytes(index: InvertedIndex) -> bytes:
    """``term (len-prefixed), count, delta postings`` per sorted term."""
    writer = BinaryWriter()
    writer.write_u8(1 if index.tokenized else 0)
    writer.write_uvarint(index.row_count)
    writer.write_uvarint(index.term_count)
    for term in index.terms():
        rows = index.lookup(term).tolist()  # stored terms are already normalized
        writer.write_str(term)
        writer.write_uvarint(len(rows))
        previous = 0
        for row in rows:
            writer.write_uvarint(row - previous)
            previous = row
    return writer.getvalue()


def meta_bytes(meta: LogBlockMeta, version: int) -> bytes:
    """The meta member one SMA after another, value by value."""
    if version not in (2, 3):
        raise ValueError(f"not a legacy LogBlock meta version: {version}")
    include_sum = version >= 3
    writer = BinaryWriter()
    writer.write_bytes(META_MAGIC)
    writer.write_u8(version)
    writer.write_len_prefixed(meta.schema.to_bytes())
    writer.write_uvarint(meta.row_count)
    writer.write_u8(meta.codec_id)
    writer.write_uvarint(meta.block_rows)
    writer.write_uvarint(meta.n_blocks)
    for count in meta.block_row_counts:
        writer.write_uvarint(count)
    for column in meta.schema.column_names():
        write_sma(writer, meta.column_sma(column), include_sum)
        for block_idx in range(meta.n_blocks):
            header = meta.block_header(column, block_idx)
            writer.write_uvarint(header.row_count)
            write_sma(writer, header.sma, include_sum)
            writer.write_uvarint(header.stored_size)
    for sizes in (meta.index_sizes, meta.bloom_sizes):
        writer.write_uvarint(len(sizes))
        for name in sorted(sizes):
            writer.write_str(name)
            writer.write_uvarint(sizes[name])
    return writer.getvalue()


def downgrade_block(blob: bytes, version: int) -> bytes:
    """A packed v4 LogBlock re-encoded member by member as v2/v3.

    Only the meta and the inverted indexes differ between the formats;
    Bloom filters, BKD indexes and column blocks are carried over.
    """
    pack = PackReader(BytesRangeReader(blob), "-", "-")
    meta = LogBlockReader(pack).meta()
    codec = get_codec(meta.codec_id)
    inverted = {
        index_member(column.name): column.name
        for column in meta.schema.columns
        if column.index is IndexType.INVERTED
    }
    members: list[tuple[str, bytes]] = []
    index_sizes = dict(meta.index_sizes)
    for name in pack.member_names():
        data = pack.read_member(name)
        if name in inverted:
            index = InvertedIndex.from_bytes(codec.decompress(data))
            data = codec.compress(inverted_v3_bytes(index))
            index_sizes[inverted[name]] = len(data)
        members.append((name, data))
    meta.index_sizes = index_sizes
    out = PackBuilder()
    for name, data in members:
        out.add(name, meta_bytes(meta, version) if name == META_MEMBER else data)
    return out.build()


def write_legacy_block(
    schema: TableSchema, rows: list[dict], version: int, **writer_options
) -> bytes:
    """Rows → a packed LogBlock of format ``version`` (2 or 3)."""
    writer = LogBlockWriter(schema, **writer_options)
    writer.append_many(rows)
    return downgrade_block(writer.finish(), version)
