"""LogBlockWriter: rows in, one immutable packed LogBlock out.

Maps the five logical parts of Figure 4 onto pack members so that each
part can be fetched independently with ranged GETs:

* ``meta``            — part 1 (header: schema, row count, codec) plus
  part 2 (column meta: per-column SMA, index type) plus part 4 (column
  block headers: per-block row counts, SMAs, compressed sizes).
* ``idx/<column>``    — part 3, one member per indexed column.
* ``col/<c>/<b>``     — part 5, one member per (column, block), holding
  the null bitset and compressed data for that column block.

The writer is append-only; :meth:`finish` freezes the block.  LogBlocks
are immutable after packing (§3: "Each LogBlock is an immutable file and
will no longer be modified").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.codec import get_codec
from repro.codec.registry import DEFAULT_CODEC
from repro.common.bytesio import BinaryReader, BinaryWriter
from repro.common.errors import CorruptionError, SchemaError, SerializationError
from repro.logblock.bkd import BkdIndexBuilder
from repro.logblock.inverted import InvertedIndexBuilder
from repro.logblock.column import encode_block
from repro.logblock.encode_kernels import (
    MODE_VECTORIZED,
    EncodeFallback,
    EncodeStats,
    compute_sma_range,
    encode_block_range,
    prepare_column,
)
from repro.logblock.schema import ColumnType, IndexType, TableSchema
from repro.logblock.sma import Sma, compute_sma, merge_smas
from repro.tarpack.packer import PackBuilder

META_MEMBER = "meta"
META_MAGIC = b"LGBK"
# v2: schema + SMAs (min/max/counts); v3 adds a per-column and per-block
# sum to every SMA (aggregate pushdown tier 2).  Readers accept both.
META_VERSION = 3
_LEGACY_META_VERSION = 2

DEFAULT_BLOCK_ROWS = 4096


def index_member(column: str) -> str:
    """Pack member name of a column's index."""
    return f"idx/{column}"


def bloom_member(column: str) -> str:
    """Pack member name of a column's Bloom filter."""
    return f"bloom/{column}"


def block_member(column_idx: int, block_idx: int) -> str:
    """Pack member name of one column block."""
    return f"col/{column_idx}/{block_idx}"


@dataclass(frozen=True)
class BlockHeader:
    """Column-block header (part 4): row count, SMA, stored size."""

    row_count: int
    sma: Sma
    stored_size: int


@dataclass
class LogBlockMeta:
    """Parsed ``meta`` member: everything needed to plan reads."""

    schema: TableSchema
    row_count: int
    codec_id: int
    block_rows: int
    block_row_counts: list[int]
    column_smas: list[Sma]
    # block_headers[column_index][block_index]
    block_headers: list[list[BlockHeader]] = field(default_factory=list)
    index_sizes: dict[str, int] = field(default_factory=dict)
    bloom_sizes: dict[str, int] = field(default_factory=dict)

    @property
    def n_blocks(self) -> int:
        return len(self.block_row_counts)

    def column_sma(self, column: str) -> Sma:
        return self.column_smas[self.schema.column_index(column)]

    def block_header(self, column: str, block_idx: int) -> BlockHeader:
        return self.block_headers[self.schema.column_index(column)][block_idx]

    # -- serialization -------------------------------------------------------

    def to_bytes(self, version: int = META_VERSION) -> bytes:
        if version not in (META_VERSION, _LEGACY_META_VERSION):
            raise SerializationError(f"cannot write LogBlock meta version {version}")
        include_sum = version >= META_VERSION
        writer = BinaryWriter()
        writer.write_bytes(META_MAGIC)
        writer.write_u8(version)
        schema_bytes = self.schema.to_bytes()
        writer.write_len_prefixed(schema_bytes)
        writer.write_uvarint(self.row_count)
        writer.write_u8(self.codec_id)
        writer.write_uvarint(self.block_rows)
        writer.write_uvarint(len(self.block_row_counts))
        for count in self.block_row_counts:
            writer.write_uvarint(count)
        for col_idx in range(len(self.schema)):
            self.column_smas[col_idx].write_to(writer, include_sum=include_sum)
            headers = self.block_headers[col_idx]
            if len(headers) != len(self.block_row_counts):
                raise SerializationError("block header count mismatch")
            for header in headers:
                writer.write_uvarint(header.row_count)
                header.sma.write_to(writer, include_sum=include_sum)
                writer.write_uvarint(header.stored_size)
        writer.write_uvarint(len(self.index_sizes))
        for name in sorted(self.index_sizes):
            writer.write_str(name)
            writer.write_uvarint(self.index_sizes[name])
        writer.write_uvarint(len(self.bloom_sizes))
        for name in sorted(self.bloom_sizes):
            writer.write_str(name)
            writer.write_uvarint(self.bloom_sizes[name])
        return writer.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "LogBlockMeta":
        reader = BinaryReader(data)
        if reader.read_bytes(4) != META_MAGIC:
            raise CorruptionError("bad LogBlock meta magic")
        version = reader.read_u8()
        if version not in (META_VERSION, _LEGACY_META_VERSION):
            raise SerializationError(f"unsupported LogBlock meta version {version}")
        include_sum = version >= META_VERSION
        schema = TableSchema.from_bytes(reader.read_len_prefixed())
        row_count = reader.read_uvarint()
        codec_id = reader.read_u8()
        block_rows = reader.read_uvarint()
        n_blocks = reader.read_uvarint()
        block_row_counts = [reader.read_uvarint() for _ in range(n_blocks)]
        column_smas: list[Sma] = []
        block_headers: list[list[BlockHeader]] = []
        for _col_idx in range(len(schema)):
            column_smas.append(Sma.read_from(reader, include_sum=include_sum))
            headers = []
            for _block_idx in range(n_blocks):
                hdr_rows = reader.read_uvarint()
                sma = Sma.read_from(reader, include_sum=include_sum)
                stored = reader.read_uvarint()
                headers.append(BlockHeader(hdr_rows, sma, stored))
            block_headers.append(headers)
        index_sizes: dict[str, int] = {}
        for _ in range(reader.read_uvarint()):
            name = reader.read_str()
            index_sizes[name] = reader.read_uvarint()
        bloom_sizes: dict[str, int] = {}
        for _ in range(reader.read_uvarint()):
            name = reader.read_str()
            bloom_sizes[name] = reader.read_uvarint()
        return cls(
            schema=schema,
            row_count=row_count,
            codec_id=codec_id,
            block_rows=block_rows,
            block_row_counts=block_row_counts,
            column_smas=column_smas,
            block_headers=block_headers,
            index_sizes=index_sizes,
            bloom_sizes=bloom_sizes,
        )


class LogBlockWriter:
    """Builds one LogBlock from appended rows.

    Usage::

        writer = LogBlockWriter(schema)
        for row in rows:
            writer.append(row)
        blob = writer.finish()     # the packed LogBlock, ready for PUT
    """

    def __init__(
        self,
        schema: TableSchema,
        codec: str = DEFAULT_CODEC,
        block_rows: int = DEFAULT_BLOCK_ROWS,
        validate_rows: bool = True,
        build_indexes: bool = True,
        build_blooms: bool = True,
        meta_version: int = META_VERSION,
        vectorized: bool = True,
    ) -> None:
        if block_rows <= 0:
            raise ValueError(f"block_rows must be positive, got {block_rows}")
        self._meta_version = meta_version
        self._schema = schema
        self._codec = get_codec(codec)
        self._block_rows = block_rows
        self._validate = validate_rows
        self._build_indexes = build_indexes
        self._build_blooms = build_blooms
        # Columnar encode kernels (byte-identical to the interpreted
        # encoder); False forces the per-value reference path.
        self._vectorized = vectorized
        self._encode_stats = EncodeStats()
        self._columns: list[list] = [[] for _ in schema.columns]
        self._row_count = 0
        self._finished = False
        self._index_builders: dict[str, InvertedIndexBuilder | BkdIndexBuilder] = {}
        if build_indexes:
            for col in schema.columns:
                if col.index is IndexType.INVERTED:
                    self._index_builders[col.name] = InvertedIndexBuilder(tokenize=col.tokenize)
                elif col.index is IndexType.BKD:
                    is_float = col.ctype is ColumnType.FLOAT64
                    self._index_builders[col.name] = BkdIndexBuilder(is_float=is_float)

    @property
    def row_count(self) -> int:
        return self._row_count

    @property
    def schema(self) -> TableSchema:
        return self._schema

    @property
    def encode_stats(self) -> EncodeStats:
        """Values encoded per mode + fallback reasons (filled by finish)."""
        return self._encode_stats

    def append(self, row: dict) -> None:
        """Append one row (a column-name → value mapping)."""
        if self._finished:
            raise SerializationError("LogBlockWriter already finished")
        if self._validate:
            # Missing columns are nulls: rows ingested before an additive
            # DDL must still archive under the evolved schema.
            self._schema.validate_row(row, allow_missing=True)
        row_id = self._row_count
        for col_idx, col in enumerate(self._schema.columns):
            value = row.get(col.name)
            self._columns[col_idx].append(value)
            builder = self._index_builders.get(col.name)
            if builder is not None:
                builder.add(row_id, value)
        self._row_count += 1

    def append_many(self, rows: list[dict]) -> None:
        """Append a batch of row dicts (tests and oracles; the write
        path feeds :meth:`append_columns`): one transpose into
        per-column value lists, missing keys null, then the columnar
        ingest."""
        if not rows:
            return
        if self._finished:
            raise SerializationError("LogBlockWriter already finished")
        columns = {
            col.name: [row.get(col.name) for row in rows] for col in self._schema.columns
        }
        self._ingest_columns(columns, len(rows))

    def append_columns(self, columns: dict[str, list]) -> None:
        """Columnar ingest: one equal-length value list per column name.

        Missing columns are all-null (mirroring ``allow_missing`` row
        appends); unknown names raise :class:`SchemaError`.  The result
        is byte-identical to appending the equivalent rows one by one.
        """
        if self._finished:
            raise SerializationError("LogBlockWriter already finished")
        if not columns:
            raise SchemaError("append_columns requires at least one column")
        for name in columns:
            self._schema.column_index(name)  # raises on unknown columns
        lengths = {len(values) for values in columns.values()}
        if len(lengths) != 1:
            raise SchemaError(
                f"append_columns requires equal-length columns, got {sorted(lengths)}"
            )
        count = lengths.pop()
        if not count:
            return
        full = {
            col.name: columns[col.name] if col.name in columns else [None] * count
            for col in self._schema.columns
        }
        self._ingest_columns(full, count)

    def _ingest_columns(self, columns: dict[str, list], count: int) -> None:
        if self._validate:
            self._schema.validate_columns(columns)
        start_row = self._row_count
        for col_idx, col in enumerate(self._schema.columns):
            values = columns[col.name]
            self._columns[col_idx].extend(values)
            builder = self._index_builders.get(col.name)
            if builder is not None:
                builder.add_many(start_row, values)
        self._row_count += count

    def finish(self) -> bytes:
        """Freeze the writer and return the packed LogBlock bytes."""
        if self._finished:
            raise SerializationError("LogBlockWriter already finished")
        self._finished = True

        n_blocks = -(-self._row_count // self._block_rows) if self._row_count else 0
        block_row_counts = [
            min(self._block_rows, self._row_count - b * self._block_rows) for b in range(n_blocks)
        ]

        pack = PackBuilder()
        column_smas: list[Sma] = []
        block_headers: list[list[BlockHeader]] = []
        encoded_blocks: list[tuple[str, bytes]] = []

        for col_idx, col in enumerate(self._schema.columns):
            values = self._columns[col_idx]
            prep = None
            prep_reason: str | None = None
            if self._vectorized and n_blocks:
                try:
                    prep = prepare_column(values, col.ctype, trusted=self._validate)
                except EncodeFallback as exc:
                    prep_reason = exc.reason
            headers: list[BlockHeader] = []
            block_smas: list[Sma] = []
            for block_idx in range(n_blocks):
                start = block_idx * self._block_rows
                stop = start + block_row_counts[block_idx]
                if prep is not None:
                    payload, mode, reason = encode_block_range(prep, start, stop)
                    sma, sma_reason = compute_sma_range(prep, start, stop)
                    if mode == MODE_VECTORIZED:
                        self._encode_stats.rows_vectorized += stop - start
                    else:
                        self._encode_stats.rows_interpreted += stop - start
                    if reason is not None:
                        self._encode_stats.note_fallback(f"{col.name}: {reason}")
                    if sma_reason is not None:
                        self._encode_stats.note_fallback(f"{col.name}: {sma_reason}")
                else:
                    chunk = values[start:stop]
                    payload = encode_block(chunk, col.ctype)
                    sma = compute_sma(chunk, col.ctype)
                    self._encode_stats.rows_interpreted += stop - start
                    if prep_reason is not None:
                        self._encode_stats.note_fallback(f"{col.name}: {prep_reason}")
                compressed = self._codec.compress(payload)
                headers.append(BlockHeader(stop - start, sma, len(compressed)))
                block_smas.append(sma)
                encoded_blocks.append((block_member(col_idx, block_idx), compressed))
            column_smas.append(merge_smas(block_smas) if block_smas else compute_sma([], col.ctype))
            block_headers.append(headers)

        index_sizes: dict[str, int] = {}
        index_payloads: list[tuple[str, bytes]] = []
        for name, builder in self._index_builders.items():
            index = builder.build()
            payload = self._codec.compress(index.to_bytes())
            index_sizes[name] = len(payload)
            index_payloads.append((index_member(name), payload))

        # Bloom filters for exact-match string columns: a cheap
        # "definitely absent" check that skips fetching the (much
        # larger) inverted index on needle queries.  Bloom bits are
        # near-incompressible, so they are stored raw.
        bloom_sizes: dict[str, int] = {}
        bloom_payloads: list[tuple[str, bytes]] = []
        if self._build_indexes and self._build_blooms:
            from repro.logblock.bloom import BloomFilter

            for col_idx, col in enumerate(self._schema.columns):
                if not (col.ctype.is_string and not col.tokenize
                        and col.index is IndexType.INVERTED):
                    continue
                # Dedupe once: re-adding a duplicate sets the exact same
                # bits, so hashing each distinct value exactly once
                # yields byte-identical filters at a fraction of the
                # hash work (the filter was already *sized* on the
                # distinct count).
                distinct = {v for v in self._columns[col_idx] if v is not None}
                if not distinct:
                    continue
                bloom = BloomFilter.for_items(len(distinct))
                bloom.add_many(distinct)
                payload = bloom.to_bytes()
                bloom_sizes[col.name] = len(payload)
                bloom_payloads.append((bloom_member(col.name), payload))

        meta = LogBlockMeta(
            schema=self._schema,
            row_count=self._row_count,
            codec_id=self._codec.codec_id,
            block_rows=self._block_rows,
            block_row_counts=block_row_counts,
            column_smas=column_smas,
            block_headers=block_headers,
            index_sizes=index_sizes,
            bloom_sizes=bloom_sizes,
        )

        pack.add(META_MEMBER, meta.to_bytes(version=self._meta_version))
        for name, payload in bloom_payloads:
            pack.add(name, payload)
        for name, payload in index_payloads:
            pack.add(name, payload)
        for name, payload in encoded_blocks:
            pack.add(name, payload)
        return pack.build()
