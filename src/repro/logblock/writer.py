"""LogBlockWriter: rows in, one immutable packed LogBlock out.

Maps the five logical parts of Figure 4 onto pack members so that each
part can be fetched independently with ranged GETs:

* ``meta``            — part 1 (header: format version, schema, row
  count, codec) plus part 2 (column meta: per-column SMA, index and
  Bloom sizes) plus part 4 (column block headers: per-block row counts,
  SMAs, compressed sizes).
* ``idx/<column>``    — part 3, one member per indexed column.
* ``col/<c>/<b>``     — part 5, one member per (column, block), holding
  the null bitset and compressed data for that column block.

The writer is append-only; :meth:`finish` freezes the block.  LogBlocks
are immutable after packing (§3: "Each LogBlock is an immutable file and
will no longer be modified").

The writer emits LogBlock **format v8** only.  Its ``meta`` member is
column-wise — after the scalars, one array per field over every
(column, region) slot: value kinds, block row counts, stored sizes,
index/Bloom sizes, null counts, string ends, int values, float values,
one string blob — stored raw, so that opening it wraps the sections and
decodes nothing (:class:`LogBlockMeta`, DESIGN.md §3 has the byte
layout).  Its indexes are sectioned the same way
(:mod:`repro.logblock.inverted`, :mod:`repro.logblock.bkd`), and so is
every list of strings in a column block (:mod:`repro.logblock.column`).
Every integer it stores is a difference at the narrowest width: INT64 /
TIMESTAMP column blocks are delta or frame-of-reference framed, and a
numeric index holds gaps between values and between row ids.  No member
carries a checksum of its own: the pack manifest (v3) holds one per
member.  Format v7 differs in exactly that (each meta, index and Bloom
member checksummed itself, under a v2 manifest), so v7 blocks are still
read (:mod:`repro.logblock.version`) and move forward when compaction or
the cold compactor rewrites them through this writer.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

import numpy as np

from repro.codec import get_codec
from repro.codec.registry import DEFAULT_CODEC
from repro.common.bytesio import BinaryReader, BinaryWriter
from repro.common.errors import CorruptionError, SchemaError, SerializationError
from repro.common.strings import Strings
from repro.logblock.bkd import BkdIndexBuilder
from repro.logblock.bloom import BloomFilter
from repro.logblock.inverted import InvertedIndexBuilder
from repro.logblock.column import encode_block
from repro.logblock.encode_kernels import (
    VECTOR_DTYPES,
    EncodeFallback,
    EncodeStats,
    PreparedColumn,
    column_array,
    compute_sma_range,
    encode_block_range,
    prepare_column,
    rank_strings,
)
from repro.logblock.schema import ColumnType, IndexType, TableSchema
from repro.logblock.sma import Sma, SmaTable, compute_sma, merge_smas
from repro.logblock.version import META_VERSION, READ_VERSIONS, V7
from repro.tarpack.packer import PackBuilder

META_MEMBER = "meta"
META_MAGIC = b"LGBK"


# What a meta holds besides its arrays: the object, its dicts and list,
# the SmaTable and the headers of its seven buffers.
_META_FIXED_OVERHEAD = 1536

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


_UINT_TYPES = {width: np.dtype(f"<u{width}") for width in (1, 2, 4, 8)}


def _pack_uints(values) -> bytes:
    """A width byte, then ``values`` at the narrowest of 1/2/4/8 bytes
    that holds the largest: addressable in place, and near a varint's
    size for the small counts a meta is made of."""
    array = np.asarray(values, dtype=np.uint64)
    top = int(array.max()) if array.size else 0
    width = 1 if top < 1 << 8 else 2 if top < 1 << 16 else 4 if top < 1 << 32 else 8
    return bytes((width,)) + array.astype(_UINT_TYPES[width]).tobytes()


def _read_uints(reader: BinaryReader, count: int) -> np.ndarray:
    dtype = _UINT_TYPES.get(reader.read_u8())
    if dtype is None:
        raise SerializationError("unknown array width in LogBlock meta")
    return np.frombuffer(reader.read_bytes(count * dtype.itemsize), dtype=dtype)


def _typed(values, ctype: ColumnType) -> bool:
    """Whether ``values`` is a column's own form: a vector of its dtype,
    or a STRING column's :class:`Strings`."""
    if ctype is ColumnType.STRING:
        return isinstance(values, Strings)
    return isinstance(values, np.ndarray) and values.dtype == VECTOR_DTYPES.get(ctype)


def _piece(values, ctype: ColumnType) -> list | np.ndarray | Strings:
    """What the writer keeps of one appended column (not copied: the
    caller hands it over): the column's own form as it is, anything
    else as a list."""
    if _typed(values, ctype):
        return values
    if isinstance(values, (np.ndarray, Strings)):
        return values.tolist()
    return values if type(values) is list else list(values)


@lru_cache(maxsize=64)
def _interned_schema(data: bytes) -> TableSchema:
    """One parsed (immutable) schema per distinct serialized schema: the
    LogBlocks of a table all embed the same bytes."""
    return TableSchema.from_bytes(data)


class LogBlockMeta:
    """Parsed ``meta`` member: everything needed to plan reads.

    The SMAs and block headers are held column-wise — one
    :class:`SmaTable` over every (column, region) slot and one array of
    stored sizes — exactly as the format lays them out, so opening a
    meta builds no per-SMA objects; :meth:`column_sma` and
    :meth:`block_header` materialise the one that is asked for.  Slot
    ``column_index * (n_blocks + 1)`` is a column's own SMA and the
    ``n_blocks`` slots after it are its blocks'.
    """

    def __init__(
        self,
        schema: TableSchema,
        row_count: int,
        codec_id: int,
        block_rows: int,
        block_row_counts: list[int],
        smas: SmaTable,
        stored_sizes: np.ndarray,
        index_sizes: dict[str, int],
        bloom_sizes: dict[str, int],
        version: int = META_VERSION,
    ) -> None:
        n_blocks = len(block_row_counts)
        if len(smas) != len(schema) * (n_blocks + 1) or len(stored_sizes) != len(schema) * n_blocks:
            raise SerializationError("block header count mismatch")
        self.schema = schema
        self.row_count = row_count
        self.codec_id = codec_id
        self.block_rows = block_rows
        self.block_row_counts = block_row_counts
        self.index_sizes = index_sizes
        self.bloom_sizes = bloom_sizes
        self.version = version  # the format the LogBlock's members are written in
        self._smas = smas
        self._stored_sizes = stored_sizes

    @classmethod
    def from_smas(
        cls,
        schema: TableSchema,
        row_count: int,
        codec_id: int,
        block_rows: int,
        block_row_counts: list[int],
        column_smas: list[Sma],
        block_headers: list[list[BlockHeader]],
        index_sizes: dict[str, int],
        bloom_sizes: dict[str, int],
    ) -> "LogBlockMeta":
        """Regroup per-column SMAs and ``block_headers[column][block]``."""
        if any(len(headers) != len(block_row_counts) for headers in block_headers):
            raise SerializationError("block header count mismatch")
        slots = [
            sma
            for column_sma, headers in zip(column_smas, block_headers)
            for sma in (column_sma, *(header.sma for header in headers))
        ]
        stored = [header.stored_size for headers in block_headers for header in headers]
        return cls(
            schema,
            row_count,
            codec_id,
            block_rows,
            block_row_counts,
            SmaTable.from_smas(slots),
            np.array(stored, dtype=np.uint64),
            index_sizes,
            bloom_sizes,
        )

    @property
    def n_blocks(self) -> int:
        return len(self.block_row_counts)

    @property
    def nbytes(self) -> int:
        """Bytes this meta keeps alive (what a cache is charged); the
        schema is shared by every meta of its table."""
        return (
            _META_FIXED_OVERHEAD
            + self._smas.nbytes
            + self._stored_sizes.nbytes
            + 8 * len(self.block_row_counts)
            + 64 * (len(self.index_sizes) + len(self.bloom_sizes))
        )

    def column_sma(self, column: str) -> Sma:
        slot = self.schema.column_index(column) * (self.n_blocks + 1)
        return self._smas.sma(slot, self.row_count)

    def block_header(self, column: str, block_idx: int) -> BlockHeader:
        if not 0 <= block_idx < self.n_blocks:
            raise IndexError(f"block index {block_idx} out of range [0, {self.n_blocks})")
        col_idx = self.schema.column_index(column)
        rows = self.block_row_counts[block_idx]
        return BlockHeader(
            rows,
            self._smas.sma(col_idx * (self.n_blocks + 1) + 1 + block_idx, rows),
            int(self._stored_sizes[col_idx * self.n_blocks + block_idx]),
        )

    # -- serialization -------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Every field of every slot as one fixed-width array, after the
        magic and the format version (:data:`META_VERSION`).

        After the scalars come the kind bytes, then the unsigned arrays
        (block row counts, stored sizes, index and Bloom sizes by column
        as ``size + 1`` with 0 for none, null counts, string ends), each
        at the narrowest width that holds it, then the int and float
        values and the string blob.
        """
        smas = self._smas
        columns = self.schema.column_names()
        if not set(self.index_sizes) | set(self.bloom_sizes) <= set(columns):
            raise SerializationError("index or Bloom size of a column the schema lacks")
        head = BinaryWriter()
        head.write_len_prefixed(self.schema.to_bytes())
        head.write_uvarint(self.row_count)
        head.write_u8(self.codec_id)
        head.write_uvarint(self.block_rows)
        head.write_uvarint(len(self.block_row_counts))
        body = b"".join(
            (
                head.getvalue(),
                smas.kinds,
                _pack_uints(self.block_row_counts),
                _pack_uints(self._stored_sizes),
                _pack_uints([self.index_sizes.get(name, -1) + 1 for name in columns]),
                _pack_uints([self.bloom_sizes.get(name, -1) + 1 for name in columns]),
                _pack_uints(smas.null_counts),
                _pack_uints(smas.string_ends),
                smas.ints.astype("<i8").tobytes(),
                smas.floats.astype("<f8").tobytes(),
                smas.strings,
            )
        )
        return META_MAGIC + bytes((META_VERSION,)) + body

    @classmethod
    def from_bytes(cls, data: bytes) -> "LogBlockMeta":
        reader = BinaryReader(data)
        if reader.read_bytes(4) != META_MAGIC:
            raise CorruptionError("bad LogBlock meta magic")
        version = reader.read_u8()
        if version not in READ_VERSIONS:
            raise SerializationError(f"unsupported LogBlock meta version {version}")
        if version == V7:  # a crc32 of the version byte, then of the body
            crc = reader.read_u32()
            if zlib.crc32(memoryview(data)[reader.offset :], zlib.crc32(data[4:5])) != crc:
                raise CorruptionError("LogBlock meta checksum mismatch")
        schema = _interned_schema(reader.read_len_prefixed())
        row_count = reader.read_uvarint()
        codec_id = reader.read_u8()
        block_rows = reader.read_uvarint()
        n_blocks = reader.read_uvarint()
        n_columns = len(schema)
        n_slots = n_columns * (n_blocks + 1)
        kinds = reader.read_bytes(3 * n_slots)
        n_ints, n_floats, n_strings = SmaTable.value_counts(kinds)
        block_row_counts = _read_uints(reader, n_blocks).tolist()
        stored_sizes = _read_uints(reader, n_columns * n_blocks)
        index_sizes = _read_uints(reader, n_columns).tolist()
        bloom_sizes = _read_uints(reader, n_columns).tolist()
        null_counts = _read_uints(reader, n_slots)
        string_ends = _read_uints(reader, n_strings)
        ints = np.frombuffer(reader.read_bytes(8 * n_ints), dtype="<i8")
        floats = np.frombuffer(reader.read_bytes(8 * n_floats), dtype="<f8")
        strings = reader.read_bytes(reader.remaining())
        smas = SmaTable(null_counts, kinds, ints, floats, strings, string_ends)
        columns = schema.column_names()
        return cls(
            schema,
            row_count,
            codec_id,
            block_rows,
            block_row_counts,
            smas,
            stored_sizes,
            {name: size - 1 for name, size in zip(columns, index_sizes) if size},
            {name: size - 1 for name, size in zip(columns, bloom_sizes) if size},
            version,
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
        vectorized: bool = True,
    ) -> None:
        if block_rows <= 0:
            raise ValueError(f"block_rows must be positive, got {block_rows}")
        self._schema = schema
        self._codec = get_codec(codec)
        self._block_rows = block_rows
        self._validate = validate_rows
        self._build_indexes = build_indexes
        self._build_blooms = build_blooms
        # Columnar encode kernels (byte-identical to the interpreted
        # encoder); False forces the per-value reference path — the seam
        # the byte-identity tests reach it through, set by no caller.
        self._vectorized = vectorized
        self._encode_stats = EncodeStats()
        # The columns are kept whole — per column the typed vectors and
        # value lists appended, in order (one per append call); blocks,
        # SMAs, indexes and Bloom filters are all built from them in
        # finish(), so the pack does not depend on how the rows were cut
        # into append calls.
        self._pieces: list[list] = [[] for _ in schema.columns]
        self._row_count = 0
        self._finished = False

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
        """Append one row (a column-name → value mapping); missing
        columns are nulls: rows ingested before an additive DDL must
        still archive under the evolved schema."""
        self.append_many([row])

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

    def append_columns(self, columns: dict[str, list | np.ndarray]) -> None:
        """Columnar ingest: one equal-length value list or typed vector
        per column name.

        A vector of the column's own dtype (int64 for INT64 / TIMESTAMP,
        float64, bool) or a STRING column's :class:`Strings` is taken as
        it is, unvalidated — the data builder hands over the memtable's
        so; any other input is a list of Python values.
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

    def _ingest_columns(self, columns: dict, count: int) -> None:
        columns = {
            col.name: _piece(columns[col.name], col.ctype) for col in self._schema.columns
        }
        if self._validate:  # a column's own form holds valid values
            self._schema.validate_columns(
                {name: values for name, values in columns.items() if isinstance(values, list)}
            )
        for pieces, values in zip(self._pieces, columns.values()):
            pieces.append(values)
        self._row_count += count

    def _column(self, col_idx: int, ctype: ColumnType) -> np.ndarray | Strings | list:
        """One column's rows in :func:`prepare_column`'s input form: one
        appended vector or :class:`Strings` as it is, several vectors
        joined, or — when some rows came as values — every value
        converted once (:func:`column_array`)."""
        pieces = self._pieces[col_idx]
        if len(pieces) == 1:
            return pieces[0] if _typed(pieces[0], ctype) else column_array(pieces[0], ctype)
        if pieces and all(isinstance(piece, np.ndarray) for piece in pieces):
            return np.concatenate(pieces)  # of the column's dtype: _piece
        values = chain.from_iterable(
            piece if isinstance(piece, list) else piece.tolist() for piece in pieces
        )
        return column_array(list(values), ctype)

    def finish(self) -> bytes:
        """Freeze the writer and return the packed LogBlock bytes.

        Each column is prepared once (:func:`prepare_column`) and its
        blocks, SMAs, index and Bloom filter are all built from that
        one form; a column the kernels refuse goes to the per-value
        reference encoders instead.
        """
        if self._finished:
            raise SerializationError("LogBlockWriter already finished")
        self._finished = True

        n_blocks = -(-self._row_count // self._block_rows) if self._row_count else 0
        block_row_counts = [
            min(self._block_rows, self._row_count - b * self._block_rows) for b in range(n_blocks)
        ]

        column_smas: list[Sma] = []
        block_headers: list[list[BlockHeader]] = []
        encoded_blocks: list[tuple[str, bytes]] = []
        index_sizes: dict[str, int] = {}
        index_payloads: list[tuple[str, bytes]] = []
        bloom_sizes: dict[str, int] = {}
        bloom_payloads: list[tuple[str, bytes]] = []

        for col_idx, col in enumerate(self._schema.columns):
            column = self._column(col_idx, col.ctype)
            prep = None
            prep_reason: str | None = None
            if self._vectorized and n_blocks:
                try:
                    prep = prepare_column(column, col.ctype, trusted=self._validate)
                except EncodeFallback as exc:
                    prep_reason = exc.reason
            # The reference encoders' input: Python values.
            values = None
            if prep is None:
                values = column if isinstance(column, list) else column.tolist()
            headers: list[BlockHeader] = []
            block_smas: list[Sma] = []
            for block_idx in range(n_blocks):
                start = block_idx * self._block_rows
                stop = start + block_row_counts[block_idx]
                if prep is not None:
                    payload = encode_block_range(prep, start, stop)
                    sma, sma_reason = compute_sma_range(prep, start, stop)
                    self._encode_stats.rows_vectorized += stop - start
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

            if not self._build_indexes or col.index is IndexType.NONE:
                continue
            index, bloom = self._build_index(col, values, prep)
            payload = self._codec.compress(index.to_bytes())
            index_sizes[col.name] = len(payload)
            index_payloads.append((index_member(col.name), payload))
            if bloom is not None:
                # Bloom bits are near-incompressible, so they are stored raw.
                payload = bloom.to_bytes()
                bloom_sizes[col.name] = len(payload)
                bloom_payloads.append((bloom_member(col.name), payload))

        meta = LogBlockMeta.from_smas(
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

        pack = PackBuilder()
        pack.add(META_MEMBER, meta.to_bytes())
        for name, payload in bloom_payloads + index_payloads + encoded_blocks:
            pack.add(name, payload)
        return pack.build()

    def _build_index(self, col, values: list | None, prep: PreparedColumn | None):
        """``(index, Bloom filter or None)`` of one indexed column, from
        its prepared form or (``prep`` None) its Python ``values``.

        A prepared column hands the builders what they would otherwise
        derive: the BKD index its typed vector and null mask, the raw
        inverted index its sorted terms and per-row ranks.  Exact-match
        string columns also get a Bloom filter — a cheap "definitely
        absent" check that skips fetching the (much larger) inverted
        index on needle queries — over those same distinct terms:
        re-adding a duplicate would set the exact same bits.
        """
        if col.index is IndexType.BKD:
            builder = BkdIndexBuilder(is_float=col.ctype is ColumnType.FLOAT64)
            if prep is not None:
                builder.add_many(0, prep.vector, prep.null_mask)
            else:
                for row_id, value in enumerate(values):
                    builder.add(row_id, value)
            return builder.build(), None
        builder = InvertedIndexBuilder(tokenize=col.tokenize)
        if col.tokenize:  # cut from the blob, no value decoded
            builder.add_many(0, values if prep is None else prep.column)
            return builder.build(), None
        if prep is not None:
            values = prep.values
        ranking = prep.ranking if prep is not None else rank_strings(values)
        builder.add_many(0, values, ranking)
        bloom = None
        terms = ranking[0]
        if self._build_blooms and terms:
            bloom = BloomFilter.for_items(len(terms))
            bloom.add_many(terms)
        return builder.build(), bloom
