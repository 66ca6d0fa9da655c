"""LogBlockReader: lazy, part-wise reads of a packed LogBlock.

The reader never fetches the whole blob.  It reads the ``meta`` member
once, then fetches only the indexes and column blocks the query plan
needs — each fetch is a single ranged GET against the object store (or a
cache hit through the multi-level cache when one is attached upstream).

What it decodes it keeps, in the form the next read needs: an index, a
Bloom filter and a column block are each decoded at most once per
reader, and — when a shared object cache is attached — at most once per
process while the entry stays resident, under ``(bucket, blob key,
member name)``.  A resident member costs no byte lookup, no GET, no
inflate, no decode and no decode charge.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.codec import get_codec
from repro.common.errors import CorruptionError, QueryError, SerializationError
from repro.logblock.bkd import BkdIndex
from repro.logblock.column import block_values, decode_block_arrays, decoded_nbytes
from repro.logblock.inverted import InvertedIndex
from repro.logblock.schema import ColumnSpec, IndexType
from repro.logblock.sma import Sma
from repro.logblock.bloom import BloomFilter
from repro.logblock.version import V7
from repro.logblock.writer import (
    META_MEMBER,
    LogBlockMeta,
    block_member,
    bloom_member,
    index_member,
)
from repro.tarpack.reader import PackReader


# A decoded column block enters the shared object cache only when the
# tier could hold this many of it.  Decoded blocks are the tier's largest
# and most numerous entries; in a tier that a few of them fill, each one
# admitted evicts the metas, pack headers and indexes every query of the
# blob needs, and is itself evicted before its next reader arrives.
# (Measured on benchmarks/e2e query_archived, a 192 KiB tier: at 8 the
# OSS bytes per query rise 0.3 %, at 32 every count equals what it was
# before blocks were shared.)
_BLOCK_ADMIT_DIVISOR = 32


def _v7_member(data: bytes, member: str) -> bytes:
    """A v7 index or Bloom member's bytes past the CRC-32 it begins
    with, checked (a v7 pack's manifest holds no member checksums)."""
    if len(data) < 4:
        raise SerializationError(f"{member} truncated")
    body = data[4:]
    if zlib.crc32(body) != int.from_bytes(data[:4], "little"):
        raise CorruptionError(f"{member} checksum mismatch")
    return body


@dataclass(frozen=True)
class RowSelection:
    """The matched rows of one LogBlock, located once for every reader.

    ``row_ids`` ascend; ``groups`` holds, for each column block with a
    matched row, ``(block_idx, offsets within the block)``.  Every
    output column is read, and the block prefetch planned, from this
    one grouping (:meth:`LogBlockReader.select`).
    """

    row_ids: np.ndarray
    groups: tuple[tuple[int, np.ndarray], ...]

    def __len__(self) -> int:
        return int(self.row_ids.size)


class LogBlockReader:
    """Read-side view of one LogBlock stored in an object store.

    ``decode_charge``, when provided, is called with the *compressed*
    byte count each time a member is actually decompressed and decoded
    (memoized and shared-cache re-reads are free) — the hook the
    virtual-time executor uses to account CPU cost alongside the metered
    I/O cost.
    """

    def __init__(self, pack: PackReader, decode_charge=None) -> None:
        self._pack = pack
        self._meta: LogBlockMeta | None = None
        self._decode_charge = decode_charge
        self._index_cache: dict[str, InvertedIndex | BkdIndex | BloomFilter] = {}
        # (column index, block index) -> the block's one decoded form.
        self._blocks: dict[tuple[int, int], object] = {}
        self._ends: np.ndarray | None = None  # see _block_ends
        self._column_smas: dict[str, Sma] = {}
        self._objects = None  # shared decoded-object cache (ObjectCache)
        self._objects_bucket = ""

    def attach_shared_cache(self, objects, bucket: str) -> None:
        """Share decoded indexes, Blooms and column blocks across readers
        via ``objects``.

        Entries are keyed ``(bucket, blob_key, member)`` exactly like the
        cached meta, so :meth:`ObjectCache.invalidate_blob` drops them
        together with the meta when a blob is deleted.
        """
        self._objects = objects
        self._objects_bucket = bucket

    def _shared_key(self, member: str):
        return (self._objects_bucket, self._pack.key, member)

    @property
    def pack(self) -> PackReader:
        return self._pack

    def meta(self) -> LogBlockMeta:
        """Fetch (once) and parse the meta member."""
        if self._meta is None:
            self._meta = LogBlockMeta.from_bytes(self._pack.read_member(META_MEMBER))
        return self._meta

    def attach_meta(self, meta: LogBlockMeta) -> None:
        """Install an externally cached meta, skipping the GET."""
        self._meta = meta

    @property
    def row_count(self) -> int:
        return self.meta().row_count

    def column(self, name: str) -> ColumnSpec:
        return self.meta().schema.column(name)

    def column_sma(self, name: str) -> Sma:
        """A column's SMA, materialised from the meta once per reader:
        planning, every leaf on the column and the aggregate fold all
        ask for the same one."""
        sma = self._column_smas.get(name)
        if sma is None:
            sma = self._column_smas[name] = self.meta().column_sma(name)
        return sma

    # -- indexes ---------------------------------------------------------

    def has_index(self, column: str) -> bool:
        return self.column(column).index is not IndexType.NONE

    def _shared(self, memo_key: str, member: str, decode):
        """A decoded index or Bloom filter: this reader's memo, then the
        shared object cache, and only then ``decode()``, which fetches."""
        found = self._index_cache.get(memo_key)
        if found is None:
            key = self._shared_key(member)
            found = None if self._objects is None else self._objects.get(key)
            if found is None:
                found = decode()
                if self._objects is not None:
                    self._objects.put(key, found, approx_bytes=found.nbytes)
            self._index_cache[memo_key] = found
        return found

    def read_index(self, column: str) -> InvertedIndex | BkdIndex:
        """Fetch and decode a column's index (memoized per reader).

        A shared decoded-object cache, when attached, serves repeat
        readers of the same blob without the GET, decompression, or
        parse (and therefore without the decode charge).
        """
        return self._shared(column, index_member(column), lambda: self._decode_index(column))

    def _decode_index(self, column: str) -> InvertedIndex | BkdIndex:
        meta = self.meta()
        spec = meta.schema.column(column)
        if spec.index is IndexType.NONE:
            raise QueryError(f"column {column!r} has no index")
        member = index_member(column)
        raw = self._pack.read_member(member)
        if self._decode_charge is not None:
            self._decode_charge(len(raw))
        payload = get_codec(meta.codec_id).decompress(raw)
        if meta.version == V7:
            payload = _v7_member(payload, member)
        if spec.index is IndexType.INVERTED:
            index: InvertedIndex | BkdIndex = InvertedIndex.from_bytes(payload)
        else:
            index = BkdIndex.from_bytes(payload)
        if index.row_count != meta.row_count:
            raise CorruptionError(
                f"index of {column!r} covers {index.row_count} rows, the LogBlock {meta.row_count}"
            )
        return index

    def has_bloom(self, column: str) -> bool:
        return column in self.meta().bloom_sizes

    def read_bloom(self, column: str) -> BloomFilter | None:
        """Fetch a column's Bloom filter (None when the column has none)."""
        if not self.has_bloom(column):
            return None
        member = bloom_member(column)
        return self._shared(f"bloom:{column}", member, lambda: self._decode_bloom(member))

    def _decode_bloom(self, member: str) -> BloomFilter:
        data = self._pack.read_member(member)
        if self.meta().version == V7:
            data = _v7_member(data, member)
        return BloomFilter.from_bytes(data)

    # -- column blocks -----------------------------------------------------

    def _decoded_block(self, col_idx: int, block_idx: int):
        """One column block in its decoded form (see
        :func:`~repro.logblock.column.decode_block_arrays`).

        Every block read goes through here: the reader's memo first,
        then the shared object cache, and only then one ranged GET, one
        inflate, one decode and one decode charge — so a block scanned
        as vectors and later materialized as python values is decoded
        once per query even when the shared cache cannot hold it.
        """
        key = (col_idx, block_idx)
        block = self._blocks.get(key)
        if block is not None:
            return block
        meta = self.meta()
        if not 0 <= block_idx < meta.n_blocks:
            raise QueryError(f"block index {block_idx} out of range [0, {meta.n_blocks})")
        member = block_member(col_idx, block_idx)
        if self._objects is not None:
            block = self._objects.get(self._shared_key(member))
        if block is None:
            codec = get_codec(meta.codec_id)
            raw = self._pack.read_member(member)
            if self._decode_charge is not None:
                self._decode_charge(len(raw))
            block = decode_block_arrays(
                codec.decompress(raw),
                meta.schema.columns[col_idx].ctype,
                meta.block_row_counts[block_idx],
            )
            if self._objects is not None:
                nbytes = decoded_nbytes(block)
                if nbytes * _BLOCK_ADMIT_DIVISOR <= self._objects.capacity_bytes:
                    self._objects.put(self._shared_key(member), block, approx_bytes=nbytes)
        self._blocks[key] = block
        return block

    def has_decoded_block(self, col_idx: int, block_idx: int) -> bool:
        """Whether this reader already decoded the block: its memo holds
        it even when the shared object cache could not admit it."""
        return (col_idx, block_idx) in self._blocks

    def read_block(self, column: str, block_idx: int) -> list:
        """One column block as python values (``None`` = null)."""
        col_idx = self.meta().schema.column_index(column)
        return block_values(self._decoded_block(col_idx, block_idx))

    def read_block_arrays(self, column: str, block_idx: int):
        """One column block in its decoded, shared, read-only form.

        ``(values, null_mask)`` numpy arrays for numeric/bool columns;
        ``(codes, dictionary, null_mask)`` for DICT-encoded string
        blocks, so predicates evaluate as integer compares on the
        codes; a :class:`~repro.common.strings.Strings` view for
        PLAIN string blocks.  What
        :func:`~repro.logblock.pruning.column_mask` evaluates a
        predicate over.
        """
        return self._decoded_block(self.meta().schema.column_index(column), block_idx)

    def read_column(self, column: str) -> list:
        """Fetch all blocks of one column, concatenated."""
        meta = self.meta()
        out: list = []
        for block_idx in range(meta.n_blocks):
            out.extend(self.read_block(column, block_idx))
        return out

    def _block_ends(self) -> np.ndarray:
        """Cumulative (exclusive) end row id of each column block."""
        if self._ends is None:
            self._ends = np.cumsum(np.asarray(self.meta().block_row_counts, dtype=np.int64))
        return self._ends

    def block_of_row(self, row_id: int) -> tuple[int, int]:
        """Map a global row id to ``(block_idx, offset_in_block)``."""
        meta = self.meta()
        if not 0 <= row_id < meta.row_count:
            raise QueryError(f"row id {row_id} out of range [0, {meta.row_count})")
        ends = self._block_ends()
        block_idx = int(np.searchsorted(ends, row_id, side="right"))
        start = int(ends[block_idx]) - meta.block_row_counts[block_idx]
        return block_idx, row_id - start

    def read_rows(self, row_ids: Sequence[int], columns: Iterable[str]) -> list[dict]:
        """Materialize the given rows for the given columns.

        Fetches each needed column block at most once.  ``row_ids`` must
        be strictly ascending (the query executor produces them that way).
        """
        wanted = list(columns)
        if not wanted:
            return [{} for _ in row_ids]
        selection = self.select(np.asarray(row_ids, dtype=np.int64))
        vectors = [self.read_column_values(column, selection) for column in wanted]
        return [dict(zip(wanted, values)) for values in zip(*vectors)]

    def select(self, row_ids: np.ndarray) -> RowSelection:
        """Locate matched rows (strictly ascending row ids) in blocks."""
        if not row_ids.size:
            return RowSelection(row_ids, ())
        if row_ids[0] < 0 or row_ids[-1] >= self.row_count:
            raise QueryError(f"row id out of range [0, {self.row_count})")
        ends = self._block_ends()
        # cuts[b] = matched rows before the end of block b.
        cuts = np.searchsorted(row_ids, ends, side="left").tolist()
        groups = []
        start = cut_before = 0
        for block_idx, (end, cut) in enumerate(zip(ends.tolist(), cuts)):
            if cut > cut_before:
                groups.append((block_idx, row_ids[cut_before:cut] - start))
            start, cut_before = end, cut
        return RowSelection(row_ids, tuple(groups))

    def read_column_values(self, column: str, selection: RowSelection) -> list:
        """Values of ``column`` at the selected row ids, in row-id order.

        The late-materialization read: touches only the column blocks
        containing matched rows, turns only the matched values into
        python objects, returns a flat value vector and never builds
        row dicts.  Aggregation consumes these vectors directly.
        """
        col_idx = self.meta().schema.column_index(column)
        out: list = []
        for block_idx, in_block in selection.groups:
            out.extend(block_values(self._decoded_block(col_idx, block_idx), in_block))
        return out

    def member_extent(self, member: str) -> tuple[int, int]:
        """Byte extent of a member (used by the prefetch planner)."""
        return self._pack.member_extent(member)
