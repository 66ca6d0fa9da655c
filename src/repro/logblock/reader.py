"""LogBlockReader: lazy, part-wise reads of a packed LogBlock.

The reader never fetches the whole blob.  It reads the ``meta`` member
once, then fetches only the indexes and column blocks the query plan
needs — each fetch is a single ranged GET against the object store (or a
cache hit through the multi-level cache when one is attached upstream).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.codec import get_codec
from repro.common.errors import CorruptionError, QueryError
from repro.logblock.bkd import BkdIndex
from repro.logblock.column import (
    PlainStrings,
    decode_block,
    decode_block_arrays,
    plain_strings,
    with_nulls,
)
from repro.logblock.inverted import InvertedIndex
from repro.logblock.schema import ColumnSpec, IndexType
from repro.logblock.sma import Sma
from repro.logblock.bloom import BloomFilter
from repro.logblock.writer import (
    META_MEMBER,
    LogBlockMeta,
    block_member,
    bloom_member,
    index_member,
)
from repro.tarpack.reader import PackReader


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
    (memoized re-reads are free) — the hook the virtual-time executor
    uses to account CPU cost alongside the metered I/O cost.
    """

    def __init__(self, pack: PackReader, decode_charge=None) -> None:
        self._pack = pack
        self._meta: LogBlockMeta | None = None
        self._decode_charge = decode_charge
        self._index_cache: dict[str, InvertedIndex | BkdIndex] = {}
        self._block_cache: dict[tuple[int, int], list] = {}
        self._column_smas: dict[str, Sma] = {}
        self._objects = None  # shared decoded-object cache (ObjectCache)
        self._objects_bucket = ""

    def attach_shared_cache(self, objects, bucket: str) -> None:
        """Share decoded indexes/Blooms across readers via ``objects``.

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

    def read_index(self, column: str) -> InvertedIndex | BkdIndex:
        """Fetch and decode a column's index (memoized per reader).

        A shared decoded-object cache, when attached, serves repeat
        readers of the same blob without the GET, decompression, or
        parse (and therefore without the decode charge).
        """
        if column in self._index_cache:
            return self._index_cache[column]
        meta = self.meta()
        spec = meta.schema.column(column)
        if spec.index is IndexType.NONE:
            raise QueryError(f"column {column!r} has no index")
        member = index_member(column)
        if self._objects is not None:
            cached = self._objects.get(self._shared_key(member))
            if cached is not None:
                self._index_cache[column] = cached
                return cached
        codec = get_codec(meta.codec_id)
        raw = self._pack.read_member(member)
        if self._decode_charge is not None:
            self._decode_charge(len(raw))
        payload = codec.decompress(raw)
        index: InvertedIndex | BkdIndex
        if spec.index is not IndexType.INVERTED:
            index = BkdIndex.from_bytes(payload)  # one layout in every version
        elif meta.version >= 4:
            index = InvertedIndex.from_bytes(payload)
        else:
            index = InvertedIndex.from_v3_bytes(payload)
        if index.row_count != meta.row_count:
            raise CorruptionError(
                f"index of {column!r} covers {index.row_count} rows, the LogBlock {meta.row_count}"
            )
        self._index_cache[column] = index
        if self._objects is not None:
            self._objects.put(self._shared_key(member), index, approx_bytes=index.nbytes)
        return index

    def has_bloom(self, column: str) -> bool:
        return column in self.meta().bloom_sizes

    def read_bloom(self, column: str) -> BloomFilter | None:
        """Fetch a column's Bloom filter (None when the column has none)."""
        if not self.has_bloom(column):
            return None
        key = f"bloom:{column}"
        if key in self._index_cache:
            return self._index_cache[key]  # type: ignore[return-value]
        member = bloom_member(column)
        if self._objects is not None:
            cached = self._objects.get(self._shared_key(member))
            if cached is not None:
                self._index_cache[key] = cached  # type: ignore[assignment]
                return cached  # type: ignore[return-value]
        payload = self._pack.read_member(member)
        bloom = BloomFilter.from_bytes(payload)
        self._index_cache[key] = bloom  # type: ignore[assignment]
        if self._objects is not None:
            self._objects.put(self._shared_key(member), bloom, approx_bytes=len(payload))
        return bloom

    # -- column blocks -----------------------------------------------------

    def _block_payload(self, col_idx: int, block_idx: int) -> bytes:
        """Decompressed payload of one column block, fetched+charged once.

        Shared by :meth:`read_block` and :meth:`read_block_arrays` so a
        block scanned as numpy vectors and later materialized as python
        values pays one ranged GET and one decode charge, not two.
        """
        meta = self.meta()
        key = ("payload", col_idx, block_idx)
        payload = self._block_cache.get(key)
        if payload is not None:
            return payload
        if not 0 <= block_idx < meta.n_blocks:
            raise QueryError(f"block index {block_idx} out of range [0, {meta.n_blocks})")
        codec = get_codec(meta.codec_id)
        raw = self._pack.read_member(block_member(col_idx, block_idx))
        if self._decode_charge is not None:
            self._decode_charge(len(raw))
        payload = codec.decompress(raw)
        self._block_cache[key] = payload
        return payload

    def read_block(self, column: str, block_idx: int) -> list:
        """Fetch and decode one column block (memoized per reader)."""
        meta = self.meta()
        col_idx = meta.schema.column_index(column)
        key = (col_idx, block_idx)
        if key in self._block_cache:
            return self._block_cache[key]
        payload = self._block_payload(col_idx, block_idx)
        values = decode_block(payload, meta.schema.column(column).ctype, meta.block_row_counts[block_idx])
        self._block_cache[key] = values
        return values

    def read_block_arrays(self, column: str, block_idx: int):
        """Vectorized block read: ``(values, null_mask)`` numpy arrays.

        DICT-encoded string blocks return ``(codes, dictionary,
        null_mask)`` so predicates evaluate as integer compares on the
        codes; PLAIN string blocks return ``None`` (no natural vector
        form) — callers fall back to :meth:`read_block`.  Backing the
        §8 "vectorized query execution" scan mode.
        """
        meta = self.meta()
        col_idx = meta.schema.column_index(column)
        key = ("vec", col_idx, block_idx)
        if key in self._block_cache:
            return self._block_cache[key]
        payload = self._block_payload(col_idx, block_idx)
        arrays = decode_block_arrays(
            payload, meta.schema.column(column).ctype, meta.block_row_counts[block_idx]
        )
        self._block_cache[key] = arrays
        return arrays

    def read_column(self, column: str) -> list:
        """Fetch all blocks of one column, concatenated."""
        meta = self.meta()
        out: list = []
        for block_idx in range(meta.n_blocks):
            out.extend(self.read_block(column, block_idx))
        return out

    def _block_ends(self) -> np.ndarray:
        """Cumulative (exclusive) end row id of each column block."""
        meta = self.meta()
        key = ("ends",)
        ends = self._block_cache.get(key)
        if ends is None:
            ends = np.cumsum(np.asarray(meta.block_row_counts, dtype=np.int64))
            self._block_cache[key] = ends
        return ends

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

    def _plain_strings(self, col_idx: int, block_idx: int) -> PlainStrings:
        """The offsets-first view of a PLAIN string block (memoized)."""
        key = ("str", col_idx, block_idx)
        strings = self._block_cache.get(key)
        if strings is None:
            strings = plain_strings(
                self._block_payload(col_idx, block_idx),
                self.meta().block_row_counts[block_idx],
            )
            self._block_cache[key] = strings
        return strings

    def read_column_values(self, column: str, selection: RowSelection) -> list:
        """Values of ``column`` at the selected row ids, in row-id order.

        The late-materialization read: fetches only the column blocks
        containing matched rows, decodes only the matched values,
        returns a flat value vector and never builds row dicts.
        Aggregation consumes these vectors directly.
        """
        col_idx = self.meta().schema.column_index(column)
        out: list = []
        for block_idx, in_block in selection.groups:
            arrays = self.read_block_arrays(column, block_idx)
            if arrays is None:
                out.extend(self._plain_strings(col_idx, block_idx).pick(in_block))
            elif len(arrays) == 3:
                # DICT string block: pick codes, then look the few
                # matched values up in the (tiny) dictionary.
                codes, dictionary, null_mask = arrays
                hit_codes = codes[in_block]
                hit_codes[null_mask[in_block]] = 0
                out.extend(
                    None if code == 0 else dictionary[code - 1]
                    for code in hit_codes.tolist()
                )
            else:
                # Fancy-index the numpy block instead of decoding every
                # value to a python object just to pick a few of them.
                values_arr, null_mask = arrays
                out.extend(with_nulls(values_arr[in_block].tolist(), null_mask[in_block]))
        return out

    def member_extent(self, member: str) -> tuple[int, int]:
        """Byte extent of a member (used by the prefetch planner)."""
        return self._pack.member_extent(member)
