"""Inverted index over a string column (Lucene-style, §3.2).

Maps terms to sorted posting lists of row ids.  For a *tokenized* column
each row contributes all distinct terms of its tokenized value
(full-text search over log lines; terms are lowercased by the
tokenizer).  For an untokenized column each row contributes a single
term equal to its **raw** whole value — exact-match semantics must agree
byte-for-byte with the scan path's ``==``, so no case folding happens
(SQL string equality is case-sensitive).

Serialized layout::

    tokenized: u8, row_count: uvarint, term_count: uvarint
    per term:  term (len-prefixed utf-8)
               postings: uvarint count + delta-encoded uvarint list

Terms are written sorted, so readers can binary-search the decoded term
dictionary.  Postings are delta-encoded row ids, which compress well for
clustered terms.

Build, encode and decode are columnar (DESIGN.md §11): rows append to
flat ``(term, row id)`` arrays, one stable argsort groups them into a
CSR index, and every posting list is delta- and varint-coded at once.
The only per-term python left is writing and reading the term strings
the layout interleaves with the postings.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable

import numpy as np

from repro.common.bitset import Bitset
from repro.common.bytesio import BinaryReader
from repro.common.errors import SerializationError
from repro.common.varint import (
    decode_uvarint,
    decode_uvarint_array,
    encode_uvarint,
    encode_uvarint_array,
    uvarint_ends,
)
from repro.logblock.tokenizer import normalize_term, tokenize


class InvertedIndexBuilder:
    """Accumulates ``(term, row id)`` pairs while rows are appended.

    Nothing is grouped or deduplicated until :meth:`build`: a row only
    extends a flat term list and a parallel run of row ids, so the
    per-token work is one list append.
    """

    def __init__(self, tokenize: bool) -> None:
        self._tokenize = tokenize
        self._terms: list[str] = []
        # One chunk per call; concatenated, parallel to _terms.
        self._row_ids: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
        self._row_count = 0

    def add(self, row_id: int, value: str | None) -> None:
        """Index ``value`` for ``row_id``.  Nulls are simply absent."""
        self._extend(row_id, (value,))

    def add_many(self, start_row_id: int, values: list) -> None:
        """Batch :meth:`add` for rows ``start_row_id ..+ len(values)``."""
        self._extend(start_row_id, values)

    def _extend(self, start_row_id: int, values) -> None:
        count = len(values)
        if not count:
            return
        self._row_count = max(self._row_count, start_row_id + count)
        terms = self._terms
        if self._tokenize:
            per_row = []
            for value in values:
                if value is None:
                    per_row.append(0)
                else:
                    row_terms = tokenize(value)
                    terms += row_terms
                    per_row.append(len(row_terms))
        else:
            # raw: exact-match must mirror scan equality
            per_row = [value is not None for value in values]
            terms += [value for value in values if value is not None]
        rows = np.arange(start_row_id, start_row_id + count, dtype=np.int64)
        self._row_ids.append(np.repeat(rows, per_row))

    def build(self) -> "InvertedIndex":
        """Group the pairs by term into the CSR form.

        Term ids are ranks in the sorted distinct terms, so one stable
        argsort of the ids orders the pairs by term and keeps each
        term's rows in arrival order — what a per-term append would
        have produced.  That also puts equal pairs (a token repeated in
        its row, a row adding its last term again) next to each other,
        where all but the first are dropped.
        """
        terms = sorted(set(self._terms))
        rank = dict(zip(terms, range(len(terms))))
        # numpy's stable sort is a radix sort for 16-bit keys.
        id_type = np.uint16 if len(terms) <= 1 << 16 else np.int64
        ids = np.fromiter(
            map(rank.__getitem__, self._terms), dtype=id_type, count=len(self._terms)
        )
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        rows = np.concatenate(self._row_ids)[order]
        keep = np.ones(len(ids), dtype=bool)
        keep[1:] = (ids[1:] != ids[:-1]) | (rows[1:] != rows[:-1])
        offsets = np.zeros(len(terms) + 1, dtype=np.int64)
        np.cumsum(np.bincount(ids[keep], minlength=len(terms)), out=offsets[1:])
        return InvertedIndex(terms, rows[keep], offsets, self._row_count, self._tokenize)


class InvertedIndex:
    """Immutable queryable inverted index in CSR form.

    ``terms`` is sorted; the row ids of ``terms[i]`` are
    ``rows[offsets[i]:offsets[i + 1]]``.  Built and decoded indexes
    share this one representation.
    """

    def __init__(
        self,
        terms: list[str],
        rows: np.ndarray,
        offsets: np.ndarray,
        row_count: int,
        tokenize: bool,
    ) -> None:
        if len(offsets) != len(terms) + 1 or int(offsets[-1]) != len(rows):
            raise ValueError("terms, offsets and rows disagree")
        self._terms = terms
        self._rows = rows
        self._offsets = offsets
        self._row_count = row_count
        self._tokenize = tokenize

    @property
    def row_count(self) -> int:
        return self._row_count

    @property
    def tokenized(self) -> bool:
        return self._tokenize

    @property
    def term_count(self) -> int:
        return len(self._terms)

    def terms(self) -> list[str]:
        return list(self._terms)

    def lookup(self, term: str) -> np.ndarray:
        """Row ids containing ``term`` (empty array when absent).

        Query terms are normalized only for tokenized (full-text)
        indexes, mirroring how the indexed terms were produced.
        """
        needle = normalize_term(term) if self._tokenize else term
        idx = bisect_left(self._terms, needle)
        if idx < len(self._terms) and self._terms[idx] == needle:
            return self._rows[self._offsets[idx] : self._offsets[idx + 1]]
        return np.empty(0, dtype=np.int64)

    def lookup_prefix(self, prefix: str) -> np.ndarray:
        """Row ids containing any term with the given prefix."""
        needle = normalize_term(prefix) if self._tokenize else prefix
        start = bisect_left(self._terms, needle)
        stop = start
        while stop < len(self._terms) and self._terms[stop].startswith(needle):
            stop += 1
        # Terms sharing a prefix are adjacent, and so are their rows.
        return np.unique(self._rows[self._offsets[start] : self._offsets[stop]])

    def match_all(self, terms: Iterable[str]) -> Bitset:
        """Rows containing *all* the given terms (full-text AND match)."""
        result: Bitset | None = None
        for term in terms:
            bits = Bitset.from_indices(self._row_count, self.lookup(term))
            result = bits if result is None else (result & bits)
            if not result.any():
                break
        if result is None:
            return Bitset.full(self._row_count)
        return result

    def match_any(self, terms: Iterable[str]) -> Bitset:
        """Rows containing *any* of the given terms (OR match)."""
        hits = [self.lookup(term) for term in terms]
        if not hits:
            return Bitset(self._row_count)
        return Bitset.from_indices(self._row_count, np.concatenate(hits))

    # -- serialization -------------------------------------------------------

    def to_bytes(self) -> bytes:
        rows, offsets = self._rows, self._offsets
        counts = np.diff(offsets)
        starts = offsets[:-1][counts > 0]
        deltas = np.empty(len(rows), dtype=np.int64)
        deltas[1:] = rows[1:] - rows[:-1]
        deltas[starts] = rows[starts]  # every posting list restarts from row 0
        if deltas.size and int(deltas.min()) < 0:
            raise ValueError("posting row ids must ascend within a term")
        encoded = encode_uvarint_array(deltas)
        byte_at = np.zeros(len(rows) + 1, dtype=np.int64)  # where posting k starts
        byte_at[1:] = uvarint_ends(encoded)
        bounds = byte_at[offsets].tolist()
        parts = [
            b"\x01" if self._tokenize else b"\x00",
            encode_uvarint(self._row_count),
            encode_uvarint(len(self._terms)),
        ]
        for term, n_rows, lo, hi in zip(self._terms, counts.tolist(), bounds, bounds[1:]):
            raw = term.encode("utf-8")
            parts += (encode_uvarint(len(raw)), raw, encode_uvarint(n_rows), encoded[lo:hi])
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "InvertedIndex":
        reader = BinaryReader(data)
        tokenize = bool(reader.read_u8())
        row_count = reader.read_uvarint()
        term_count = reader.read_uvarint()
        # ends[k] is one past the k-th byte of the payload that could
        # end a varint.  The loop reads only the term headers and keeps
        # k in step with pos, so a run of n posting varints is skipped,
        # not read.
        ends = uvarint_ends(data).tolist()
        terms: list[str] = []
        counts: list[int] = []
        runs: list[bytes] = []
        pos = reader.offset
        k = ends.index(pos) + 1  # the header's varints end where the first term starts
        try:
            for _ in range(term_count):
                length = data[pos]
                if length < 0x80:
                    pos += 1
                else:
                    length, pos = decode_uvarint(data, pos)
                raw = data[pos : pos + length]
                pos += length
                terms.append(raw.decode("utf-8"))
                n_rows = data[pos]
                if n_rows < 0x80:
                    pos += 1
                else:
                    n_rows, pos = decode_uvarint(data, pos)
                counts.append(n_rows)
                # An ASCII byte ends a (would-be) varint of its own.
                k += 2 + n_rows + (length if raw.isascii() else sum(b < 0x80 for b in raw))
                if n_rows:
                    runs.append(data[pos : ends[k - 1]])
                    pos = ends[k - 1]
        except IndexError:
            raise SerializationError("truncated inverted index") from None
        per_term = np.array(counts, dtype=np.int64)
        offsets = np.zeros(term_count + 1, dtype=np.int64)
        np.cumsum(per_term, out=offsets[1:])
        deltas, _ = decode_uvarint_array(b"".join(runs), int(offsets[-1]))
        rows = np.cumsum(deltas.astype(np.int64))
        # Deltas restart at every term: take back what the running sum
        # carried in from the terms before it.
        starts = offsets[:-1][per_term > 0]
        carried = np.where(starts > 0, rows[starts - 1], 0)
        rows -= np.repeat(carried, per_term[per_term > 0])
        if rows.size and not 0 <= int(rows.min()) <= int(rows.max()) < row_count:
            raise SerializationError("posting row id outside the index")
        return cls(terms, rows, offsets, row_count, tokenize)
