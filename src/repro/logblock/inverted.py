"""Inverted index over a string column (Lucene-style, §3.2).

Maps terms to sorted posting lists of row ids.  For a *tokenized* column
each row contributes all distinct terms of its tokenized value
(full-text search over log lines; terms are lowercased by the
tokenizer).  For an untokenized column each row contributes a single
term equal to its **raw** whole value — exact-match semantics must agree
byte-for-byte with the scan path's ``==``, so no case folding happens
(SQL string equality is case-sensitive).

Serialized layout (LogBlock format v8; the pack manifest holds its
checksum), written as sections so that a reader finds one term without
parsing the others::

    flags: u8 (bit 0: tokenized)
    row_count, term_count, dictionary bytes, postings bytes: u32 each
    term lengths:   term_count uvarints (UTF-8 bytes per term)
    posting counts: term_count uvarints (row ids per term)
    dictionary:     the terms' UTF-8 bytes, concatenated
    postings:       delta-encoded uvarint row ids, restarting per term

Terms are written sorted.  UTF-8 byte order equals code-point order, so
a probe bisects the dictionary with ``bytes`` compares and decodes one
posting list; nothing is done per term when the member is opened.  The
in-memory index *is* these sections: the builder encodes into them.

Build, encode and decode are columnar (DESIGN.md §11): values become
``(term rank, row id)`` arrays, one stable argsort groups them by term,
and every posting list is delta- and varint-coded at once.
"""

from __future__ import annotations

import struct
from typing import Iterable

import numpy as np

from repro.common.errors import SerializationError
from repro.common.varint import (
    decode_uvarint_array,
    encode_uvarint_array,
    uvarint_ends,
)
from repro.logblock.encode_kernels import rank_strings
from repro.logblock.tokenizer import normalize_term, tokenize_column

# flags, row count, term count, dictionary bytes, postings bytes
_HEADER = struct.Struct("<BIIII")
# What an index holds besides its buffers: the object, three array
# headers and two bytes headers (for the object cache's accounting).
_FIXED_OVERHEAD = 640


class InvertedIndexBuilder:
    """Accumulates ``(term, row id)`` pairs while values are added.

    Each call ranks its own terms by hashing (:func:`rank_strings`) and
    keeps one chunk: the call's sorted distinct terms, and per pair the
    term's position among them and the row id.  Nothing is grouped or
    deduplicated until :meth:`build`.  The writer feeds a column in one
    call, so its chunk is already the index's dictionary.
    """

    def __init__(self, tokenize: bool) -> None:
        self._tokenize = tokenize
        # (sorted distinct terms, term position per pair, row id per pair)
        self._chunks: list[tuple[list[str], np.ndarray, np.ndarray]] = []
        self._row_count = 0

    def add(self, row_id: int, value: str | None) -> None:
        """Index ``value`` for ``row_id``.  Nulls are simply absent."""
        self.add_many(row_id, (value,))

    def add_many(self, start_row_id: int, values, ranking=None) -> None:
        """Index ``values`` for rows ``start_row_id ..+ len(values)``.

        ``values`` is a list or, for a tokenized index, the column's
        :class:`~repro.common.strings.Strings` its tokens are cut from
        (:func:`tokenize_column`).  ``ranking`` is what the caller
        already has of the column (the writer's prepared one):
        ``rank_strings(values)``, whose terms and pairs are a raw
        index's.
        """
        count = len(values)
        if not count:
            return
        self._row_count = max(self._row_count, start_row_id + count)
        if self._tokenize:
            tokens, rows = tokenize_column(values)
            terms, ranks = rank_strings(tokens)
        else:
            # raw: exact-match must mirror scan equality
            terms, ranks = ranking if ranking is not None else rank_strings(values)
            rows = np.flatnonzero(ranks)
            ranks = ranks[rows]
        rows += start_row_id
        self._chunks.append((terms, ranks - 1, rows))

    def build(self) -> "InvertedIndex":
        """Group the pairs by term and encode them into the sections.

        Term ids are ranks in the sorted distinct terms, so one stable
        argsort of the ids orders the pairs by term and keeps each
        term's rows in arrival order — what a per-term append would
        have produced.  That also puts equal pairs (a token repeated in
        its row, a row adding its last term again) next to each other,
        where all but the first are dropped.
        """
        if len(self._chunks) == 1:
            ((terms, ids, rows),) = self._chunks
        else:
            # Several calls: merge their dictionaries and move every
            # chunk's ids onto the merged ranks.
            terms = sorted(set().union(*(chunk[0] for chunk in self._chunks)))
            rank = dict(zip(terms, range(len(terms))))
            ids = np.concatenate(
                [np.empty(0, dtype=np.int64)]
                + [
                    np.fromiter(map(rank.__getitem__, own), dtype=np.int64, count=len(own))[at]
                    for own, at, _ in self._chunks
                ]
            )
            rows = np.concatenate(
                [np.empty(0, dtype=np.int64)] + [chunk[2] for chunk in self._chunks]
            )
        # numpy's stable sort is a radix sort for 16-bit keys.
        ids = ids.astype(np.uint16 if len(terms) <= 1 << 16 else np.int64)
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        rows = rows[order]
        keep = np.ones(len(ids), dtype=bool)
        keep[1:] = (ids[1:] != ids[:-1]) | (rows[1:] != rows[:-1])
        offsets = np.zeros(len(terms) + 1, dtype=np.int64)
        np.cumsum(np.bincount(ids[keep], minlength=len(terms)), out=offsets[1:])
        return InvertedIndex.from_postings(
            terms, rows[keep], offsets, self._row_count, self._tokenize
        )


def uint_for(limit: int) -> type:
    """The narrowest unsigned type an index keeps values up to ``limit``
    in: the arrays are what a cached index costs beyond its bytes."""
    if limit >= 1 << 32:
        raise SerializationError("index section exceeds the format's 4 GiB")
    return np.uint16 if limit < 1 << 16 else np.uint32


def _offsets(lengths: np.ndarray) -> np.ndarray:
    """``[0, cumsum(lengths)]``: where each of a section's items starts."""
    out = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=out[1:])
    return out.astype(uint_for(int(out[-1])))


class InvertedIndex:
    """Immutable queryable inverted index, held as its wire sections.

    Term ``i`` is ``dictionary[term_at[i]:term_at[i + 1]]`` (UTF-8,
    sorted) and its ``counts[i]`` row ids are the delta varints in
    ``postings[post_at[i]:post_at[i + 1]]``.  Built and decoded indexes
    share this one representation; a posting
    list is decoded when it is looked up; a built index, which the
    writer only serializes, derives ``post_at`` at its first probe.
    """

    def __init__(
        self,
        dictionary: bytes,
        term_at: np.ndarray,
        counts: np.ndarray,
        postings: bytes,
        post_at: np.ndarray | None,
        row_count: int,
        tokenize: bool,
    ) -> None:
        terms = len(counts) + 1
        if len(term_at) != terms or (post_at is not None and len(post_at) != terms):
            raise ValueError("term, count and posting sections disagree")
        self._dictionary = dictionary
        self._term_at = term_at
        self._counts = counts
        self._postings = postings
        self._post_at = post_at
        self._row_count = row_count
        self._tokenize = tokenize

    @classmethod
    def from_postings(
        cls,
        terms: list[str],
        rows: np.ndarray,
        offsets: np.ndarray,
        row_count: int,
        tokenize: bool,
    ) -> "InvertedIndex":
        """Encode a CSR index: sorted ``terms``, the row ids of
        ``terms[i]`` ascending in ``rows[offsets[i]:offsets[i + 1]]``."""
        if len(offsets) != len(terms) + 1 or int(offsets[-1]) != len(rows):
            raise ValueError("terms, offsets and rows disagree")
        counts = np.diff(offsets)
        starts = offsets[:-1][counts > 0]
        deltas = np.empty(len(rows), dtype=np.int64)
        deltas[1:] = rows[1:] - rows[:-1]
        deltas[starts] = rows[starts]  # every posting list restarts from row 0
        if deltas.size and int(deltas.min()) < 0:
            raise ValueError("posting row ids must ascend within a term")
        postings = encode_uvarint_array(deltas)
        joined = "".join(terms)
        dictionary = joined.encode("utf-8")
        if len(dictionary) == len(joined):  # ASCII: one byte per character
            lengths = map(len, terms)
        else:
            lengths = (len(term.encode("utf-8")) for term in terms)
        return cls(
            dictionary,
            _offsets(np.fromiter(lengths, dtype=np.int64, count=len(terms))),
            counts.astype(uint_for(len(rows))),
            postings,
            None,
            row_count,
            tokenize,
        )

    def _posting_at(self) -> np.ndarray:
        """Where each term's postings start in ``postings`` (class doc)."""
        if self._post_at is None:
            byte_at = np.zeros(int(self._counts.sum()) + 1, dtype=uint_for(len(self._postings)))
            byte_at[1:] = uvarint_ends(self._postings)
            self._post_at = byte_at[_offsets(self._counts)]
        return self._post_at

    @property
    def row_count(self) -> int:
        return self._row_count

    @property
    def tokenized(self) -> bool:
        return self._tokenize

    @property
    def term_count(self) -> int:
        return len(self._counts)

    @property
    def nbytes(self) -> int:
        """Bytes this index keeps alive (what a cache is charged)."""
        return (
            _FIXED_OVERHEAD
            + len(self._dictionary)
            + len(self._postings)
            + self._term_at.nbytes
            + self._counts.nbytes
            + self._posting_at().nbytes
        )

    def section_sizes(self) -> dict[str, int]:
        """Serialized bytes per section (for the inspection tool)."""
        return {
            "dictionary": len(self._dictionary)
            + len(encode_uvarint_array(np.diff(self._term_at))),
            "counts": len(encode_uvarint_array(self._counts)),
            "postings": len(self._postings),
        }

    def terms(self) -> list[str]:
        bounds = self._term_at.tolist()
        try:
            return [
                self._dictionary[lo:hi].decode("utf-8") for lo, hi in zip(bounds, bounds[1:])
            ]
        except UnicodeDecodeError:
            raise SerializationError("term dictionary is not UTF-8") from None

    # -- probes --------------------------------------------------------------

    def _needle(self, term: str) -> bytes:
        """Query text as dictionary bytes.

        Query terms are normalized only for tokenized (full-text)
        indexes, mirroring how the indexed terms were produced.  A lone
        surrogate cannot be in the dictionary; ``surrogatepass`` gives
        it the bytes that keep it in code-point order.
        """
        text = normalize_term(term) if self._tokenize else term
        return text.encode("utf-8", "surrogatepass")

    def _bisect(self, needle: bytes) -> int:
        """Position of the first term ``>= needle`` (bisect_left)."""
        dictionary, term_at = self._dictionary, self._term_at
        lo, hi = 0, len(self._counts)
        while lo < hi:
            mid = (lo + hi) // 2
            if dictionary[term_at[mid] : term_at[mid + 1]] < needle:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def _find(self, needle: bytes) -> int:
        """Position of the term equal to ``needle``, or -1."""
        idx = self._bisect(needle)
        term_at = self._term_at
        if idx < len(self._counts) and self._dictionary[term_at[idx] : term_at[idx + 1]] == needle:
            return idx
        return -1

    def _rows_of(self, start: int, stop: int) -> np.ndarray:
        """Decoded row ids of terms ``[start, stop)``, term after term."""
        counts = self._counts[start:stop].astype(np.int64)
        total = int(counts.sum())
        post_at = self._posting_at()
        run = self._postings[post_at[start] : post_at[stop]]
        deltas, used = decode_uvarint_array(run, total)
        if used != len(run):
            raise SerializationError("posting counts disagree with the postings section")
        rows = np.cumsum(deltas.astype(np.int64))
        if stop - start > 1 and total:
            # Deltas restart at every term: take back what the running
            # sum carried in from the terms before it.
            nonempty = counts > 0
            starts = (np.cumsum(counts) - counts)[nonempty]
            carried = np.where(starts > 0, rows[starts - 1], 0)
            rows -= np.repeat(carried, counts[nonempty])
        if total and not 0 <= int(rows.min()) <= int(rows.max()) < self._row_count:
            raise SerializationError("posting row id outside the index")
        return rows

    def lookup(self, term: str) -> np.ndarray:
        """Row ids containing ``term`` (empty array when absent)."""
        idx = self._find(self._needle(term))
        if idx < 0:
            return np.empty(0, dtype=np.int64)
        return self._rows_of(idx, idx + 1)

    def lookup_prefix(self, prefix: str) -> np.ndarray:
        """Row ids containing any term with the given prefix."""
        needle = self._needle(prefix)
        dictionary, term_at = self._dictionary, self._term_at
        start = stop = self._bisect(needle)
        # Terms sharing a prefix are adjacent, and so are their postings.
        while stop < len(self._counts) and dictionary[
            term_at[stop] : term_at[stop + 1]
        ].startswith(needle):
            stop += 1
        return np.unique(self._rows_of(start, stop))

    def match_all(self, terms: Iterable[str]) -> np.ndarray:
        """Ascending row ids containing *all* the given terms (full-text
        AND match; every row for no terms).

        Posting counts are known without decoding, so an absent term
        answers before any list is decoded and the rest are intersected
        shortest first.
        """
        found = []
        for term in terms:
            idx = self._find(self._needle(term))
            if idx < 0:
                return np.empty(0, dtype=np.int64)
            found.append(idx)
        if not found:
            return np.arange(self._row_count, dtype=np.int64)
        found.sort(key=self._counts.__getitem__)
        rows = self._rows_of(found[0], found[0] + 1)
        for idx in found[1:]:
            if not rows.size:
                break
            rows = np.intersect1d(rows, self._rows_of(idx, idx + 1), assume_unique=True)
        return rows

    def match_any(self, terms: Iterable[str]) -> np.ndarray:
        """Ascending row ids containing *any* of the given terms (OR match)."""
        return np.unique(np.concatenate([np.empty(0, np.int64), *map(self.lookup, terms)]))

    # -- serialization -------------------------------------------------------

    def to_bytes(self) -> bytes:
        if self._row_count >= 1 << 32:
            raise SerializationError("inverted index row count exceeds the format's 32 bits")
        return b"".join(
            (
                _HEADER.pack(
                    1 if self._tokenize else 0,
                    self._row_count,
                    len(self._counts),
                    len(self._dictionary),
                    len(self._postings),
                ),
                encode_uvarint_array(np.diff(self._term_at)),
                encode_uvarint_array(self._counts),
                self._dictionary,
                self._postings,
            )
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "InvertedIndex":
        """Open an index member: a fixed number of array kernels,
        whatever the term count, and no posting list decoded."""
        if len(data) < _HEADER.size:
            raise SerializationError("truncated inverted index")
        flags, row_count, term_count, dictionary_len, postings_len = _HEADER.unpack_from(data)
        if flags > 1:
            raise SerializationError(f"unknown inverted index flags {flags:#x}")
        # The two uvarint arrays fill what the header leaves between
        # itself and the dictionary; decoding stops there.
        arrays_end = len(data) - dictionary_len - postings_len
        if arrays_end < _HEADER.size:
            raise SerializationError("inverted index sections disagree with its length")
        both, pos = decode_uvarint_array(
            memoryview(data)[:arrays_end], 2 * term_count, _HEADER.size
        )
        if pos != arrays_end:
            raise SerializationError("inverted index sections disagree with its length")
        lengths, counts = both[:term_count], both[term_count:]
        term_at = _offsets(lengths)
        if int(term_at[-1]) != dictionary_len:
            raise SerializationError("term lengths disagree with the dictionary section")
        dictionary = bytes(data[pos : pos + dictionary_len])
        postings = bytes(data[pos + dictionary_len :])
        # Posting k ends at byte ends[k]; term i starts at posting
        # first[i] = sum(counts[:i]).
        first = _offsets(counts)
        ends = uvarint_ends(postings)
        if int(first[-1]) != len(ends) or (len(ends) and int(ends[-1]) != postings_len):
            raise SerializationError("posting counts disagree with the postings section")
        byte_at = np.zeros(len(ends) + 1, dtype=uint_for(postings_len))
        byte_at[1:] = ends
        return cls(
            dictionary,
            term_at,
            counts.astype(uint_for(len(ends))),
            postings,
            byte_at[first],
            row_count,
            bool(flags),
        )
