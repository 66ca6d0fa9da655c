"""A column of strings as one UTF-8 text plus each row's byte bounds.

Row ``i`` is ``text[bounds[i]:bounds[i + 1] - sep]``; ``nulls`` marks
the null rows (held as ``""``), or is ``None`` when there is none.
``sep`` is 1 where a NUL follows every value (the last one's past the
end of the text), 0 where the values lie back to back.  This is a
STRING column's one form outside a value list: a row batch's STR part
(``sep`` 1) in the memtable, the data builder's gather and the LogBlock
writer (DESIGN.md §3, §11), and a PLAIN block opened for reading
(``sep`` 0), one view of which the object cache shares between queries.
Only a reader that needs Python strings decodes, and only the rows it
picks.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import CorruptionError, SerializationError


def runs(indices: np.ndarray) -> tuple[list[int], list[int]]:
    """``(starts, stops)``: ``indices`` as consecutive ``range(start, stop)``s."""
    cuts = np.flatnonzero(indices[1:] != indices[:-1] + 1)
    starts, stops = indices[cuts + 1].tolist(), (indices[cuts] + 1).tolist()
    starts.insert(0, int(indices[0]))
    stops.append(int(indices[-1]) + 1)
    return starts, stops


def with_nulls(values: list, null_mask: np.ndarray) -> list:
    """``values`` with ``None`` patched in at the masked positions."""
    for i in np.flatnonzero(null_mask).tolist():
        values[i] = None
    return values


class Strings:
    """``len(bounds) - 1`` strings in ``text`` (see the module doc).  Its
    rows never change; the arrays may be read-only views."""

    __slots__ = ("text", "bounds", "sep", "nulls")

    def __init__(self, text: bytes, bounds: np.ndarray, sep: int, nulls=None) -> None:
        self.text, self.bounds, self.sep, self.nulls = text, bounds, sep, nulls

    @classmethod
    def cut(cls, text: bytes, cuts: np.ndarray) -> "Strings":
        """The values of ``text`` split at the NULs at ``cuts``."""
        bounds = np.empty(len(cuts) + 2, np.int64)
        bounds[0], bounds[-1] = 0, len(text) + 1
        np.add(cuts, 1, out=bounds[1:-1])
        return cls(text, bounds, 1)

    @classmethod
    def scan(cls, text: bytes, count: int) -> "Strings":
        """``count`` NUL-joined values holding no NUL (a STR part): one NUL
        scan; anything else is :class:`CorruptionError`."""
        if not text.isascii():
            try:
                str(text, "utf-8")
            except UnicodeDecodeError:
                raise CorruptionError("STR column is not UTF-8") from None
        cuts = np.flatnonzero(np.frombuffer(text, np.uint8) == 0)
        if len(cuts) != max(count - 1, 0) or not count and text:
            raise CorruptionError("STR column does not hold its row count")
        return cls.cut(text, cuts) if count else EMPTY

    @classmethod
    def from_values(cls, values: list) -> "Strings":
        """Python strings (``None`` = null) joined once; a value that is
        not a ``str`` raises :class:`TypeError`."""
        if not values:
            return EMPTY
        nulls = None
        if None in values:
            nulls = np.fromiter((value is None for value in values), bool, len(values))
            values = ["" if value is None else value for value in values]
        text = "\0".join(values).encode("utf-8")
        cuts = np.flatnonzero(np.frombuffer(text, np.uint8) == 0)
        if len(cuts) != len(values) - 1:  # some value holds a NUL
            cuts = np.cumsum([len(value.encode("utf-8")) + 1 for value in values[:-1]]) - 1
        strings = cls.cut(text, np.asarray(cuts, np.int64))
        strings.nulls = nulls
        return strings

    def __len__(self) -> int:
        return len(self.bounds) - 1

    def null_mask(self) -> np.ndarray:
        """``nulls`` as a bool vector."""
        return np.zeros(len(self), bool) if self.nulls is None else self.nulls

    def __getitem__(self, rows: slice) -> "Strings":
        """Consecutive rows (a slice without a step), sharing the text."""
        start, stop, _ = rows.indices(len(self))
        stop = max(start, stop)
        nulls = None if self.nulls is None else self.nulls[start:stop]
        return Strings(self.text, self.bounds[start : stop + 1], self.sep, nulls)

    def lengths(self) -> np.ndarray:
        """Each value's length in bytes."""
        return np.diff(self.bounds) - self.sep

    def concat(self, other: "Strings") -> "Strings":
        """These rows, then ``other``'s: two null-free NUL-joined texts
        that hold just their own rows (a memtable's), joined by a NUL."""
        if not len(self) or not len(other):
            return other if len(other) else self
        bounds = np.concatenate((self.bounds[:-1], other.bounds + self.bounds[-1]))
        return Strings(b"\0".join((self.text, other.text)), bounds, 1)

    def take(self, indices: np.ndarray) -> "Strings":
        """The rows at ``indices`` (int64s) of NUL-joined text, in that
        order: one text slice per run of consecutive rows, one per row at
        worst."""
        if not len(indices):
            return EMPTY
        firsts, stops = runs(indices)
        begins, ends = self.bounds[firsts].tolist(), (self.bounds[stops] - 1).tolist()
        text = self.text
        picked = b"\0".join([text[begin:end] for begin, end in zip(begins, ends)])
        bounds = np.zeros(len(indices) + 1, np.int64)
        np.cumsum(self.bounds[indices + 1] - self.bounds[indices], out=bounds[1:])
        return Strings(picked, bounds, 1, None if self.nulls is None else self.nulls[indices])

    def pick(self, offsets: np.ndarray) -> list:
        """The values at ``offsets`` (int64s) as Python strings (``None`` =
        null).  A run of consecutive rows that is ASCII is decoded once
        and sliced; otherwise each value is decoded on its own, so text
        that is not UTF-8 raises :class:`SerializationError` for just the
        rows that hold it."""
        if not offsets.size:
            return []
        first, last = int(offsets[0]), int(offsets[-1])
        if first < 0 or last >= len(self):
            raise IndexError(f"rows {first}..{last} outside a string column of {len(self)} rows")
        text, bounds = self.text, self.bounds
        chosen = offsets
        if last - first + 1 == offsets.size and (np.diff(offsets) == 1).all():
            chosen = slice(first, last + 1)  # a time window, or every row
            starts, ends = bounds[first : last + 1], bounds[first + 1 : last + 2]
        else:
            starts, ends = bounds[offsets], bounds[offsets + 1]
        if self.sep:
            ends = ends - 1
        if type(chosen) is slice:
            base = int(starts[0])
            run = text[base : int(ends[-1])]
            if run.isascii():
                text, starts, ends = run.decode("ascii"), starts - base, ends - base
        pairs = zip(starts.tolist(), ends.tolist())
        if type(text) is str:
            values = [text[start:end] for start, end in pairs]
        else:
            try:
                values = [text[start:end].decode("utf-8") for start, end in pairs]
            except UnicodeDecodeError as exc:
                raise SerializationError(f"string value is not UTF-8: {exc}") from None
        return self._with_nulls(values, chosen)

    def _with_nulls(self, values: list, rows) -> list:
        return values if self.nulls is None else with_nulls(values, self.nulls[rows])

    def tolist(self) -> list:
        """Every value as a Python string (``None`` = null): NUL-joined
        text through one decode and split."""
        if self.sep and len(self):
            try:
                values = str(self.nul_joined(), "utf-8").split("\0")
            except UnicodeDecodeError:  # pick names it
                values = ()
            if len(values) == len(self):
                return self._with_nulls(values, slice(None))
        return self.pick(np.arange(len(self)))

    def nul_joined(self) -> bytes:
        """The values' UTF-8 joined by NUL (of NUL-joined rows)."""
        return self.text[int(self.bounds[0]) : int(self.bounds[-1]) - 1] if len(self) else b""

    def plain(self) -> bytes:
        """The values' UTF-8 back to back (of NUL-joined rows): a PLAIN
        block's text."""
        first, last = int(self.bounds[0]), int(self.bounds[-1])
        joined = self.nul_joined()
        text = joined.replace(b"\0", b"")
        if len(text) == last - first - len(self):
            return text
        keep = np.ones(len(joined), bool)  # some value holds a NUL: drop the separators only
        keep[self.bounds[1:-1] - 1 - first] = False
        return np.frombuffer(joined, np.uint8)[keep].tobytes()


EMPTY = Strings(b"", np.zeros(1, np.int64), 1)
