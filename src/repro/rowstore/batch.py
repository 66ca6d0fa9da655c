"""RowBatch: the one in-memory form of rows that are not archived yet.

A batch is a column chunk, not row dicts: ``names`` plus one Python
value list per name.  A client batch is transposed, validated and sized
once, at ``LogStore.put`` (:meth:`RowBatch.admit`), or arrives
column-major from the SQL front door (:meth:`RowBatch.from_columns`);
the same object is what the broker splits and meters, what group commit
and the §4.2 admission gate size, what a Raft entry or shard-WAL record
carries (:meth:`RowBatch.to_bytes`) and what the memtable extends
itself by.  Readers of the memtable — the data builder, a realtime
scan — get a :class:`RowSelection`: the table's batch plus the indices
of the rows picked, in reading order, so a column is gathered only when
asked for.  Row dicts exist only where a reader asks for them
(:meth:`RowBatch.iter_dicts`).

Rows of one batch share one key set: a ragged client batch is
normalised to the union of its rows' keys, a missing key becoming a
null.  ``nbytes`` is the row store's payload estimate over that form:
per row, the length of every name plus the length of every ``str`` /
``bytes`` / ``bytearray`` value and 8 for any other value, a null
included.  Seal thresholds, ``approx_bytes`` and ingest metering are in
this unit (DESIGN.md §3, "Write path: admit once").
"""

from __future__ import annotations

import pickle
from array import array
from itertools import chain, repeat
from operator import add, itemgetter
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.common.errors import CorruptionError, InvalidBatchError, SchemaError

_SIZED = (str, bytes, bytearray)
_SIZED_TYPES = frozenset(_SIZED)
_SCALAR_TYPES = frozenset((int, float, bool, type(None)))
_NEVER_INT = frozenset((float, type(None)))  # kinds that need no int64 range check
_ONLY_NULL = {type(None)}
_ONLY_STR = {str}
# First element of every payload; a layout change takes a new tag.
_PAYLOAD_TAG = "rowbatch/1"
# What ``pickle.loads`` and the destructuring raise on bytes that are
# not a payload (pickle documents the first five as non-exhaustive).
_UNPICKLE_ERRORS = (
    pickle.UnpicklingError, EOFError, AttributeError, ImportError, IndexError,
    TypeError, ValueError,
)


def _column_nbytes(kinds: set, column: list) -> int:
    if kinds == _ONLY_STR:
        return len("".join(column))  # a third of the cost of summing len() per value
    if kinds <= _SIZED_TYPES:
        return sum(map(len, column))
    if kinds <= _SCALAR_TYPES:
        return 8 * len(column)
    # Mixed column, subclasses, nested values: decide per value.
    return sum(len(v) if isinstance(v, _SIZED) else 8 for v in column)


def _transpose(rows: list[dict]) -> tuple[tuple[str, ...], list[list]]:
    """``rows`` column-major: one ``itemgetter`` sweep per key when every
    row has the first row's keys (the shape log producers send), else
    over the union of the keys with nulls for the missing ones."""
    first = rows[0]
    if set(map(len, rows)) == {len(first)}:
        try:
            return tuple(first), [list(map(itemgetter(name), rows)) for name in first]
        except KeyError:  # same width, different keys
            pass
    names = tuple(dict.fromkeys(chain.from_iterable(rows)))
    return names, [[row.get(name) for row in rows] for name in names]


def _check_int64(name: str, column: list, kinds: set, tenant_id: int | None = None) -> None:
    """``ts`` and ``tenant_id`` order and group the memtable as int64;
    a tenant column must also hold ``tenant_id`` only, when one is given."""
    if kinds != {int}:
        if type(None) in kinds:
            raise InvalidBatchError(f"row missing column {name!r}")
        for value in column:
            if not isinstance(value, int) or isinstance(value, bool):
                raise InvalidBatchError(f"column {name!r} expects int, got {type(value)}")
    if tenant_id is not None:
        if column.count(tenant_id) != len(column):
            found = next(v for v in column if v != tenant_id)
            raise InvalidBatchError(f"row tenant_id {found!r} does not match {tenant_id}")
        column = (tenant_id,)  # all alike: one value to range-check
    _check_int_range(name, column)


def _check_int_range(name: str, ints: Sequence[int]) -> None:
    try:
        array("q", ints)  # one C pass; overflows exactly beyond int64
    except OverflowError:
        raise InvalidBatchError(f"column {name!r} holds a value beyond int64") from None


def _check_utf8(name: str, column: list, kinds: set) -> None:
    """A STRING column is archived as UTF-8, which a lone surrogate
    does not have: one join per batch, encoded only when not ASCII."""
    text = "".join(column if kinds == _ONLY_STR else [v for v in column if v is not None])
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise InvalidBatchError(f"column {name!r} holds text with no UTF-8 encoding") from None


class RowBatch:
    """Equal-length value lists per column name, plus a payload estimate.

    The lists are owned by the batch and never mutated (``split`` /
    ``concat`` build new ones), so batches may share them.
    ``tenant_id`` is the tenant every row belongs to, or ``None`` when
    that is not known (replayed, coalesced across tenants).
    """

    __slots__ = ("names", "columns", "count", "tenant_id", "nbytes")

    # Row dicts built by :meth:`iter_dicts`, process-wide.  Read by the
    # tier-1 guard that the write path builds none; not a metric.
    dicts_built = 0

    def __init__(
        self,
        names: tuple[str, ...] = (),
        columns: list[list] | None = None,
        tenant_id: int | None = None,
        nbytes: int = 0,
    ) -> None:
        self.names = names
        self.columns = columns or []
        self.count = len(columns[0]) if columns else 0
        self.tenant_id = tenant_id
        self.nbytes = nbytes

    def __len__(self) -> int:
        return self.count

    # -- admission ---------------------------------------------------------

    @classmethod
    def admit(
        cls,
        rows: Iterable[dict],
        tenant_id: int | None = None,
        schema=None,
        ts_column: str = "ts",
        tenant_column: str = "tenant_id",
    ) -> "RowBatch":
        """Transpose, validate and size ``rows``; all-or-nothing.

        See :meth:`from_columns` for the checks.  The caller's dicts are
        read once and not kept.
        """
        rows = rows if isinstance(rows, list) else list(rows)
        if not rows:
            return cls(tenant_id=tenant_id)
        names, columns = _transpose(rows)
        return cls.from_columns(names, columns, tenant_id, schema, ts_column, tenant_column)

    @classmethod
    def from_columns(
        cls,
        names: Sequence[str],
        columns: Sequence[Sequence],
        tenant_id: int | None = None,
        schema=None,
        ts_column: str = "ts",
        tenant_column: str = "tenant_id",
    ) -> "RowBatch":
        """Validate and size column-major rows in one sweep per column.

        Every row must carry an int64 ``ts_column`` and ``tenant_column``
        and — when ``tenant_id`` is given — belong to that tenant.  With
        a ``schema`` (the live catalog schema at ``put``), values of its
        columns must have the column's type under the rules of
        ``TableSchema.validate_columns``, an int in a numeric column
        must fit int64 and a string must have a UTF-8 encoding — the
        archive encoder stores them so, and a value it cannot store
        would fail every later flush of the shard; names the schema
        does not know are carried and ignored.  Anything else raises
        :class:`InvalidBatchError` and nothing was admitted.
        """
        names = tuple(names)
        columns = [c if type(c) is list else list(c) for c in columns]
        if len(set(map(len, columns))) > 1:
            raise InvalidBatchError(
                f"columns of unequal length: {sorted(set(map(len, columns)))}"
            )
        count = len(columns[0]) if columns else 0
        if not count:
            return cls(tenant_id=tenant_id)
        accepted = schema.accepted_types if schema is not None else {}
        nbytes = count * sum(map(len, names))
        for name, column in zip(names, columns):
            kinds = set(map(type, column))
            nbytes += _column_nbytes(kinds, column)
            if name == ts_column:
                _check_int64(name, column, kinds)
            elif name == tenant_column:
                _check_int64(name, column, kinds, tenant_id)
            elif name in accepted:
                if not kinds <= accepted[name]:
                    try:  # subclasses pass, a wrong type names itself
                        schema.validate_columns({name: column})
                    except SchemaError as exc:
                        raise InvalidBatchError(str(exc)) from None
                if int in accepted[name] and not kinds <= _NEVER_INT:
                    ints = column if kinds == {int} else [v for v in column if isinstance(v, int)]
                    if ints:
                        _check_int_range(name, ints)
                elif str in accepted[name] and kinds != _ONLY_NULL:
                    _check_utf8(name, column, kinds)
        for required in (ts_column, tenant_column):
            if required not in names:
                raise InvalidBatchError(f"row missing column {required!r}")
        return cls(names, columns, tenant_id, nbytes)

    @classmethod
    def of(cls, rows: "RowBatch | Iterable[dict]", **columns: str) -> "RowBatch":
        """``rows`` itself when already a batch, else ``admit(rows, **columns)``."""
        return rows if isinstance(rows, RowBatch) else cls.admit(rows, **columns)

    # -- columns in, columns out -------------------------------------------

    def column(self, name: str) -> list | None:
        """The value list of ``name``; ``None`` when no row carries it."""
        try:
            return self.columns[self.names.index(name)]
        except ValueError:
            return None

    def row_sizes(self) -> list[int]:
        """Per-row estimates, for cutting the batch (sum == ``nbytes``)."""
        sizes = [sum(map(len, self.names))] * self.count
        for column in self.columns:
            sizes = list(
                map(add, sizes, (len(v) if isinstance(v, _SIZED) else 8 for v in column))
            )
        return sizes

    def cut(self, start: int, stop: int, nbytes: int) -> "RowBatch":
        """Rows ``[start, stop)``, whose sizes the caller has summed to ``nbytes``."""
        columns = [column[start:stop] for column in self.columns]
        return RowBatch(self.names, columns, self.tenant_id, nbytes)

    def split(self, counts: Iterable[int]) -> list["RowBatch"]:
        """Consecutive pieces of the given row counts, each sized."""
        sizes = self.row_sizes()
        pieces = []
        start = 0
        for count in counts:
            end = start + count
            pieces.append(self.cut(start, end, sum(sizes[start:end])))
            start = end
        return pieces

    @classmethod
    def concat(cls, batches: Sequence["RowBatch"]) -> "RowBatch":
        """One batch holding every row of ``batches``, in order: what
        admitting all their rows as one client batch gives.

        Batches with other key sets are normalised to the union, like
        the rows of one ragged batch, and the nulls that adds are sized.
        """
        batches = [batch for batch in batches if batch.count]
        if len(batches) == 1:
            return batches[0]
        if not batches:
            return cls()
        names = batches[0].names
        nbytes = sum(batch.nbytes for batch in batches)
        if all(batch.names == names for batch in batches):
            parts = zip(*(batch.columns for batch in batches))
        else:
            names = tuple(dict.fromkeys(chain.from_iterable(b.names for b in batches)))
            parts = [
                [b.column(name) or [None] * b.count for b in batches] for name in names
            ]
            width = sum(map(len, names)) + 8 * len(names)
            nbytes += sum(
                b.count * (width - sum(map(len, b.names)) - 8 * len(b.names))
                for b in batches
            )
        columns = [list(chain.from_iterable(part)) for part in parts]
        return cls(names, columns, None, nbytes)

    # -- the only place row dicts are built ---------------------------------

    def _picked(self, indices: Sequence[int] | None, names: Sequence[str] | None):
        """``(names, one value iterable per name)``: all rows or those at
        ``indices``, with the batch's keys or exactly ``names`` (null
        where a name is absent)."""
        if names is None:
            names, columns = self.names, self.columns
        else:
            nulls = [None] * self.count
            columns = [self.column(name) or nulls for name in names]
        if indices is not None:
            columns = [map(column.__getitem__, indices) for column in columns]
        return names, columns

    def take(self, indices: Sequence[int] | None, names: Sequence[str]) -> "RowBatch":
        """The picked rows as a chunk of exactly ``names``; nothing is sized."""
        names, columns = self._picked(indices, names)
        return RowBatch(tuple(names), [list(column) for column in columns])

    def iter_dicts(
        self, indices: Sequence[int] | None = None, names: Sequence[str] | None = None
    ) -> Iterator[dict]:
        """The picked rows as dicts, each built when it is read."""
        names, columns = self._picked(indices, names)
        built = 0
        try:
            for values in zip(*columns):
                built += 1
                yield dict(zip(names, values))
        finally:  # also when the reader stops early
            RowBatch.dicts_built += built

    def to_dicts(
        self, indices: Sequence[int] | None = None, names: Sequence[str] | None = None
    ) -> list[dict]:
        """The picked rows as dicts, all at once (a query's result rows)."""
        names, columns = self._picked(indices, names)
        if len(names) == 1:
            (name,) = names
            rows = [{name: value} for value in columns[0]]
        else:
            rows = [dict(zip(names, values)) for values in zip(*columns)]
        RowBatch.dicts_built += len(rows)
        return rows

    __iter__ = iter_dicts

    # -- durable form (Raft entry command / shard-WAL batch record) --------

    def to_bytes(self) -> bytes:
        """The batch as a log payload; carries ``nbytes`` so replay and
        replica apply do not size the columns again."""
        return pickle.dumps((_PAYLOAD_TAG, self.nbytes, self.names, self.columns))

    @classmethod
    def from_bytes(cls, payload: bytes) -> "RowBatch":
        """The batch of one payload; anything else is corruption."""
        try:
            tag, nbytes, names, columns = pickle.loads(payload)
            if tag == _PAYLOAD_TAG:
                return cls(names, columns, None, nbytes)
        except _UNPICKLE_ERRORS as exc:
            raise CorruptionError(f"undecodable row batch payload: {exc!r}") from None
        raise CorruptionError(f"unknown row batch payload tag {tag!r}")


class RowSelection:
    """Rows picked from batches, in reading order: what a scan returns.

    ``parts`` pairs a batch with an int64 vector of row indices into it.
    Nothing is copied until a reader asks for a column or for row dicts.
    """

    __slots__ = ("parts", "count")

    def __init__(self, parts: Sequence[tuple[RowBatch, np.ndarray]]) -> None:
        self.parts = [part for part in parts if len(part[1])]
        self.count = sum(len(picked) for _, picked in self.parts)

    def __len__(self) -> int:
        return self.count

    @classmethod
    def of(cls, rows: "RowSelection | RowBatch | Iterable[dict]") -> "RowSelection":
        """``rows`` itself when already a selection, else every row of
        the batch (``RowBatch.of(rows)``) in its order."""
        if isinstance(rows, RowSelection):
            return rows
        batch = RowBatch.of(rows)
        return cls([(batch, np.arange(batch.count))])

    def column(self, name: str) -> list | None:
        """The selected values of ``name``; ``None`` when no part carries it."""
        found = [(batch.column(name), picked.tolist()) for batch, picked in self.parts]
        if all(column is None for column, _ in found):
            return None
        return list(
            chain.from_iterable(
                repeat(None, len(picked)) if column is None else map(column.__getitem__, picked)
                for column, picked in found
            )
        )

    def take(self, hits: np.ndarray, names: Sequence[str]) -> RowBatch:
        """The rows at the ascending selection positions ``hits`` as one
        chunk of exactly ``names`` (see :meth:`RowBatch.take`)."""
        chunks = []
        start = 0
        for batch, picked in self.parts:
            stop = start + len(picked)
            lo, hi = np.searchsorted(hits, (start, stop))
            chunks.append(batch.take(picked[hits[lo:hi] - start].tolist(), names))
            start = stop
        return RowBatch.concat(chunks)

    def iter_dicts(self, names: Sequence[str] | None = None) -> Iterator[dict]:
        """The selected rows as dicts (see :meth:`RowBatch.iter_dicts`)."""
        for batch, picked in self.parts:
            yield from batch.iter_dicts(picked.tolist(), names)

    __iter__ = iter_dicts
