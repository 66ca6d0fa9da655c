"""RowBatch: the one in-memory form of rows that are not archived yet.

A batch is a column chunk, not row dicts: ``names`` plus one value list
per name.  A client batch is transposed, validated and sized once, at
``LogStore.put`` (:meth:`RowBatch.admit`), or arrives column-major from
the SQL front door (:meth:`RowBatch.from_columns`); the same object is
what the broker splits and meters, what group commit and the §4.2
admission gate size, what a Raft entry or shard-WAL record carries
(:meth:`RowBatch.to_bytes`) and what the memtable extends itself by.
Readers of the memtable — the data builder, a realtime scan — get a
:class:`RowSelection`: the table's batch plus the indices of the rows
picked, in reading order, so a column is gathered only when asked for.
Row dicts exist only where a reader asks for them
(:meth:`RowBatch.iter_dicts`).

Rows of one batch share one key set: a ragged client batch is
normalised to the union of its rows' keys, a missing key becoming a
null.  ``nbytes`` is the row store's payload estimate over that form:
per row, the length of every name plus the length of every ``str`` /
``bytes`` / ``bytearray`` value and 8 for any other value, a null
included.  Seal thresholds, ``approx_bytes`` and ingest metering are in
this unit (DESIGN.md §3, "Write path: admit once").

**Value rule.**  Admission keeps each column in the typed form its
check builds: a column of ``int`` within int64 as an ``array('q')``, of
``float`` as float64, of ``bool`` as bytes, of ``str`` as the UTF-8 of
the values joined by NUL — the text the memtable, the data builder and
the LogBlock writer keep as it is (:class:`~repro.common.strings.Strings`),
so the archive path builds no ``str`` per row but where a consumer needs
one.  A schema FLOAT64 column's ints are admitted
as floats, as the LogBlock writer stores them, so a row reads the same
value and type realtime and archived.  Any column that is not purely
one of these kinds — nulls, text holding a NUL, a mix in a column of a
batch admitted with no schema — uses a
closed, tagged value encoding: ``None``, ``bool``, ``int`` of any size,
``float``, ``str``, ``bytes``, ``bytearray``, and ``list`` / ``dict`` of
these.  Any other value is refused at admission with
:class:`InvalidBatchError`; a subclass of one of these types (a ``str``
or ``int`` subclass, say) is carried as its base type, and a column
holding one is replaced by the base-typed values at admission, so a
batch equals its own decoding value for value and type for type.

**Durable form.**  :meth:`RowBatch.to_bytes` joins the typed buffers
under one header, and :meth:`RowBatch.from_bytes` only checks and
parses that header: the columns are decoded when a reader first asks
for them (:attr:`RowBatch.columns`).  Little-endian throughout::

    "\\x89RB"  u8 version  u32 CRC-32 of the body         record head
    <I rows> <Q nbytes> <I columns>                        body head
    per column <I name length> <B kind> <B width> <q base> <I segment length>
    the names (UTF-8), then the segments in column order:
      INT    rows offsets from base, width (0/1/2/4/8) bytes each:
             the narrowest that holds the span; base 0 when every value
             fits that width from 0, else the minimum; width 0: every
             value is base.  A batch of at most 256 rows keeps a
             column that is not constant at width 8, base 0: framing
             so few values costs more host time than it saves bytes
      FLOAT  rows float64
      BOOL   rows bytes, 0 or 1
      STR    the values' UTF-8 joined by NUL
      ANY    rows tagged values

Equal batches give equal bytes: a column's kind, and an INT column's
base and width, follow from its values and the row count alone.
``RowStore.serialize_state`` frames its tables with the same record
head (:func:`pack_record`).
"""

from __future__ import annotations

import struct
import sys
from array import array
from functools import lru_cache
from itertools import chain, repeat
from operator import add, itemgetter
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.common.errors import CorruptionError, InvalidBatchError, SchemaError
from repro.common.record import pack_record, unpack_record
from repro.common.strings import Strings, runs

_SIZED = (str, bytes, bytearray)
_SIZED_TYPES = frozenset(_SIZED)
_SCALAR_TYPES = frozenset((int, float, bool, type(None)))
_NEVER_INT = frozenset((float, type(None)))  # kinds that need no int64 range check
_ONLY_NULL = {type(None)}
_ONLY_STR = {str}
_ONLY_INT = {int}
_ONLY_FLOAT = {float}
_ONLY_BOOL = {bool}
# Columns of only these types keep the client's objects; any other
# (subclasses, containers, bytearray) is replaced by its decoded form.
_KEPT_TYPES = frozenset((type(None), bool, int, float, str, bytes))
_NOTHING: frozenset = frozenset()

# -- the record codec ---------------------------------------------------------

# A batch payload's first bytes.  Shard seal / drain commands start with
# b"\x01", so no payload can be mistaken for one (``cluster.shard``).
BATCH_MAGIC = b"\x89RB"
_BATCH = struct.Struct("<IQI")  # rows, nbytes, columns
_COLUMN = struct.Struct("<IBBqI")  # name length, kind, width, base, segment length
_INT, _FLOAT, _BOOL, _STR, _ANY = range(1, 6)
STR_KIND = _STR  # a part the memtable keeps as :class:`Strings`
# The kinds whose values a reader can take as one numpy vector
# (:func:`widen_part`), with that vector's dtype.
VECTOR_KINDS = {
    _INT: np.dtype(np.int64),
    _FLOAT: np.dtype(np.float64),
    _BOOL: np.dtype(np.bool_),
}
_OFFSETS = {width: np.dtype(f"<u{width}") for width in (1, 2, 4, 8)}
_I8, _U8, _F8 = np.dtype("<i8"), _OFFSETS[8], np.dtype("<f8")
# Rows up to which a batch keeps a non-constant int column as int64s:
# framing costs ~10 us of numpy calls per column whatever the length,
# over 10 % of a 100-row put, for ~1 KB of log.
_SHORT = 256
_MASK64 = (1 << 64) - 1
_BIG_ENDIAN = sys.byteorder == "big"


def _frame(ints) -> tuple[int, int, bytes]:
    """Frame of reference for a column of int64s: ``(base, width,
    offsets)``.  The width is the narrowest that holds the span; the base
    is 0 when every value fits that width from 0, else the minimum."""
    values = np.frombuffer(ints, _I8)
    low, high = int(values.min()), int(values.max())
    span = high - low
    if not span:
        return low, 0, b""
    width = next((w for w in (1, 2, 4) if not span >> 8 * w), 8)
    if low >= 0 and not high >> 8 * width:
        return 0, width, values.astype(_OFFSETS[width]).tobytes()
    offsets = values.view(_U8) - np.uint64(low & _MASK64)
    return low, width, offsets.astype(_OFFSETS[width]).tobytes()


@lru_cache(maxsize=256)
def _encoded_names(names: tuple) -> tuple[bytes, tuple[int, ...]]:
    encoded = [str.encode(name, "utf-8", "surrogatepass") for name in names]
    return b"".join(encoded), tuple(map(len, encoded))


@lru_cache(maxsize=64)
def _columns_struct(count: int) -> struct.Struct:
    return struct.Struct("<" + _COLUMN.format[1:] * count)


def _segment_ok(kind: int, width: int, base: int, size: int, count: int) -> bool:
    """Whether a column's header fits its kind and the row count."""
    if kind == _INT:
        return (width == 0 or width in _OFFSETS) and size == width * count
    if width or base:
        return False
    if kind == _FLOAT:
        return size == 8 * count
    if kind == _BOOL:
        return size == count
    if kind == _STR:
        return count > 0 and size >= count - 1
    return kind == _ANY and size >= count


def widen_part(part: tuple, count: int) -> np.ndarray:
    """An INT / FLOAT / BOOL part (typed or wire) as a numpy vector of
    int64 / float64 / bool: a view of its buffer where the widths agree."""
    kind, data, base, width = part
    if kind == _INT:
        if not width:
            return np.full(count, base, np.int64)
        offsets = np.frombuffer(data, _OFFSETS[width])
        if width == 8 and not base:
            return offsets.view(_I8)
        return (offsets.astype(np.uint64) + np.uint64(base & _MASK64)).view(np.int64)
    if kind == _FLOAT:
        return np.frombuffer(data, _F8)
    flags = np.frombuffer(data, np.uint8)
    if count and flags.max() > 1:
        raise CorruptionError("BOOL column holds a byte other than 0 or 1")
    return flags.view(np.bool_)


def _vector_part(vector: np.ndarray) -> tuple:
    """The typed part of an int64 / float64 / bool vector: what the
    part of its values as a list would be (:func:`_canonical_part`)."""
    if vector.dtype == np.bool_:
        return (_BOOL, vector.view(np.uint8).tobytes(), 0, 0)
    if vector.dtype == np.float64:
        return (_FLOAT, vector.astype(_F8, copy=False).tobytes(), 0, 0)
    return (_INT, vector.astype(_I8, copy=False).tobytes(), 0, 8)


def typed_bytes(part: tuple, count: int) -> bytes:
    """An admitted INT / FLOAT / BOOL part's values as little-endian
    int64 / float64 / bool bytes (admission keeps ints unframed, and a
    constant once)."""
    kind, data, base, width = part
    return _I64.pack(base) * count if kind == _INT and not width else data


def decode_column(part: tuple, count: int) -> list:
    """:func:`_decode_part`, counted in :attr:`RowBatch.columns_decoded`."""
    RowBatch.columns_decoded += 1
    return _decode_part(part, count)


def _decode_part(part: tuple, count: int) -> list:
    """One column's values, exact types, from its typed or wire part."""
    kind, data = part[:2]
    if kind in VECTOR_KINDS:
        return widen_part(part, count).tolist()
    if kind == STR_KIND:
        return Strings.scan(bytes(data), count).tolist()
    return _decode_values(data, count)


# Tagged values (ANY columns): one tag byte, then the value.
(_T_NONE, _T_FALSE, _T_TRUE, _T_INT, _T_BIGINT, _T_FLOAT, _T_STR, _T_BYTES,
 _T_BYTEARRAY, _T_LIST, _T_DICT) = range(11)
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_U32 = struct.Struct("<I")
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


def _put_sized(out: bytearray, tag: int, data) -> None:
    out.append(tag)
    out += _U32.pack(len(data))
    out += data


def _put_value(out: bytearray, value) -> None:
    if value is None:
        out.append(_T_NONE)
    elif value is True or value is False:
        out.append(_T_TRUE if value else _T_FALSE)
    elif isinstance(value, int):
        if _INT64_MIN <= value <= _INT64_MAX:
            out.append(_T_INT)
            out += _I64.pack(value)
        else:
            size = value.bit_length() // 8 + 1
            _put_sized(out, _T_BIGINT, int.to_bytes(value, size, "little", signed=True))
    elif isinstance(value, float):
        out.append(_T_FLOAT)
        out += _F64.pack(value)
    elif isinstance(value, str):
        _put_sized(out, _T_STR, str.encode(value, "utf-8", "surrogatepass"))
    elif isinstance(value, bytearray):
        _put_sized(out, _T_BYTEARRAY, value)
    elif isinstance(value, bytes):
        _put_sized(out, _T_BYTES, value)
    elif isinstance(value, list):
        out.append(_T_LIST)
        out += _U32.pack(len(value))
        for item in value:
            _put_value(out, item)
    elif isinstance(value, dict):
        out.append(_T_DICT)
        out += _U32.pack(len(value))
        for key, item in value.items():
            _put_value(out, key)
            _put_value(out, item)
    else:
        raise InvalidBatchError(f"a value of type {type(value).__name__!r} has no durable form")


def _encode_values(values: list) -> bytes:
    out = bytearray()
    try:
        for value in values:
            _put_value(out, value)
    except RecursionError:
        raise InvalidBatchError("a value nests too deeply to be stored") from None
    return bytes(out)


def _decode_values(data, count: int) -> list:
    data = bytes(data)
    at = 0

    def sized() -> bytes:
        nonlocal at
        (size,) = _U32.unpack_from(data, at)
        at += 4 + size
        if at > len(data):
            raise CorruptionError("tagged value runs past its segment")
        return data[at - size : at]

    def value():
        nonlocal at
        tag = data[at]
        at += 1
        if tag == _T_NONE:
            return None
        if tag in (_T_FALSE, _T_TRUE):
            return tag == _T_TRUE
        if tag in (_T_INT, _T_FLOAT):
            (found,) = (_I64 if tag == _T_INT else _F64).unpack_from(data, at)
            at += 8
            return found
        if tag == _T_BIGINT:
            return int.from_bytes(sized(), "little", signed=True)
        if tag == _T_STR:
            return sized().decode("utf-8", "surrogatepass")
        if tag == _T_BYTES:
            return sized()
        if tag == _T_BYTEARRAY:
            return bytearray(sized())
        if tag in (_T_LIST, _T_DICT):
            (size,) = _U32.unpack_from(data, at)
            at += 4
            if tag == _T_LIST:
                return [value() for _ in range(size)]
            return {value(): value() for _ in range(size)}
        raise CorruptionError(f"unknown value tag {tag}")

    try:
        values = [value() for _ in range(count)]
    except (IndexError, struct.error, UnicodeDecodeError, TypeError, RecursionError) as exc:
        raise CorruptionError(f"undecodable ANY column: {exc!r}") from None
    if at != len(data):
        raise CorruptionError("ANY column holds bytes past its last value")
    return values


# -- admission ----------------------------------------------------------------


def _column_nbytes(kinds: set, column: list) -> int:
    if kinds <= _SIZED_TYPES:
        return sum(map(len, column))
    if kinds <= _SCALAR_TYPES:
        return 8 * len(column)
    # Mixed column, subclasses, nested values: decide per value.
    return sum(len(v) if isinstance(v, _SIZED) else 8 for v in column)


def _transpose(rows: list[dict]) -> tuple[tuple[str, ...], list[list]]:
    """``rows`` column-major: one C-level ``zip`` over every row's values
    when every row has the first row's keys (the shape log producers
    send), else over the union of the keys with nulls for the missing
    ones."""
    names = tuple(rows[0])
    if set(map(len, rows)) == {len(names)}:
        try:
            if len(names) > 1:
                return names, list(map(list, zip(*map(itemgetter(*names), rows))))
            # One key: ``itemgetter`` returns the bare value.
            return names, [list(map(itemgetter(name), rows)) for name in names]
        except KeyError:  # same width, different keys
            pass
    names = tuple(dict.fromkeys(chain.from_iterable(rows)))
    return names, [[row.get(name) for row in rows] for name in names]


def _little(typed: array) -> array:
    if _BIG_ENDIAN:
        typed.byteswap()
    return typed


def _int_part(ints: array) -> tuple:
    """An ``array('q')`` as an INT part: offsets from 0, 8 bytes wide."""
    return (_INT, _little(ints).tobytes(), 0, 8)


def _ints_part(column: list) -> tuple | None:
    """A column of ints as an INT part of int64s; ``None`` when a value
    is beyond int64.  The conversion is the range check."""
    try:
        return _int_part(array("q", column))
    except OverflowError:
        return None


def _key_part(name: str, column: list, kinds: set, tenant_id: int | None = None) -> tuple:
    """``ts`` and ``tenant_id`` order and group the memtable as int64;
    a tenant column must also hold ``tenant_id`` only, when one is given."""
    if kinds != _ONLY_INT:
        if type(None) in kinds:
            raise InvalidBatchError(f"row missing column {name!r}")
        for value in column:
            if not isinstance(value, int) or isinstance(value, bool):
                raise InvalidBatchError(f"column {name!r} expects int, got {type(value)}")
    if tenant_id is not None and column.count(tenant_id) != len(column):
        found = next(v for v in column if v != tenant_id)
        raise InvalidBatchError(f"row tenant_id {found!r} does not match {tenant_id}")
    if tenant_id is None:
        part = _ints_part(column)
    elif _INT64_MIN <= tenant_id <= _INT64_MAX:  # all alike: kept once
        part = (_INT, b"", tenant_id, 0)
    else:
        part = None
    if part is None:
        raise _beyond_int64(name)
    return part


def _beyond_int64(name: str) -> InvalidBatchError:
    return InvalidBatchError(f"column {name!r} holds a value beyond int64")


def _check_utf8(name: str, column: list, kinds: set) -> None:
    """A STRING column is archived as UTF-8, which a lone surrogate
    does not have: one join per batch, encoded only when not ASCII."""
    text = "".join(column if kinds == _ONLY_STR else [v for v in column if v is not None])
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise InvalidBatchError(f"column {name!r} holds text with no UTF-8 encoding") from None


def _floats(name: str, column: list) -> list:
    """A FLOAT64 column's values as the floats it stores, its ints
    within int64 (validated: every value is a number or a null)."""
    if _ints_part([v for v in column if isinstance(v, int)]) is None:
        raise _beyond_int64(name)
    return [None if v is None else float(v) for v in column]


def _column_part(name, column: list, kinds: set, takes: frozenset = _NOTHING) -> tuple:
    """``(part, nbytes)`` of one column: its typed form per the value
    rule, and its payload estimate.  ``takes`` — the schema column's
    accepted types — turns an int beyond int64 or a string with no UTF-8
    encoding into :class:`InvalidBatchError` instead of an ANY column."""
    count = len(column)
    if kinds == _ONLY_STR:
        text = "".join(column)
        try:
            blob = "\0".join(column).encode()
        except UnicodeEncodeError:
            if str in takes:
                raise InvalidBatchError(
                    f"column {name!r} holds text with no UTF-8 encoding"
                ) from None
            blob = None
        if blob is not None and "\0" not in text:
            return (_STR, blob, 0, 0), len(text)
    elif kinds == _ONLY_INT:
        part = _ints_part(column)
        if part is not None:
            return part, 8 * count
        if int in takes:
            raise _beyond_int64(name)
    elif kinds == _ONLY_FLOAT:
        return (_FLOAT, _little(array("d", column)).tobytes(), 0, 0), 8 * count
    elif kinds == _ONLY_BOOL:
        return (_BOOL, bytes(column), 0, 0), 8 * count
    elif takes:
        if int in takes and not kinds <= _NEVER_INT:
            if _ints_part([v for v in column if isinstance(v, int)]) is None:
                raise _beyond_int64(name)
        if str in takes and kinds != _ONLY_NULL:
            _check_utf8(name, column, kinds)
    return (_ANY, _encode_values(column), 0, 0), _column_nbytes(kinds, column)


def _canonical_part(column) -> tuple:
    if isinstance(column, np.ndarray):
        return _vector_part(column)
    if isinstance(column, Strings):  # the memtable's: no null, no NUL
        return (_STR, column.nul_joined(), 0, 0)
    return _column_part(None, column, set(map(type, column)))[0]


def _joined_parts(batches: Sequence["RowBatch"]) -> list | None:
    """Per column, the typed parts of key-equal admitted ``batches``
    joined; ``None`` when a member has no typed parts or a column's
    kind differs between members."""
    if any(batch._parts is None or batch._payload is not None for batch in batches):
        return None
    joined = []
    counts = [batch.count for batch in batches]
    for parts in zip(*(batch._parts for batch in batches)):
        kind = parts[0][0]
        if any(part[0] != kind for part in parts):
            return None
        if kind == _INT:  # admitted: int64s, or a constant (width 0) to expand
            parts = [
                part if part[3] else _int_part(array("q", (part[2],)) * count)
                for part, count in zip(parts, counts)
            ]
        separator = b"\0" if kind == _STR else b""
        joined.append((kind, separator.join(part[1] for part in parts), 0, parts[0][3]))
    return joined


def _pick(column, indices: Sequence[int] | np.ndarray | None):
    """The values of ``column`` at ``indices`` (all when ``None``) as
    Python values: a vector column's through one ``take``, a
    :class:`Strings` column's by decoding just those rows."""
    if isinstance(column, np.ndarray):
        return (column if indices is None else column[indices]).tolist()
    if isinstance(column, Strings):
        if indices is None:
            return column.tolist()
        return column.pick(np.asarray(indices, dtype=np.int64))
    if indices is None:
        return column
    if isinstance(indices, np.ndarray):
        indices = indices.tolist()
    return map(column.__getitem__, indices)


class RowBatch:
    """Equal-length value lists per column name, plus a payload estimate.

    The lists are owned by the batch and never mutated (``split`` /
    ``concat`` build new ones), so batches may share them.
    ``tenant_id`` is the tenant every row belongs to, or ``None`` when
    that is not known (replayed, coalesced across tenants).  A batch
    admitted, joined by :meth:`concat` or read by :meth:`from_bytes`
    also holds its typed parts (see the module doc); one that has only
    those decodes :attr:`columns` when they are first read.  The
    memtable's own batch may hold a column as an int64 / float64 / bool
    numpy vector or a :class:`Strings` instead of a list; :meth:`take`
    and the dict readers hand out its values as Python ones.
    """

    __slots__ = ("names", "count", "tenant_id", "nbytes", "_columns", "_parts", "_payload")

    # Row dicts built by :meth:`iter_dicts`, process-wide.  Read by the
    # tier-1 guard that the write path builds none; not a metric.
    dicts_built = 0
    # Columns decoded from typed parts, process-wide: the guard that a
    # replica nobody reads decodes nothing.  Not a metric.
    columns_decoded = 0

    def __init__(
        self,
        names: tuple[str, ...] = (),
        columns: list[list] | None = None,
        tenant_id: int | None = None,
        nbytes: int = 0,
    ) -> None:
        self.names = names
        self._columns = columns or []
        self.count = len(columns[0]) if columns else 0
        self.tenant_id = tenant_id
        self.nbytes = nbytes
        self._parts = self._payload = None

    @classmethod
    def _typed(cls, names, count, nbytes, parts, columns=None, tenant_id=None, payload=None):
        batch = cls.__new__(cls)
        batch.names, batch.count, batch.tenant_id, batch.nbytes = names, count, tenant_id, nbytes
        batch._columns, batch._parts, batch._payload = columns, parts, payload
        return batch

    def __len__(self) -> int:
        return self.count

    @property
    def columns(self) -> list[list]:
        """One value list per name, decoded from the typed parts on first read."""
        if self._columns is None:
            self._columns = [decode_column(part, self.count) for part in self._parts]
        return self._columns

    @property
    def decoded(self) -> bool:
        """Whether :attr:`columns` is built (reading it costs no decode)."""
        return self._columns is not None

    def typed_parts(self) -> list[tuple]:
        """Every column's typed part: as admitted or read, else the part
        its values make (the module doc's value rule)."""
        return self._parts or [_canonical_part(column) for column in self._columns]

    def admitted_parts(self) -> tuple[list[tuple], list[list]] | None:
        """``(typed parts, value lists)`` of a batch built in this
        process (admitted, cut, joined lists) — its ints unframed, a
        constant kept once (:func:`typed_bytes`) — or ``None`` for one
        read by :meth:`from_bytes`, or not decoded."""
        if self._payload is None and self._columns is not None:
            return self.typed_parts(), self._columns
        return None

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
        kinds: dict[str, set] | None = None,
    ) -> "RowBatch":
        """Validate, size and type column-major rows in one sweep per column.

        Every row must carry an int64 ``ts_column`` and ``tenant_column``
        and — when ``tenant_id`` is given — belong to that tenant.  With
        a ``schema`` (the live catalog schema at ``put``), values of its
        columns must have the column's type under the rules of
        ``TableSchema.validate_columns``, an int in a numeric column
        must fit int64 and a string must have a UTF-8 encoding — the
        archive encoder stores them so, and a value it cannot store
        would fail every later flush of the shard; names the schema
        does not know are dropped, as archiving drops them, so a later
        DDL that adds such a name meets no un-archived value of it.
        Names must be ``str`` and values follow the value rule (module
        doc).  Anything else raises :class:`InvalidBatchError` and
        nothing was admitted.  ``kinds`` maps a name to its column's
        ``set(map(type, column))`` where the caller has taken it.
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
        if set(map(type, names)) != _ONLY_STR and not all(isinstance(n, str) for n in names):
            raise InvalidBatchError(f"column names must be str: {names!r}")
        accepted = schema.accepted_types if schema is not None else {}
        if accepted and not accepted.keys() >= set(names):
            keys = {*accepted, ts_column, tenant_column}
            keep = [i for i, name in enumerate(names) if name in keys]
            names, columns = tuple(names[i] for i in keep), [columns[i] for i in keep]
        nbytes = count * sum(map(len, names))
        parts = []
        known = kinds or {}
        for i, (name, column) in enumerate(zip(names, columns)):
            kinds = known.get(name) or set(map(type, column))
            if name == ts_column or name == tenant_column:
                owner = tenant_id if name == tenant_column else None
                part, size = _key_part(name, column, kinds, owner), 8 * count
            else:
                takes = accepted.get(name, _NOTHING)
                if takes and not kinds <= takes:
                    try:  # subclasses pass, a wrong type names itself
                        schema.validate_columns({name: column})
                    except SchemaError as exc:
                        raise InvalidBatchError(str(exc)) from None
                if float in takes and not kinds <= _NEVER_INT:
                    columns[i] = column = _floats(name, column)
                    kinds = set(map(type, column))
                part, size = _column_part(name, column, kinds, takes)
            if not kinds <= _KEPT_TYPES:  # carried as the base types
                columns[i] = column = _decode_part(part, count)
                part = _canonical_part(column)
            parts.append(part)
            nbytes += size
        for required in (ts_column, tenant_column):
            if required not in names:
                raise InvalidBatchError(f"row missing column {required!r}")
        return cls._typed(names, count, nbytes, parts, columns, tenant_id)

    @classmethod
    def from_dicts(cls, rows: list[dict]) -> "RowBatch":
        """Dict rows as a chunk, neither validated nor sized: rows that
        reach a query operator as dicts (``_system`` tables, tests)."""
        return cls(*_transpose(rows)) if rows else cls()

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

        Key-equal admitted batches are joined buffer by buffer (group
        commit); others chain their lists.  Batches with other key sets
        are normalised to the union, like the rows of one ragged batch,
        and the nulls that adds are sized.
        """
        batches = [batch for batch in batches if batch.count]
        if len(batches) == 1:
            return batches[0]
        if not batches:
            return cls()
        names = batches[0].names
        nbytes = sum(batch.nbytes for batch in batches)
        if all(batch.names == names for batch in batches):
            joined = _joined_parts(batches)
            if joined is not None:
                return cls._typed(names, sum(map(len, batches)), nbytes, joined)
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
            columns = [self.column(name) for name in names]
            columns = [nulls if column is None else column for column in columns]
        return names, [_pick(column, indices) for column in columns]

    def take(self, indices: Sequence[int] | None, names: Sequence[str]) -> "RowBatch":
        """The picked rows as a chunk of exactly ``names``; nothing is sized."""
        names, columns = self._picked(indices, names)
        return RowBatch(tuple(names), [list(column) for column in columns])

    def iter_dicts(self, indices: Sequence[int] | None = None) -> Iterator[dict]:
        """The picked rows as dicts, each built when it is read."""
        names, columns = self._picked(indices, None)
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
        """The batch as a log payload (module doc); carries ``nbytes`` so
        replay and replica apply do not size the columns again."""
        if self._payload is not None:
            return self._payload
        names, sizes = _encoded_names(self.names)
        fields, segments = [], []
        for size, (kind, data, base, width) in zip(sizes, self.typed_parts()):
            if kind == _INT and width == 8 and not base:  # int64s
                if self.count > _SHORT:
                    base, width, data = _frame(data)
                elif data[:8] * self.count == data:  # constant: kept once
                    base, width, data = _I64.unpack_from(data)[0], 0, b""
            fields += (size, kind, width, base, len(data))
            segments.append(data)
        head = _BATCH.pack(self.count, self.nbytes, len(sizes))
        columns = _columns_struct(len(sizes)).pack(*fields)
        return pack_record(BATCH_MAGIC, (head, columns, names, *segments))

    @classmethod
    def from_bytes(cls, payload: bytes) -> "RowBatch":
        """The batch of one payload, its columns still encoded: checks
        the CRC and parses the header, O(columns).  Anything that is not
        a payload of this codec version is :class:`CorruptionError`."""
        body = unpack_record(BATCH_MAGIC, payload, "row batch payload")
        try:
            count, nbytes, ncolumns = _BATCH.unpack_from(body)
            at = _BATCH.size + ncolumns * _COLUMN.size
            columns = list(_COLUMN.iter_unpack(body[_BATCH.size : at]))
            names = []
            for size, *_ in columns:
                names.append(str(body[at : at + size], "utf-8", "surrogatepass"))
                at += size
        except (struct.error, UnicodeDecodeError) as exc:
            raise CorruptionError(f"undecodable row batch header: {exc!r}") from None
        parts = []
        for _, kind, width, base, size in columns:
            if not _segment_ok(kind, width, base, size, count):
                raise CorruptionError(f"row batch column of kind {kind} is malformed")
            parts.append((kind, body[at : at + size], base, width))
            at += size
        if at != len(body) or len(set(names)) != len(names):
            raise CorruptionError("row batch payload does not match its header")
        payload = payload if type(payload) is bytes else bytes(payload)
        return cls._typed(tuple(names), count, nbytes, parts, payload=payload)


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

    def vector(self, name: str) -> np.ndarray | None:
        """The selected values of ``name`` as one numpy vector when every
        part holds it as a vector of one dtype (the memtable's INT /
        FLOAT / BOOL columns): one ``take``, no Python value built;
        else ``None``."""
        found = [(batch.column(name), picked) for batch, picked in self.parts]
        if not found or not isinstance(found[0][0], np.ndarray):
            return None
        if len({getattr(column, "dtype", None) for column, _ in found}) != 1:
            return None
        vectors = [column[picked] for column, picked in found]
        return vectors[0] if len(vectors) == 1 else np.concatenate(vectors)

    def column(
        self, name: str, typed: bool = False
    ) -> list | np.ndarray | Strings | None:
        """The selected values of ``name``; ``None`` when no part carries it.

        A list of Python values (a :class:`Strings` column's picked rows
        decoded one by one), or with ``typed`` the column's own form
        gathered, no Python value built — the data builder's gather: the
        :meth:`vector` where there is one, a :class:`Strings` when the
        selection's one part holds it as one (the memtable's STR
        columns), one text slice per run of consecutive rows, and value
        lists sliced run by run too.
        """
        found = [(batch.column(name), picked) for batch, picked in self.parts]
        if all(column is None for column, _ in found):
            return None
        if typed:
            vector = self.vector(name)
            if vector is not None:
                return vector
            forms = {type(column) for column, _ in found}
            if forms == {Strings} and len(found) == 1:
                return found[0][0].take(found[0][1])
            if forms == {list}:
                return list(
                    chain.from_iterable(
                        column[start:stop]
                        for column, picked in found
                        for start, stop in zip(*runs(picked))
                    )
                )
        return list(
            chain.from_iterable(
                repeat(None, len(picked)) if column is None else _pick(column, picked)
                for column, picked in found
            )
        )

    def pick(self, hits: np.ndarray) -> "RowSelection":
        """The rows at the ascending selection positions ``hits``."""
        parts = []
        start = 0
        for batch, picked in self.parts:
            stop = start + len(picked)
            lo, hi = np.searchsorted(hits, (start, stop))
            parts.append((batch, picked[hits[lo:hi] - start]))
            start = stop
        return RowSelection(parts)

    def project(self, names: Sequence[str]) -> RowBatch:
        """The selected rows as one chunk of exactly ``names`` (see
        :meth:`RowBatch.take`)."""
        return RowBatch.concat([b.take(picked, names) for b, picked in self.parts])

    def iter_dicts(self) -> Iterator[dict]:
        """The selected rows as dicts (see :meth:`RowBatch.iter_dicts`)."""
        for batch, picked in self.parts:
            yield from batch.iter_dicts(picked)

    __iter__ = iter_dicts
