"""Table schemas for LogBlock.

A LogBlock is *self-contained* (§3.2): the complete table schema is
serialized into the block header so a block "can still be resolved after
being renamed or moved".  The schema also drives which index type each
column gets — inverted index for strings, BKD tree for numerics — since
the paper indexes *all* columns by default.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

from repro.common.bytesio import BinaryReader, BinaryWriter
from repro.common.errors import SchemaError, SerializationError


class ColumnType(enum.IntEnum):
    """Physical column types supported by the LogBlock format."""

    INT64 = 0
    FLOAT64 = 1
    STRING = 2
    BOOL = 3
    TIMESTAMP = 4  # stored as int64 microseconds since the epoch

    @property
    def is_numeric(self) -> bool:
        return self in (ColumnType.INT64, ColumnType.FLOAT64, ColumnType.TIMESTAMP)

    @property
    def is_string(self) -> bool:
        return self is ColumnType.STRING


class IndexType(enum.IntEnum):
    """Per-column index kind (§3.2: inverted for strings, BKD for numbers)."""

    NONE = 0
    INVERTED = 1
    BKD = 2


# Exact value types a column of each type accepts (None is a null).
# bool is not an int here even though ``isinstance(True, int)``; FLOAT64
# takes ints.  Subclasses of these are decided value by value.
EXACT_VALUE_TYPES = {
    ColumnType.INT64: frozenset((int, type(None))),
    ColumnType.TIMESTAMP: frozenset((int, type(None))),
    ColumnType.FLOAT64: frozenset((int, float, type(None))),
    ColumnType.STRING: frozenset((str, type(None))),
    ColumnType.BOOL: frozenset((bool, type(None))),
}


def default_index_for(column_type: ColumnType) -> IndexType:
    """The paper's default: index every column by its natural index type."""
    if column_type.is_string:
        return IndexType.INVERTED
    if column_type.is_numeric or column_type is ColumnType.BOOL:
        return IndexType.BKD
    return IndexType.NONE


@dataclass(frozen=True)
class ColumnSpec:
    """Definition of one column.

    Attributes:
        name: column name (unique within a schema).
        ctype: physical type.
        index: index to build for this column.  Defaults to the natural
            index for the type, matching the paper's full-column indexing.
        tokenize: for STRING columns, whether the inverted index tokenizes
            values into terms (full-text search) or indexes whole values
            (exact-match, e.g. an ``ip`` column).
    """

    name: str
    ctype: ColumnType
    index: IndexType | None = None
    tokenize: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("column name must be non-empty")
        if self.index is None:
            object.__setattr__(self, "index", default_index_for(self.ctype))
        if self.index is IndexType.INVERTED and not self.ctype.is_string:
            raise SchemaError(f"inverted index requires STRING column, got {self.ctype.name}")
        if self.index is IndexType.BKD and self.ctype.is_string:
            raise SchemaError("BKD index is for numeric/bool columns")
        if self.tokenize and not self.ctype.is_string:
            raise SchemaError("tokenize applies only to STRING columns")


@dataclass(frozen=True)
class TableSchema:
    """Ordered collection of columns describing one log table."""

    name: str
    columns: tuple[ColumnSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("table name must be non-empty")
        if not self.columns:
            raise SchemaError("schema must have at least one column")
        names = [col.name for col in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in schema {self.name!r}")

    def column(self, name: str) -> ColumnSpec:
        for col in self.columns:
            if col.name == name:
                return col
        raise SchemaError(f"no such column: {name!r} in table {self.name!r}")

    def column_index(self, name: str) -> int:
        for i, col in enumerate(self.columns):
            if col.name == name:
                return i
        raise SchemaError(f"no such column: {name!r} in table {self.name!r}")

    def column_names(self) -> list[str]:
        return [col.name for col in self.columns]

    def __len__(self) -> int:
        return len(self.columns)

    @cached_property
    def accepted_types(self) -> dict[str, frozenset]:
        """Column name → exact value types that are valid without a
        per-value look: a column whose ``set(map(type, values))`` is a
        subset needs no further check."""
        return {col.name: EXACT_VALUE_TYPES[col.ctype] for col in self.columns}

    def validate_row(self, row: dict, allow_missing: bool = False) -> None:
        """Raise :class:`SchemaError` if ``row`` does not match the schema.

        ``allow_missing=True`` treats absent columns as nulls — used by
        the data builder so rows ingested before an additive DDL still
        archive cleanly under the evolved schema.
        """
        for col in self.columns:
            if col.name not in row:
                if allow_missing:
                    continue
                raise SchemaError(f"row missing column {col.name!r}")
            value = row[col.name]
            if value is None:
                continue
            if col.ctype in (ColumnType.INT64, ColumnType.TIMESTAMP):
                if not isinstance(value, int) or isinstance(value, bool):
                    raise SchemaError(f"column {col.name!r} expects int, got {type(value)}")
            elif col.ctype is ColumnType.FLOAT64:
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    raise SchemaError(f"column {col.name!r} expects float, got {type(value)}")
            elif col.ctype is ColumnType.STRING:
                if not isinstance(value, str):
                    raise SchemaError(f"column {col.name!r} expects str, got {type(value)}")
            elif col.ctype is ColumnType.BOOL:
                if not isinstance(value, bool):
                    raise SchemaError(f"column {col.name!r} expects bool, got {type(value)}")

    def validate_columns(self, columns: dict[str, list]) -> None:
        """Columnar counterpart of :meth:`validate_row`.

        ``columns`` maps column name → value list; absent columns are
        all-null.  Same checks and messages as the per-row validator,
        raised on the first offending value in column-major order.
        """
        for col in self.columns:
            values = columns.get(col.name)
            if values is None:
                continue
            # Fast accept: one C-driven sweep collecting the exact types
            # present.  Exact types are a *subset* of what the precise
            # loops below accept (they also take int/float/str/bool
            # subclasses), so short-circuiting acceptance here never
            # changes the verdict — mixed or subclassed columns just
            # take the slow loop.
            if set(map(type, values)) <= EXACT_VALUE_TYPES[col.ctype]:
                continue
            if col.ctype in (ColumnType.INT64, ColumnType.TIMESTAMP):
                for value in values:
                    if value is not None and (
                        not isinstance(value, int) or isinstance(value, bool)
                    ):
                        raise SchemaError(
                            f"column {col.name!r} expects int, got {type(value)}"
                        )
            elif col.ctype is ColumnType.FLOAT64:
                for value in values:
                    if value is not None and (
                        not isinstance(value, (int, float)) or isinstance(value, bool)
                    ):
                        raise SchemaError(
                            f"column {col.name!r} expects float, got {type(value)}"
                        )
            elif col.ctype is ColumnType.STRING:
                for value in values:
                    if value is not None and not isinstance(value, str):
                        raise SchemaError(
                            f"column {col.name!r} expects str, got {type(value)}"
                        )
            elif col.ctype is ColumnType.BOOL:
                for value in values:
                    if value is not None and not isinstance(value, bool):
                        raise SchemaError(
                            f"column {col.name!r} expects bool, got {type(value)}"
                        )

    # -- serialization (embedded in every LogBlock header) -------------------

    def to_bytes(self) -> bytes:
        writer = BinaryWriter()
        writer.write_str(self.name)
        writer.write_uvarint(len(self.columns))
        for col in self.columns:
            writer.write_str(col.name)
            writer.write_u8(int(col.ctype))
            writer.write_u8(int(col.index))  # type: ignore[arg-type]
            writer.write_u8(1 if col.tokenize else 0)
        return writer.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "TableSchema":
        reader = BinaryReader(data)
        try:
            name = reader.read_str()
            columns = []
            for _ in range(reader.read_uvarint()):
                col_name = reader.read_str()
                ctype = ColumnType(reader.read_u8())
                index = IndexType(reader.read_u8())
                tokenize = bool(reader.read_u8())
                columns.append(ColumnSpec(col_name, ctype, index, tokenize))
            return cls(name=name, columns=tuple(columns))
        except (ValueError, SchemaError) as exc:  # an unknown type, a name no schema has
            raise SerializationError(f"damaged table schema: {exc}") from exc


def request_log_schema() -> TableSchema:
    """The paper's running example table (§5.1 sample SQL).

    ``SELECT log FROM request_log WHERE tenant_id = ... AND ts >= ... AND
    ip = '192.168.0.1' AND latency >= 100 AND fail = 'false'``
    """
    return TableSchema(
        name="request_log",
        columns=(
            ColumnSpec("tenant_id", ColumnType.INT64),
            ColumnSpec("ts", ColumnType.TIMESTAMP),
            ColumnSpec("ip", ColumnType.STRING, IndexType.INVERTED, tokenize=False),
            ColumnSpec("api", ColumnType.STRING, IndexType.INVERTED, tokenize=False),
            ColumnSpec("latency", ColumnType.INT64),
            ColumnSpec("fail", ColumnType.BOOL),
            ColumnSpec("log", ColumnType.STRING, IndexType.INVERTED, tokenize=True),
        ),
    )
