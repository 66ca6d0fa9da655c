"""Small Materialized Aggregates (SMA) — per-column and per-block min/max.

§3.2: "We also generate a Small Materialized Aggregates (SMA) for each
column, including maximum and minimum values for skipping data blocks."
We additionally keep row and null counts, which the planner uses for
short-circuiting (an all-null block can never satisfy a comparison),
and the sum of numeric columns, which lets the aggregate pushdown
answer SUM/AVG for a fully matched block without touching its column
blocks.  ``sum_value`` is ``None`` for non-numeric columns and for an
int sum that left the stored int64.

:class:`Sma` is the value the pruning code reasons about; a LogBlock's
meta holds its SMAs column-wise in one :class:`SmaTable` and builds an
``Sma`` only for the slot a caller asks about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.common.errors import SerializationError
from repro.logblock.schema import ColumnType

# Value kinds stored beside every serialized SMA value
KIND_NONE = 0
KIND_INT = 1
KIND_FLOAT = 2
KIND_STR = 3
KIND_BOOL = 4


@dataclass(frozen=True)
class Sma:
    """min/max/row-count/null-count summary of one column (or block)."""

    min_value: int | float | str | bool | None
    max_value: int | float | str | bool | None
    row_count: int
    null_count: int
    # Sum over the non-null values of a numeric column; None when the
    # column is not numeric or the sum left the stored int64.
    sum_value: int | float | None = None

    @property
    def all_null(self) -> bool:
        return self.row_count > 0 and self.null_count == self.row_count

    # -- pruning -----------------------------------------------------------

    def may_contain_eq(self, value) -> bool:
        """Whether some row *might* equal ``value`` (false ⇒ safe to skip)."""
        if self.all_null or self.min_value is None:
            return False
        return self.min_value <= value <= self.max_value

    def may_contain_range(self, low=None, high=None, low_inclusive=True, high_inclusive=True):
        """Whether rows might fall in the interval [low, high]."""
        if self.all_null or self.min_value is None:
            return False
        if low != low or high != high:
            return False  # a NaN bound admits no value
        if low is not None:
            if low_inclusive:
                if self.max_value < low:
                    return False
            elif self.max_value <= low:
                return False
        if high is not None:
            if high_inclusive:
                if self.min_value > high:
                    return False
            elif self.min_value >= high:
                return False
        return True

    # -- all-match proofs -------------------------------------------------------
    # The mirror image of pruning: bounds that prove *every* row matches
    # let the caller skip the index and the data just as a disproof does.

    def _proves_for(self, ctype: ColumnType, *literals) -> bool:
        """Whether the bounds can prove anything about these literals.

        Only when there are no nulls and the literals have exactly the
        bounds' type: the index, the vector scan and the row scan agree
        on same-type comparisons, but not on ``bool`` vs ``int`` or on a
        ``str`` probed against numbers.  A FLOAT64 column never proves a
        full match, because min/max skip the NaNs that no comparison
        matches.  That is decided from the column type: the bounds can
        be ints (a FLOAT64 column accepts them).
        """
        kind = type(self.min_value)
        return (
            ctype is not ColumnType.FLOAT64
            and self.null_count == 0
            and self.min_value is not None
            and type(self.max_value) is kind
            and all(type(literal) is kind for literal in literals)
        )

    def all_eq_any(self, ctype: ColumnType, values) -> bool:
        """Whether every row equals one of ``values`` (true ⇒ nothing to read)."""
        return (
            self._proves_for(ctype, *values)
            and self.min_value == self.max_value
            and self.min_value in values
        )

    def all_in_range(
        self, ctype: ColumnType, low=None, high=None, low_inclusive=True, high_inclusive=True
    ) -> bool:
        """Whether every row lies in the interval (true ⇒ nothing to read)."""
        if not self._proves_for(ctype, *(bound for bound in (low, high) if bound is not None)):
            return False
        if low is not None and not (
            self.min_value >= low if low_inclusive else self.min_value > low
        ):
            return False
        if high is not None and not (
            self.max_value <= high if high_inclusive else self.max_value < high
        ):
            return False
        return True


def _storable_sum(total: int | float | None) -> int | float | None:
    """``total``, or ``None`` for an int sum that left the stored int64.

    A block of a few thousand µs timestamps already sums past 2**63.
    Readers treat a missing sum as "scan the block instead of pushing
    SUM/AVG down", so dropping it costs speed, never correctness.
    """
    if isinstance(total, int) and not -(2**63) <= total < 2**63:
        return None
    return total


def compute_sma(values: Iterable, ctype: ColumnType) -> Sma:
    """Compute the SMA of a column (or block) of python values.

    ``None`` entries are nulls and excluded from min/max (and the sum).
    A NaN is a value — it counts as non-null and poisons the sum — but
    no bound: no comparison matches it, so min/max skip it (bounds that
    were NaN would prune blocks that hold matches).  Bools compare as
    ints, matching the storage encoding.  The sum is only maintained
    for numeric columns (INT64/FLOAT64/TIMESTAMP).
    """
    numeric = ctype in (ColumnType.INT64, ColumnType.FLOAT64, ColumnType.TIMESTAMP)
    min_value = None
    max_value = None
    row_count = 0
    null_count = 0
    total = 0 if ctype is not ColumnType.FLOAT64 else 0.0
    for value in values:
        row_count += 1
        if value is None:
            null_count += 1
            continue
        if value == value:  # not NaN
            if min_value is None or value < min_value:
                min_value = value
            if max_value is None or value > max_value:
                max_value = value
        if numeric:
            total += value
    return Sma(
        min_value, max_value, row_count, null_count, _storable_sum(total) if numeric else None
    )


def compute_sma_arrays(
    vector: np.ndarray, null_mask: np.ndarray, ctype: ColumnType
) -> Sma | None:
    """Array fast path for :func:`compute_sma` — byte-identical or ``None``.

    ``vector`` is the column's int64 / float64 / bool vector with nulls
    masked by ``null_mask`` (a STRING column's bounds come from
    ``encode_kernels.compute_sma_range``).  Returns ``None`` when the
    vectorized result could differ bitwise from the sequential oracle,
    so callers must fall back to :func:`compute_sma`:

    * float blocks containing NaN (the oracle's min/max skip them; numpy
      reductions propagate them);
    * float blocks containing -0.0 (the oracle keeps the *first* of two
      equal values, numpy reductions do not promise which zero wins).

    Float sums reproduce the oracle's sequential accumulation exactly
    via ``np.cumsum`` (each partial sum depends on the previous one, so
    there is no pairwise re-association); int sums use ``np.sum`` only
    when no intermediate can leave int64, else exact python summation
    (and no sum at all once the total itself leaves int64).
    """
    numeric = ctype in (ColumnType.INT64, ColumnType.FLOAT64, ColumnType.TIMESTAMP)
    row_count = int(len(null_mask))
    null_count = int(null_mask.sum())
    present = vector[~null_mask]
    if present.size == 0:
        if not numeric:
            return Sma(None, None, row_count, null_count, None)
        total = 0.0 if ctype is ColumnType.FLOAT64 else 0
        return Sma(None, None, row_count, null_count, total)

    if ctype in (ColumnType.INT64, ColumnType.TIMESTAMP):
        min_value = int(present.min())
        max_value = int(present.max())
        if present.size * max(abs(min_value), abs(max_value)) < 2**63:
            total = int(present.sum(dtype=np.int64))
        else:
            total = _storable_sum(sum(present.tolist()))
        return Sma(min_value, max_value, row_count, null_count, total)

    if ctype is ColumnType.FLOAT64:
        if np.isnan(present).any():
            return None
        if (np.signbit(present) & (present == 0.0)).any():
            return None
        min_value = float(present.min())
        max_value = float(present.max())
        # The oracle's float sum reaches inf, and inf + -inf NaN, silently.
        with np.errstate(over="ignore", invalid="ignore"):
            total = float(np.cumsum(np.concatenate((np.zeros(1), present)))[-1])
        return Sma(min_value, max_value, row_count, null_count, total)

    return Sma(bool(present.min()), bool(present.max()), row_count, null_count, None)


def merge_smas(smas: Iterable[Sma]) -> Sma:
    """Merge block-level SMAs into a column-level SMA."""
    min_value = None
    max_value = None
    row_count = 0
    null_count = 0
    # The merged sum is only known when every child carries one.
    total: int | float | None = 0
    any_child = False
    for sma in smas:
        any_child = True
        row_count += sma.row_count
        null_count += sma.null_count
        if sma.min_value is not None and (min_value is None or sma.min_value < min_value):
            min_value = sma.min_value
        if sma.max_value is not None and (max_value is None or sma.max_value > max_value):
            max_value = sma.max_value
        if total is not None:
            total = None if sma.sum_value is None else total + sma.sum_value
    if not any_child:
        total = None
    return Sma(min_value, max_value, row_count, null_count, _storable_sum(total))


# Meta format v4 folds a bool bound into its kind byte, so bools carry
# no payload.
_KIND_FALSE = KIND_BOOL
_KIND_TRUE = 5


class SmaTable:
    """The SMAs of one LogBlock, held column-wise (meta format v4).

    Slot ``i`` has a null count and three values — min, max, sum — each
    tagged by ``kinds[3 * i + j]``.  The values sit in one array per
    kind (``ints``, ``floats``, the UTF-8 ``strings`` blob cut at
    ``string_ends``) in slot order, so value ``k`` is entry
    ``kinds.count(kind, 0, k)`` of its kind's array.  Every field is
    addressable where it lies: opening a meta wraps the sections and
    decodes nothing, and an :class:`Sma` object exists only once
    :meth:`sma` is asked for one.
    """

    def __init__(
        self,
        null_counts: np.ndarray,
        kinds: bytes,
        ints: np.ndarray,
        floats: np.ndarray,
        strings: bytes,
        string_ends: np.ndarray,
    ) -> None:
        if len(kinds) != 3 * len(null_counts):
            raise SerializationError("SMA kinds disagree with the slot count")
        if (len(ints), len(floats), len(string_ends)) != self.value_counts(kinds):
            raise SerializationError("SMA kinds disagree with the value sections")
        if (int(string_ends[-1]) if len(string_ends) else 0) != len(strings):
            raise SerializationError("SMA string ends disagree with the string section")
        self.null_counts = null_counts
        self.kinds = kinds
        self.ints = ints
        self.floats = floats
        self.strings = strings
        self.string_ends = string_ends

    @staticmethod
    def value_counts(kinds: bytes) -> tuple[int, int, int]:
        """How many int, float and string values ``kinds`` announces."""
        return kinds.count(KIND_INT), kinds.count(KIND_FLOAT), kinds.count(KIND_STR)

    @classmethod
    def from_smas(cls, smas: list[Sma]) -> "SmaTable":
        kinds = bytearray()
        ints: list[int] = []
        floats: list[float] = []
        strings: list[bytes] = []
        for sma in smas:
            for value in (sma.min_value, sma.max_value, sma.sum_value):
                if value is None:
                    kinds.append(KIND_NONE)
                elif isinstance(value, bool):
                    kinds.append(_KIND_TRUE if value else _KIND_FALSE)
                elif isinstance(value, int):
                    kinds.append(KIND_INT)
                    ints.append(value)
                elif isinstance(value, float):
                    kinds.append(KIND_FLOAT)
                    floats.append(value)
                elif isinstance(value, str):
                    kinds.append(KIND_STR)
                    strings.append(value.encode("utf-8"))
                else:
                    raise TypeError(f"unsupported SMA value type: {type(value)}")
        try:
            int_values = np.array(ints, dtype=np.int64)
        except OverflowError:
            raise SerializationError("SMA int value outside the stored int64") from None
        return cls(
            np.array([sma.null_count for sma in smas], dtype=np.uint64),
            bytes(kinds),
            int_values,
            np.array(floats, dtype=np.float64),
            b"".join(strings),
            np.cumsum(np.fromiter(map(len, strings), dtype=np.uint64, count=len(strings))),
        )

    def __len__(self) -> int:
        return len(self.null_counts)

    @property
    def nbytes(self) -> int:
        """Bytes of the buffers this table keeps alive."""
        return (
            self.null_counts.nbytes
            + len(self.kinds)
            + self.ints.nbytes
            + self.floats.nbytes
            + len(self.strings)
            + self.string_ends.nbytes
        )

    def _value(self, k: int):
        kinds = self.kinds
        kind = kinds[k]
        if kind == KIND_NONE:
            return None
        if kind == KIND_INT:
            return int(self.ints[kinds.count(KIND_INT, 0, k)])
        if kind == KIND_FLOAT:
            return float(self.floats[kinds.count(KIND_FLOAT, 0, k)])
        if kind == KIND_STR:
            at = kinds.count(KIND_STR, 0, k)
            start = int(self.string_ends[at - 1]) if at else 0
            try:
                return self.strings[start : int(self.string_ends[at])].decode("utf-8")
            except UnicodeDecodeError:
                raise SerializationError("SMA string bound is not UTF-8") from None
        if kind == _KIND_FALSE or kind == _KIND_TRUE:
            return kind == _KIND_TRUE
        raise SerializationError(f"unknown SMA value kind {kind}")

    def sma(self, slot: int, row_count: int) -> Sma:
        """Materialise the SMA of ``slot`` (a region of ``row_count`` rows)."""
        k = 3 * slot
        low, high = self._value(k), self._value(k + 1)
        if low != low or high != high:
            # Written before compute_sma skipped NaNs: the true bounds
            # are unknown, so nothing may be pruned by them.
            low, high = -math.inf, math.inf
        return Sma(low, high, row_count, int(self.null_counts[slot]), self._value(k + 2))
