"""Distinct counting: exact sets and HyperLogLog sketches.

Log analytics constantly asks cardinality questions ("how many unique
IPs hit this API today?").  The SQL layer supports:

* ``COUNT(DISTINCT col)`` — exact, backed by a per-group hash set;
* ``APPROX_COUNT_DISTINCT(col)`` — a HyperLogLog sketch (Flajolet et
  al.), constant memory per group and mergeable across shards, which is
  what a broker needs to combine per-shard partial aggregates.

The HLL implementation uses the standard 2^p registers with the
bias-corrected estimator and linear counting for the small-cardinality
regime.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from repro.common.errors import QueryError

DEFAULT_PRECISION = 12  # 4096 registers, ~1.6% standard error


def _hash64(value) -> int:
    data = repr(value).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


class HyperLogLog:
    """Mergeable cardinality sketch with 2**precision registers."""

    def __init__(self, precision: int = DEFAULT_PRECISION) -> None:
        if not 4 <= precision <= 18:
            raise QueryError(f"HLL precision must be in [4, 18], got {precision}")
        self.precision = precision
        self.m = 1 << precision
        self._registers = np.zeros(self.m, dtype=np.uint8)

    @property
    def alpha(self) -> float:
        if self.m == 16:
            return 0.673
        if self.m == 32:
            return 0.697
        if self.m == 64:
            return 0.709
        return 0.7213 / (1 + 1.079 / self.m)

    def add(self, value) -> None:
        """Observe one value (hashed internally; any hashable repr works).
        ``-0.0`` is ``0.0``, as every equality here has it."""
        hashed = _hash64(0.0 if value == 0 and type(value) is float else value)
        register = hashed >> (64 - self.precision)
        remaining = hashed & ((1 << (64 - self.precision)) - 1)
        # Rank: position of the leftmost 1-bit in the remaining bits.
        rank = (64 - self.precision) - remaining.bit_length() + 1
        if rank > self._registers[register]:
            self._registers[register] = rank

    def merge(self, other: "HyperLogLog") -> None:
        """Union with another sketch (register-wise max)."""
        if other.precision != self.precision:
            raise QueryError(
                f"cannot merge HLL precisions {self.precision} and {other.precision}"
            )
        np.maximum(self._registers, other._registers, out=self._registers)

    def estimate(self) -> int:
        """Estimated distinct count."""
        registers = self._registers.astype(np.float64)
        raw = self.alpha * self.m * self.m / np.sum(np.exp2(-registers))
        zeros = int(np.count_nonzero(self._registers == 0))
        if raw <= 2.5 * self.m and zeros:
            # Small-range correction: linear counting.
            return int(round(self.m * math.log(self.m / zeros)))
        return int(round(raw))

    def to_bytes(self) -> bytes:
        return bytes([self.precision]) + self._registers.tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "HyperLogLog":
        if not data:
            raise QueryError("empty HLL payload")
        sketch = cls(precision=data[0])
        registers = np.frombuffer(data, dtype=np.uint8, offset=1)
        if len(registers) != sketch.m:
            raise QueryError(
                f"HLL payload has {len(registers)} registers, expected {sketch.m}"
            )
        sketch._registers = registers.copy()
        return sketch


class ExactDistinct:
    """Exact distinct counter (a set), mergeable like the sketch.  A NaN
    equals nothing, itself included: each counts, none is a member."""

    def __init__(self) -> None:
        self._values: set = set()
        self._nans = 0

    def add(self, value) -> None:
        if value == value:
            self._values.add(value)
        else:
            self._nans += 1

    def merge(self, other: "ExactDistinct") -> None:
        self._values |= other._values
        self._nans += other._nans

    def estimate(self) -> int:
        return len(self._values) + self._nans
