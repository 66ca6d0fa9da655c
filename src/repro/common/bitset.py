"""A packed bitset used for row-id sets and null masks.

The LogBlock column blocks store a bitset per block (the paper's layout
part 5 stores "the bitset and compressed data"); query execution merges
per-predicate row-id sets with bitwise AND/OR.  Backing storage is a
numpy ``uint8`` array so that the logical operations are vectorized.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.common.errors import SerializationError


class Bitset:
    """Fixed-size bitset over row ids ``[0, size)``."""

    __slots__ = ("_size", "_words")

    def __init__(self, size: int, words: np.ndarray | None = None) -> None:
        if size < 0:
            raise ValueError(f"bitset size must be non-negative, got {size}")
        self._size = size
        nwords = (size + 7) // 8
        if words is None:
            self._words = np.zeros(nwords, dtype=np.uint8)
        else:
            if len(words) != nwords:
                raise ValueError(f"expected {nwords} words for size {size}, got {len(words)}")
            self._words = words.astype(np.uint8, copy=True)

    # -- construction ----------------------------------------------------

    @classmethod
    def from_indices(cls, size: int, indices: "np.ndarray | Iterable[int]") -> "Bitset":
        """Build a bitset with the given positions set (duplicates allowed).

        An integer ``ndarray`` — what the indexes hand out — is used as
        is; any other iterable is collected into one first.
        """
        if not isinstance(indices, np.ndarray):
            indices = np.array(list(indices), dtype=np.int64)
        mask = np.zeros(size, dtype=bool)
        if indices.size:
            if indices.min() < 0 or indices.max() >= size:
                raise IndexError("bit index out of range")
            mask[indices] = True
        return cls.from_bool_array(mask)

    @classmethod
    def full(cls, size: int) -> "Bitset":
        """A bitset with every position set."""
        bits = cls(size)
        bits._words[:] = 0xFF
        bits._mask_tail()
        return bits

    @classmethod
    def from_bool_array(cls, mask: np.ndarray) -> "Bitset":
        """Build from a boolean numpy array (one element per row)."""
        mask = np.asarray(mask, dtype=bool)
        bits = cls(len(mask))
        if len(mask):
            bits._words = np.packbits(mask, bitorder="little")
        return bits

    # -- element access ---------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def get(self, index: int) -> bool:
        """Whether bit ``index`` is set."""
        self._check(index)
        return bool(self._words[index // 8] & (1 << (index % 8)))

    def set(self, index: int) -> None:
        """Set bit ``index``."""
        self._check(index)
        self._words[index // 8] |= np.uint8(1 << (index % 8))

    def clear(self, index: int) -> None:
        """Clear bit ``index``."""
        self._check(index)
        self._words[index // 8] &= np.uint8(~(1 << (index % 8)) & 0xFF)

    def _check(self, index: int) -> None:
        if not 0 <= index < self._size:
            raise IndexError(f"bit index {index} out of range [0, {self._size})")

    def _mask_tail(self) -> None:
        """Zero any padding bits past ``size`` in the last word."""
        extra = self._size % 8
        if extra and len(self._words):
            self._words[-1] &= np.uint8((1 << extra) - 1)

    # -- set algebra -------------------------------------------------------

    def _require_same_size(self, other: "Bitset") -> None:
        if self._size != other._size:
            raise ValueError(f"bitset size mismatch: {self._size} vs {other._size}")

    def __and__(self, other: "Bitset") -> "Bitset":
        self._require_same_size(other)
        return Bitset(self._size, self._words & other._words)

    def __or__(self, other: "Bitset") -> "Bitset":
        self._require_same_size(other)
        return Bitset(self._size, self._words | other._words)

    def __xor__(self, other: "Bitset") -> "Bitset":
        self._require_same_size(other)
        return Bitset(self._size, self._words ^ other._words)

    def __invert__(self) -> "Bitset":
        inverted = Bitset(self._size, ~self._words)
        inverted._mask_tail()
        return inverted

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bitset):
            return NotImplemented
        return self._size == other._size and bool(np.array_equal(self._words, other._words))

    def __hash__(self) -> int:  # bitsets are mutable; keep them unhashable
        raise TypeError("Bitset is unhashable")

    # -- queries -----------------------------------------------------------

    def count(self) -> int:
        """Number of set bits (population count)."""
        return int(np.unpackbits(self._words, bitorder="little").sum())

    def any(self) -> bool:
        """Whether any bit is set."""
        return bool(self._words.any())

    def indices(self) -> np.ndarray:
        """Sorted array of set positions."""
        if not self._size:
            return np.empty(0, dtype=np.int64)
        unpacked = np.unpackbits(self._words, bitorder="little")[: self._size]
        return np.flatnonzero(unpacked).astype(np.int64)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices().tolist())

    def to_bool_array(self) -> np.ndarray:
        """Boolean numpy array, one element per row."""
        if not self._size:
            return np.empty(0, dtype=bool)
        return np.unpackbits(self._words, bitorder="little")[: self._size].astype(bool)

    # -- serialization -----------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize as ``size:uint32le`` followed by the packed words."""
        header = int(self._size).to_bytes(4, "little")
        return header + self._words.tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "Bitset":
        """Inverse of :meth:`to_bytes`."""
        if len(data) < 4:
            raise SerializationError("bitset payload shorter than header")
        size = int.from_bytes(data[:4], "little")
        nwords = (size + 7) // 8
        if len(data) != 4 + nwords:
            raise SerializationError(
                f"bitset payload length {len(data)} does not match size {size}"
            )
        words = np.frombuffer(data, dtype=np.uint8, count=nwords, offset=4)
        return cls(size, words.copy())

    def __repr__(self) -> str:
        return f"Bitset(size={self._size}, set={self.count()})"
