"""The packed bitset codec of the LogBlock null (and BOOL value) sections.

Each column block stores its nulls as a bitset (the paper's layout
part 5 stores "the bitset and compressed data"): the row count, then
one bit per row, least significant bit first.  Query execution does not
use this type; row sets there are numpy bool masks.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import SerializationError


class Bitset:
    """Fixed-size bitset over row ids ``[0, size)``, as stored."""

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

    @classmethod
    def from_bool_array(cls, mask: np.ndarray) -> "Bitset":
        """Build from a boolean numpy array (one element per row)."""
        mask = np.asarray(mask, dtype=bool)
        bits = cls(len(mask))
        if len(mask):
            bits._words = np.packbits(mask, bitorder="little")
        return bits

    def __len__(self) -> int:
        return self._size

    def to_bool_array(self) -> np.ndarray:
        """Boolean numpy array, one element per row."""
        if not self._size:
            return np.empty(0, dtype=bool)
        return np.unpackbits(self._words, bitorder="little")[: self._size].astype(bool)

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
        return f"Bitset(size={self._size})"
