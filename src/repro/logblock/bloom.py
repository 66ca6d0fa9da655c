"""Block-level Bloom filters for high-cardinality equality skipping.

SMA min/max prunes poorly on high-cardinality string columns (a block
of 4096 distinct request ids has min ≈ the alphabet's start and max ≈
its end, so every equality probe "may match").  A small Bloom filter
per column answers "definitely absent" for equality predicates at the
cost of a few bits per row, letting the planner skip whole LogBlocks
without fetching their (much larger) inverted indexes.

Implementation: standard Bloom filter with double hashing —
``h_i(x) = h1(x) + i * h2(x)`` (Kirsch–Mitzenmacher), h1/h2 from one
blake2b digest.  Sized for a target false-positive rate.

Member layout (LogBlock format v8): the bit count (uvarint), the hash
count (u8), then the bits.  The pack manifest holds its checksum.
"""

from __future__ import annotations

import hashlib
import math
import numpy as np

from repro.common.bytesio import BinaryReader, BinaryWriter
from repro.common.errors import SerializationError

DEFAULT_FPR = 0.01
# The filter object, its two ints and the bit array's header.
_FIXED_OVERHEAD = 232


def optimal_parameters(n_items: int, fpr: float = DEFAULT_FPR) -> tuple[int, int]:
    """(bits, hash_count) minimizing size for the target false-positive rate."""
    if n_items <= 0:
        return 8, 1
    if not 0 < fpr < 1:
        raise ValueError(f"fpr must be in (0, 1), got {fpr}")
    bits = max(8, math.ceil(-n_items * math.log(fpr) / (math.log(2) ** 2)))
    hashes = max(1, round(bits / n_items * math.log(2)))
    return bits, hashes


def _hash_pair(value: str) -> tuple[int, int]:
    digest = hashlib.blake2b(value.encode("utf-8"), digest_size=16).digest()
    h1 = int.from_bytes(digest[:8], "little")
    h2 = int.from_bytes(digest[8:], "little") | 1  # odd → full period
    return h1, h2


class BloomFilter:
    """A serializable Bloom filter over normalized string values."""

    def __init__(self, n_bits: int, n_hashes: int, bits: np.ndarray | None = None) -> None:
        if n_bits <= 0 or n_hashes <= 0:
            raise ValueError("n_bits and n_hashes must be positive")
        self.n_bits = n_bits
        self.n_hashes = n_hashes
        n_words = (n_bits + 7) // 8
        if bits is None:
            self._bits = np.zeros(n_words, dtype=np.uint8)
        else:
            if len(bits) != n_words:
                raise ValueError(f"expected {n_words} bytes, got {len(bits)}")
            self._bits = bits.astype(np.uint8, copy=True)

    @classmethod
    def for_items(cls, n_items: int, fpr: float = DEFAULT_FPR) -> "BloomFilter":
        bits, hashes = optimal_parameters(n_items, fpr)
        return cls(bits, hashes)

    def _positions(self, value: str):
        h1, h2 = _hash_pair(value)
        for i in range(self.n_hashes):
            yield (h1 + i * h2) % self.n_bits

    def add(self, value: str) -> None:
        for position in self._positions(value):
            self._bits[position >> 3] |= np.uint8(1 << (position & 7))

    def add_many(self, values) -> None:
        """Add a batch of values with one scatter-OR over the bit words.

        Setting bits is idempotent and order-independent, so the result
        is byte-identical to an :meth:`add` loop in any order.
        """
        positions: list[int] = []
        for value in values:
            h1, h2 = _hash_pair(value)
            positions.extend((h1 + i * h2) % self.n_bits for i in range(self.n_hashes))
        if not positions:
            return
        arr = np.asarray(positions, dtype=np.int64)
        np.bitwise_or.at(
            self._bits, arr >> 3, np.left_shift(np.uint8(1), (arr & 7).astype(np.uint8))
        )

    def might_contain(self, value: str) -> bool:
        """False ⇒ definitely absent; True ⇒ possibly present."""
        for position in self._positions(value):
            if not self._bits[position >> 3] & (1 << (position & 7)):
                return False
        return True

    @property
    def size_bytes(self) -> int:
        return len(self._bits)

    @property
    def nbytes(self) -> int:
        """Bytes this filter keeps alive (what a cache is charged)."""
        return _FIXED_OVERHEAD + self._bits.nbytes

    def fill_ratio(self) -> float:
        """Fraction of set bits (diagnostic; ~0.5 at design load)."""
        return float(np.unpackbits(self._bits).sum()) / self.n_bits

    # -- serialization -------------------------------------------------------

    def to_bytes(self) -> bytes:
        writer = BinaryWriter()
        writer.write_uvarint(self.n_bits)
        writer.write_u8(self.n_hashes)
        writer.write_bytes(self._bits.tobytes())
        return writer.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "BloomFilter":
        reader = BinaryReader(data)
        n_bits = reader.read_uvarint()
        n_hashes = reader.read_u8()
        n_words = (n_bits + 7) // 8
        if not n_bits or not n_hashes or reader.remaining() != n_words:
            raise SerializationError(
                f"bloom of {n_bits} bits and {n_hashes} hashes in {reader.remaining()} bytes"
            )
        bits = np.frombuffer(reader.read_bytes(n_words), dtype=np.uint8)
        return cls(n_bits, n_hashes, bits)
