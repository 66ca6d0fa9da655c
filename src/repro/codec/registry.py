"""Compression codecs used by LogBlock column blocks and tar packing.

The paper supports Snappy, LZ4 and ZSTD and defaults to ZSTD because the
compression *ratio* matters more than CPU when the bottleneck is bytes
moved over the network to object storage (§3.2 "Compressed").

Only stdlib codecs are installed in this environment, so the registry maps
the paper's roles onto stdlib equivalents (documented in DESIGN.md):

* ``zlib``  — the "fast, moderate ratio" role of Snappy/LZ4.
* ``lzma``  — the "slow, high ratio" role of ZSTD; the package default.
* ``bz2``   — an extra ratio/speed point for the codec ablation bench.
* ``none``  — passthrough, for measuring compression benefit.

Each codec byte stream is self-identifying: callers persist the codec *id*
next to the payload (LogBlock stores a ``compress type`` per column, as in
Figure 4), so blocks stay self-contained.
"""

from __future__ import annotations

import bz2
import lzma
import zlib
from dataclasses import dataclass
from typing import Callable

from repro.common.errors import CodecError


@dataclass(frozen=True)
class Codec:
    """A named, id-stamped compression codec."""

    name: str
    codec_id: int
    compress: Callable[[bytes], bytes]
    decompress: Callable[[bytes], bytes]

    def roundtrip_ratio(self, data: bytes) -> float:
        """Compression ratio (uncompressed / compressed) on ``data``."""
        if not data:
            return 1.0
        return len(data) / max(1, len(self.compress(data)))


_REGISTRY_BY_NAME: dict[str, Codec] = {}
_REGISTRY_BY_ID: dict[int, Codec] = {}

# Default codec name used across the package; stands in for the paper's ZSTD.
DEFAULT_CODEC = "lzma"


def register_codec(codec: Codec) -> None:
    """Register a codec under both its name and numeric id."""
    if codec.name in _REGISTRY_BY_NAME:
        raise CodecError(f"codec name already registered: {codec.name}")
    if codec.codec_id in _REGISTRY_BY_ID:
        raise CodecError(f"codec id already registered: {codec.codec_id}")
    _REGISTRY_BY_NAME[codec.name] = codec
    _REGISTRY_BY_ID[codec.codec_id] = codec


def get_codec(key: str | int) -> Codec:
    """Look up a codec by name or numeric id."""
    if isinstance(key, str):
        codec = _REGISTRY_BY_NAME.get(key)
    else:
        codec = _REGISTRY_BY_ID.get(key)
    if codec is None:
        raise CodecError(f"unknown codec: {key!r}")
    return codec


def available_codecs() -> list[str]:
    """Names of all registered codecs."""
    return sorted(_REGISTRY_BY_NAME)


def _lzma_compress(data: bytes) -> bytes:
    # preset 1: high ratio, tolerable speed; .lzma framing (13 B), not .xz's (~60 B).
    return lzma.compress(data, format=lzma.FORMAT_ALONE, preset=1)


register_codec(Codec("none", 0, lambda data: data, lambda data: data))
register_codec(
    Codec("zlib", 1, lambda data: zlib.compress(data, 1), zlib.decompress)
)
register_codec(Codec("lzma", 2, _lzma_compress, lzma.decompress))
register_codec(Codec("bz2", 3, lambda data: bz2.compress(data, 9), bz2.decompress))
