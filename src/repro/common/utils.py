"""Small shared helpers: percentiles, formatting, chunking."""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence, TypeVar

T = TypeVar("T")


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of ``values`` for ``q`` in [0, 100].

    Implemented locally (rather than via numpy) so latency summaries work
    on plain lists collected incrementally by the metrics module.
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (q / 100) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(ordered[low])
    frac = rank - low
    return float(ordered[low] * (1 - frac) + ordered[high] * frac)


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; raises on empty input."""
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def stddev(values: Sequence[float]) -> float:
    """Population standard deviation; 0.0 for single-element input."""
    if not values:
        raise ValueError("stddev of empty sequence")
    mu = mean(values)
    return math.sqrt(sum((v - mu) ** 2 for v in values) / len(values))


def human_bytes(size: float) -> str:
    """Format a byte count like ``1.5 MiB``."""
    if size < 0:
        raise ValueError(f"negative size: {size}")
    units = ["B", "KiB", "MiB", "GiB", "TiB", "PiB"]
    value = float(size)
    for unit in units:
        if value < 1024 or unit == units[-1]:
            if unit == "B":
                return f"{int(value)} {unit}"
            return f"{value:.1f} {unit}"
        value /= 1024
    raise AssertionError("unreachable")


def human_count(count: float) -> str:
    """Format a count like ``1.5M`` / ``3.2k``."""
    if count < 0:
        raise ValueError(f"negative count: {count}")
    if count >= 1_000_000_000:
        return f"{count / 1_000_000_000:.1f}B"
    if count >= 1_000_000:
        return f"{count / 1_000_000:.1f}M"
    if count >= 1_000:
        return f"{count / 1_000:.1f}k"
    return str(int(count))


def wave_elapsed(durations: Sequence[float], width: int) -> float:
    """Elapsed time of ``width``-wide concurrent waves over ``durations``.

    The deferred-clock overlap model shared by the prefetching executor
    and the broker's write fan-out: tasks run ``width`` at a time and
    each wave costs its slowest member, so K parallel tasks pay the
    slowest, not the sum.
    """
    if width < 1:
        raise ValueError(f"wave width must be >= 1, got {width}")
    if len(durations) == 1:  # one wave of one task
        return durations[0]
    ordered = sorted(durations, reverse=True)
    return sum(ordered[i] for i in range(0, len(ordered), width))


def chunked(items: Iterable[T], size: int) -> Iterator[list[T]]:
    """Yield successive lists of up to ``size`` items."""
    if size <= 0:
        raise ValueError(f"chunk size must be positive, got {size}")
    batch: list[T] = []
    for item in items:
        batch.append(item)
        if len(batch) == size:
            yield batch
            batch = []
    if batch:
        yield batch


def merge_ranges(ranges: Iterable[tuple[int, int]], gap: int = 0) -> list[tuple[int, int]]:
    """Merge overlapping/adjacent ``(start, end)`` half-open byte ranges.

    Ranges closer than ``gap`` bytes apart are coalesced too — the parallel
    prefetcher uses this to merge nearly-contiguous block reads into one
    object-store request, as §5.2 of the paper describes ("repeated data
    block read IO requests will be merged").
    """
    if gap < 0:
        raise ValueError(f"gap must be non-negative, got {gap}")
    ordered = sorted(ranges)
    merged: list[tuple[int, int]] = []
    for start, end in ordered:
        if end < start:
            raise ValueError(f"invalid range ({start}, {end})")
        if merged and start <= merged[-1][1] + gap:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged
