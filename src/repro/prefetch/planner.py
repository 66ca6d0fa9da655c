"""Prefetch planning (§5.2, Figure 10).

"Before parallel loading, the file to be prefetched should be divided
into data blocks according to the metadata, and repeated data block
read IO requests will be merged to avoid repeated loading."

Given a LogBlock's pack manifest and the members the query plan will
touch (meta, the needed indexes, the surviving column blocks), the
planner emits a list of byte ranges:

1. one range per needed member (from the manifest),
2. deduplicated,
3. coalesced when ranges are adjacent or nearly so (``merge_gap``), so
   several small members become one GET.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.utils import merge_ranges
from repro.tarpack.manifest import Manifest

DEFAULT_MERGE_GAP = 4096


@dataclass(frozen=True)
class PrefetchPlan:
    """Byte ranges to load for one blob, already merged."""

    bucket: str
    key: str
    ranges: tuple[tuple[int, int], ...]  # absolute (start, length)

    @property
    def total_bytes(self) -> int:
        return sum(length for _start, length in self.ranges)

    @property
    def request_count(self) -> int:
        return len(self.ranges)


@dataclass
class PrefetchPlanner:
    """Builds merged prefetch plans from manifests and member lists."""

    merge_gap: int = DEFAULT_MERGE_GAP
    members_planned: int = field(default=0, init=False)

    def plan(
        self,
        bucket: str,
        key: str,
        manifest: Manifest,
        data_start: int,
        members: list[str],
    ) -> PrefetchPlan:
        """Plan ranged reads for the given members of one packed blob."""
        extents: list[tuple[int, int]] = []
        seen: set[str] = set()
        for member in members:
            if member in seen:
                continue  # dedupe repeated requests (Figure 10)
            seen.add(member)
            offset, length = manifest.extent(member)
            if length == 0:
                continue
            start = data_start + offset
            extents.append((start, start + length))
        self.members_planned += len(seen)
        merged = merge_ranges(extents, gap=self.merge_gap)
        ranges = tuple((start, end - start) for start, end in merged)
        return PrefetchPlan(bucket=bucket, key=key, ranges=ranges)
