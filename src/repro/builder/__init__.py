"""The data builder: phase-2 "remote archiving" of the hybrid write path.

§3.1: sealed row-store memtables are divided into per-tenant columnar
LogBlocks, packed into seekable files, uploaded to OSS, and registered
in the controller's LogBlock map.  This package is that conversion
pipeline plus its maintenance side:

* :mod:`repro.builder.builder` — :class:`DataBuilder` (the conversion
  itself) and :class:`BuildReport` (mergeable build/upload counters).
* :mod:`repro.builder.compaction` — :class:`Compactor`, which merges a
  tenant's small LogBlocks into right-sized ones.
"""

from repro.builder.builder import BuildReport, DataBuilder, TenantBuildStats
from repro.builder.compaction import CompactionResult, Compactor

__all__ = [
    "BuildReport",
    "DataBuilder",
    "TenantBuildStats",
    "CompactionResult",
    "Compactor",
]
