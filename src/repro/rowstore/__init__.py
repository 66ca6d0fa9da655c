"""Write-optimized row store (phase 1 of the two-phase write path)."""

from repro.rowstore.batch import RowBatch
from repro.rowstore.memtable import MemTable
from repro.rowstore.store import RowStore

__all__ = ["MemTable", "RowBatch", "RowStore"]
