"""RowStore: the local, write-optimized half of the two-phase write path.

Holds the active memtable plus a list of sealed memtables waiting for
the data builder.  Queries see *all* of them (real-time visibility, §2:
"LogStore supports low-latency writes and real-time data visibility"),
plus whatever has already been archived to OSS — the cluster layer
merges both sides.

Sealing policy mirrors an LSM flush: when the active memtable exceeds
``seal_bytes`` or ``seal_rows``, it is sealed and a new one starts.
"""

from __future__ import annotations

import struct

from repro.common.errors import CorruptionError, RowStoreError
from repro.common.record import pack_record, unpack_record
from repro.rowstore.batch import RowBatch, RowSelection
from repro.rowstore.memtable import MemTable

DEFAULT_SEAL_ROWS = 100_000
DEFAULT_SEAL_BYTES = 64 * 1024 * 1024

# Checkpoint state: the record head of ``common.record.pack_record``, then
# <Q rows ingested> <Q sealed dropped> <I tables>, one <Q length> per
# table, and each table (sealed ones, then the active one) as one
# ``RowBatch.to_bytes`` payload in arrival order.
STATE_MAGIC = b"\x89RS"
_STATE = struct.Struct("<QQI")
_LENGTH = struct.Struct("<Q")


class RowStore:
    """Active + sealed memtables for one shard."""

    def __init__(
        self,
        ts_column: str = "ts",
        tenant_column: str = "tenant_id",
        seal_rows: int = DEFAULT_SEAL_ROWS,
        seal_bytes: int = DEFAULT_SEAL_BYTES,
    ) -> None:
        if seal_rows <= 0 or seal_bytes <= 0:
            raise RowStoreError("seal thresholds must be positive")
        self._ts_column = ts_column
        self._tenant_column = tenant_column
        self._seal_rows = seal_rows
        self._seal_bytes = seal_bytes
        self._active = MemTable(ts_column, tenant_column)
        self._sealed: list[MemTable] = []
        self.total_rows_ingested = 0
        # Cumulative count of sealed memtables ever dropped (archived).
        # Part of the checkpoint state so replicated drain commands can
        # be applied idempotently by absolute target.
        self.sealed_dropped = 0

    @property
    def active(self) -> MemTable:
        return self._active

    def append(self, row: dict) -> None:
        """Ingest one row: a one-row :meth:`append_many`."""
        self.append_many([row])

    def append_many(self, rows: RowBatch | list[dict]) -> None:
        """Ingest a batch atomically; seals exactly where per-row
        appends would.

        A batch that fits under both remaining seal budgets — every
        batch but the one that crosses a threshold — goes to the active
        memtable whole, sized by the ``nbytes`` it was admitted with.
        Only a crossing batch is cut: per-row sizes place each seal
        after the same row a row-at-a-time ingest would seal after
        (that row still lands in the sealing memtable).  ``rows`` may
        be plain row dicts: they are admitted (validated, sized) first.
        """
        batch = RowBatch.of(
            rows, ts_column=self._ts_column, tenant_column=self._tenant_column
        )
        n = len(batch)
        if (
            n < self._seal_rows - len(self._active)
            and batch.nbytes < self._seal_bytes - self._active.approx_bytes
        ):
            self._active.append_many(batch)
            self.total_rows_ingested += n
            return
        sizes = batch.row_sizes()
        i = 0
        while i < n:
            budget_rows = self._seal_rows - len(self._active)
            budget_bytes = self._seal_bytes - self._active.approx_bytes
            j = i
            acc = 0
            while j < n and (j - i) < budget_rows and acc < budget_bytes:
                acc += sizes[j]
                j += 1
            self._active.append_many(batch.cut(i, j, acc))
            self.total_rows_ingested += j - i
            if (
                len(self._active) >= self._seal_rows
                or self._active.approx_bytes >= self._seal_bytes
            ):
                self.seal_active()
            i = j

    def seal_active(self) -> MemTable | None:
        """Seal the active memtable (if non-empty); returns it."""
        if not len(self._active):
            return None
        table = self._active
        table.seal()
        self._sealed.append(table)
        self._active = MemTable(self._ts_column, self._tenant_column)
        return table

    def take_sealed(self) -> list[MemTable]:
        """The sealed memtables for the data builder, oldest first.

        A snapshot: the tables stay until :meth:`drop_sealed_prefix`
        discards the ones that reached OSS, so an archive that fails
        part-way loses no acknowledged rows.
        """
        return list(self._sealed)

    def drop_sealed_prefix(self, count: int) -> None:
        """Discard the first ``count`` sealed memtables (they are on OSS).

        Shards log the drop as a drain command after a successful
        archive, so every replica and every WAL replay discards *the
        same* tables at *the same* log position — seal boundaries are
        deterministic functions of the applied commands.
        """
        if count < 0 or count > len(self._sealed):
            raise RowStoreError(
                f"cannot drop {count} sealed memtables, have {len(self._sealed)}"
            )
        del self._sealed[:count]
        self.sealed_dropped += count

    def row_count(self) -> int:
        """Rows currently visible locally (active + sealed)."""
        return len(self._active) + sum(len(t) for t in self._sealed)

    def approx_bytes(self) -> int:
        return self._active.approx_bytes + sum(t.approx_bytes for t in self._sealed)

    def scan(
        self,
        min_ts: int | None = None,
        max_ts: int | None = None,
        tenant_id: int | None = None,
        skip_sealed: int = 0,
    ) -> RowSelection:
        """Sealed tables (past the first ``skip_sealed``) then the active
        one, each in ts order, as one selection (iterate it for row
        dicts)."""
        return RowSelection(
            [
                part
                for table in (*self._sealed[skip_sealed:], self._active)
                for part in table.scan(min_ts, max_ts, tenant_id).parts
            ]
        )

    def tenants(self) -> set[int]:
        found: set[int] = set()
        for table in self._sealed:
            found |= table.tenants()
        found |= self._active.tenants()
        return found

    # -- checkpoint state (Raft snapshot integration) ----------------------

    def serialize_state(self) -> bytes:
        """Snapshot of the locally held rows (for Raft checkpointing).

        Captures each sealed table and the active one as one column
        batch in arrival order, plus the ingest counters; archived rows
        live on OSS and are not part of local state.  Equal tables give
        equal bytes however their rows were chunked, and whether or not
        a reader has decoded them.
        """
        tables = [t.consolidated().to_bytes() for t in (*self._sealed, self._active)]
        head = _STATE.pack(self.total_rows_ingested, self.sealed_dropped, len(tables))
        lengths = [_LENGTH.pack(len(table)) for table in tables]
        return pack_record(STATE_MAGIC, (head, *lengths, *tables))

    def install_state(self, state: bytes) -> None:
        """Replace local contents with a serialized snapshot, in place;
        a state that does not decode is :class:`CorruptionError` and
        changes nothing.  The tables stay encoded until read."""
        body = unpack_record(STATE_MAGIC, state, "row-store state")
        try:
            total, dropped, count = _STATE.unpack_from(body)
            at = _STATE.size + count * _LENGTH.size
            sizes = [size for (size,) in _LENGTH.iter_unpack(body[_STATE.size : at])]
        except struct.error as exc:
            raise CorruptionError(f"undecodable row-store state: {exc!r}") from None
        restored = []
        for size in sizes:
            table = MemTable(self._ts_column, self._tenant_column)
            table.append_many(RowBatch.from_bytes(body[at : at + size]))
            restored.append(table)
            at += size
        if not count or len(sizes) != count or at != len(body):
            raise CorruptionError("row-store state does not match its header")
        self._active = restored.pop()
        for table in restored:
            table.seal()
        self._sealed = restored
        self.total_rows_ingested = total
        self.sealed_dropped = dropped
