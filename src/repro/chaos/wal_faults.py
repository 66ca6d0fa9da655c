"""WAL fault injector: failed fsyncs, torn tails, checksum damage.

:class:`FaultySegmentBackend` wraps any
:class:`~repro.wal.log.SegmentBackend` and is handed to shards / Raft
replicas through ``LogStoreConfig.wal_backend_factory``.  Because the
backend object *survives* a simulated process crash (it is the durable
medium), the chaos runner keeps a registry of them and rebuilds crashed
components over the same backend — recovery then runs against whatever
damaged bytes the faults left behind.

Fault modes:

* **failed append** — the next append raises without writing anything:
  an fsync failure.  The write was never acknowledged, so recovery must
  simply not contain it.
* **torn append** — the next append persists only a prefix of its bytes
  and then raises: a crash mid-fsync.  Recovery must cut the torn tail
  and keep the longest valid frame prefix.
* **tail corruption** (:meth:`corrupt_tail`) — flip a byte inside the
  final frame of the last segment: a partial sector overwrite.  The
  frame's CRC no longer matches, and recovery must treat it as a torn
  tail (the bytes were never acknowledged as a complete flush).
"""

from __future__ import annotations

from repro.common.errors import WalError
from repro.wal.log import MemorySegmentBackend, SegmentBackend


class FaultySegmentBackend:
    """Fault-injecting wrapper around a WAL segment backend."""

    def __init__(
        self,
        name: str,
        inner: SegmentBackend | None = None,
    ) -> None:
        self.name = name
        self._inner = inner if inner is not None else MemorySegmentBackend()
        self._journal = None
        self._fail_appends = 0
        self._tear_appends = 0
        self._tear_fraction = 0.5
        self.appends_failed = 0
        self.appends_torn = 0

    @property
    def inner(self) -> SegmentBackend:
        return self._inner

    def attach_journal(self, journal) -> None:
        """Late-bind the event journal faults are emitted to."""
        self._journal = journal

    def _note(self, kind: str, detail: str = "") -> None:
        if self._journal is not None:
            self._journal.emit(f"chaos.{kind}", self.name, detail=detail)

    # -- fault controls --------------------------------------------------

    def fail_next_appends(self, count: int = 1) -> None:
        """Next ``count`` appends raise without persisting (fsync fails)."""
        self._fail_appends += count
        self._note("fault.wal.fail_arm", f"count={count}")

    def tear_next_appends(self, count: int = 1, fraction: float = 0.5) -> None:
        """Next ``count`` appends persist a prefix, then raise (torn)."""
        if not 0 <= fraction < 1:
            raise ValueError(f"torn fraction must be in [0, 1), got {fraction}")
        self._tear_appends += count
        self._tear_fraction = fraction
        self._note("fault.wal.tear_arm", f"count={count} fraction={fraction}")

    def corrupt_tail(self) -> bool:
        """Flip one byte in the last segment's final bytes.

        Returns False when there is nothing to corrupt.  The flipped
        byte lands far enough from the end to sit inside the final
        frame's payload (the last byte of a frame is payload unless the
        payload is empty).
        """
        segments = self._inner.segments()
        if not segments:
            return False
        last = segments[-1]
        data = bytearray(self._inner.read(last))
        if not data:
            return False
        data[-1] ^= 0xFF
        self._inner.delete(last)
        self._inner.append(last, bytes(data))
        self._note("fault.wal.corrupt_tail", f"segment={last}")
        return True

    def heal(self) -> None:
        self._fail_appends = 0
        self._tear_appends = 0
        self._note("fault.wal.heal")

    # -- SegmentBackend interface ----------------------------------------

    def append(self, segment_id: int, data: bytes) -> None:
        if self._fail_appends > 0:
            self._fail_appends -= 1
            self.appends_failed += 1
            self._note("fault.wal.append_failed", f"segment={segment_id} bytes={len(data)}")
            raise WalError(f"injected fsync failure on {self.name} segment {segment_id}")
        if self._tear_appends > 0:
            self._tear_appends -= 1
            self.appends_torn += 1
            kept = data[: int(len(data) * self._tear_fraction)]
            self._inner.append(segment_id, kept)
            self._note(
                "fault.wal.append_torn",
                f"segment={segment_id} kept={len(kept)}/{len(data)}",
            )
            raise WalError(f"injected torn append on {self.name} segment {segment_id}")
        self._inner.append(segment_id, data)

    def read(self, segment_id: int) -> bytes:
        return self._inner.read(segment_id)

    def segments(self) -> list[int]:
        return self._inner.segments()

    def delete(self, segment_id: int) -> None:
        self._inner.delete(segment_id)
