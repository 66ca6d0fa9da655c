"""Worker node: hosts shards, tracks load, runs the data builder.

Workers are the ECS-node abstraction of the execution layer (Figure 3).
Each worker owns the row stores of its shards and a
:class:`~repro.builder.builder.DataBuilder` that archives sealed
memtables to OSS in the background.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.builder.builder import BuildReport, DataBuilder
from repro.cluster.shard import Shard
from repro.obs.context import Observability
from repro.rowstore.batch import RowBatch


def archive_each(items: Iterable, archive: Callable[[object, BuildReport], None]) -> BuildReport:
    """``archive(item, report)`` for every item, into one report.

    One item that cannot archive (an OSS outage past the retry budget, a
    DDL that retyped a key its rows hold) must not stop the others: each
    is tried, and the first failure is raised after the last.
    """
    report = BuildReport()
    failure: Exception | None = None
    for item in items:
        try:
            archive(item, report)
        except Exception as exc:
            failure = failure or exc
    if failure is not None:
        raise failure
    return report


class Worker:
    """One execution-layer node."""

    def __init__(
        self,
        worker_id: str,
        capacity_rps: float,
        builder: DataBuilder,
        obs: Observability | None = None,
    ) -> None:
        self.worker_id = worker_id
        self.capacity_rps = capacity_rps
        self._builder = builder
        self.shards: dict[int, Shard] = {}
        self._obs = obs if obs is not None else Observability.noop()
        self.access_count = self._obs.registry.counter(
            "logstore_worker_accesses_total",
            "Write + scan accesses per worker (Figure 14 input).",
            worker=worker_id,
        )

    def add_shard(self, shard: Shard) -> None:
        if shard.worker_id != self.worker_id:
            raise ValueError(
                f"shard {shard.shard_id} belongs to {shard.worker_id}, not {self.worker_id}"
            )
        self.shards[shard.shard_id] = shard

    def write_async(self, shard_id: int, rows: RowBatch | list[dict]) -> None:
        """Admit a batch without settling replication (see Shard)."""
        self.shards[shard_id].write_async(rows)
        self.access_count.add(len(rows))

    def _archive_shard(self, shard: Shard, report: BuildReport) -> None:
        """Archive a shard's sealed memtables, keeping them on failure.

        ``take_sealed`` leaves the tables in the row store, and
        ``archive_memtable`` is all-or-nothing per memtable, so after a
        builder failure (OSS outage past the retry budget, crash)
        ``finish_archive`` drains exactly the archived prefix and the
        rest stay for the next cycle.
        """
        sealed = shard.take_sealed()
        archived = 0
        try:
            for source, memtable in sealed:
                self._builder.archive_memtable(memtable, source, report)
                archived += 1
        finally:
            if shard.finish_archive(archived):
                self._builder.drained(source for source, _ in sealed[:archived])

    def _flush_shard(self, shard: Shard, report: BuildReport) -> None:
        shard.seal_active()
        self._archive_shard(shard, report)

    def archive_once(self) -> BuildReport:
        """Run the background data builder over every shard."""
        return archive_each(self.shards.values(), self._archive_shard)

    def flush_all(self) -> BuildReport:
        """Seal + archive everything (used on rebalance/offload, §4.1.5)."""
        return archive_each(self.shards.values(), self._flush_shard)

    def pending_rows(self) -> int:
        return sum(shard.pending_rows() for shard in self.shards.values())

    def utilization(self, traffic_rps: float) -> float:
        return traffic_rps / self.capacity_rps if self.capacity_rps > 0 else 0.0
