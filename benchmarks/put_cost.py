#!/usr/bin/env python3
"""Host time of one ``put()``, split at admission.

Replays the ``ingest_plain`` puts of ``benchmarks/e2e`` (823 puts of
~100 rows, seed 1) into a fresh plain cluster and prints, in
microseconds per put, the best of ``--passes`` passes of:

* ``admit``: ``RowBatch.admit`` (transpose, type and size the rows);
* ``after admission``: ``LogStore.put`` of the admitted batch (route,
  dispatch, WAL, row store, metering, spans);
* ``put``: ``LogStore.put`` of the row dicts, both together.

Each pass is scaled to the host's fast state by the reference loop
``benchmarks/e2e`` uses (``workloads.HostSpeed``); still, compare two
commits in alternation::

    PYTHONPATH=src python benchmarks/put_cost.py [--seed 1] [--passes 5]
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "e2e"))

import workloads  # noqa: E402

from repro import LogStore  # noqa: E402
from repro.rowstore.batch import RowBatch  # noqa: E402


def timed(loop) -> float:
    """Seconds ``loop`` spends in its timed region (it returns them),
    scaled to the host's fast state as ``benchmarks/e2e`` scales."""
    gc.collect()
    speed = workloads.HostSpeed()
    speed.sample(force=True)
    start = time.perf_counter()
    seconds = loop()
    speed.sample(force=True)
    return seconds / speed.factor(start, time.perf_counter() - start)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=5)
    args = parser.parse_args()
    inputs = workloads.prepare("ingest_plain", args.seed)
    config = workloads.bench_config(**inputs.config)
    batches = inputs.batches
    schema = LogStore.create(config=config).catalog.schema

    def admit() -> float:
        start = time.perf_counter()
        for tenant, rows in batches:
            RowBatch.admit(rows, tenant, schema)
        return time.perf_counter() - start

    def put(admitted: bool) -> float:
        work = batches
        if admitted:
            work = [(tenant, RowBatch.admit(rows, tenant, schema)) for tenant, rows in batches]
        store = LogStore.create(config=config)
        start = time.perf_counter()
        for tenant, rows in work:
            store.put(tenant, rows)
        return time.perf_counter() - start

    print(f"puts: {len(batches)}  rows: {sum(len(rows) for _, rows in batches)}")
    for label, loop in (
        ("admit", admit),
        ("after admission", lambda: put(admitted=True)),
        ("put", lambda: put(admitted=False)),
    ):
        best = min(timed(loop) for _ in range(args.passes))
        print(f"{label:16s} {best / len(batches) * 1e6:7.1f} us/put")


if __name__ == "__main__":
    main()
