"""Ablation (§3): the pipelined group-commit write path.

The paper's write path acks a batch once it is durable on a quorum and
groups concurrent client batches into one Raft entry ("the WAL records
of multiple write requests will be packed into a single I/O").  This
bench drives the same batch stream through two cluster configurations:

* **serial** — one Raft entry per batch, every batch waits until the
  entry is committed on *all* replicas before the next is admitted;
* **pipelined** — group commit coalesces batches per shard, a bounded
  window keeps several entries in flight, and writes settle on quorum.

Both runs use the virtual clock, so the elapsed seconds isolate the
protocol cost (fsync charges, heartbeat intervals, network delays) from
host noise.  The pipelined run must be at least 3x faster, lose
nothing, keep replicas byte-identical, and stay WAL-recoverable.
"""

import os

from harness import emit

from repro.cluster.config import small_test_config
from repro.cluster.logstore import LogStore
from repro.cluster.shard import apply
from repro.raft.node import _WAL_KIND_ENTRY, NOOP_COMMAND, decode_entry
from repro.rowstore import RowStore

QUICK = os.environ.get("BENCH_QUICK") == "1"

N_BATCHES = 240 if QUICK else 1200
ROWS_PER_BATCH = 4
# These tenant ids consistent-hash onto four distinct shards of the
# 2x2 test topology, so the batch stream exercises wave dispatch.
TENANTS = (1, 2, 3, 10)
BASE_TS = 1_605_052_800_000_000


def make_batch(tenant_id: int, seq: int) -> list[dict]:
    return [
        {
            "ts": BASE_TS + seq * 1_000 + k,
            "tenant_id": tenant_id,
            "log": f"request {seq}/{k} from tenant {tenant_id}",
        }
        for k in range(ROWS_PER_BATCH)
    ]


def build_store(**overrides) -> LogStore:
    config = small_test_config(
        n_workers=2, shards_per_worker=2, use_raft=True, **overrides
    )
    return LogStore.create(config=config)


def all_shards(store: LogStore):
    return {
        shard_id: shard
        for worker in store.workers.values()
        for shard_id, shard in worker.shards.items()
    }


def drive_serial():
    """One entry per batch, settled to every replica before the next."""
    store = build_store(group_commit=False, write_ack="all")
    start = store.clock.now()
    touched = set()
    for i in range(N_BATCHES):
        tenant = TENANTS[i % len(TENANTS)]
        touched |= set(store.put(tenant, make_batch(tenant, i)))
    return store, touched, store.clock.now() - start


def drive_pipelined():
    """Group commit + bounded in-flight window + quorum acks."""
    store = build_store(group_commit=True, write_ack="quorum")
    start = store.clock.now()
    touched = set()
    for i in range(N_BATCHES):
        tenant = TENANTS[i % len(TENANTS)]
        touched |= set(store.put_nowait(tenant, make_batch(tenant, i)))
    store.settle_writes()
    return store, touched, store.clock.now() - start


def recover_rowstore_from_wal(shard, node) -> RowStore:
    """Replay a replica's Raft WAL into a fresh row store (crash model).

    Mirrors ``RaftNode._recover_from_wal``: the latest record for an
    index supersedes earlier ones (conflict truncation), and only
    entries at or below the durable commit point are replayed, each
    through the shard's own state-machine step.
    """
    entries = {}
    for record in node._wal.replay():
        if record.kind == _WAL_KIND_ENTRY:
            entry = decode_entry(record.body)
            entries[entry.index] = entry
    recovered = RowStore(seal_rows=shard.seal_rows, seal_bytes=shard.seal_bytes)
    for index in sorted(i for i in entries if i <= node.commit_index):
        command = entries[index].command
        if command != NOOP_COMMAND:
            apply(recovered, command)
    return recovered


def test_write_path_ablation(benchmark, capsys):
    (serial_store, serial_touched, serial_s), (pipe_store, pipe_touched, pipe_s) = (
        benchmark.pedantic(
            lambda: (drive_serial(), drive_pipelined()), rounds=1, iterations=1
        )
    )
    speedup = serial_s / pipe_s
    total_rows = N_BATCHES * ROWS_PER_BATCH

    # Let the trailing commit index reach every replica and apply.
    pipe_store.clock.advance(1.0)
    serial_store.clock.advance(1.0)

    rows = []
    for label, store in (("serial", serial_store), ("pipelined", pipe_store)):
        shards = all_shards(store)
        groups = sum(s.write_stats.groups_committed for s in shards.values())
        batches = sum(s.write_stats.batches_coalesced for s in shards.values())
        elapsed = serial_s if label == "serial" else pipe_s
        rows.append((label, elapsed, batches, groups, batches / max(1, groups)))

    emit(capsys, "", f"Write path ablation — {N_BATCHES} batches x "
         f"{ROWS_PER_BATCH} rows over {len(pipe_touched)} shards")
    emit(capsys, f"{'config':>10} {'virtual s':>10} {'batches':>8} "
         f"{'raft entries':>13} {'batches/entry':>14}")
    for label, elapsed, batches, groups, mean in rows:
        emit(capsys, f"{label:>10} {elapsed:>10.2f} {batches:>8} "
             f"{groups:>13} {mean:>14.1f}")
    emit(capsys, f"{'speedup':>10} {speedup:>10.1f}x")

    # The batch stream really spanned four shards in both runs.
    assert len(serial_touched) == 4 and len(pipe_touched) == 4

    # Group commit + pipelining pays off by at least 3x (paper §3).
    assert speedup >= 3.0

    for store in (serial_store, pipe_store):
        shards = all_shards(store)
        # Quorum acks leave the groups consistent after settling.
        for shard in shards.values():
            shard.verify_raft_consistency()
        # Nothing was lost or duplicated.
        assert sum(s.write_stats.rows_committed for s in shards.values()) == total_rows
        assert sum(s.pending_rows() for s in shards.values()) == total_rows
        for shard in shards.values():
            # Replica row stores are byte-identical after the window
            # settles — coalescing must not reorder or split batches
            # differently on different replicas.
            states = {
                store_.serialize_state()
                for store_ in shard._replica_stores.values()
            }
            assert len(states) == 1, f"replica divergence on shard {shard.shard_id}"
            # A replica rebuilt from its own WAL matches the live store.
            node = shard.raft.full_replicas()[0]
            recovered = recover_rowstore_from_wal(shard, node)
            live = shard._replica_stores[node.node_id]
            assert list(recovered.scan()) == list(live.scan())
            assert recovered.total_rows_ingested == live.total_rows_ingested
