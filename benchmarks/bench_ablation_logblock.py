"""LogBlock design ablations (DESIGN.md §5).

* **Codec choice** (§3.2): the paper defaults to ZSTD because ratio
  matters more than CPU when bytes cross the network to OSS.  We
  compare the registered codecs on the real log corpus: the high-ratio
  codec (lzma, ZSTD's stand-in) must beat the fast codec (zlib,
  Snappy/LZ4's stand-in) on size.
* **Full-column indexing** (§3.2): indexes cost space; measure the
  overhead and what it buys (index-answerable predicates vs scans).
* **Tar packaging** (§3): one packed object vs many small objects —
  request-count reduction for a typical query's member set.
"""

import pytest

from harness import BUCKET, emit, make_env

from repro.codec import get_codec
from repro.logblock.schema import request_log_schema
from repro.logblock.writer import LogBlockWriter
from repro.oss.costmodel import oss_default
from repro.workload.generator import LogRecordGenerator, WorkloadConfig


def corpus_rows(n: int = 4000) -> list[dict]:
    generator = LogRecordGenerator(WorkloadConfig(n_tenants=1, seed=5))
    return [generator.record(1, 1_000_000 * i) for i in range(n)]


@pytest.fixture(scope="module")
def rows():
    return corpus_rows()


def build_block(rows, codec: str, build_indexes: bool = True) -> bytes:
    writer = LogBlockWriter(
        request_log_schema(), codec=codec, block_rows=1024, build_indexes=build_indexes
    )
    writer.append_many(rows)
    return writer.finish()


def test_ablation_codec_ratio_vs_speed(benchmark, rows, capsys):
    """zlib (fast role) vs lzma (ratio role) vs bz2 vs none."""
    raw = "\n".join(r["log"] for r in rows).encode()
    sizes = {}
    for name in ("none", "zlib", "lzma", "bz2"):
        sizes[name] = len(build_block(rows, name))
    benchmark.pedantic(lambda: build_block(rows, "zlib"), rounds=1, iterations=1)

    emit(capsys, "", "Ablation — LogBlock size by codec (same 4000-row corpus)")
    emit(capsys, f"{'codec':<8} {'block bytes':>12} {'vs none':>9}")
    for name, size in sizes.items():
        emit(capsys, f"{name:<8} {size:>12,} {sizes['none'] / size:>8.2f}x")
    ratio_fast = get_codec("zlib").roundtrip_ratio(raw)
    ratio_high = get_codec("lzma").roundtrip_ratio(raw)
    emit(capsys, "", f"raw log-line ratio: zlib {ratio_fast:.1f}x, lzma {ratio_high:.1f}x "
         "(the paper's reason to default to the high-ratio codec)")

    assert sizes["zlib"] < sizes["none"]
    assert sizes["lzma"] < sizes["zlib"]  # ratio codec wins on size
    assert ratio_high > ratio_fast


def test_ablation_full_column_indexing(benchmark, rows, capsys):
    """Space cost of indexing every column, and the query-shape payoff."""
    with_idx = len(build_block(rows, "zlib", build_indexes=True))
    without_idx = len(build_block(rows, "zlib", build_indexes=False))
    overhead = with_idx / without_idx - 1
    benchmark.pedantic(
        lambda: build_block(rows, "zlib", build_indexes=True), rounds=1, iterations=1
    )

    emit(capsys, "", "Ablation — full-column indexing (§3.2)")
    emit(capsys, f"indexed block:   {with_idx:>10,} bytes")
    emit(capsys, f"unindexed block: {without_idx:>10,} bytes")
    emit(capsys, f"space overhead:  {overhead * 100:>9.0f}% "
         "('the extra space cost of the index is acceptable after using OSS')")

    # Indexes cost real space but not an unreasonable multiple.
    assert 0.0 < overhead < 2.0


def test_ablation_index_vs_scan_latency(benchmark, dataset, capsys):
    """Index-answerable evaluation beats SMA-only block scanning."""
    from repro.query.executor import ExecutionOptions
    from harness import query_set

    specs = [s for s in query_set(list(range(1, 6))) if s.template == "ip_eq"]
    indexed = make_env(dataset, options=ExecutionOptions(use_indexes=True))
    scanning = make_env(dataset, options=ExecutionOptions(use_indexes=False))

    def run(env):
        total = 0.0
        for spec in specs:
            env.cache.clear()
            _rows, latency = env.run_query(spec.sql)
            total += latency
        return total

    indexed_time = benchmark.pedantic(lambda: run(indexed), rounds=1, iterations=1)
    scan_time = run(scanning)
    emit(capsys, "", "Ablation — index lookup vs SMA-only scan (ip = '...' queries)")
    emit(capsys, f"with indexes:    {indexed_time * 1000:>8.0f} ms")
    emit(capsys, f"without indexes: {scan_time * 1000:>8.0f} ms "
         f"({scan_time / max(indexed_time, 1e-9):.1f}x slower)")
    assert indexed_time < scan_time


def test_ablation_bloom_needle_miss(benchmark, capsys):
    """Bloom filters: needle-miss queries skip the whole index fetch.

    Compares the charged (virtual) latency of probing an absent ip on a
    LogBlock with vs without Bloom filters.
    """
    from repro.cache.multilevel import CachingRangeReader, MultiLevelCache
    from repro.common.clock import VirtualClock
    from repro.logblock.pruning import EqPredicate, PruneStats, evaluate_predicates
    from repro.logblock.reader import LogBlockReader
    from repro.oss.metered import MeteredObjectStore
    from repro.oss.store import InMemoryObjectStore
    from repro.tarpack.reader import PackReader

    generator = LogRecordGenerator(WorkloadConfig(n_tenants=1, seed=11, ips_per_tenant=64))
    rows = [generator.record(1, 1_000_000 * i) for i in range(8000)]
    # A needle lexicographically inside the SMA [min, max] range (so the
    # min/max check cannot prune it) but absent from the data.
    present_ips = {row["ip"] for row in rows}
    needle = "10.0.1.299"
    assert needle not in present_ips
    assert min(present_ips) < needle < max(present_ips)

    def charged_time(build_blooms: bool) -> tuple[float, PruneStats]:
        writer = LogBlockWriter(
            request_log_schema(), codec="zlib", block_rows=1024, build_blooms=build_blooms
        )
        writer.append_many(rows)
        inner = InMemoryObjectStore()
        inner.create_bucket("b")
        inner.put("b", "k", writer.finish())
        clock = VirtualClock()
        store = MeteredObjectStore(inner, oss_default(), clock)
        cache = MultiLevelCache(memory_bytes=1 << 22, ssd_bytes=1 << 24)
        reader = LogBlockReader(PackReader(CachingRangeReader(store, cache), "b", "k"))
        stats = PruneStats()
        start = clock.now()
        mask = evaluate_predicates(reader, [EqPredicate("ip", needle)], stats=stats)
        assert not mask.any()
        return clock.now() - start, stats

    with_bloom, stats_bloom = benchmark.pedantic(
        lambda: charged_time(True), rounds=1, iterations=1
    )
    without_bloom, stats_plain = charged_time(False)
    emit(capsys, "", "Ablation — Bloom filters on needle-miss equality probes")
    emit(capsys, f"with blooms:    {with_bloom * 1000:>7.1f} ms "
         f"(blooms_pruned={stats_bloom.blooms_pruned}, index_lookups={stats_bloom.index_lookups})")
    emit(capsys, f"without blooms: {without_bloom * 1000:>7.1f} ms "
         f"(index_lookups={stats_plain.index_lookups})")
    assert stats_bloom.blooms_pruned == 1
    assert stats_bloom.index_lookups == 0
    assert with_bloom < without_bloom


def test_ablation_tar_packaging_request_counts(benchmark, dataset, capsys):
    """One packed object vs many small objects (§3's tar rationale).

    Count the GET requests a cold combined-filter query issues against
    the packed layout, and compare with the small-files equivalent
    (where every member read must be its own request and listing a
    tenant means listing every file).
    """
    from harness import query_set

    env = make_env(dataset, model=oss_default())
    spec = query_set([1])[5]
    env.cache.clear()
    before = env.store.stats.get_requests
    benchmark.pedantic(lambda: env.run_query(spec.sql), rounds=1, iterations=1)
    packed_requests = env.store.stats.get_requests - before

    # Small-files equivalent: preamble/manifest are unnecessary, but
    # every member the query touched (meta + indexes + column blocks)
    # becomes one GET, with no range merging possible.
    members_touched = env.executor._planner.members_planned
    emit(capsys, "", "Ablation — tar-with-manifest packaging (§3)")
    emit(capsys, f"packed layout GETs (merged ranges): {packed_requests}")
    emit(capsys, f"members the query touched:          {members_touched}+")
    assert packed_requests <= members_touched + 2  # header reads amortize
