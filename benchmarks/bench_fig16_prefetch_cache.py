"""Figure 16: impact of the parallel prefetch method on query latency.

§6.3.2 compares three arms over the same query set:

* data on local storage;
* data on OSS *with* the parallel prefetch strategy (32 threads);
* data on OSS *without* parallel prefetch.

Paper result: local is 18.5x faster than OSS-without-prefetch; prefetch
narrows the gap to 6x.  Additionally, a repeated query is ~6x faster
than its first run thanks to the multi-level cache.
"""

import pytest

from harness import TOTAL_ROWS, build_dataset, emit, make_env, per_tenant_latency, query_set

from repro.oss.costmodel import local_ssd, oss_default
from repro.query.executor import ExecutionOptions
from repro.tarpack.reader import PackReader

TOP_TENANTS = 20
LOGBLOCK_ROWS = 3_000  # build_dataset's target_rows


@pytest.fixture(scope="module")
def prefetch_dataset():
    """Three times the shared corpus, so that every one of the
    TOP_TENANTS owns at least one full LogBlock.

    A production LogBlock keeps most of its members past the head chunk
    the first GET of a pack brings.  A tenant whose only LogBlock fits
    in that chunk costs both OSS arms the same one or two GETs, so at
    the shared corpus's size the figure's small tenants measured pack
    sizes rather than prefetching.  (The repeat-query test keeps the
    shared corpus.)
    """
    corpus = build_dataset(total_rows=3 * TOTAL_ROWS, target_rows=LOGBLOCK_ROWS)
    smallest = min(corpus.tenant_rows[t] for t in range(1, TOP_TENANTS + 1))
    assert smallest >= LOGBLOCK_ROWS
    assert corpus.total_bytes / corpus.n_blocks > 2 * PackReader.HEAD_CHUNK
    return corpus


@pytest.fixture(scope="module")
def arms(prefetch_dataset):
    tenants = list(range(1, TOP_TENANTS + 1))
    specs = query_set(tenants)
    local = make_env(
        prefetch_dataset, model=local_ssd(), options=ExecutionOptions(use_prefetch=True)
    )
    oss_prefetch = make_env(
        prefetch_dataset, model=oss_default(),
        options=ExecutionOptions(use_prefetch=True, prefetch_threads=32),
    )
    oss_serial = make_env(
        prefetch_dataset, model=oss_default(), options=ExecutionOptions(use_prefetch=False)
    )
    # Cold caches per query: isolate the prefetch strategy from the
    # cache tiers (the repeat-query test below measures caching).
    return {
        "local": per_tenant_latency(local, specs, cold=True),
        "oss+prefetch": per_tenant_latency(oss_prefetch, specs, cold=True),
        "oss-serial": per_tenant_latency(oss_serial, specs, cold=True),
    }


def test_fig16_parallel_prefetch(benchmark, prefetch_dataset, arms, capsys):
    env = make_env(prefetch_dataset, model=oss_default())
    spec = query_set([1])[0]
    benchmark.pedantic(lambda: env.run_query(spec.sql), rounds=1, iterations=1)

    emit(capsys, "", "Figure 16 — query latency: local vs OSS+prefetch vs OSS serial (ms)")
    emit(
        capsys,
        f"{'tenant rank':>12} {'local':>9} {'OSS+prefetch':>13} {'OSS serial':>11}",
    )
    for rank in range(1, TOP_TENANTS + 1):
        emit(
            capsys,
            f"{rank:>12} {arms['local'][rank] * 1000:>9.1f} "
            f"{arms['oss+prefetch'][rank] * 1000:>13.1f} "
            f"{arms['oss-serial'][rank] * 1000:>11.1f}",
        )

    mean = {name: sum(values.values()) / len(values) for name, values in arms.items()}
    gap_serial = mean["oss-serial"] / mean["local"]
    gap_prefetch = mean["oss+prefetch"] / mean["local"]
    emit(
        capsys,
        "",
        f"local vs OSS-serial gap:   {gap_serial:.1f}x (paper: 18.5x)",
        f"local vs OSS+prefetch gap: {gap_prefetch:.1f}x (paper: 6x)",
    )

    # Shape: OSS is much slower than local; prefetch substantially
    # narrows (but does not close) the gap.
    assert gap_serial > 6
    assert gap_prefetch < gap_serial / 2
    assert gap_prefetch > 1.5


def test_fig16_repeat_query_cache(benchmark, dataset, capsys):
    """The multi-level cache makes the second run of a query ~6x faster."""
    env = make_env(dataset, model=oss_default())
    specs = query_set(list(range(1, 6)))

    def run_all():
        return [env.run_query(s.sql)[1] for s in specs]

    first = benchmark.pedantic(run_all, rounds=1, iterations=1)
    second = run_all()
    speedup = sum(first) / max(sum(second), 1e-9)
    emit(
        capsys,
        "",
        f"repeat-query speedup via multi-level cache: {speedup:.1f}x (paper: 6x)",
    )
    assert speedup > 4
