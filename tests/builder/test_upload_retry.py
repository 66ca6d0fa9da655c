"""Upload robustness: publishes retry transient OSS failures."""

import pytest

from repro.builder.builder import DataBuilder
from repro.builder.compaction import Compactor
from repro.chaos.oss_faults import ChaosObjectStore
from repro.common.clock import VirtualClock
from repro.common.errors import TransientStoreError
from repro.logblock.schema import request_log_schema
from repro.meta.catalog import Catalog
from repro.meta.janitor import Janitor
from repro.oss.retry import DEFAULT_MAX_ATTEMPTS
from repro.oss.store import InMemoryObjectStore
from repro.rowstore.memtable import MemTable

from tests.conftest import make_rows


def sealed(count: int, tenant_id: int = 1, seed: int = 0) -> MemTable:
    table = MemTable()
    table.append_many(make_rows(count, tenant_id=tenant_id, seed=seed))
    table.seal()
    return table


@pytest.fixture
def flaky():
    inner = InMemoryObjectStore()
    inner.create_bucket("test")
    return ChaosObjectStore(inner, VirtualClock())


def make_builder(
    store, catalog, max_upload_attempts=DEFAULT_MAX_ATTEMPTS, **overrides
) -> tuple[DataBuilder, Janitor]:
    """A builder and the janitor it publishes through over ``store``;
    the retry settings belong to the janitor."""
    params = dict(codec="zlib", block_rows=64, target_rows=500)
    params.update(overrides)
    janitor = Janitor(catalog, store, "test", max_upload_attempts=max_upload_attempts)
    return DataBuilder(request_log_schema(), catalog, janitor, **params), janitor


class TestUploadRetry:
    def test_transient_failures_retried_and_counted(self, flaky):
        catalog = Catalog(request_log_schema())
        builder, janitor = make_builder(flaky, catalog)
        flaky.fail_next(2)  # first PUT fails twice, then succeeds
        report = builder.archive_memtable(sealed(100), "s0-0")
        assert report.upload_retries == 2
        assert report.blocks_written == 1
        assert len(catalog.blocks_for(1)) == 1

    def test_clean_run_reports_zero_retries(self, flaky):
        catalog = Catalog(request_log_schema())
        builder, _ = make_builder(flaky, catalog)
        report = builder.archive_memtable(sealed(100), "s0-0")
        assert report.upload_retries == 0

    def test_bounded_attempts_then_giveup(self, flaky):
        catalog = Catalog(request_log_schema())
        builder, janitor = make_builder(flaky, catalog, max_upload_attempts=3)
        flaky.fail_next(3)  # as many failures as attempts → PUT gives up
        with pytest.raises(TransientStoreError):
            builder.archive_memtable(sealed(100), "s0-0")
        # The failed block was never registered: no dangling catalog entry.
        assert catalog.blocks_for(1) == []
        assert janitor.upload_stats.giveups == 1

    def test_flaky_rate_survives_multi_block_archive(self):
        inner = InMemoryObjectStore()
        inner.create_bucket("test")
        flaky = ChaosObjectStore(inner, VirtualClock(), seed=7)
        flaky.set_error_rate(0.3)
        catalog = Catalog(request_log_schema())
        builder, janitor = make_builder(flaky, catalog, max_upload_attempts=10)
        report = builder.archive_memtable(sealed(2_000), "s0-0")  # 4 blocks at 500 rows
        assert report.blocks_written == 4
        assert report.upload_retries > 0
        assert report.upload_retries == janitor.upload_stats.retries

    def test_compactor_uploads_also_retry(self, flaky):
        catalog = Catalog(request_log_schema())
        builder, janitor = make_builder(flaky, catalog, target_rows=100)
        builder.archive_memtable(sealed(300), "s0-0")  # 3 small blocks
        compactor = Compactor(
            request_log_schema(), catalog, janitor,
            codec="zlib", block_rows=64, small_threshold_rows=200, target_rows=1_000,
        )
        flaky.fail_next(2)
        result = compactor.compact_tenant(1)
        assert result.upload_retries == 2
        assert result.blocks_after == 1
        assert result.rows_rewritten == 300


class TestOneRetryClock:
    def test_archive_backoff_is_charged_to_the_cluster_clock(self):
        """The publisher's one retry store sleeps on ``LogStore.clock``:
        a failed PUT attempt during an archive costs the cluster exactly
        the backoff it was charged."""
        from repro.cluster.config import small_test_config
        from repro.cluster.logstore import LogStore

        def flush_time(failures: int) -> tuple[float, float]:
            flaky = ChaosObjectStore(InMemoryObjectStore(), VirtualClock())
            store = LogStore.create(config=small_test_config(use_raft=False), backend=flaky)
            store.put(1, make_rows(50, tenant_id=1))
            before = store.clock.now()
            flaky.fail_next(failures)
            store.flush_all()
            return store.clock.now() - before, store.janitor.upload_stats.backoff_s

        clean, _ = flush_time(0)
        flaky, charged = flush_time(1)
        assert charged > 0
        assert flaky - clean == pytest.approx(charged)
