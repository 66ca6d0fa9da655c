"""Decoded-object cache coverage for Bloom filters and index members.

The §5.2 object memory cache originally held only parsed metas; it now
also shares decoded Bloom filters and decoded indexes across readers of
the same blob, keyed ``(bucket, blob_key, member)`` exactly like the
meta entry.
"""

import pytest

from repro.builder.builder import DataBuilder
from repro.cache.multilevel import CachingRangeReader, MultiLevelCache
from repro.logblock.schema import request_log_schema
from repro.logblock.writer import bloom_member, index_member
from repro.meta.catalog import Catalog
from repro.meta.janitor import Janitor
from repro.query.executor import BlockExecutor
from repro.query.planner import QueryPlanner
from repro.query.sql import parse_sql
from repro.rowstore.memtable import MemTable

from tests.conftest import make_rows


@pytest.fixture
def env(free_store):
    catalog = Catalog(request_log_schema())
    builder = DataBuilder(
        request_log_schema(), catalog, Janitor(catalog, free_store, "test"),
        codec="zlib", block_rows=64, target_rows=300,
    )
    table = MemTable()
    # Packs of 300 rows outgrow the 8 KiB head read, so members past it
    # are prefetched (a smaller pack arrives whole with its head).
    table.append_many(make_rows(900, tenant_id=1, seed=1))
    table.seal()
    builder.archive_memtable(table, "s0-0")
    cache = MultiLevelCache(memory_bytes=1 << 22, ssd_bytes=1 << 24)
    reader = CachingRangeReader(free_store, cache)
    return QueryPlanner(catalog), reader, cache


SQL = "SELECT log FROM request_log WHERE tenant_id = 1 AND ip = '192.168.0.1'"


def test_decoded_index_and_bloom_cached_and_hit(env):
    planner, reader, cache = env
    plan = planner.plan(parse_sql(SQL))

    first_exec = BlockExecutor(reader, "test")
    first_rows, _ = first_exec.execute(plan)

    # The first execution populated decoded entries for the probed
    # column's Bloom filter and index (plus the meta).
    members = {key[2] for key in cache.objects._entries}
    assert bloom_member("ip") in members
    assert index_member("ip") in members

    # A fresh executor (new per-reader memoization) must serve both
    # decoded objects from the shared cache.
    hits_before = cache.objects.stats.hits
    second_exec = BlockExecutor(reader, "test")
    second_rows, _ = second_exec.execute(plan)
    assert second_rows.to_dicts() == first_rows.to_dicts()
    assert cache.objects.stats.hits >= hits_before + 3  # meta + bloom + index


def test_cached_index_skips_prefetch_bytes(env):
    planner, reader, cache = env
    plan = planner.plan(parse_sql(SQL))

    _, first_stats = BlockExecutor(reader, "test").execute(plan)
    _, second_stats = BlockExecutor(reader, "test").execute(plan)
    # With meta, Bloom, and index all decoded and shared, the second run
    # prefetches fewer members (only the output column blocks remain).
    assert second_stats.prefetch_requests < first_stats.prefetch_requests


def test_invalidate_blob_drops_decoded_indexes(env):
    planner, reader, cache = env
    plan = planner.plan(parse_sql(SQL))
    BlockExecutor(reader, "test").execute(plan)
    assert len(cache.objects) > 0
    for entry in plan.blocks:
        cache.objects.invalidate_blob("test", entry.path)
    members_left = {key[2] for key in cache.objects._entries}
    assert index_member("ip") not in members_left
    assert bloom_member("ip") not in members_left
