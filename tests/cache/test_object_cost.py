"""The object cache is charged what its entries hold.

Every entry the archived read path caches — a parsed meta, a pack
header (manifest + the useful part of the head chunk), an inverted
index, a BKD index, a Bloom filter, a decoded column block in each of
its three forms — declares a byte cost.  A cost far below what the
object keeps alive lets the cache outgrow its capacity silently; one far
above wastes it.  These tests measure each cached object's deep size
and hold the declared cost within 2x of it, then drive the cache past
its capacity and watch it evict (ROADMAP 3d, for this one cache).
"""

import sys

import numpy as np
import pytest

from repro.cache.multilevel import CachingRangeReader, MultiLevelCache
from repro.common.clock import VirtualClock
from repro.logblock.bkd import BkdIndex
from repro.logblock.bloom import BloomFilter
from repro.common.strings import Strings
from repro.logblock.column import decoded_nbytes
from repro.logblock.inverted import InvertedIndex
from repro.logblock.schema import request_log_schema
from repro.logblock.writer import META_MEMBER, LogBlockMeta, LogBlockWriter
from repro.meta.catalog import Catalog, LogBlockEntry
from repro.oss.costmodel import free
from repro.oss.metered import MeteredObjectStore
from repro.oss.store import InMemoryObjectStore
from repro.query.executor import BlockExecutor
from repro.query.planner import QueryPlanner
from repro.query.sql import parse_sql
from repro.tarpack.manifest import Manifest

from tests.conftest import make_rows

BUCKET = "cost"
N_BLOCKS = 6
SQL = (
    "SELECT log FROM request_log WHERE tenant_id = 1 AND latency >= 250 "
    "AND ip = '192.168.0.3' AND MATCH(log, 'took')"
)
COLUMNS_SQL = "SELECT ts, api, latency, fail FROM request_log WHERE tenant_id = 1"


def deep_size(obj, shared=()) -> int:
    """Bytes reachable from ``obj``; numpy views count their base buffer."""
    seen = {id(item) for item in shared}
    total = 0
    stack = [obj]
    while stack:
        item = stack.pop()
        if id(item) in seen or item is None or isinstance(item, (type, bool)):
            continue
        seen.add(id(item))
        total += sys.getsizeof(item)
        if isinstance(item, np.ndarray):
            stack.append(item.base)
        elif isinstance(item, dict):
            stack.extend(item.keys())
            stack.extend(item.values())
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
        else:
            stack.extend(vars(item).values() if hasattr(item, "__dict__") else ())
            for cls in type(item).__mro__:
                stack.extend(
                    getattr(item, name) for name in getattr(cls, "__slots__", ()) if hasattr(item, name)
                )
    return total


def archive(object_bytes: int):
    """Six 1 200-row LogBlocks of one tenant behind an executor whose
    object cache holds ``object_bytes``, and a planner for them."""
    schema = request_log_schema()
    catalog = Catalog(schema)
    store = MeteredObjectStore(InMemoryObjectStore(), free(), VirtualClock())
    store.create_bucket(BUCKET)
    for n in range(N_BLOCKS):
        rows = make_rows(1200, tenant_id=1, seed=n, start_ts=1_600_000_000_000_000 + n * 10**10)
        writer = LogBlockWriter(schema, codec="zlib", block_rows=512)
        writer.append_many(rows)
        blob = writer.finish()
        path = f"tenants/1/block-{n}.lgb"
        store.put(BUCKET, path, blob)
        catalog.add_block(LogBlockEntry(1, rows[0]["ts"], rows[-1]["ts"], path, len(blob), len(rows)))
    cache = MultiLevelCache(memory_bytes=1 << 24, ssd_bytes=1 << 25, object_bytes=object_bytes)
    executor = BlockExecutor(CachingRangeReader(store, cache), BUCKET)
    planner = QueryPlanner(catalog)
    return executor, lambda sql=SQL: planner.plan(parse_sql(sql)), cache.objects


@pytest.fixture(scope="module")
def warmed():
    executor, plan, objects = archive(object_bytes=1 << 26)
    # ``log`` blocks are PLAIN; the second query brings in numeric, bool
    # and DICT ones.
    for sql in (SQL, COLUMNS_SQL):
        rows, _stats = executor.execute(plan(sql))
        assert rows and objects.stats.evictions == 0
    return objects


def entries_of(objects, kind):
    """``(value, charged bytes)`` of every cached entry holding a ``kind``."""
    found = [
        (value, charged)
        for value, charged in objects._entries.values()
        if isinstance(value[0] if isinstance(value, tuple) else value, kind)
    ]
    assert len(found) >= N_BLOCKS, kind
    return found


def form_of(block) -> str:
    if isinstance(block, Strings):
        return "plain"
    return "dict" if len(block) == 3 else "numeric"


class TestChargedWhatItHolds:
    def test_meta(self, warmed):
        for meta, charged in entries_of(warmed, LogBlockMeta):
            held = deep_size(meta, shared=[meta.schema])  # one schema per table, interned
            assert held / 2 <= charged <= held * 2, (charged, held)

    def test_pack_header(self, warmed):
        for header, charged in entries_of(warmed, Manifest):
            manifest, data_start = header  # the head chunk is the block tiers'
            held = deep_size(header)
            assert held / 2 <= charged <= held * 2, (charged, held)
            assert manifest.names()[0] == META_MEMBER and 0 < data_start < 8192

    @pytest.mark.parametrize("kind", [InvertedIndex, BkdIndex])
    def test_indexes(self, warmed, kind):
        for index, charged in entries_of(warmed, kind):
            held = deep_size(index)
            assert charged == index.nbytes
            assert held / 2 <= charged <= held * 2, (kind.__name__, charged, held)

    def test_bloom_filters(self, warmed):
        for bloom, charged in entries_of(warmed, BloomFilter):
            held = deep_size(bloom)
            assert charged == bloom.nbytes
            assert held / 2 <= charged <= held * 2, (charged, held)

    @pytest.mark.parametrize("form", ["numeric", "dict", "plain"])
    def test_decoded_column_blocks(self, warmed, form):
        blocks = [
            (block, charged)
            for (_bucket, _blob, member), (block, charged) in warmed._entries.items()
            if member.startswith("col/") and form_of(block) == form
        ]
        assert len(blocks) >= N_BLOCKS, form
        for block, charged in blocks:
            held = deep_size(block)
            assert charged == decoded_nbytes(block)
            assert held / 2 <= charged <= held * 2, (form, charged, held)

    def test_the_total_is_the_sum_of_the_charges(self, warmed):
        assert warmed.stats.approx_bytes == sum(size for _value, size in warmed._entries.values())


class TestBoundedByCapacity:
    def test_past_capacity_it_evicts_and_stays_correct(self):
        capacity = 96 * 1024  # less than one block's indexes
        roomy_executor, plan, _objects = archive(object_bytes=1 << 26)
        executor, plan, objects = archive(object_bytes=capacity)
        expected = roomy_executor.execute(plan())[0].to_dicts()
        for _ in range(3):
            rows, _stats = executor.execute(plan())
            assert rows.to_dicts() == expected
            assert objects.stats.approx_bytes <= capacity
        assert objects.stats.evictions > 0
        assert objects.stats.approx_bytes == sum(size for _value, size in objects._entries.values())

    def test_decoded_blocks_past_capacity_evict_and_stay_inside_it(self):
        """A tier that admits decoded blocks (each under 1/32 of it) but
        cannot hold a query's worth of them."""
        capacity = 192 * 1024
        roomy_executor, plan, _objects = archive(object_bytes=1 << 26)
        executor, plan, objects = archive(object_bytes=capacity)
        expected = roomy_executor.execute(plan(COLUMNS_SQL))[0].to_dicts()
        admitted = 0
        put = objects.put

        def counting_put(key, value, approx_bytes):
            nonlocal admitted
            if key[2].startswith("col/"):
                assert approx_bytes * 32 <= capacity
                admitted += 1
            put(key, value, approx_bytes)
            assert objects.stats.approx_bytes <= capacity

        objects.put = counting_put
        for _ in range(3):
            rows, _stats = executor.execute(plan(COLUMNS_SQL))
            assert rows.to_dicts() == expected
        assert admitted > N_BLOCKS and objects.stats.evictions > 0
        assert objects.stats.approx_bytes <= capacity
        assert objects.stats.approx_bytes == sum(size for _value, size in objects._entries.values())

    def test_an_entry_larger_than_the_cache_is_not_admitted(self):
        _executor, _plan, objects = archive(object_bytes=4096)
        objects.put(("b", "k", "big"), object(), approx_bytes=4097)
        assert len(objects) == 0 and objects.stats.approx_bytes == 0
