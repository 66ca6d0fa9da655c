"""The object cache is charged what its entries hold.

Every entry the archived read path caches — a parsed meta, a pack
header (manifest + the useful part of the head chunk), an inverted
index, a BKD index — declares a byte cost.  A cost far below what the
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
    object cache holds ``object_bytes``."""
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
    plan = QueryPlanner(catalog).plan(parse_sql(SQL))
    return executor, plan, cache.objects


@pytest.fixture(scope="module")
def warmed():
    executor, plan, objects = archive(object_bytes=1 << 26)
    rows, _stats = executor.execute(plan)
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


class TestChargedWhatItHolds:
    def test_meta(self, warmed):
        for meta, charged in entries_of(warmed, LogBlockMeta):
            held = deep_size(meta, shared=[meta.schema])  # one schema per table, interned
            assert held / 2 <= charged <= held * 2, (charged, held)

    def test_pack_header(self, warmed):
        for header, charged in entries_of(warmed, Manifest):
            manifest, _data_start, head = header
            held = deep_size(header)
            assert held / 2 <= charged <= held * 2, (charged, held)
            # The head ends with the last member it wholly covers.
            covered = [entry for entry in manifest.entries() if _data_start + entry.end <= len(head)]
            assert covered and _data_start + covered[-1].end == len(head)
            assert covered[0].name == META_MEMBER and len(head) < 8192

    @pytest.mark.parametrize("kind", [InvertedIndex, BkdIndex])
    def test_indexes(self, warmed, kind):
        for index, charged in entries_of(warmed, kind):
            held = deep_size(index)
            assert charged == index.nbytes
            assert held / 2 <= charged <= held * 2, (kind.__name__, charged, held)

    def test_the_total_is_the_sum_of_the_charges(self, warmed):
        assert warmed.stats.approx_bytes == sum(size for _value, size in warmed._entries.values())


class TestBoundedByCapacity:
    def test_past_capacity_it_evicts_and_stays_correct(self):
        capacity = 96 * 1024  # less than one block's indexes
        roomy_executor, plan, _objects = archive(object_bytes=1 << 26)
        executor, plan, objects = archive(object_bytes=capacity)
        expected, _stats = roomy_executor.execute(plan)
        for _ in range(3):
            rows, _stats = executor.execute(plan)
            assert rows == expected
            assert objects.stats.approx_bytes <= capacity
        assert objects.stats.evictions > 0
        assert objects.stats.approx_bytes == sum(size for _value, size in objects._entries.values())

    def test_an_entry_larger_than_the_cache_is_not_admitted(self):
        _executor, _plan, objects = archive(object_bytes=4096)
        objects.put(("b", "k", "big"), object(), approx_bytes=4097)
        assert len(objects) == 0 and objects.stats.approx_bytes == 0
