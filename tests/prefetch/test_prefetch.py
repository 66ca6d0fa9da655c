"""Prefetch planner and executor tests."""

import pytest

from repro.cache.multilevel import CachingRangeReader, MultiLevelCache
from repro.common.clock import VirtualClock
from repro.oss.costmodel import OssCostModel
from repro.oss.metered import MeteredObjectStore
from repro.oss.store import InMemoryObjectStore
from repro.prefetch.executor import ParallelPrefetcher
from repro.prefetch.planner import PrefetchPlanner
from repro.tarpack.packer import pack_members
from repro.tarpack.reader import PackReader


@pytest.fixture
def env():
    clock = VirtualClock()
    model = OssCostModel(request_latency_s=0.02, bandwidth_bytes_per_s=1e8)
    store = MeteredObjectStore(InMemoryObjectStore(), model, clock)
    store.create_bucket("b")
    members = {
        "meta": b"M" * 200,
        "idx/a": b"A" * 1000,
        "idx/b": b"B" * 1000,
        "col/0/0": b"0" * 5000,
        "col/0/1": b"1" * 5000,
        "col/1/0": b"2" * 5000,
    }
    store.put("b", "k", pack_members(members))
    cache = MultiLevelCache(memory_bytes=1 << 20, ssd_bytes=1 << 22)
    reader = CachingRangeReader(store, cache)
    pack = PackReader(reader, "b", "k")
    return store, clock, reader, pack, members


class TestPlanner:
    def test_dedupes_members(self, env):
        _store, _clock, _reader, pack, _members = env
        planner = PrefetchPlanner(merge_gap=0)
        plan = planner.plan("b", "k", pack.manifest(), pack.data_start, ["meta", "meta"])
        assert plan.request_count == 1
        assert planner.members_planned == 1

    def test_adjacent_members_merged(self, env):
        _store, _clock, _reader, pack, members = env
        planner = PrefetchPlanner(merge_gap=0)
        # idx/a and idx/b are adjacent in the pack → one merged range.
        plan = planner.plan("b", "k", pack.manifest(), pack.data_start, ["idx/a", "idx/b"])
        assert plan.request_count == 1
        assert plan.total_bytes == 2000

    def test_distant_members_not_merged(self, env):
        _store, _clock, _reader, pack, _members = env
        planner = PrefetchPlanner(merge_gap=0)
        plan = planner.plan("b", "k", pack.manifest(), pack.data_start, ["meta", "col/1/0"])
        assert plan.request_count == 2

    def test_gap_bridges_small_separation(self, env):
        _store, _clock, _reader, pack, _members = env
        generous = PrefetchPlanner(merge_gap=10_000)
        plan = generous.plan(
            "b", "k", pack.manifest(), pack.data_start, ["meta", "idx/a", "col/0/0"]
        )
        assert plan.request_count == 1

    def test_empty_members(self, env):
        _store, _clock, _reader, pack, _members = env
        plan = PrefetchPlanner().plan("b", "k", pack.manifest(), pack.data_start, [])
        assert plan.request_count == 0
        assert plan.total_bytes == 0


class TestExecutor:
    def test_prefetch_then_member_reads_hit_cache(self, env):
        store, _clock, reader, pack, members = env
        planner = PrefetchPlanner(merge_gap=0)
        names = ["col/0/1", "col/1/0"]  # past the pack's head chunk
        plan = planner.plan("b", "k", pack.manifest(), pack.data_start, names)
        assert plan.request_count == 1  # adjacent: one merged super-range
        prefetcher = ParallelPrefetcher(reader, threads=8)
        prefetcher.execute(plan)
        requests_before = store.stats.get_requests
        assert all(pack.resident(name) for name in names)
        for name in names:
            assert pack.read_member(name) == members[name]
        assert store.stats.get_requests == requests_before  # hits by coverage
        # The super-range is the one copy of those bytes.
        blocks = reader.cache.blocks
        assert list(blocks.memory._entries) == [
            ("b", "k", 0, PackReader.HEAD_CHUNK),
            ("b", "k", *plan.ranges[0]),
        ]
        assert len(blocks.ssd) == 0

    def test_parallel_faster_than_serial(self, env):
        store, clock, reader, pack, members = env
        names = ["idx/a", "idx/b", "col/0/0", "col/0/1", "col/1/0"]
        pack.manifest()  # the head read is not part of either arm

        t0 = clock.now()
        planner = PrefetchPlanner(merge_gap=0)
        plan = planner.plan("b", "k", pack.manifest(), pack.data_start, names)
        ParallelPrefetcher(reader, threads=32).execute(plan)
        parallel_time = clock.now() - t0

        # Serial baseline on a fresh store/cache.
        clock2 = VirtualClock()
        store2 = MeteredObjectStore(
            InMemoryObjectStore(), store.model, clock2
        )
        store2.create_bucket("b")
        store2.put("b", "k", store.inner.get("b", "k"))
        pack2 = PackReader(store2, "b", "k")
        pack2.manifest()
        t0 = clock2.now()
        for name in names:
            pack2.read_member(name)
        serial_time = clock2.now() - t0
        assert parallel_time < serial_time

    def test_stats(self, env):
        _store, _clock, reader, pack, _members = env
        planner = PrefetchPlanner(merge_gap=0)
        plan = planner.plan("b", "k", pack.manifest(), pack.data_start, ["meta"])
        prefetcher = ParallelPrefetcher(reader, threads=4)
        prefetcher.execute(plan)
        assert prefetcher.stats.plans_executed == 1
        assert prefetcher.stats.bytes_loaded == 200

    def test_empty_plan_noop(self, env):
        _store, _clock, reader, pack, _members = env
        plan = PrefetchPlanner().plan("b", "k", pack.manifest(), pack.data_start, [])
        prefetcher = ParallelPrefetcher(reader, threads=4)
        prefetcher.execute(plan)
        assert prefetcher.stats.plans_executed == 0

    def test_bad_threads(self, env):
        _store, _clock, reader, _pack, _members = env
        with pytest.raises(ValueError):
            ParallelPrefetcher(reader, threads=0)
