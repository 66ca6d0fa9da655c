"""Residency is a property of bytes: the block tiers, model-checked.

Random ``put`` / ``get`` / ``covers`` / ``invalidate_object`` / ``clear``
sequences over a few synthetic blobs, checked after every step against
the blobs themselves (a dict of bytes) and the tiers' own invariants;
then the same invariants, and the exact counts they buy, on a small
archived store queried with the nine e2e SELECT shapes.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.block_cache import LruBlockCache, TieredBlockCache
from repro.prefetch.planner import PrefetchPlanner
from repro.tarpack.reader import PackReader

from tests.query.test_decoded_tier import (
    build_store,
    expected,
    make_queries,
    normalized,
    render,
)

BLOB_BYTES = 240
BLOBS = {
    name: bytes((seed + 7 * i) % 251 for i in range(BLOB_BYTES))
    for seed, name in enumerate(("a", "b", "c"))
}
MEMORY, SSD = 96, 256


def block_key(blob: str, start: int, length: int):
    return ("bkt", blob, start, length)


ranges = st.tuples(
    st.sampled_from(sorted(BLOBS)),
    st.integers(0, BLOB_BYTES - 1),
    st.integers(1, 130),  # some entries exceed MEMORY, none exceeds SSD
).map(lambda r: (r[0], r[1], min(r[2], BLOB_BYTES - r[1])))
operations = st.one_of(
    st.tuples(st.just("put"), ranges),
    st.tuples(st.just("get"), ranges),
    st.tuples(st.just("invalidate"), st.sampled_from(sorted(BLOBS))),
    st.tuples(st.just("clear"), st.none()),
)


def contains(outer, inner) -> bool:
    return (
        outer[:2] == inner[:2]
        and outer[2] <= inner[2]
        and inner[2] + inner[3] <= outer[2] + outer[3]
    )


def check_tier(tier: LruBlockCache) -> None:
    entries = tier._entries
    assert tier.stats.bytes_cached == sum(len(data) for data in entries.values())
    assert tier.stats.bytes_cached <= tier.capacity_bytes
    indexed = set()
    for blob, extents in tier._extents.items():
        assert extents and extents == sorted(extents)
        indexed.update((*blob, start, length) for start, length in extents)
    assert indexed == set(entries)  # the extent index is the entry set
    for key, data in entries.items():
        assert data == BLOBS[key[1]][key[2] : key[2] + key[3]]
        assert not any(contains(other, key) for other in entries if other != key)


def check_exclusive(tiers: TieredBlockCache) -> None:
    for memory_key in tiers.memory._entries:
        for ssd_key in tiers.ssd._entries:
            assert not contains(memory_key, ssd_key) and not contains(ssd_key, memory_key)


def snapshot(tiers: TieredBlockCache):
    return [
        (list(tier._entries), vars(tier.stats).copy()) for tier in (tiers.memory, tiers.ssd)
    ]


class TestModelCheckedTiers:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(operations, max_size=60))
    def test_random_sequences(self, ops):
        tiers = TieredBlockCache(memory_bytes=MEMORY, ssd_bytes=SSD)
        for op, arg in ops:
            if op == "put":
                blob, start, length = arg
                key = block_key(blob, start, length)
                tiers.put(key, BLOBS[blob][start : start + length])
                assert tiers.covers(key)  # the newest entry is never the victim
            elif op == "get":
                blob, start, length = arg
                key = block_key(blob, start, length)
                before = snapshot(tiers)
                covered = tiers.covers(key)
                assert snapshot(tiers) == before  # no counter moved, no LRU position
                on_ssd = None if tiers.memory.covers(key) else tiers.ssd._holder(key)
                data = tiers.get(key)
                assert (data is not None) == covered
                if covered:
                    assert data == BLOBS[blob][start : start + length]
                    if on_ssd is not None:  # exclusive: it moved, unless it cannot fit
                        stayed = on_ssd in tiers.ssd._entries
                        assert stayed == (on_ssd[3] > MEMORY)
                        assert stayed != (on_ssd in tiers.memory._entries)
            elif op == "invalidate":
                tiers.invalidate_object("bkt", arg)
                for tier in (tiers.memory, tiers.ssd):
                    assert ("bkt", arg) not in tier._extents
                    assert not any(key[1] == arg for key in tier._entries)
            else:
                tiers.clear()
                assert not len(tiers.memory) and not len(tiers.ssd)
                assert not tiers.memory._extents and not tiers.ssd._extents
            check_tier(tiers.memory)
            check_tier(tiers.ssd)
            check_exclusive(tiers)

    def test_a_range_is_served_by_any_entry_that_covers_it(self):
        tier = LruBlockCache("m", 1_000)
        tier.put(block_key("a", 10, 100), BLOBS["a"][10:110])
        assert tier.get(block_key("a", 40, 20)) == BLOBS["a"][40:60]
        assert tier.get(block_key("a", 10, 100)) == BLOBS["a"][10:110]
        assert tier.get(block_key("a", 100, 20)) is None  # runs past the entry
        assert tier.get(block_key("b", 40, 20)) is None
        assert (tier.stats.hits, tier.stats.misses) == (2, 2)

    def test_a_byte_is_stored_once(self):
        tier = LruBlockCache("m", 1_000)
        tier.put(block_key("a", 40, 20), BLOBS["a"][40:60])
        tier.put(block_key("a", 70, 20), BLOBS["a"][70:90])
        assert tier.put(block_key("a", 30, 80), BLOBS["a"][30:110]) == []
        assert list(tier._entries) == [block_key("a", 30, 80)]  # the two it contains are gone
        tier.put(block_key("a", 50, 10), BLOBS["a"][50:60])  # already held: not stored
        assert list(tier._entries) == [block_key("a", 30, 80)]
        assert tier.stats.bytes_cached == 80 and tier.stats.evictions == 0

    def test_an_entry_too_large_for_memory_is_served_from_ssd_and_stays(self):
        tiers = TieredBlockCache(memory_bytes=MEMORY, ssd_bytes=SSD)
        wide = block_key("a", 0, MEMORY + 30)
        tiers.put(wide, BLOBS["a"][: MEMORY + 30])
        assert list(tiers.ssd._entries) == [wide] and not len(tiers.memory)
        assert tiers.get(block_key("a", 20, 50)) == BLOBS["a"][20:70]
        assert list(tiers.ssd._entries) == [wide] and not len(tiers.memory)
        assert tiers.ssd.stats.hits == 1

    def test_an_ssd_hit_moves_the_entry(self):
        tiers = TieredBlockCache(memory_bytes=MEMORY, ssd_bytes=SSD)
        first = block_key("a", 0, 60)
        tiers.put(first, BLOBS["a"][:60])
        tiers.put(block_key("b", 0, 60), BLOBS["b"][:60])  # demotes the first
        assert list(tiers.ssd._entries) == [first]
        assert tiers.get(block_key("a", 10, 10)) == BLOBS["a"][10:20]
        assert first in tiers.memory._entries and first not in tiers.ssd._entries
        assert list(tiers.ssd._entries) == [block_key("b", 0, 60)]  # swapped, not copied


def resident_ranges(store) -> dict:
    """blob -> sorted (start, end) of every entry in either block tier."""
    held: dict = {}
    for tier in (store.cache.blocks.memory, store.cache.blocks.ssd):
        for bucket, key, start, length in tier._entries:
            held.setdefault((bucket, key), []).append((start, start + length))
    return {blob: sorted(extents) for blob, extents in held.items()}


class TestExactCountsOnAnArchivedStore:
    """The nine e2e shapes over a store whose caches fit everything."""

    @pytest.fixture(scope="class")
    def queried(self):
        store = build_store()
        planned: list[tuple[str, str]] = []
        plan = PrefetchPlanner.plan

        def checking_plan(planner, bucket, key, manifest, data_start, members):
            # What reaches the planner is missing, bytes and decoded form.
            for member in members:
                offset, length = manifest.extent(member)
                assert not store.cache.objects.contains((bucket, key, member))
                assert not store.cache.blocks.covers((bucket, key, data_start + offset, length))
                planned.append((key, member))
            return plan(planner, bucket, key, manifest, data_start, members)

        PrefetchPlanner.plan = checking_plan
        try:
            queries = make_queries(seed=3)
            cold = [store.query(render(query)) for query in queries]
        finally:
            PrefetchPlanner.plan = plan
        for query, result in zip(queries, cold):
            assert normalized(query, result.rows) == expected(query)
        return store, queries, cold, planned

    def test_no_member_is_fetched_twice(self, queried):
        _store, _queries, _cold, planned = queried
        assert planned and len(set(planned)) == len(planned)

    def test_prefetch_counts_are_what_went_to_the_store(self, queried):
        store, queries, cold, _planned = queried
        warm = [store.query(render(query)) for query in queries]
        assert any(result.stats.prefetch_requests for result in cold)
        for result in cold + warm:
            assert result.stats.prefetch_bytes <= result.bytes_fetched
            assert result.stats.prefetch_requests <= result.oss_requests

    def test_an_exact_repeat_issues_no_request(self, queried):
        store, queries, cold, _planned = queried
        for query, first in zip(queries, cold):
            again = store.query(render(query))
            assert again.rows == first.rows
            assert (again.oss_requests, again.bytes_fetched) == (0, 0)
            assert again.stats.prefetch_members_fetched == 0

    def test_tiers_hold_a_byte_once(self, queried):
        store, _queries, _cold, _planned = queried
        blocks = store.cache.blocks
        check_exclusive(blocks)
        held = blocks.memory.stats.bytes_cached + blocks.ssd.stats.bytes_cached
        distinct = overlaps = 0
        for extents in resident_ranges(store).values():
            reach = 0
            for start, end in extents:
                assert end > reach  # no entry inside another
                if start < reach:
                    # Only a pack's head chunk, which is cut by size and
                    # not at a member boundary, shares bytes with a
                    # neighbour.
                    assert reach == PackReader.HEAD_CHUNK
                    overlaps += 1
                distinct += end - max(start, reach)
                reach = end
        assert distinct <= held <= distinct + overlaps * PackReader.HEAD_CHUNK
        assert held < 1.1 * distinct  # 1.39x on this store before a byte was held once

    # (OSS requests, bytes fetched) of each query with use_prefetch=False,
    # measured on the tree before coverage lookups: member reads alone
    # may cost no more than exact-key caching did.  The requests are
    # those measured at LogBlock format v4; the bytes are re-measured at
    # v5 (whose string blocks compress to other sizes) on this tree, as
    # the tree before coverage lookups writes no v5.
    WITHOUT_PREFETCH_BEFORE = (
        [(3, 13957), (7, 31994), (1, 1973), (1, 1792), (8, 5842), (1, 8192), (0, 0)]
        + [(5, 684), (4, 1186), (0, 0), (0, 0), (2, 3464)]
        + [(0, 0)] * 10
        + [(2, 1810), (0, 0), (0, 0), (0, 0), (0, 0)]
    )

    def test_without_prefetch_answers_and_traffic_are_unchanged(self, queried):
        _store, queries, cold, _planned = queried
        plain = build_store(use_prefetch=False)
        for query, with_prefetch, before in zip(queries, cold, self.WITHOUT_PREFETCH_BEFORE, strict=True):
            result = plain.query(render(query))
            assert normalized(query, result.rows) == normalized(query, with_prefetch.rows)
            assert result.stats.prefetch_requests == 0
            assert result.oss_requests <= before[0] and result.bytes_fetched <= before[1]
