"""A deleted blob leaves nothing behind in the object cache.

Whatever retires an archived object — compaction, cold compaction, the
expiry sweep, tenant offboarding, each through the store's janitor —
must drop every ``(bucket, blob, *)`` entry of ``cache.objects``: the pack
header, the meta, decoded indexes and Bloom filters, and the decoded
column blocks queries left there.  And the rewritten data must answer
from warm caches exactly as the rows it was built from do.
"""

import pytest

from repro.builder.compaction import Compactor
from repro.cluster.config import small_test_config
from repro.cluster.logstore import LogStore

from tests.conftest import BASE_TS, MICROS, make_rows
from tests.query.test_decoded_tier import SHAPES, expected, normalized, render

N_ROWS = 1000


def queries(tenant: int) -> list[dict]:
    """Every e2e SELECT shape over the tenant's whole time range."""
    return [
        {"shape": shape, "tenant": tenant, "lo": BASE_TS, "hi": BASE_TS + N_ROWS * MICROS}
        for shape in SHAPES
    ]


def oracle(tenant: int, rows: list[dict]) -> list:
    """The answers, brute-forced from the rows the tenant still has."""
    return [expected(query, rows) for query in queries(tenant)]


def answers(store, tenant: int) -> list:
    return [normalized(query, store.query(render(query)).rows) for query in queries(tenant)]


@pytest.fixture
def store():
    store = LogStore.create(
        config=small_test_config(
            seal_rows=200, target_rows_per_logblock=200, cold_target_rows=500
        )
    )
    for tenant in (1, 2):
        store.register_tenant(tenant)
        rows = make_rows(N_ROWS, tenant_id=tenant, seed=tenant)
        for start in range(0, N_ROWS, 100):
            store.put(tenant, rows[start : start + 100])
    store.flush_all()
    return store


def warm(store, tenant: int = 1) -> set[str]:
    """Query the tenant until its blobs sit decoded in the object cache;
    returns the blob keys (LogBlock paths) the cache then holds for it."""
    assert answers(store, tenant) == oracle(tenant, make_rows(N_ROWS, tenant_id=tenant, seed=tenant))
    paths = {block.path for block in store.catalog.tenant(tenant).blocks}
    cached = cached_blobs(store) & paths
    assert cached == paths and len(paths) >= 2
    members = {key[2] for key in store.cache.objects._entries if key[1] in paths}
    assert {"meta", "__pack_header__"} <= members
    assert any(m.startswith("col/") for m in members) and any(m.startswith("idx/") for m in members)
    return paths


def cached_blobs(store) -> set[str]:
    return {key[1] for key in store.cache.objects._entries}


def held_ranges(store, blob: str) -> list[tuple[int, int]]:
    """``(start, length)`` of every byte range of ``blob`` in either block
    tier, which each tier's extent index must agree with."""
    held = []
    for tier in (store.cache.blocks.memory, store.cache.blocks.ssd):
        entries = [key[2:] for key in tier._entries if key[1] == blob]
        assert sorted(entries) == tier._extents.get((store.config.bucket, blob), [])
        held += entries
    return held


def age(store, hours: float) -> None:
    """Move the virtual clock to ``hours`` past the newest row."""
    target_s = BASE_TS / MICROS + N_ROWS + hours * 3_600
    store.clock.sleep(max(0.0, target_s - store.clock.now()))


class TestNoKeyOfADeletedBlobRemains:
    def test_compaction(self, store):
        victims = warm(store)
        compactor = Compactor(
            store.schema,
            store.catalog,
            codec=store.config.codec,
            block_rows=store.config.block_rows,
            small_threshold_rows=500,
            target_rows=1_000,
            janitor=store.janitor,
        )
        result = compactor.compact_tenant(1)
        assert result.compacted and result.blocks_after < len(victims)
        assert not cached_blobs(store) & victims
        # The rewritten blocks answer the same, cold and from warm caches.
        rows = make_rows(N_ROWS, tenant_id=1, seed=1)
        assert answers(store, 1) == oracle(1, rows)
        assert answers(store, 1) == oracle(1, rows)

    def test_cold_compaction_then_expiry_of_the_cold_members(self, store):
        victims = warm(store)
        store.set_retention(1, cold_age="1h")
        age(store, hours=2)
        store.cold_compact()
        blocks = list(store.catalog.tenant(1).blocks)
        assert blocks and all(block.segment_path is not None for block in blocks)
        assert not cached_blobs(store) & victims
        cold_members = warm(store)  # decoded objects live under the members' own paths
        segments = {block.segment_path for block in blocks}
        assert not cold_members & victims

        store.set_retention(1, ttl="3h", cold_age="1h")
        age(store, hours=4)
        report = store.sweep_expired()
        assert report.blocks_expired == len(blocks) and report.segments_deleted == len(segments)
        assert not cached_blobs(store) & (cold_members | segments)
        assert not any(held_ranges(store, segment) for segment in segments)
        assert answers(store, 1) == oracle(1, [])

    def test_members_of_one_cold_segment_read_in_turn(self, store):
        """The members' bytes are cached as ranges of the one segment
        object: residency of one must never answer for the other."""
        store.set_retention(1, cold_age="1h")
        age(store, hours=2)
        store.cold_compact()
        first, second = store.catalog.tenant(1).blocks
        segment = first.segment_path
        assert segment is not None and second.segment_path == segment
        rows = make_rows(N_ROWS, tenant_id=1, seed=1)

        def read(member):
            query = {"shape": "time_range", "tenant": 1, "lo": member.min_ts, "hi": member.max_ts}
            result = store.query(render(query))
            assert normalized(query, result.rows) == expected(query, rows)
            assert result.stats.cold_blocks_visited == 1
            return result

        cold = read(first)
        assert cold.oss_requests > 0 and cold.stats.prefetch_members_fetched > 0
        end = first.segment_offset + first.segment_length
        assert held_ranges(store, segment)
        assert all(
            first.segment_offset <= start and start + length <= end
            for start, length in held_ranges(store, segment)
        )
        other = read(second)  # nothing of it is resident: the plan skips nothing
        assert other.oss_requests > 0
        assert other.stats.prefetch_members_fetched == cold.stats.prefetch_members_fetched
        assert other.stats.prefetch_resident_bytes == cold.stats.prefetch_resident_bytes

        for member in (first, second):  # from the decoded tier, then from the byte tiers
            assert read(member).oss_requests == 0
        store.cache.objects.clear()
        for member in (first, second):
            again = read(member)
            assert again.oss_requests == 0 and again.stats.prefetch_members_fetched == 0
            assert again.stats.prefetch_resident_bytes > 0

        store.set_retention(1, ttl="3h", cold_age="1h")
        age(store, hours=4)
        assert store.sweep_expired().segments_deleted == 1
        assert held_ranges(store, segment) == []

    def test_expiry(self, store):
        victims = warm(store)
        others = warm(store, tenant=2)
        store.set_retention(1, ttl="1h")
        age(store, hours=2)
        store.sweep_expired()
        assert store.catalog.tenant(1).blocks == []
        assert not cached_blobs(store) & victims
        assert cached_blobs(store) >= others  # another tenant's entries are not touched
        assert answers(store, 1) == oracle(1, [])
        assert answers(store, 2) == oracle(2, make_rows(N_ROWS, tenant_id=2, seed=2))

    def test_a_read_racing_the_delete(self, store, monkeypatch):
        """A reader that planned before the catalog removal can admit a
        blob's objects until its DELETE lands: the keys must go after."""
        victims = warm(store)
        delete = store.oss.delete

        def racing_delete(bucket, key):
            store.cache.objects.put((bucket, key, "meta"), object(), 1)
            return delete(bucket, key)

        monkeypatch.setattr(store.oss, "delete", racing_delete)
        store.set_retention(1, ttl="1h")
        age(store, hours=2)
        assert store.sweep_expired().blocks_expired == len(victims)
        assert not cached_blobs(store) & victims

    def test_offboarding(self, store):
        victims = warm(store)
        others = warm(store, tenant=2)
        report = store.offboard_tenant(1)
        assert report.verified
        assert not cached_blobs(store) & victims
        assert cached_blobs(store) >= others
        assert answers(store, 2) == oracle(2, make_rows(N_ROWS, tenant_id=2, seed=2))

    def test_offboarding_a_cold_tenant(self, store):
        store.set_retention(1, cold_age="1h")
        age(store, hours=2)
        store.cold_compact()
        cold_members = warm(store)
        segments = {block.segment_path for block in store.catalog.tenant(1).blocks}
        assert None not in segments
        assert store.offboard_tenant(1).verified
        assert not cached_blobs(store) & (cold_members | segments)
