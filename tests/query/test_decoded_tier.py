"""The decoded tier: column blocks in the §5.2 object cache.

A column block a query decodes stays in ``cache.objects`` in the form
the next reader needs.  These tests hold the tier to its contract:

* it may only *remove* requests — over a sequence of overlapping
  queries, OSS requests and bytes with the tier kept never exceed those
  with the tier emptied between queries, and it strictly removes
  byte-cache lookups and decodes;
* a hit costs nothing below it — an exact repeat of a query issues no
  GET, looks nothing up in the byte-range caches and charges no decode;
* with a tier too small to admit a block the reader's own memo still
  decodes a block once per query, and the traffic is what it was before
  blocks were shared;
* the answer never depends on the regime (cold / warm / too small,
  ``use_skipping`` on and off).
"""

from __future__ import annotations

import random

import pytest

from repro.cluster.config import small_test_config
from repro.cluster.logstore import LogStore
from repro.logblock.reader import LogBlockReader

from tests.conftest import BASE_TS, MICROS, make_rows

TENANTS = {1: 1_500, 2: 700}
TOP_K = 10

# name -> (select list, extra conjuncts, tail, python predicate): the
# nine SELECT shapes of benchmarks/e2e (six §6.3 templates, COUNT(*),
# GROUP BY, ORDER BY ... LIMIT).
SHAPES = {
    "time_range": ("log", "", "", lambda r: True),
    "ip_eq": ("log", " AND ip = '192.168.0.3'", "", lambda r: r["ip"] == "192.168.0.3"),
    "latency_ge": ("log", " AND latency >= 250", "", lambda r: r["latency"] >= 250),
    "fail_eq": ("log", " AND fail = true", "", lambda r: r["fail"] is True),
    "fulltext": ("log", " AND MATCH(log, 'error')", "", lambda r: "error" in r["log"].split()),
    "combined": (
        "log",
        " AND ip = '192.168.0.3' AND latency >= 100 AND fail = false",
        "",
        lambda r: r["ip"] == "192.168.0.3" and r["latency"] >= 100 and r["fail"] is False,
    ),
    "count": ("COUNT(*)", "", "", lambda r: True),
    "group": ("api, COUNT(*), AVG(latency)", "", " GROUP BY api", lambda r: True),
    "topk": ("ts, latency", "", f" ORDER BY latency DESC LIMIT {TOP_K}", lambda r: True),
}


def tenant_rows(tenant: int) -> list[dict]:
    return make_rows(TENANTS[tenant], tenant_id=tenant, seed=tenant)


def build_store(**overrides) -> LogStore:
    """Both tenants archived: several LogBlocks of several column blocks."""
    store = LogStore.create(
        config=small_test_config(seal_rows=500, target_rows_per_logblock=500, **overrides)
    )
    for tenant in TENANTS:
        rows = tenant_rows(tenant)
        for start in range(0, len(rows), 100):
            store.put(tenant, rows[start : start + 100])
    store.flush_all()
    assert store.pending_rows() == 0
    return store


def make_queries(seed: int, per_shape: int = 3) -> list[dict]:
    """Overlapping windows over both tenants, every shape, seeded order."""
    rng = random.Random(seed)
    queries = []
    for shape in SHAPES:
        for _ in range(per_shape):
            tenant = rng.choice(sorted(TENANTS))
            span = TENANTS[tenant]
            width = rng.choice((span // 10, span // 3, span // 2))
            lo = rng.randrange(0, span - width)
            queries.append(
                {
                    "shape": shape,
                    "tenant": tenant,
                    "lo": BASE_TS + lo * MICROS,
                    "hi": BASE_TS + (lo + width) * MICROS,
                }
            )
    rng.shuffle(queries)
    return queries


def render(query: dict) -> str:
    select, extra, tail, _ = SHAPES[query["shape"]]
    return (
        f"SELECT {select} FROM request_log WHERE tenant_id = {query['tenant']} "
        f"AND ts >= {query['lo']} AND ts <= {query['hi']}{extra}{tail}"
    )


def normalized(query: dict, rows: list[dict]):
    """A result in a form two correct runs (and the oracle) agree on."""
    shape = query["shape"]
    if shape == "count":
        return rows[0]["COUNT(*)"] if rows else 0
    if shape == "group":
        return {r["api"]: (r["COUNT(*)"], round(r["AVG(latency)"], 9)) for r in rows}
    if shape == "topk":
        return [r["latency"] for r in rows]  # which tied row fills the tail is free
    return sorted(r["log"] for r in rows)


def expected(query: dict, rows: list[dict] | None = None):
    """The brute-force answer, from the generated rows alone (``rows``:
    what the tenant holds, when that is not everything generated)."""
    matches = SHAPES[query["shape"]][3]
    rows = [
        r
        for r in (tenant_rows(query["tenant"]) if rows is None else rows)
        if query["lo"] <= r["ts"] <= query["hi"] and matches(r)
    ]
    shape = query["shape"]
    if shape == "count":
        return len(rows)
    if shape == "group":
        groups: dict[str, list[int]] = {}
        for r in rows:
            groups.setdefault(r["api"], []).append(r["latency"])
        return {api: (len(v), round(sum(v) / len(v), 9)) for api, v in groups.items()}
    if shape == "topk":
        return sorted((r["latency"] for r in rows), reverse=True)[:TOP_K]
    return sorted(r["log"] for r in rows)


@pytest.fixture
def decode_charges(monkeypatch):
    """Every ``decode_charge`` call any LogBlockReader makes (compressed bytes)."""
    charged: list[int] = []
    init = LogBlockReader.__init__

    def counting_init(self, pack, decode_charge=None):
        def charge(nbytes):
            charged.append(nbytes)
            if decode_charge is not None:
                decode_charge(nbytes)

        init(self, pack, decode_charge=charge)

    monkeypatch.setattr(LogBlockReader, "__init__", counting_init)
    return charged


def record_object_gets(store, monkeypatch) -> list:
    """Keys asked of ``cache.objects.get`` from now on, in order."""
    asked: list = []
    get = store.cache.objects.get

    def recording_get(key):
        asked.append(key)
        return get(key)

    monkeypatch.setattr(store.cache.objects, "get", recording_get)
    return asked


def byte_cache_lookups(store) -> int:
    memory = store.cache.blocks.memory.stats
    return memory.hits + memory.misses


class TestOnlyRemovesRequests:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_requests_and_bytes_never_exceed_a_tier_emptied_between_queries(
        self, seed, decode_charges
    ):
        kept, emptied = build_store(), build_store()
        requests = {"kept": 0, "emptied": 0}
        nbytes = {"kept": 0, "emptied": 0}
        decodes = {"kept": 0, "emptied": 0}
        for query in make_queries(seed):
            sql = render(query)
            for arm, store in (("kept", kept), ("emptied", emptied)):
                del decode_charges[:]
                result = store.query(sql)
                assert normalized(query, result.rows) == expected(query), sql
                requests[arm] += result.oss_requests
                nbytes[arm] += result.bytes_fetched
                decodes[arm] += len(decode_charges)
            emptied.cache.objects.clear()  # the byte-range caches stay warm
            assert requests["kept"] <= requests["emptied"], sql
            assert nbytes["kept"] <= nbytes["emptied"], sql
        # The byte tiers cover what the emptied arm reads again, so there
        # may be no request left for the decoded tier to remove; what it
        # still saves is everything between a request and a value.
        assert 0 < requests["kept"] and 0 < nbytes["kept"]
        assert 0 < byte_cache_lookups(kept) < byte_cache_lookups(emptied)
        assert 0 < decodes["kept"] < decodes["emptied"]


class TestARepeatCostsNothingBelowTheTier:
    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_exact_repeat(self, shape, decode_charges, monkeypatch):
        store = build_store()
        query = {"shape": shape, "tenant": 1, "lo": BASE_TS + 200 * MICROS, "hi": BASE_TS + 900 * MICROS}
        sql = render(query)
        asked = record_object_gets(store, monkeypatch)
        cold = store.query(sql)
        cold_keys = list(asked)
        assert cold.oss_requests > 0 and decode_charges
        assert cold.stats.blocks_visited >= 2

        del asked[:], decode_charges[:]
        lookups_before = byte_cache_lookups(store)
        warm = store.query(sql)
        assert warm.rows == cold.rows
        assert normalized(query, warm.rows) == expected(query)
        assert warm.oss_requests == 0 and warm.bytes_fetched == 0
        assert warm.stats.prefetch_requests == 0
        assert byte_cache_lookups(store) == lookups_before  # not even for a col/* member
        assert decode_charges == []
        # Every member it touched — the same ones the cold run did — is
        # one object-tier hit, asked for once.
        assert sorted(asked) == sorted(set(cold_keys))
        assert len(set(asked)) == len(asked) == warm.object_hits == warm.cache_hits
        assert warm.cache_misses == 0
        if shape != "count":  # COUNT(*) reads no column block
            assert any(member.startswith("col/") for _b, _k, member in asked)

    def test_latency_of_a_repeat_is_lower(self):
        store = build_store()
        sql = render({"shape": "time_range", "tenant": 1, "lo": BASE_TS, "hi": BASE_TS + 10**12})
        assert store.query(sql).latency_s > store.query(sql).latency_s


class TestTierTooSmallToAdmitABlock:
    """4 KiB of object tier: no decoded block is admitted (every one is
    more than 1/32 of it), metas and indexes mostly are not either."""

    # (OSS requests, bytes fetched, decode charges) per query, measured
    # on the tree before decoded blocks were shared with this file's
    # data: sharing must not change what a thrashing tier costs.  Bytes
    # re-measured at LogBlock format v5, whose string blocks compress to
    # other sizes (v4: 24 191, 24 191 and 18 740), and "group" at v7,
    # whose integer members shrink into the two packs' head chunks (v6:
    # 4 requests, 18 748 bytes).
    BEFORE_SHARING = {
        "time_range": (4, 23_854, 6),
        "combined": (4, 23_854, 12),
        "group": (2, 16_384, 10),
    }

    @pytest.mark.parametrize("shape", list(BEFORE_SHARING))
    def test_traffic_equals_one_decode_per_block_and_query(self, shape, decode_charges, monkeypatch):
        store = build_store(cache_object_bytes=4096)
        query = {"shape": shape, "tenant": 1, "lo": BASE_TS + 200 * MICROS, "hi": BASE_TS + 900 * MICROS}
        asked = record_object_gets(store, monkeypatch)
        store.cache.clear()
        result = store.query(render(query))
        assert normalized(query, result.rows) == expected(query)
        blocks_asked = [key for key in asked if key[2].startswith("col/")]
        assert blocks_asked and len(set(blocks_asked)) == len(blocks_asked)  # the memo caught repeats
        assert not any(key[2].startswith("col/") for key in store.cache.objects._entries)
        assert (result.oss_requests, result.bytes_fetched, len(decode_charges)) == self.BEFORE_SHARING[shape]

        # Nothing was kept, so the same query decodes the same blocks again.
        del decode_charges[:]
        again = store.query(render(query))
        assert again.rows == result.rows
        assert len(decode_charges) == self.BEFORE_SHARING[shape][2]


class TestAnswersUnderEveryRegime:
    @pytest.mark.parametrize("use_skipping", [True, False])
    def test_nine_shapes_cold_warm_and_too_small(self, use_skipping):
        queries = make_queries(seed=3, per_shape=2)
        roomy = build_store(use_skipping=use_skipping)
        tiny = build_store(use_skipping=use_skipping, cache_object_bytes=4096)
        for query in queries:
            sql = render(query)
            want = expected(query)
            cold = roomy.query(sql)
            assert normalized(query, cold.rows) == want, ("cold", sql)
            warm = roomy.query(sql)
            assert warm.oss_requests == 0
            assert normalized(query, warm.rows) == want, ("warm", sql)
            if query["shape"] != "topk":
                assert warm.rows == cold.rows
            assert normalized(query, tiny.query(sql).rows) == want, ("too small", sql)
        assert any(key[2].startswith("col/") for key in roomy.cache.objects._entries)
        assert not any(key[2].startswith("col/") for key in tiny.cache.objects._entries)
