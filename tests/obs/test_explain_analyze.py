"""EXPLAIN ANALYZE: structure, work accounting, determinism."""

import re

from repro.cluster.config import small_test_config
from repro.cluster.logstore import LogStore
from repro.prefetch.planner import PrefetchPlanner

from tests.conftest import make_rows


def seeded_store(**overrides):
    store = LogStore.create(config=small_test_config(**overrides))
    store.put(1, make_rows(500, tenant_id=1))
    store.put(2, make_rows(200, tenant_id=2, seed=7))
    store.flush_all()
    return store


SELECT_SQL = (
    "SELECT log FROM request_log WHERE tenant_id = 1 "
    "AND ts >= '2020-11-11 00:00:00' AND ts < '2020-11-11 00:05:00'"
)
AGG_SQL = "SELECT COUNT(*) FROM request_log WHERE tenant_id = 1"


class TestExplainAnalyze:
    def test_select_report_structure(self):
        store = seeded_store()
        text = store.explain_analyze(SELECT_SQL)
        assert "== execution (virtual time: " in text
        # Per-stage virtual timings from the broker.query trace.
        for stage in ("plan:", "archived scan:", "realtime scan:", "merge/finalize:"):
            assert stage in text, text
        assert "rows returned: " in text
        assert "== blocks ==" in text
        assert "pruned by LogBlock map:" in text
        assert "pruned by SMA:" in text
        # One LogBlock holds one tenant: ``tenant_id = 1`` is proved by
        # the column SMA in each visited block, and probes no index.
        visited = int(text.split("visited: ")[1].split()[0])
        proved = int(text.split("columns short-circuited by SMA: ")[1].split()[0])
        assert proved >= visited >= 1
        assert "== I/O ==" in text
        assert "oss requests:" in text
        assert "cache: " in text and "hit rate" in text
        # A non-aggregate query has no pushdown section.
        assert "== aggregate pushdown ==" not in text

    def test_aggregate_reports_pushdown_tiers(self):
        store = seeded_store()
        text = store.explain_analyze(AGG_SQL)
        assert "== aggregate pushdown ==" in text
        assert "tier 1 (catalog):" in text
        assert "tier 2 (SMA fold):" in text
        assert "tier 3 (columnar):" in text
        assert "fallback" not in text

    def test_second_run_sees_cache_hits(self):
        store = seeded_store()
        store.query(SELECT_SQL)  # warm the caches
        result = store.query(SELECT_SQL)
        assert result.cache_hits > 0
        assert result.oss_requests == 0  # fully cached
        text = store.explain_analyze(SELECT_SQL)
        assert "oss requests: 0" in text

    def test_cache_line_names_the_tier_that_served(self):
        """Cold: misses, and byte-range hits on what the prefetch just
        loaded.  Warm: every hit is a decoded object; nothing below the
        object tier is asked."""
        store = seeded_store()
        pattern = re.compile(
            r"cache: (\d+) hits \(object (\d+), memory (\d+), ssd (\d+)\), "
            r"(\d+) misses \(hit rate (\d+\.\d)%\)"
        )

        def cache_line(text):
            match = pattern.search(text)
            assert match, text
            hits, from_object, memory, ssd, misses = map(int, match.groups()[:5])
            assert hits == from_object + memory + ssd
            return from_object, memory, ssd, misses, match.group(6)

        from_object, memory, ssd, misses, _rate = cache_line(store.explain_analyze(SELECT_SQL))
        assert misses > 0 and memory > 0 and ssd == 0
        from_object, memory, ssd, misses, rate = cache_line(store.explain_analyze(SELECT_SQL))
        assert from_object > 0 and (memory, ssd, misses) == (0, 0, 0)
        assert rate == "100.0"

    def test_prefetch_line_says_what_the_plans_skipped(self, monkeypatch):
        """Members wanted = resident (decoded form or bytes) + fetched."""
        # A LogBlock of 500 rows outgrows the 8 KiB head read, so members
        # past it are prefetched (a smaller one arrives whole).
        store = seeded_store(seal_rows=500, target_rows_per_logblock=500)
        planned = []
        plan = PrefetchPlanner.plan

        def recording_plan(planner, bucket, key, manifest, data_start, members):
            planned.extend((key, member) for member in members)
            return plan(planner, bucket, key, manifest, data_start, members)

        monkeypatch.setattr(PrefetchPlanner, "plan", recording_plan)
        sql = "SELECT log, ip FROM request_log WHERE tenant_id = 1 AND ts >= '{}' AND ts < '{}'"
        narrow = sql.format("2020-11-11 00:01:00", "2020-11-11 00:03:00")
        wide = sql.format("2020-11-11 00:00:00", "2020-11-11 00:06:00")
        pattern = re.compile(
            r"prefetch members: (\d+) wanted, (\d+) resident "
            r"\(decoded (\d+), bytes (\d+)\), (\d+) fetched"
        )

        def members(query):
            match = pattern.search(store.explain_analyze(query))
            assert match
            wanted, resident, decoded, held, fetched = map(int, match.groups())
            assert wanted == resident + fetched and resident == decoded + held
            return wanted, decoded, held, fetched

        wanted, decoded, _held, cold_fetched = members(narrow)
        assert decoded == 0 and cold_fetched > 0
        # A wider window over the same blocks and more: what the narrow
        # one left is resident, the rest is fetched — nothing twice.
        wanted, decoded, _held, fetched = members(wide)
        assert decoded > 0 and fetched > 0
        assert members(wide) == (wanted, wanted, 0, 0)  # exact repeat
        assert len(planned) == len(set(planned)) == cold_fetched + fetched
        # Without the decoded forms the bytes still answer.
        store.cache.objects.clear()
        assert members(wide) == (wanted, 0, wanted, 0)
        assert store.query(wide).oss_requests == 0

    def test_deterministic_across_identical_clusters(self):
        first = seeded_store().explain_analyze(SELECT_SQL)
        second = seeded_store().explain_analyze(SELECT_SQL)
        assert first == second

    def test_tracing_disabled_still_renders(self):
        store = seeded_store(tracing_enabled=False)
        text = store.explain_analyze(SELECT_SQL)
        assert "(tracing disabled: per-stage timings unavailable)" in text
        assert "== I/O ==" in text

    def test_stage_timings_bounded_by_total(self):
        store = seeded_store()
        store.query(SELECT_SQL)
        trace = store.last_trace("broker.query")
        total = trace.duration_s
        for child in trace.children:
            assert 0.0 <= child.duration_s <= total + 1e-9
