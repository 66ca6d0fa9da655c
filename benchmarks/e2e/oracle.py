"""Brute-force reference answers for the e2e benchmark.

The oracle never touches the system under test: it keeps the generated
rows in plain per-tenant lists (sorted by ``ts``) and evaluates each
query's predicate / aggregate / top-k in pure Python from the query's
*spec* (the dict the SQL text was rendered from), not from the SQL.
Everything here runs outside the benchmark's timers.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter

TOP_K = 10


class TenantRows:
    """One tenant's visible rows, ``ts``-ordered (appends must be too)."""

    def __init__(self) -> None:
        self.rows: list[dict] = []
        self._ts: list[int] = []

    def extend(self, rows: list[dict]) -> None:
        self.rows.extend(rows)
        self._ts.extend(row["ts"] for row in rows)

    def window(self, lo: int, hi: int) -> list[dict]:
        return self.rows[bisect_left(self._ts, lo) : bisect_right(self._ts, hi)]


class Oracle:
    """Tenant → rows acknowledged so far."""

    def __init__(self) -> None:
        self.tenants: dict[int, TenantRows] = {}

    def add(self, tenant_id: int, rows: list[dict]) -> None:
        self.tenants.setdefault(tenant_id, TenantRows()).extend(rows)

    def count(self, tenant_id: int) -> int:
        held = self.tenants.get(tenant_id)
        return len(held.rows) if held is not None else 0

    def matching(self, spec: dict) -> list[dict]:
        """Rows of the spec's tenant that satisfy its predicates."""
        held = self.tenants.get(spec["tenant"])
        if held is None:
            return []
        rows = held.window(spec["lo"], spec["hi"])
        if "ip" in spec:
            ip = spec["ip"]
            rows = [r for r in rows if r["ip"] == ip]
        if "latency_ge" in spec:
            floor = spec["latency_ge"]
            rows = [r for r in rows if r["latency"] >= floor]
        if "fail" in spec:
            fail = spec["fail"]
            rows = [r for r in rows if r["fail"] is fail]
        if "match" in spec:
            # MATCH is "every term appears as a word"; the generator only
            # emits search terms as whitespace-delimited lowercase words.
            terms = spec["match"].split()
            rows = [r for r in rows if _has_words(r["log"], terms)]
        return rows

    def expected(self, spec: dict):
        """The reference answer, in the form :func:`check` compares."""
        rows = self.matching(spec)
        shape = spec["shape"]
        if shape == "count":
            return len(rows)
        if shape == "group":
            groups: dict[str, list[int]] = {}
            for row in rows:
                groups.setdefault(row["api"], []).append(row["latency"])
            return {api: (len(v), sum(v) / len(v)) for api, v in groups.items()}
        if shape == "topk":
            pairs = Counter((row["ts"], row["latency"]) for row in rows)
            top = sorted((row["latency"] for row in rows), reverse=True)[:TOP_K]
            return top, pairs
        return Counter(row["log"] for row in rows)


def _has_words(text: str, terms: list[str]) -> bool:
    words = text.lower().split()
    return all(term in words for term in terms)


def check(spec: dict, expected, rows: list[dict]) -> bool:
    """True when the system's ``rows`` equal the oracle's answer.

    Row sets compare as multisets (order-insensitive).  ``ORDER BY
    latency DESC LIMIT k`` must return the k largest latencies in
    order; which of several rows tied on ``latency`` fills the last
    places is unspecified, so each returned row only has to be a
    matching row (multiset containment).
    """
    shape = spec["shape"]
    if shape == "count":
        # No matching rows may come back as one zero row or as no row.
        got = rows[0]["COUNT(*)"] if rows else 0
        return got == expected
    if shape == "group":
        if len(rows) != len(expected):
            return False
        for row in rows:
            want = expected.get(row["api"])
            if want is None or row["COUNT(*)"] != want[0]:
                return False
            if abs(row["AVG(latency)"] - want[1]) > 1e-9 * max(1.0, abs(want[1])):
                return False
        return True
    if shape == "topk":
        top, pairs = expected
        if [row["latency"] for row in rows] != top:
            return False
        returned = Counter((row["ts"], row["latency"]) for row in rows)
        return all(pairs.get(pair, 0) >= n for pair, n in returned.items())
    return Counter(row["log"] for row in rows) == expected
