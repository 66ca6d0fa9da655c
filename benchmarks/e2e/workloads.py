"""Inputs and timed passes of the four e2e workloads.

A *pass* is one fixed unit of work against a fresh cluster: a write
stage, an archive stage and a read stage, so every end-to-end metric is
measured on every workload; the workloads differ in which stage
dominates and in how the cluster is configured (see ``WORKLOADS`` and
the README).  Inputs depend only on ``(workload, seed, scale)`` and are
generated once per run; every pass of a run replays the same inputs, so
the system's own counts (OSS bytes, virtual latency, stored bytes)
repeat exactly from pass to pass.

Rows, SQL text and literals are generated here rather than with
``repro.workload`` / ``repro.query.sql.render_literal``: the benchmark
may use nothing but the public ``LogStore`` / ``Session`` API, so that
a later PR can delete or rewrite those modules without editing it.

Only ``time.perf_counter`` around calls into ``LogStore`` / ``Session``
is measured, call by call, and scaled to the host's fast state
(``HostSpeed``).  Row and SQL generation, cluster creation, preload,
``gc.collect()`` and every oracle comparison sit between the timers and
are charged to ``setup_s``.
"""

from __future__ import annotations

import gc
import json
import random
import sys
import time
import traceback
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field

from oracle import Oracle, check

TABLE = "request_log"
BASE_TS = 1_605_052_800_000_000  # 2020-11-11 00:00:00 UTC in µs, the paper's sample day
SPAN_US = 3600 * 1_000_000  # one pass's rows are spread over one hour
N_TENANTS = 50
THETA = 0.99  # §6.1: "similar to the highly skewed ... production environment"
PUT_BATCH_ROWS = 100
INSERT_ROWS = 50
RAFT_WINDOW = 16  # put_nowait batches per settle_writes()

# Shared cluster config: small_test_config with these overrides and
# everything else (indexes on, obs on, 4 workers x 2 shards) at its
# default.  target_rows_per_logblock stays at 4 000 because of the SMA
# int64 overflow described in the README's "known limits".
BENCH_OVERRIDES = dict(
    seal_rows=20_000, block_rows=1024, target_rows_per_logblock=4_000, codec="zlib"
)
OBS_OFF = dict(tracing_enabled=False, event_journal_enabled=False, slo_enabled=False)

SHAPES = (
    "time_range", "ip_eq", "latency_ge", "fail_eq", "fulltext", "combined",
    "count", "group", "topk",
)
# Cycled by position, not drawn, so the result sizes that set the
# latency tail are the same for every seed; the seed moves the windows.
WINDOW_SHARES = (0.08, 0.2, 0.35, 0.5)
LATENCY_FLOORS = (100, 250, 500, 1000)
MATCH_TERMS = ("error", "retry", "slow", "status ok")
_STATUS_WORDS = ("ok", "ok", "ok", "ok", "slow", "retry", "error")
_VERBS = ("GET", "POST", "PUT", "DELETE")
_INSERT_COLUMNS = ("ts", "ip", "api", "latency", "fail", "log")
_INSERT_SQL = (
    f"INSERT INTO {TABLE} ({', '.join(_INSERT_COLUMNS)}) VALUES "
    + ", ".join(["(" + ", ".join("?" * len(_INSERT_COLUMNS)) + ")"] * INSERT_ROWS)
)


def bench_config(**overrides):
    from repro import small_test_config

    return small_test_config(**{**BENCH_OVERRIDES, **overrides})


# Why each workload exists: BENCHMARK.json, and the README's table.
WORKLOADS = {
    "ingest_plain": dict(
        kind="api",
        rows=80_000,
        query_tenants=10,
        query_draws=2,
        config=dict(use_raft=False),
    ),
    "ingest_raft": dict(
        kind="api",
        rows=80_000,
        query_tenants=10,
        query_draws=2,
        config=dict(use_raft=True, group_commit=True),
    ),
    "query_archived": dict(
        kind="api",
        rows=80_000,
        query_tenants=20,
        query_draws=2,
        # ~3.9 MB archived against 1.3 MiB of cache: working set > cache.
        config=dict(
            use_raft=False,
            cache_memory_bytes=384 * 1024,
            cache_ssd_bytes=768 * 1024,
            cache_object_bytes=192 * 1024,
        ),
    ),
    "mixed_sql": dict(
        kind="sql",
        rows=40_000,  # pre-archived in set-up
        rounds=3,
        inserts_per_round=160,
        query_tenants=20,
        selects_per_round=144,
        config=dict(use_raft=False, seal_rows=2_000),
    ),
}


# -- input generation ---------------------------------------------------------


def tenant_counts(total: int) -> list[int]:
    """Zipf(θ) shares of ``total`` by largest remainder: tenant k at [k-1].

    Apportioned, not sampled, so per-tenant volumes do not move with the
    seed (the seed moves row contents, order and query windows).
    """
    weights = [k ** -THETA for k in range(1, N_TENANTS + 1)]
    norm = sum(weights)
    exact = [total * w / norm for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(N_TENANTS), key=lambda k: exact[k] - counts[k], reverse=True)
    for k in by_remainder[: total - sum(counts)]:
        counts[k] += 1
    return counts


def tenant_sequence(rng: random.Random, total: int) -> list[int]:
    """``total`` tenant ids in seeded arrival order, Zipf-apportioned."""
    labels = [t for t, n in enumerate(tenant_counts(total), 1) for _ in range(n)]
    rng.shuffle(labels)
    return labels


def make_row(rng: random.Random, tenant: int, ts: int) -> dict:
    latency = max(1, int(rng.lognormvariate(3.2, 0.9)))
    fail = rng.random() < 0.02 or latency > 2000
    status = "error" if fail else rng.choice(_STATUS_WORDS)
    api = f"/api/v1/t{tenant}/op{rng.randrange(4)}"
    ip = tenant_ip(rng, tenant)
    return {
        "tenant_id": tenant,
        "ts": ts,
        "ip": ip,
        "api": api,
        "latency": latency,
        "fail": fail,
        "log": (
            f"{rng.choice(_VERBS)} {api} rid_{rng.randrange(1 << 30)} from {ip} "
            f"took {latency}ms status {status}"
        ),
    }


def tenant_ip(rng: random.Random, tenant: int) -> str:
    return f"10.0.{tenant}.{rng.randrange(8) + 1}"


def make_rows(rng: random.Random, total: int, start_ts: int, span_us: int) -> list[dict]:
    step = span_us // total
    return [
        make_row(rng, tenant, start_ts + i * step)
        for i, tenant in enumerate(tenant_sequence(rng, total))
    ]


def single_tenant_batches(rows: list[dict], size: int) -> list[tuple[int, list[dict]]]:
    """Cut a ts-ordered stream into per-tenant batches, in fill order."""
    pending: dict[int, list[dict]] = {}
    out: list[tuple[int, list[dict]]] = []
    for row in rows:
        tenant = row["tenant_id"]
        batch = pending.setdefault(tenant, [])
        batch.append(row)
        if len(batch) == size:
            out.append((tenant, batch))
            pending[tenant] = []
    out.extend((tenant, batch) for tenant, batch in sorted(pending.items()) if batch)
    return out


def make_query_specs(
    rng: random.Random, tenants: list[int], count: int, start_ts: int, span_us: int
) -> list[dict]:
    """``count`` specs cycling tenant x shape, in seeded order.

    Window starts follow a golden-ratio sequence shifted by the seed
    rather than independent draws: the windows then cover the timeline
    evenly for every seed, so how many distinct blocks a pass fetches
    (OSS bytes, virtual latency) barely moves with the seed.
    """
    specs = []
    shift = rng.random()
    for i in range(count):
        shape = SHAPES[i % len(SHAPES)]
        rank = (i // len(SHAPES)) % len(tenants)
        draw = i // (len(SHAPES) * len(tenants))
        tenant = tenants[rank]
        width = int(span_us * WINDOW_SHARES[(i + rank + draw) % len(WINDOW_SHARES)])
        lo = start_ts + int((i * 0.6180339887 + shift) % 1.0 * (span_us - width))
        spec = {"shape": shape, "tenant": tenant, "lo": lo, "hi": lo + width}
        if shape in ("ip_eq", "combined"):
            spec["ip"] = tenant_ip(rng, tenant)
        if shape == "latency_ge":
            spec["latency_ge"] = LATENCY_FLOORS[(rank + draw) % len(LATENCY_FLOORS)]
        elif shape == "fail_eq":
            spec["fail"] = True
        elif shape == "fulltext":
            spec["match"] = MATCH_TERMS[(rank + draw) % len(MATCH_TERMS)]
        elif shape == "combined":
            spec["latency_ge"] = 100
            spec["fail"] = False
        specs.append(spec)
    rng.shuffle(specs)
    return specs


def _literal(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return "'" + value.replace("'", "''") + "'"


def render_select(spec: dict, scoped: bool) -> tuple[str, tuple]:
    """SQL text (and ``?`` parameters) for one spec.

    ``scoped`` is the Session form: placeholders, and no tenant filter
    because the session injects its own.  Otherwise literal SQL for
    ``LogStore.query`` with the tenant filter spelled out.
    """
    conditions: list[str] = []
    params: list = []

    def where(template: str, value) -> None:
        if scoped:
            conditions.append(template.format("?"))
            params.append(value)
        else:
            conditions.append(template.format(_literal(value)))

    if not scoped:
        conditions.append(f"tenant_id = {spec['tenant']}")
    where("ts >= {}", spec["lo"])
    where("ts <= {}", spec["hi"])
    if "ip" in spec:
        where("ip = {}", spec["ip"])
    if "latency_ge" in spec:
        where("latency >= {}", spec["latency_ge"])
    if "fail" in spec:
        where("fail = {}", spec["fail"])
    if "match" in spec:
        where("MATCH(log, {})", spec["match"])
    select, tail = {
        "count": ("COUNT(*)", ""),
        "group": ("api, COUNT(*), AVG(latency)", " GROUP BY api"),
        "topk": ("ts, latency", " ORDER BY latency DESC LIMIT 10"),
    }.get(spec["shape"], ("log", ""))
    sql = f"SELECT {select} FROM {TABLE} WHERE {' AND '.join(conditions)}{tail}"
    return sql, tuple(params)


def user_bytes(rows: list[dict]) -> int:
    return sum(len(json.dumps(row)) for row in rows)


@dataclass
class Inputs:
    """Everything one run feeds the system, plus the reference answers."""

    kind: str
    config: dict
    batches: list[tuple[int, list[dict]]]  # api: the write stage; sql: the preload
    # api: [(spec, sql, expected)]; sql: rounds of
    # ("insert", tenant, sql, params, rows) | ("select", spec, sql, params, expected)
    reads: list = field(default_factory=list)
    rounds: list[list[tuple]] = field(default_factory=list)
    oracle: Oracle = field(default_factory=Oracle)  # final state: every acked row
    user_bytes: int = 0  # JSON bytes of every row, preloaded or written
    written_bytes: int = 0  # ... of the rows the timed write stage writes


def prepare(workload: str, seed: int, scale: float = 1.0) -> Inputs:
    """Generate one run's inputs and oracle answers (untimed)."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    n_rows = max(2_000, int(spec["rows"] * scale))
    rows = make_rows(rng, n_rows, BASE_TS, SPAN_US)
    inputs = Inputs(
        kind=spec["kind"],
        config=spec["config"],
        batches=single_tenant_batches(rows, PUT_BATCH_ROWS),
        user_bytes=user_bytes(rows),
    )
    oracle = inputs.oracle
    for tenant, batch in inputs.batches:
        oracle.add(tenant, batch)
    largest = list(range(1, spec["query_tenants"] + 1))  # Zipf rank == tenant id

    if spec["kind"] == "api":
        n_queries = max(
            len(SHAPES), int(len(SHAPES) * len(largest) * spec["query_draws"] * scale)
        )
        for query in make_query_specs(rng, largest, n_queries, BASE_TS, SPAN_US):
            sql, _ = render_select(query, scoped=False)
            inputs.reads.append((query, sql, oracle.expected(query)))
        inputs.written_bytes = inputs.user_bytes
        return inputs

    # mixed_sql: INSERTs continue the preload's timeline at the same row
    # rate; SELECT windows span both, so reads merge archived and
    # un-archived rows.  Answers are those of the op's position in the
    # sequence: every earlier INSERT visible, no later one.
    inserts = max(8, int(spec["inserts_per_round"] * scale))
    selects = max(len(SHAPES), int(spec["selects_per_round"] * scale))
    step = SPAN_US // n_rows
    insert_span = spec["rounds"] * inserts * INSERT_ROWS * step
    cursor = BASE_TS + SPAN_US
    queries = iter(
        make_query_specs(
            rng, largest, spec["rounds"] * selects, BASE_TS, SPAN_US + insert_span
        )
    )
    for _ in range(spec["rounds"]):
        slots: list = tenant_sequence(rng, inserts) + [None] * selects
        rng.shuffle(slots)
        ops = []
        for tenant in slots:
            if tenant is None:
                query = next(queries)
                sql, params = render_select(query, scoped=True)
                ops.append(("select", query, sql, params, oracle.expected(query)))
                continue
            new_rows = [make_row(rng, tenant, cursor + i * step) for i in range(INSERT_ROWS)]
            cursor += INSERT_ROWS * step
            oracle.add(tenant, new_rows)
            inputs.written_bytes += user_bytes(new_rows)
            params = tuple(row[c] for row in new_rows for c in _INSERT_COLUMNS)
            ops.append(("insert", tenant, _INSERT_SQL, params, new_rows))
        inputs.rounds.append(ops)
    inputs.user_bytes += inputs.written_bytes
    return inputs


# -- one pass -----------------------------------------------------------------

# Host-speed reference: a fixed pure-Python loop, timed between the
# system's calls.  REF_NOMINAL_S is the loop on this host's fast state
# (best of 12 processes: 0.2001 ms); see README "Noise".
REF_LOOP = 6_000
REF_NOMINAL_S = 200e-6
REF_EVERY_S = 0.02


def _reference_loop() -> None:
    total = 0
    for i in range(REF_LOOP):
        total += i * i % 7


class HostSpeed:
    """How fast the host is running, sampled beside the timed calls.

    This host alternates between two speed states ~1.3x apart, for
    seconds or minutes at a time, and raw seconds follow it.  A sample
    is the best of three runs of the reference loop; a timed call's
    seconds are divided by (the samples around it / REF_NOMINAL_S), so
    what is reported is the call's cost on the host's fast state.
    """

    def __init__(self) -> None:
        self.at: list[float] = []
        self.loop_s: list[float] = []
        self.spent_s = 0.0

    def sample(self, force: bool = False) -> None:
        begin = time.perf_counter()
        if not force and self.at and begin - self.at[-1] < REF_EVERY_S:
            return
        best = 1.0
        for _ in range(3):
            start = time.perf_counter()
            _reference_loop()
            best = min(best, time.perf_counter() - start)
        self.loop_s.append(best)
        self.at.append(time.perf_counter())
        self.spent_s += self.at[-1] - begin

    def factor(self, start: float = 0.0, seconds: float = float("inf")) -> float:
        """Mean slowdown over the samples from just before a call to just
        after it (by default: over every sample)."""
        first = max(0, bisect_left(self.at, start) - 1)
        last = bisect_right(self.at, start + seconds) + 1
        window = self.loop_s[first:last]
        return sum(window) / len(window) / REF_NOMINAL_S


@dataclass
class PassRecord:
    """What one pass measured."""

    # One entry per timed call, in host-speed-scaled seconds (``finish``
    # fills them from ``raw``): puts / windows / INSERTs; flush+checkpoint
    # or background ticks; SELECTs.
    acks: list[float] = field(default_factory=list)
    archive_calls: list[float] = field(default_factory=list)
    query_s: list[float] = field(default_factory=list)
    # The same calls as measured: list name -> [(start, seconds)].
    raw: dict[str, list] = field(
        default_factory=lambda: {"acks": [], "archive_calls": [], "query_s": []}
    )
    put_rows: int = 0
    archive_rows: int = 0
    query_virtual_s: list[float] = field(default_factory=list)
    stored_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    untimed_s: float = 0.0  # scaled wall time outside timed calls and reference loops
    host_factor: float = 1.0  # raw timed seconds / scaled timed seconds
    counts: Counter = field(default_factory=Counter)  # from the system's public outputs
    speed: HostSpeed = field(default_factory=HostSpeed)

    @property
    def timed_s(self) -> float:
        return sum(self.acks) + sum(self.archive_calls) + sum(self.query_s)

    def fail(self, what: str, exc: BaseException | None = None) -> None:
        self.failed += 1
        if self.failed <= 3:  # enough to diagnose without flooding
            print(f"e2e: FAILED {what}", file=sys.stderr)
            if exc is not None:
                traceback.print_exception(exc, file=sys.stderr)

    def time_call(self, kind: str, what: str, call):
        """Time one call into the system; ``None`` when it raised."""
        self.attempted += 1
        self.speed.sample()
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a failed op is a counted result, not a crash
            self.fail(what, exc)
            return None
        self.raw[kind].append((start, time.perf_counter() - start))
        return result

    def finish(self, wall_s: float) -> None:
        self.speed.sample(force=True)
        raw_s = 0.0
        for kind, samples in self.raw.items():
            raw_s += sum(seconds for _, seconds in samples)
            setattr(
                self,
                kind,
                [seconds / self.speed.factor(start, seconds) for start, seconds in samples],
            )
        self.host_factor = raw_s / self.timed_s
        self.untimed_s = (wall_s - raw_s - self.speed.spent_s) / self.speed.factor()


def _timed_query(record: PassRecord, run, query: dict, expected) -> None:
    """Time one SELECT, then (untimed) compare it with the oracle."""
    result = record.time_call("query_s", f"query {query}", run)
    if result is None:
        return
    record.query_virtual_s.append(result.latency_s)
    counts = record.counts
    stats = result.stats
    counts["oss_bytes"] += result.bytes_fetched
    counts["oss_gets"] += result.oss_requests
    counts["cache_hits"] += result.cache_hits
    counts["cache_misses"] += result.cache_misses
    counts["prefetch_requests"] += stats.prefetch_requests
    counts["prefetch_bytes"] += stats.prefetch_bytes
    counts["rows_evaluated"] += (
        stats.rows_evaluated_vectorized + stats.rows_evaluated_interpreted
    )
    counts["rows_returned"] += len(result.rows)
    counts["blocks_pruned"] += stats.prune.blocks_pruned
    counts["blocks_scanned"] += stats.prune.blocks_scanned
    counts["realtime_rows"] += result.realtime_rows
    if not check(query, expected, result.rows):
        record.fail(f"wrong answer for {query}")


def _timed_archive(record: PassRecord, call) -> None:
    report = record.time_call("archive_calls", "archive", call)
    if report is not None:
        record.archive_rows += report.rows_archived
        record.counts["builder_blocks"] += report.blocks_written


def _flush_and_checkpoint(store):
    report = store.flush_all()
    store.checkpoint_all()
    return report


def _verify_durable(record: PassRecord, store, oracle: Oracle) -> None:
    """Every acked row is archived and counted; nothing is left behind."""
    record.attempted += 1
    if store.pending_rows() != 0:
        record.fail(f"pending_rows() == {store.pending_rows()} after the last flush")
    for tenant in sorted(oracle.tenants):
        record.attempted += 1
        try:
            rows = store.query(f"SELECT COUNT(*) FROM {TABLE} WHERE tenant_id = {tenant}").rows
        except Exception as exc:
            record.fail(f"COUNT(*) of tenant {tenant}", exc)
            continue
        got = rows[0]["COUNT(*)"] if rows else 0
        if got != oracle.count(tenant):
            record.fail(f"tenant {tenant}: COUNT(*) {got} != {oracle.count(tenant)} acked")


def run_pass(inputs: Inputs, tracer=None, obs: bool = True) -> PassRecord:
    """One fresh cluster through write, archive and read; see module doc."""
    from repro import LogStore

    wall_start = time.perf_counter()
    record = PassRecord()
    overrides = {} if obs else OBS_OFF
    store = LogStore.create(config=bench_config(**{**inputs.config, **overrides}))
    if inputs.kind == "sql":
        for tenant, batch in inputs.batches:
            store.put(tenant, batch)
        _flush_and_checkpoint(store)
        sessions = {
            tenant: store.connect(tenant, store.issue_token(tenant))
            for tenant in sorted(inputs.oracle.tenants)
        }
    oss_before = store.oss.stats.snapshot()
    gc.collect()
    if tracer is not None:
        tracer.start()
    try:
        if inputs.kind == "sql":
            _sql_stages(record, store, sessions, inputs)
        else:
            _api_stages(record, store, inputs)
    finally:
        if tracer is not None:
            tracer.stop()

    oss = store.oss.stats
    record.counts["oss_bytes_written"] = oss.bytes_written - oss_before.bytes_written
    record.counts["oss_virtual_s"] = oss.time_charged_s - oss_before.time_charged_s
    if inputs.kind == "sql":
        _flush_and_checkpoint(store)  # untimed: so the durable check sees every row
    record.stored_bytes = store.total_archived_bytes()
    _verify_durable(record, store, inputs.oracle)
    record.finish(time.perf_counter() - wall_start)
    return record


def _api_stages(record: PassRecord, store, inputs: Inputs) -> None:
    batches = inputs.batches
    if inputs.config.get("use_raft"):

        def put_window(window):
            for tenant, rows in window:
                store.put_nowait(tenant, rows)
            store.settle_writes()
            return sum(len(rows) for _, rows in window)

        units = [batches[i : i + RAFT_WINDOW] for i in range(0, len(batches), RAFT_WINDOW)]
        for window in units:
            acked = record.time_call("acks", "put_nowait window", lambda: put_window(window))
            record.put_rows += acked or 0
    else:
        for tenant, rows in batches:
            if record.time_call("acks", "put", lambda: store.put(tenant, rows)) is not None:
                record.put_rows += len(rows)
    _timed_archive(record, lambda: _flush_and_checkpoint(store))
    for query, sql, expected in inputs.reads:
        _timed_query(record, lambda: store.query(sql), query, expected)


def _sql_stages(record: PassRecord, store, sessions: dict, inputs: Inputs) -> None:
    for ops in inputs.rounds:
        for op in ops:
            if op[0] == "select":
                _, query, sql, params, expected = op
                session = sessions[query["tenant"]]
                _timed_query(record, lambda: session.execute(sql, params), query, expected)
                continue
            _, tenant, sql, params, rows = op
            session = sessions[tenant]
            result = record.time_call("acks", "INSERT", lambda: session.execute(sql, params))
            if result is None:
                continue
            if result.rows_inserted != len(rows):
                record.fail(f"INSERT acked {result.rows_inserted} of {len(rows)} rows")
            record.put_rows += result.rows_inserted
        _timed_archive(record, store.run_background_tasks)
