"""Wall-clock benchmark rig: real CPU seconds, not the virtual clock.

Every other bench in this directory measures *virtual* time — the cost
model charged to :class:`~repro.common.clock.VirtualClock`, which is
deliberately identical whether a scan runs vectorized or interpreted.
The vectorized kernels are *host CPU* optimizations, so this rig
measures them the only way that is honest:
``time.perf_counter`` (wall) and ``time.process_time`` (CPU) around the
real work.

Two kernels in isolation, both asserting byte-identical results between
arms (the full put → OSS → query path is ``benchmarks/e2e``):

* **scan** — a selective filter over the archived §6.3 corpus, run with
  ``use_vectorized_scan`` on vs off and otherwise identical options.
  The vectorized arm must evaluate at least 3x the rows per CPU second
  (>= 1x under ``BENCH_QUICK=1``, where timings are noise-dominated).
* **builder** — the archive encode path: columnar ingest +
  ``encode_kernels`` (``use_vectorized_encode`` on) vs the per-row,
  per-value interpreted encoder, asserting byte-identical packed
  LogBlocks member-by-member and >= 3x rows per CPU second.

Numbers land in ``BENCH_wallclock.json`` (committed from a full run).
"""

import json
import os
import random
import time

from harness import build_dataset, emit, make_env

from repro.logblock.schema import ColumnSpec, ColumnType, IndexType, TableSchema
from repro.logblock.writer import LogBlockWriter
from repro.oss.costmodel import free
from repro.oss.store import InMemoryObjectStore
from repro.query.executor import ExecutionOptions
from repro.query.sql import parse_sql
from repro.tarpack.reader import PackReader

QUICK = os.environ.get("BENCH_QUICK") == "1"
OUT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_wallclock.json")

SCAN_REPEATS = 2 if QUICK else 5
SCAN_QUERIES = 4 if QUICK else 12
BUILD_ROWS = 8_000 if QUICK else 40_000
BASE_TS = 1_605_052_800_000_000

RESULTS: dict = {"quick": QUICK, "cpu_count": os.cpu_count()}


def timed(fn, repeats: int):
    """Best-of-N wall and CPU seconds (min filters scheduler noise)."""
    best_wall = best_cpu = float("inf")
    result = None
    for _ in range(repeats):
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        result = fn()
        best_wall = min(best_wall, time.perf_counter() - wall0)
        best_cpu = min(best_cpu, time.process_time() - cpu0)
    return result, best_wall, max(best_cpu, 1e-9)


def scan_queries(dataset) -> list[str]:
    """Selective range filters over the largest tenants (most blocks).

    Narrow projection + a thin-tail latency threshold keep row
    materialization tiny, so the timed work is the scan itself — the
    path the kernels replace.
    """
    tenants = sorted(dataset.tenant_rows, key=dataset.tenant_rows.get, reverse=True)
    return [
        f"SELECT ts, latency FROM request_log WHERE tenant_id = {tenant} AND latency >= 450"
        for tenant in tenants[:SCAN_QUERIES]
    ]


def run_scan_arm(dataset, queries: list[str], vectorized: bool):
    """One arm: fresh env, warmed byte-cache, timed query sweep."""
    options = ExecutionOptions(
        # Index probes answer the predicate without scanning; turn them
        # off so both arms measure the scan path the kernels replace.
        use_indexes=False,
        use_vectorized_scan=vectorized,
    )
    env = make_env(dataset, free(), options)
    plans = [env.planner.plan(parse_sql(sql)) for sql in queries]
    for plan in plans:
        env.executor.execute(plan)  # warm the byte caches, untimed

    def sweep():
        rows_out: list[dict] = []
        scanned = vector_rows = interp_rows = 0
        for plan in plans:
            rows, stats = env.executor.execute(plan)
            rows_out.extend(rows)
            vector_rows += stats.rows_evaluated_vectorized
            interp_rows += stats.rows_evaluated_interpreted
            scanned += stats.rows_evaluated_vectorized + stats.rows_evaluated_interpreted
        return rows_out, scanned, vector_rows, interp_rows

    (rows_out, scanned, vector_rows, interp_rows), wall, cpu = timed(sweep, SCAN_REPEATS)
    return {
        "rows": rows_out,
        "rows_scanned": scanned,
        "rows_vectorized": vector_rows,
        "rows_interpreted": interp_rows,
        "wall_s": wall,
        "cpu_s": cpu,
        "rows_per_cpu_s": scanned / cpu,
    }


def test_scan_vectorized_vs_interpreted(capsys):
    dataset = build_dataset()
    queries = scan_queries(dataset)
    arms = {
        label: run_scan_arm(dataset, queries, vectorized)
        for label, vectorized in (("vectorized", True), ("interpreted", False))
    }
    vec, interp = arms["vectorized"], arms["interpreted"]

    # Byte-identical result sets, same rows scanned.
    assert json.dumps(vec["rows"], sort_keys=True) == json.dumps(
        interp["rows"], sort_keys=True
    )
    assert len(vec["rows"]) > 0
    assert vec["rows_scanned"] == interp["rows_scanned"] > 0
    # Each arm actually took its path.
    assert vec["rows_vectorized"] > 0
    assert interp["rows_vectorized"] == 0

    speedup = vec["rows_per_cpu_s"] / interp["rows_per_cpu_s"]
    floor = 1.0 if QUICK else 3.0
    assert speedup >= floor, (
        f"vectorized scan {speedup:.2f}x interpreted rows/CPU-s, need >= {floor}x"
    )

    RESULTS["scan"] = {
        "queries": len(queries),
        "rows_matched": len(vec["rows"]),
        "rows_scanned": vec["rows_scanned"],
        "speedup_rows_per_cpu_s": round(speedup, 2),
        "vectorized": _strip(vec),
        "interpreted": _strip(interp),
    }
    emit(
        capsys,
        "",
        "Wall-clock scan (archived, selective filter, indexes off):",
        f"  {'arm':<12} {'cpu_s':>9} {'wall_s':>9} {'rows/cpu-s':>14}",
        *(
            f"  {label:<12} {arm['cpu_s']:>9.4f} {arm['wall_s']:>9.4f}"
            f" {arm['rows_per_cpu_s']:>14,.0f}"
            for label, arm in arms.items()
        ),
        f"  speedup: {speedup:.2f}x rows per CPU second"
        f" over {vec['rows_scanned']:,} scanned rows (floor {floor}x)",
    )


def _strip(arm: dict) -> dict:
    out = {k: v for k, v in arm.items() if k != "rows"}
    out["wall_s"] = round(out["wall_s"], 6)
    out["cpu_s"] = round(out["cpu_s"], 6)
    out["rows_per_cpu_s"] = round(out["rows_per_cpu_s"], 0)
    return out


def builder_schema() -> TableSchema:
    """Request-metrics shape: every column the encode kernels cover.

    Free-text columns (PLAIN string blocks) fall back to the
    interpreted encoder by design and would measure the oracle against
    itself; the differential suite covers that path, this benchmark
    measures the kernels.
    """
    return TableSchema(
        name="request_metrics",
        columns=(
            ColumnSpec("tenant_id", ColumnType.INT64, index=IndexType.BKD),
            ColumnSpec("ts", ColumnType.TIMESTAMP, index=IndexType.BKD),
            ColumnSpec("ip", ColumnType.STRING, index=IndexType.INVERTED),
            ColumnSpec("api", ColumnType.STRING, index=IndexType.INVERTED),
            ColumnSpec("latency", ColumnType.INT64, index=IndexType.BKD),
            ColumnSpec("cpu_ms", ColumnType.FLOAT64, index=IndexType.NONE),
            ColumnSpec("fail", ColumnType.BOOL, index=IndexType.NONE),
        ),
    )


def builder_rows() -> list[dict]:
    rng = random.Random(7)
    return [
        {
            "tenant_id": 1 + i % 7,
            "ts": BASE_TS % 1_000_000_000 + i * 1_000,
            "ip": None if i % 97 == 0 else f"10.0.{i % 32}.{i % 200}",
            "api": f"/api/v{i % 8}",
            "latency": rng.randint(1, 500),
            "cpu_ms": rng.random() * 12.5,
            "fail": rng.random() < 0.05,
        }
        for i in range(BUILD_ROWS)
    ]


def pack_members(blob: bytes) -> dict[str, bytes]:
    store = InMemoryObjectStore()
    store.create_bucket("b")
    store.put("b", "k", blob)
    pack = PackReader(store, "b", "k")
    return {name: pack.read_member(name) for name in pack.member_names()}


def test_builder_encode_vectorized_vs_interpreted(capsys):
    schema = builder_schema()
    rows = builder_rows()
    columns = {col.name: [row[col.name] for row in rows] for col in schema.columns}

    # codec="none" and indexes off isolate the encode path: compression
    # and index *build* are byte-for-byte shared code in both arms and
    # would only dilute the ratio (`add_many` vs per-row index adds is
    # covered by the differential suite).
    def run_vectorized():
        writer = LogBlockWriter(
            schema, codec="none", block_rows=4096, build_indexes=False, vectorized=True
        )
        writer.append_columns(columns)
        return writer.finish(), writer.encode_stats

    def run_interpreted():
        writer = LogBlockWriter(
            schema, codec="none", block_rows=4096, build_indexes=False, vectorized=False
        )
        for row in rows:
            writer.append(row)
        return writer.finish(), writer.encode_stats

    (vec_blob, vec_stats), vec_wall, vec_cpu = timed(run_vectorized, SCAN_REPEATS)
    (int_blob, int_stats), int_wall, int_cpu = timed(run_interpreted, SCAN_REPEATS)

    # Byte-identical packed LogBlock, verified member-by-member first so
    # a divergence names the member, then as whole pack bytes.
    vec_members, int_members = pack_members(vec_blob), pack_members(int_blob)
    assert vec_members.keys() == int_members.keys()
    for name in int_members:
        assert vec_members[name] == int_members[name], f"member {name!r} diverged"
    assert vec_blob == int_blob
    # Each arm took its path.
    assert vec_stats.rows_vectorized > 0 and vec_stats.fallbacks == {}
    assert int_stats.rows_vectorized == 0

    speedup = (BUILD_ROWS / vec_cpu) / (BUILD_ROWS / int_cpu)
    floor = 1.0 if QUICK else 3.0
    assert speedup >= floor, (
        f"vectorized encode {speedup:.2f}x interpreted rows/CPU-s, need >= {floor}x"
    )

    RESULTS["builder"] = {
        "rows": BUILD_ROWS,
        "columns": len(schema.columns),
        "pack_bytes": len(vec_blob),
        "speedup_rows_per_cpu_s": round(speedup, 2),
        "vectorized": {
            "wall_s": round(vec_wall, 6),
            "cpu_s": round(vec_cpu, 6),
            "rows_per_cpu_s": round(BUILD_ROWS / vec_cpu, 0),
        },
        "interpreted": {
            "wall_s": round(int_wall, 6),
            "cpu_s": round(int_cpu, 6),
            "rows_per_cpu_s": round(BUILD_ROWS / int_cpu, 0),
        },
    }
    emit(
        capsys,
        "",
        f"Wall-clock builder encode ({BUILD_ROWS:,} rows x {len(schema.columns)} columns):",
        f"  vectorized  : {vec_cpu:.4f} cpu-s, {BUILD_ROWS / vec_cpu:>12,.0f} rows/cpu-s",
        f"  interpreted : {int_cpu:.4f} cpu-s, {BUILD_ROWS / int_cpu:>12,.0f} rows/cpu-s",
        f"  speedup: {speedup:.2f}x rows per CPU second,"
        f" byte-identical LogBlock (floor {floor}x)",
    )


def test_write_results_json(capsys):
    assert "scan" in RESULTS and "builder" in RESULTS
    with open(OUT_PATH, "w") as handle:
        json.dump(RESULTS, handle, indent=2, sort_keys=True)
        handle.write("\n")
    emit(capsys, "", f"wrote {os.path.normpath(OUT_PATH)}")
