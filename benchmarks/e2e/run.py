#!/usr/bin/env python3
"""The repo's one host-time benchmark: put() -> OSS -> query, end to end.

Driver form (one workload, one process; see BENCHMARK.json)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

prints one JSON object as the last line of stdout: every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``.

Set form (all four workloads, one child process at a time)::

    python3 benchmarks/e2e/run.py [--seed N] [--traced] [--quick] [--label L]

writes ``results/<label>.json`` with ``{median, p25, p75, n, unit,
bound}`` per end-to-end metric.  ``--compare A.json B.json`` judges two
such files with the bounds in BENCHMARK.json.  README.md has the rest.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse
from collections import Counter
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:  # imported (test_smoke) rather than run as a script
    sys.path.insert(0, HERE)
ROOT = os.path.dirname(os.path.dirname(HERE))
RESULTS = os.path.join(HERE, "results")
QUICK_SCALE = 0.1
MIN_PASSES = 3

# name, unit, better, bound (share of the parent's median it may worsen by).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ingest_rows_per_s", "rows/s", "higher", 0.15),
    ("ack_p50_ms", "ms", "lower", 0.15),
    ("ack_p99_ms", "ms", "lower", 0.25),
    ("archive_rows_per_s", "rows/s", "higher", 0.20),
    ("write_path_rows_per_s", "rows/s", "higher", 0.20),
    ("queries_per_s", "1/s", "higher", 0.20),
    ("query_p50_ms", "ms", "lower", 0.25),
    ("query_p99_ms", "ms", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.20),
    ("query_virtual_mean_ms", "ms", "lower", 0.20),
    ("oss_bytes_per_query", "B", "lower", 0.20),
    ("stored_bytes_per_user_byte", "ratio", "lower", 0.01),
    ("peak_rss_mb", "MiB", "lower", 0.10),
)
# Counts taken at the span boundaries or from the system's public outputs.
LAYER_COUNTS = (
    ("raft.batches_per_entry", "ratio", "higher"),
    ("raft.messages_per_batch", "ratio", "lower"),
    ("wal.bytes_per_user_byte", "ratio", "lower"),
    ("wal.backend_appends", "count", "lower"),
    ("builder.blocks", "count", "lower"),
    ("builder.rows_per_block", "rows", "higher"),
    ("codec.ratio", "ratio", "higher"),
    ("oss.gets", "count", "lower"),
    ("oss.bytes_read", "B", "lower"),
    ("oss.bytes_written", "B", "lower"),
    ("oss.virtual_s", "s", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("prefetch.requests", "count", "lower"),
    ("prefetch.bytes", "B", "lower"),
    ("logblock.rows_evaluated_per_row_returned", "ratio", "lower"),
    ("logblock.blocks_pruned_ratio", "ratio", "higher"),
    ("cluster.realtime_rows_per_query", "rows", "lower"),
    ("cluster.background.max_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("obs.overhead_ratio", "ratio", "lower"),
    ("trace.missing_targets", "count", "lower"),
    ("trace.self_time_coverage", "ratio", "higher"),
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    from trace import SPAN_NAMES

    spec = []
    for span in SPAN_NAMES:
        spec.append((f"{span}.self_s", "s", "lower"))
        spec.append((f"{span}.calls", "count", "lower"))
    return spec + list(LAYER_COUNTS)


# -- statistics ---------------------------------------------------------------


def tail_ms(samples: list[float]) -> float:
    """p99 in ms, or the highest percentile with ten samples beyond it.

    A pass has 52 to 823 calls of a kind, not the 1 000 a p99 needs; the
    99th percentile of 90 queries is their maximum, which one GC pause
    moves by 2x.  So the rank is capped at ``n - 10`` (p94 of 180, p97 of
    360); README "Tail latencies" lists the percentile per workload.
    """
    ordered = sorted(samples)
    rank = min(math.ceil(0.99 * len(ordered)), len(ordered) - 10)
    return ordered[max(rank, len(ordered) // 2 + 1) - 1] * 1e3


def summary(values: list[float]) -> dict:
    """``median / p25 / p75 / n`` of one value per run."""
    if len(values) >= 2:
        p25, _, p75 = statistics.quantiles(values, n=4)
    else:
        p25 = p75 = values[0]
    return {"median": statistics.median(values), "p25": p25, "p75": p75, "n": len(values)}


def typical(records: list, attr: str) -> list[float]:
    """Each timed call's seconds: its median over the run's passes.

    Every pass issues the same calls in the same order, and the seconds
    are already scaled to the host's fast state (workloads.HostSpeed),
    so the median over passes only has to drop what hits one pass and
    not the next: a GC pause, a residual of the scaling.
    """
    return [
        statistics.median(samples)
        for samples in zip(*(getattr(record, attr) for record in records))
    ]


def typical_timed_s(records: list) -> float:
    return sum(sum(typical(records, attr)) for attr in ("acks", "archive_calls", "query_s"))


def end_to_end(records: list, user_bytes: int, once_s: float) -> dict[str, float]:
    """Every end-to-end metric of one run, from its untraced passes."""
    acks = typical(records, "acks")
    queries = typical(records, "query_s")
    put_s, archive_s, query_s = sum(acks), sum(typical(records, "archive_calls")), sum(queries)
    first = records[0]  # rows, counts and virtual time repeat exactly across passes
    setup_s = once_s + statistics.median(record.untimed_s for record in records)
    return {
        "setup_s": setup_s,
        "ingest_rows_per_s": first.put_rows / put_s,
        "ack_p50_ms": statistics.median(acks) * 1e3,
        "ack_p99_ms": tail_ms(acks),
        "archive_rows_per_s": first.archive_rows / archive_s,
        "write_path_rows_per_s": first.put_rows / (put_s + archive_s),
        "queries_per_s": len(queries) / query_s,
        "query_p50_ms": statistics.median(queries) * 1e3,
        "query_p99_ms": tail_ms(queries),
        "ops_per_s": (len(acks) + len(queries)) / (put_s + archive_s + query_s),
        "query_virtual_mean_ms": statistics.mean(first.query_virtual_s) * 1e3,
        "oss_bytes_per_query": first.counts["oss_bytes"] / len(queries),
        "stored_bytes_per_user_byte": first.stored_bytes / user_bytes,
        # Linux reports ru_maxrss in KiB.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_values(record, traced: dict, written_bytes: int) -> dict[str, float]:
    """One traced pass's per-layer metrics (all but the two overhead ratios)."""
    self_s, calls, counts = traced["self_s"], traced["calls"], traced["counts"]
    out: dict[str, float] = {}
    for span, seconds in self_s.items():
        out[f"{span}.self_s"] = seconds / record.host_factor  # same scale as timed_s
        out[f"{span}.calls"] = calls[span]
    public = record.counts
    n_queries = max(1, len(record.query_s))
    lookups = public["cache_hits"] + public["cache_misses"]
    blocks = public["blocks_pruned"] + public["blocks_scanned"]
    out.update(
        {
            "raft.batches_per_entry": counts["raft.batches"] / max(1, counts["raft.entries"]),
            "raft.messages_per_batch": calls["raft.send"] / max(1, counts["raft.batches"]),
            "wal.bytes_per_user_byte": counts["wal.backend_bytes"] / written_bytes,
            "wal.backend_appends": counts["wal.backend_appends"],
            "builder.blocks": public["builder_blocks"],
            "builder.rows_per_block": record.archive_rows / max(1, public["builder_blocks"]),
            "codec.ratio": counts["codec.in_bytes"] / max(1, counts["codec.out_bytes"]),
            "oss.gets": public["oss_gets"],
            "oss.bytes_read": public["oss_bytes"],
            "oss.bytes_written": public["oss_bytes_written"],
            "oss.virtual_s": public["oss_virtual_s"],
            "cache.hit_ratio": public["cache_hits"] / max(1, lookups),
            "prefetch.requests": public["prefetch_requests"],
            "prefetch.bytes": public["prefetch_bytes"],
            "logblock.rows_evaluated_per_row_returned": public["rows_evaluated"]
            / max(1, public["rows_returned"]),
            "logblock.blocks_pruned_ratio": public["blocks_pruned"] / max(1, blocks),
            "cluster.realtime_rows_per_query": public["realtime_rows"] / n_queries,
            "cluster.background.max_ms": max(record.archive_calls, default=0.0) * 1e3,
            "trace.missing_targets": len(traced["missing"]),
            "trace.self_time_coverage": sum(self_s.values())
            / (record.timed_s * record.host_factor),
        }
    )
    return out


# -- one workload, this process -----------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    """Run one workload's passes for ``seconds``; returns the detail document."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit("e2e: no src/repro beside benchmarks/e2e — run from a full checkout")
    if src not in sys.path:
        sys.path.insert(0, src)
    import repro  # noqa: F401  (import cost is part of set-up)
    from trace import Tracer
    from workloads import HostSpeed, prepare, run_pass

    # Set-up is scaled to the host's fast state like the timed calls,
    # from reference samples taken between its steps.
    speed = HostSpeed()
    speed.sample()
    if not quick:
        run_pass(prepare(workload, seed, QUICK_SCALE))  # untimed warm-up
        speed.sample(force=True)
    inputs = prepare(workload, seed, QUICK_SCALE if quick else 1.0)
    # The benchmark's own rows and answers stay out of the system's GC scans.
    gc.collect()
    gc.freeze()
    speed.sample(force=True)
    once_s = (time.perf_counter() - _PROCESS_START - speed.spent_s) / speed.factor()

    # With tracing, passes alternate so that the two overhead ratios
    # compare passes taken under the same machine conditions.
    arms = ("plain", "traced", "obs_off") if trace else ("plain",)
    records: dict[str, list] = {arm: [] for arm in arms}
    traced_passes: list[dict] = []
    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    done = 0
    longest = 0.0
    while True:
        arm = arms[done % len(arms)]
        pass_start = time.perf_counter()
        record = run_pass(
            inputs, tracer=tracer if arm == "traced" else None, obs=arm != "obs_off"
        )
        if arm == "traced":
            self_s, calls = tracer.aggregate()
            traced_passes.append(
                {"self_s": self_s, "calls": calls, "counts": Counter(tracer.counts),
                 "missing": list(tracer.missing)}
            )
        records[arm].append(record)
        done += 1
        longest = max(longest, time.perf_counter() - pass_start)
        enough = done >= (len(arms) if quick or trace else MIN_PASSES)
        if enough and (quick or time.perf_counter() + longest > deadline):
            break

    every = [record for arm in arms for record in records[arm]]
    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "quick": quick,
        "passes": {arm: len(records[arm]) for arm in arms},
        "attempted": sum(record.attempted for record in every),
        "failed": sum(record.failed for record in every),
    }
    if not trace:
        detail["end_to_end"] = end_to_end(records["plain"], inputs.user_bytes, once_s)
        return detail

    per_pass = [
        layer_values(record, traced, inputs.written_bytes)
        for record, traced in zip(records["traced"], traced_passes)
    ]
    layers = {name: statistics.median(v[name] for v in per_pass) for name in per_pass[0]}
    plain_s = typical_timed_s(records["plain"])
    layers["trace.overhead_ratio"] = typical_timed_s(records["traced"]) / plain_s
    layers["obs.overhead_ratio"] = plain_s / typical_timed_s(records["obs_off"])
    detail["per_layer"] = layers
    detail["missing_targets"] = traced_passes[-1]["missing"]
    os.makedirs(RESULTS, exist_ok=True)
    tracer.write_spans(os.path.join(RESULTS, f"spans-{workload}.jsonl"))
    return detail


def contract_line(detail: dict) -> str:
    """The driver's result object: exactly correct/attempted/failed/metrics."""
    if "per_layer" in detail:
        units = {name: unit for name, unit, _ in per_layer_spec()}
        values = detail["per_layer"]
    else:
        units = {name: unit for name, unit, _, _ in END_TO_END}
        values = detail["end_to_end"]
    return json.dumps(
        {
            "correct": detail["failed"] == 0,
            "attempted": detail["attempted"],
            "failed": detail["failed"],
            "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        }
    )


# -- the whole set, one child at a time -----------------------------------------


def run_child(workload: str, args, trace: int) -> dict:
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--detail",
    ]
    if args.quick:
        command.append("--quick")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        sys.exit(f"e2e: {workload} (trace={trace}) exited {done.returncode} with no result")
    return json.loads(lines[-2])


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_set(args) -> int:
    import numpy
    from workloads import BENCH_OVERRIDES, WORKLOADS

    bounds = {name: (unit, bound) for name, unit, _, bound in END_TO_END}
    document = {
        "stamp": {
            "commit": git_commit(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "cpu_count": os.cpu_count(),
            "seed": args.seed,
            "seconds_per_run": args.seconds,
            "runs_per_workload": 1 if args.quick else args.runs,
            "min_passes_per_run": MIN_PASSES,
            "quick": args.quick,
            "bench_config_overrides": BENCH_OVERRIDES,
        },
        "workloads": {},
    }
    failed = 0
    runs = 1 if args.quick else args.runs
    for workload in WORKLOADS:
        children = [run_child(workload, args, trace=0) for _ in range(runs)]
        attempted = sum(child["attempted"] for child in children)
        entry = {
            "passes_per_run": [child["passes"]["plain"] for child in children],
            "attempted": attempted,
            "failed": sum(child["failed"] for child in children),
            "end_to_end": {},
        }
        for name, (unit, bound) in bounds.items():
            metric = summary([child["end_to_end"][name] for child in children])
            metric["unit"], metric["bound"] = unit, bound
            entry["end_to_end"][name] = metric
            print(f"{workload:15} {name:28} {metric['median']:>14.4f} {unit}")
        if args.traced:
            traced = run_child(workload, args, trace=1)
            entry["per_layer"] = traced["per_layer"]
            entry["missing_targets"] = traced["missing_targets"]
            entry["traced_passes"] = traced["passes"]
            entry["failed"] += traced["failed"]
            attempted += traced["attempted"]
        entry["failed_ops_ratio"] = entry["failed"] / attempted
        failed += entry["failed"]
        document["workloads"][workload] = entry
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.label}.json")
    with open(path, "w") as out:
        json.dump(document, out, indent=1, sort_keys=True)
        out.write("\n")
    print(f"wrote {os.path.relpath(path)}; failed operations: {failed}")
    return 1 if failed else 0


# -- compare two result files ---------------------------------------------------


def compare(path_a: str, path_b: str) -> int:
    """One row per (workload, metric): both medians, B/A, ok|worse|unresolved."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        manifest = {m["name"]: m for m in json.load(handle)["end_to_end"]}
    with open(path_a) as handle:
        set_a = json.load(handle)["workloads"]
    with open(path_b) as handle:
        set_b = json.load(handle)["workloads"]
    worse = 0
    print(f"{'workload':15} {'metric':28} {'A':>13} {'B':>13} {'B/A':>7}  status")
    for workload, detail_a in set_a.items():
        detail_b = set_b[workload]
        for name, a in detail_a["end_to_end"].items():
            b = detail_b["end_to_end"][name]
            bound = manifest[name]["bound"]
            change = (b["median"] - a["median"]) / a["median"]
            if manifest[name]["better"] == "higher":
                change = -change
            spread = max((m["p75"] - m["p25"]) / m["median"] for m in (a, b))
            status = "unresolved" if spread > bound else "worse" if change > bound else "ok"
            worse += status == "worse"
            print(
                f"{workload:15} {name:28} {a['median']:>13.4f} {b['median']:>13.4f} "
                f"{b['median'] / a['median']:>7.3f}  {status}"
            )
        for which, detail in (("A", detail_a), ("B", detail_b)):
            if detail["failed"]:
                worse += 1
                print(f"{workload:15} {which}: {detail['failed']} failed operations  worse")
    return 1 if worse else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=1, help="input seed (2 is the hold-out)")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="set form: add per-layer runs")
    parser.add_argument("--quick", action="store_true", help="1/10 size, one pass, oracle on")
    parser.add_argument("--runs", type=int, default=5, help="set form: runs per workload")
    parser.add_argument("--label", default="latest", help="set form: results/<label>.json")
    parser.add_argument("--detail", action="store_true", help="also print the detail document")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        return run_set(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    detail = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    if args.detail:
        print(json.dumps(detail))
    print(contract_line(detail))
    return 1 if detail["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
