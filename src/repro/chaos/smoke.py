"""Chaos smoke harness: ``python -m repro.chaos.smoke``.

Runs a matrix of scenarios × seeds, prints one summary per run, and
exits non-zero if any invariant was violated.  With ``--trace-dir``
every run's event journal is dumped to
``<dir>/<scenario>-seed<seed>.journal``.  Two same-seed runs must write
identical directories (whole-cluster determinism), and a failed run's
dump is an exact repro recipe (re-run the same scenario and seed).
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.chaos.runner import ChaosRunner
from repro.chaos.scenarios import SCENARIOS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.chaos.smoke", description="Run chaos scenarios and check invariants."
    )
    parser.add_argument(
        "--scenario",
        action="append",
        dest="scenarios",
        metavar="NAME",
        help="scenario to run (repeatable; default: all)",
    )
    parser.add_argument(
        "--seeds", default="0,1", help="comma-separated seeds (default: 0,1)"
    )
    parser.add_argument(
        "--trace-dir", default=None, help="write each run's journal dump here"
    )
    parser.add_argument(
        "--list", action="store_true", help="list scenarios and exit"
    )
    args = parser.parse_args(argv)

    if args.list:
        for name in sorted(SCENARIOS):
            print(f"{name}: {SCENARIOS[name].description}")
        return 0

    names = args.scenarios or sorted(SCENARIOS)
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        print(f"unknown scenario(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    seeds = [int(part) for part in args.seeds.split(",") if part.strip()]

    trace_dir = None
    if args.trace_dir:
        trace_dir = pathlib.Path(args.trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)

    failures = 0
    for name in names:
        for seed in seeds:
            result = ChaosRunner(name, seed=seed).run()
            print(result.summary())
            if trace_dir is not None:
                path = trace_dir / f"{name}-seed{seed}.journal"
                path.write_text(result.journal.dump())
            if not result.ok:
                failures += 1
    print(f"\n{len(names) * len(seeds)} run(s), {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
