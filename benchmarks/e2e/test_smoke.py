"""Smoke test so the benchmark cannot rot unnoticed.

Same code paths as a real run at 1/10 size, one pass per arm, oracle
still enforced; no timing is asserted.  Not collected by tier-1
(``testpaths = ["tests"]``); run it with::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py -q

(``PYTHONPATH`` is for ``benchmarks/conftest.py``, which pytest loads first.)
"""

import json
import os

import pytest

import run
from workloads import WORKLOADS


@pytest.mark.parametrize("trace", (False, True), ids=("end_to_end", "per_layer"))
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_quick_run_agrees_with_oracle(workload, trace):
    detail = run.measure(workload, seed=1, seconds=0.0, trace=trace, quick=True)
    assert detail["attempted"] > 0
    assert detail["failed"] == 0
    if trace:
        assert detail["missing_targets"] == []
    line = json.loads(run.contract_line(detail))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True


def test_manifest_matches_the_tables_in_run_py():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in manifest["end_to_end"]
    ] == list(run.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]
    ] == run.per_layer_spec()
