"""Smoke test of the benchmark: every workload at reduced size.

Run from the root of a checkout (not part of the tier-1 suite):
    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric BENCHMARK.json names is emitted with its unit, that
no checked operation fails under two seeds, that the per-layer counts of two
traced runs with the same seed are identical, and that the benchmark refuses
to run without the package sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
COUNT_UNITS = ("count", "B")


def run(workload, seed, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=175)


def result(workload, seed, trace):
    proc = run(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True, proc.stdout
    assert line["failed"] == 0
    assert line["attempted"] >= 1
    return line


def check_names(line, specs):
    assert set(line["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        value = line["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload(workload):
    e2e = result(workload, 12, 0)
    check_names(e2e, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in e2e["metrics"].values())

    first, second = result(workload, 11, 1), result(workload, 11, 1)
    check_names(first, SPEC["per_layer"])
    counts = [m["name"] for m in SPEC["per_layer"]
              if m["unit"] in COUNT_UNITS]
    assert counts
    assert ({n: first["metrics"][n]["value"] for n in counts}
            == {n: second["metrics"][n]["value"] for n in counts})


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(SPEC["workloads"][0]["name"], 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
