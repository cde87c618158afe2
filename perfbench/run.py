"""Layered benchmark of resolvent-asym.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition runs in a fresh interpreter (perfbench/worker.py) with the
environment a user has: the package's kernel tables and memo caches live in
the process, so every command line invocation pays for them again, and
repeating in-process would hide that cost after the first pass.

--trace 0 repeats untraced passes for about S seconds (at least three) and
reports the end-to-end metrics: the median pass time (run_s), the median
time from interpreter start to imported package and generated inputs
(setup_s) and the median peak RSS (peak_rss_mib).  --trace 1 runs one
traced pass, which gives the per-layer metrics, then untraced passes for the
rest of S; the tracing overhead is the traced pass time minus the untraced
median.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics, as BENCHMARK.json names them.  A per-layer
metric whose function no longer exists is null in the full report, written
to .perfbench_out/, and 0 in that last line.  The run exits non-zero,
without a result line, when the package cannot be built from the checkout or
a repetition fails to complete.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import SIZES, WORKLOADS  # noqa: E402

OUT_DIR = ".perfbench_out"
MIN_REPS = 3
# every run must end within 180 s; leave room for the report
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _git_commit(root: str) -> Optional[str]:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _environment(root: str, worker: Dict) -> Dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": worker.get("numpy"),
        "scipy": worker.get("scipy"),
        "git_commit": _git_commit(root),
    }


def _repetition(args, traced: bool, env: Dict, deadline: float) -> Dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size]
    if traced:
        cmd += ["--trace", "--spans",
                os.path.join(OUT_DIR, f"spans-{args.workload}.npz")]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the next repetition")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"repetition did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"repetition exited with {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    try:
        rep = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchError(f"repetition printed no result:\n{proc.stdout[-2000:]}")
    rep["setup_s"] = rep.pop("ready_monotonic") - started
    return rep


def _spread(values: List[float]) -> Dict:
    q = (statistics.quantiles(values, n=4) if len(values) > 1
         else [values[0]] * 3)
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "min": min(values), "max": max(values), "n": len(values)}


def measure(args) -> tuple:
    """Run the repetitions; returns (report, result line)."""
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "resolvent_asym",
                                       "__init__.py")):
        raise BenchError(f"no src/resolvent_asym package under {root}; run "
                         "from the root of a checkout")
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(OUT_DIR, exist_ok=True)
    env = dict(os.environ)
    env.pop("RESOLVENT_ASYM_THREADS", None)

    begin = time.monotonic()
    deadline = begin + DEADLINE_S
    traced = None
    if args.trace:
        traced = _repetition(args, True, env, deadline)
    reps: List[Dict] = []
    min_reps = 1 if args.trace else MIN_REPS
    while True:
        t0 = time.monotonic()
        reps.append(_repetition(args, False, env, deadline))
        took = time.monotonic() - t0
        if (len(reps) >= min_reps
                and time.monotonic() - begin + took > args.seconds):
            break

    every = reps + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in every)
    failures = [f for r in every for f in r["failures"]]
    summary = {k: _spread([r[k] for r in reps])
               for k in ("run_s", "setup_s", "peak_rss_mib")}
    if args.trace:
        layers = dict(traced["layers"])
        layers["trace.run_s"] = traced["run_s"]
        layers["trace.overhead_s"] = (traced["run_s"]
                                      - summary["run_s"]["median"])
        wanted, values = spec["per_layer"], layers
    else:
        wanted = spec["end_to_end"]
        values = {k: v["median"] for k, v in summary.items()}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "environment": _environment(root, reps[0]),
        "inputs": reps[0]["inputs"],
        "end_to_end": summary,
        "failed_ops": len(failures) / attempted if attempted else None,
        "failures": failures,
        "metrics": metrics,
        "null_metrics": sorted(k for k, v in metrics.items()
                               if v["value"] is None),
        "missing_functions": traced["missing"] if traced else None,
        "repetitions": [{k: r[k] for k in ("run_s", "setup_s",
                                           "peak_rss_mib", "attempted")}
                        for r in reps],
    }
    line = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": 0.0 if v["value"] is None else v["value"],
                        "unit": v["unit"]} for k, v in metrics.items()},
    }
    return report, line


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Layered benchmark of resolvent-asym.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="smoke: reduced inputs for the benchmark's test")
    args = parser.parse_args(argv)
    try:
        report, line = measure(args)
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    path = os.path.join(OUT_DIR, f"report-{args.workload}-seed{args.seed}-"
                                 f"trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    e2e = report["end_to_end"]
    print(f"{args.workload} seed={args.seed}: run_s median "
          f"{e2e['run_s']['median']:.4f} (q1 {e2e['run_s']['q1']:.4f}, "
          f"q3 {e2e['run_s']['q3']:.4f}, n={e2e['run_s']['n']}), "
          f"failed_ops {report['failed_ops']}; report {path}")
    print(f"environment: {json.dumps(report['environment'], sort_keys=True)}")
    for failure in report["failures"]:
        print(f"FAILED {failure}")
    if report["null_metrics"]:
        print(f"null metrics: {', '.join(report['null_metrics'])}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
