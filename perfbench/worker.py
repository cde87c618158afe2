"""One repetition of one workload in a fresh interpreter.

Usage (from the root of a checkout):
    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--size S]

Imports the package from the checkout's ``src``, generates the inputs,
reports the monotonic clock reading at that point (the caller subtracts its
own reading from before the interpreter started), runs one pass and prints
one JSON line: run seconds, peak RSS, checked operations and, when traced,
the per-layer metrics.  Exits 2 when the package cannot be imported from
the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time

MODULES = ("params", "quadrature", "special", "radial", "barriers",
           "geometry", "qmeans", "experiments", "cli")


def _import_package(root: str) -> None:
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    try:
        pkg = importlib.import_module("resolvent_asym")
        for mod in MODULES:
            importlib.import_module(f"resolvent_asym.{mod}")
    except ImportError as exc:
        sys.exit(f"cannot import resolvent_asym from {src}: {exc}")
    where = os.path.realpath(pkg.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        sys.exit(f"resolvent_asym was imported from {where}, not from {src}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="write the traced spans to this .npz")
    args = parser.parse_args()

    root = os.getcwd()
    _import_package(root)
    import workloads
    inputs = workloads.make_inputs(args.workload, args.seed, args.size)
    os.makedirs(workloads.WORK_DIR, exist_ok=True)
    ready = time.monotonic()

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    checks = workloads.Checks()
    start = time.perf_counter()
    workloads.PASSES[args.workload](inputs, checks)
    run_s = time.perf_counter() - start

    result = {
        "ready_monotonic": ready,
        "run_s": run_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "attempted": checks.attempted,
        "failures": checks.failures,
        "inputs": inputs,
        "numpy": sys.modules["numpy"].__version__,
        "scipy": sys.modules["scipy"].__version__,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.summarise()
        result["missing"] = tracer.missing
        if args.spans:
            tracer.save(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
