"""Every demo script runs to completion."""

import pathlib
import subprocess
import sys

import pytest

DEMOS = pathlib.Path(__file__).resolve().parents[1] / "demos"
RUNS = [[path.name] for path in sorted(DEMOS.glob("*.py"))]
RUNS.append(["qmean_limit.py", "--ellipse"])


@pytest.mark.parametrize("argv", RUNS, ids=" ".join)
def test_demo_exits_0(argv):
    proc = subprocess.run([sys.executable, str(DEMOS / argv[0]), *argv[1:]],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
