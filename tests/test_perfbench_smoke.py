"""The benchmark's own gates, run as a tier-1 test: `perfbench/run.py
--smoke` runs every workload once at its smallest size, traced and
untraced, and checks the correctness gates and the metric names and units
against BENCHMARK.json.  Its inputs are generated with sympy."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke():
    pytest.importorskip("sympy")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "smoke: ok"
