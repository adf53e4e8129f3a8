"""Benchmark self-test: `python -m pytest perfbench/test_smoke.py`.

Runs every workload once at its smallest size, traced and untraced, and
fails if a correctness gate fails or a printed metric name is not the one
BENCHMARK.json declares.
"""

import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def test_smoke():
    proc = subprocess.run([sys.executable, RUN, "--smoke"], capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "smoke: ok"
