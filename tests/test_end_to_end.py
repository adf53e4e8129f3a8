"""End-to-end guards: the committed session corpora keep their report bytes,
the demos run and print their pinned output, and the package neither loads
nor needs numpy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from skewform.cli import main
from skewform.symexpr import parse_expr

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _env():
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def test_golden_session_report_bytes(monkeypatch, capsys):
    """`skewform check --json --seed 0` of the corpus: Poisson, Jacobian and
    determinant scans (float zero points), sampled zero tests, `classify
    ... on`, a metric signature and a catalog entry."""
    monkeypatch.chdir(ROOT)
    code = main(["check", "tests/data/golden_session.sf", "--json", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (ROOT / "tests" / "data" / "golden_session.json").read_text()


def test_golden_catalog_report_bytes(capsys):
    """`skewform catalog run --all --json --seed 3`: every catalog entry's
    checks, verdicts and metric duals."""
    code = main(["catalog", "run", "--all", "--json", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (ROOT / "tests" / "data" / "golden_catalog_seed3.json").read_text()


@pytest.mark.parametrize("name", ["golden_scans", "golden_scans_poisson"])
def test_golden_scan_report_bytes(name, monkeypatch, capsys):
    """`skewform check --json --seed 5` of polynomial determinant, Jacobian
    and Poisson scans.  Their zero points are floats, each polynomial summed
    term by term in descending `Monomial.sort_key()` order whatever order its
    `terms` dict was built in, so these bytes pin the float operations of
    the numeric evaluator and of the scan's root finding."""
    monkeypatch.chdir(ROOT)
    code = main(["check", f"tests/data/{name}.sf", "--json", "--seed", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (ROOT / "tests" / "data" / f"{name}.json").read_text()


def _scan_records(node):
    if isinstance(node, dict):
        if "zero_points" in node and "expression" in node:
            yield node
        for value in node.values():
            yield from _scan_records(value)
    elif isinstance(node, list):
        for value in node:
            yield from _scan_records(value)


@pytest.mark.parametrize("name", ["golden_session", "golden_scans", "golden_scans_poisson"])
def test_golden_scan_points_lie_on_their_locus(name):
    """Every zero point pinned in a golden report is on its scan's locus:
    |F| < tolerance there, F re-parsed from the record's expression."""
    records = list(_scan_records(json.loads((ROOT / "tests" / "data" / f"{name}.json").read_text())))
    assert any(r["zero_points"] for r in records)
    for record in records:
        F = parse_expr(record["expression"])
        for pt in record["zero_points"]:
            assert abs(F.eval({v: float(c) for v, c in pt.items()})) < record["tolerance"]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_output_bytes(demo):
    """Each demo is deterministic; its stdout is pinned in tests/data/demo_<name>.out."""
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (ROOT / "tests" / "data" / f"demo_{demo.stem}.out").read_text()


# a meta-path finder that makes every `import numpy` fail
_BLOCK_NUMPY = """
import sys

class BlockNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError("numpy is blocked")

sys.meta_path.insert(0, BlockNumpy())
"""


@pytest.mark.parametrize(
    "code",
    [
        "import skewform",
        "from skewform.cli import main; sys.exit(main(['catalog', 'run', '--all', '--json', '--seed', '3']))",
        "from skewform.cli import main; sys.exit(main(['check', 'tests/data/golden_session.sf', '--json']))",
    ],
    ids=["import", "catalog-run-all", "check-golden"],
)
def test_runs_without_numpy(code):
    def run(source):
        return subprocess.run(
            [sys.executable, "-c", _BLOCK_NUMPY + source], cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=120
        )

    blocked = run("import numpy")
    assert blocked.returncode != 0 and "numpy is blocked" in blocked.stderr
    proc = run(code)
    assert proc.returncode == 0, proc.stderr


def test_import_does_not_load_numpy():
    code = "import sys, skewform; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True, text=True, timeout=60)
    assert proc.stdout.strip() == "False", proc.stderr
