"""``tools/seeds.py`` runs the validation battery over a seed range and
prints each row's failures and its worst error/tolerance."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import laglab.validation
from laglab.errors import PositivityLost
from laglab.validation import CheckResult, SuiteReport

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "seeds.py"
spec = importlib.util.spec_from_file_location("seeds", TOOL)
seeds = importlib.util.module_from_spec(spec)
spec.loader.exec_module(seeds)

ROW = re.compile(
    r"(\S+) +failed (\d+) of 2(?: \(seeds [\d, ]+\))?; "
    r"worst error/tolerance (\S+) at seed ([01])"
)


def test_seeds_tool_sweeps_two_seeds(small_counts):
    done = subprocess.run(
        [sys.executable, str(TOOL), "32", "0", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    lines = done.stdout.strip().splitlines()
    header = re.fullmatch(r"seeds 0-1 at 32\^2: 2 runs, (\d+) failed.*", lines[0])
    assert header, done.stdout[-2000:] + done.stderr[-2000:]
    rows = [ROW.fullmatch(line) for line in lines[1:]]
    assert all(rows), lines
    assert [row[1] for row in rows] == [r.name for r in run_names()]
    assert all(float(row[3]) >= 0.0 for row in rows)
    assert done.returncode == (1 if int(header[1]) else 0)


def run_names():
    """The battery's rows at a small config, for their names and order."""
    cfg = laglab.validation.SuiteConfig(grid_points=16, seed=0)
    return laglab.validation.run_suite(cfg).results


def test_sweep_reports_failing_seeds_nan_errors_and_raises(monkeypatch):
    def fake_run_suite(cfg):
        if cfg.seed == 2:
            raise PositivityLost(0.5, "positivity lost at t = 0.5")
        error = {0: 1e-7, 1: float("nan"), 3: 2e-6}[cfg.seed]
        rows = (
            CheckResult("dtheta[flat_zero]", error, error, 1e-6, "abs", error <= 1e-6, {}),
            CheckResult("bianchi", 0.0, 0.0, 1e-8, "rel", cfg.seed != 0, {}),
        )
        return SuiteReport(cfg, rows)

    monkeypatch.setattr(laglab.validation, "run_suite", fake_run_suite)
    rows, raised = seeds.sweep(32, range(4))
    assert list(rows) == ["dtheta[flat_zero]", "bianchi"]
    failed, (ratio, at) = rows["dtheta[flat_zero]"]
    assert failed == [1, 3] and ratio == float("inf") and at == 1
    failed, (ratio, at) = rows["bianchi"]
    assert failed == [0] and ratio == 0.0 and at == 0
    assert list(raised) == [2] and "PositivityLost" in raised[2]
