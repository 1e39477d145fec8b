"""``tools/faults.py`` runs a benchmark workload in process and prints its
median job time and minor page faults per job."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_faults_tool_runs_a_tiny_workload():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "faults.py"), "scan3d", "--tiny", "--jobs", "2"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    line = done.stdout.strip().splitlines()[-1]
    match = re.fullmatch(
        r"scan3d seed 1 tiny: 2 jobs, median job (\S+) s, "
        r"median ([\d,]+) minor faults per job, 0 failed",
        line,
    )
    assert match, line
    assert float(match[1]) > 0.0
    assert int(match[2].replace(",", "")) > 0
