"""Compare the canonical report bytes of two laglab trees.

    python tools/report_diff.py PARENT CHANGE

PARENT and CHANGE are checkouts of the repository.  Each tree runs the same
fixed job list in a fresh interpreter, with its own ``src`` on the import
path and its own ``perfbench/workloads.py`` for the benchmark workload
configs: the validation battery at seed/grid 3/32, 7/64 and 41/64, the
``geodesic`` and ``scan3d`` workloads at seeds 1 and 41, ``sectional``,
``curvature`` and reversed 20-step ``geodesic`` jobs at n = 1, n = 2 (flat
and twisted) and n = 3, and two ``mirror`` jobs through ``run`` (the README's Pauli plane
at the 2x2 identity, and a two-point 3x3 family with ``zeta`` and
``lambda`` given), and two ``geodesic`` jobs at 32^2 that fail on purpose:
a stage that loses positivity (exit 3) and a rejected step (exit 4).  That
makes 23 reports, covering the flat and twisted branches of the graph build
and the w-field at every dimension, the Hermitian finite-difference oracle
and the failure paths of geodesic shooting.  Every report starts with the
job's exit line, which carries what the job wrote to standard error; the
rest is serialised by the tree's own ``laglab.cli.report_bytes`` (which
leaves out the timing) with the job's temporary directory replaced by
``<tmp>``; the ``scan3d`` report carries the bytes of its CSV file after
it.  For each
report that differs the tool prints a diff and a summary: how many numeric
leaves (CSV cells included) differ, the largest relative difference
|a - b| / max(|a|, |b|) and the leaf it is at, and whether any non-numeric
leaf (the exit line included) or the structure differs.  It exits 1 if any
report differs, else prints one line per report and exits 0.
"""

from __future__ import annotations

import csv
import difflib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# Separates a report's JSON from each output file appended after it; JSON
# text escapes its newlines, so the mark cannot occur inside the report.
FILE_MARK = "\n--- file "

# Runs inside each tree: argv[1] is the tree root, argv[2] the file mark.
# Prints {name: report}.
CHILD = r'''
import contextlib, io, json, sys, tempfile
from pathlib import Path

root = Path(sys.argv[1])
FILE_MARK = sys.argv[2]
sys.path.insert(0, str(root / "perfbench"))
import workloads
from laglab.cli import main, report_bytes


def terms(*waves, coefficient=1.0):
    return [{"coefficient": coefficient, "wavevector": list(w), "phase": "cos"} for w in waves]


def geometry(n, eps):
    unit = [tuple(int(a == b) for b in range(n)) for a in range(n)]
    return {
        "model": {"n": n, "period": workloads.TWO_PI, "twist_amplitude": eps, "twist_mode": 1},
        "grid": {"points": 32 if n == 3 else 64},
        "potential": terms((1,) * n, coefficient=0.2),
        "functions": {"h": terms(unit[0]), "k": terms(unit[-1], (2,) * n),
                      "l": terms(*unit, coefficient=0.5)},
    }


GEOMETRIES = {"n1": (1, 0.0), "n2_flat": (2, 0.0), "n2_twisted": (2, 0.1), "n3": (3, 0.1)}
JOBS = {
    "sectional": {"h": "h", "k": "k"},
    "curvature": {"h": "h", "k": "k", "l": "l", "m": "h", "include_field": False},
    "geodesic": {"h0": "h", "time": 0.1, "steps": 20, "reverse": True},
}

# The README's Pauli plane, and a two-point 3x3 family; entries are numbers
# or [re, im] pairs.
MIRRORS = {
    "pauli": {"weights": [1.0], "H": [[[1, 0], [0, 1]]], "xi": [[[0, 1], [1, 0]]],
              "eta": [[[0, [0, -1]], [[0, 1], 0]]]},
    "two_point_3x3": {
        "weights": [1.0, 0.5],
        "H": [[[2, [0.5, 0.5], 0], [[0.5, -0.5], 1.5, 0.3], [0, 0.3, 1]],
              [[1, 0.2, [0, 0.4]], [0.2, 2, 0], [[0, -0.4], 0, 1.2]]],
        "xi": [[[1, 0, 0.5], [0, -1, [0, 0.3]], [0.5, [0, -0.3], 0]],
               [[0, 1, 0], [1, 0, 0], [0, 0, 0.5]]],
        "eta": [[[0, [0, -1], 0], [[0, 1], 0, 0], [0, 0, 1]],
                [[0.3, 0, [0.2, 0.2]], [0, -0.5, 0], [[0.2, -0.2], 0, 0]]],
        "zeta": [[[0, 0, 1], [0, 0.5, 0], [1, 0, -0.5]],
                 [[1, [0, 0.5], 0], [[0, -0.5], 0, 0.2], [0, 0.2, -1]]],
        "lambda": [[[0.2, 0.4, 0], [0.4, 0, [0, -1]], [0, [0, 1], 0.1]],
                   [[0, 0, 0.7], [0, 1, 0], [0.7, 0, 0]]],
    },
}

# Geodesic jobs that fail on purpose, at 32^2: (potential, h0, twist
# amplitude, time, steps).  Near the edge of the positive locus a twisted
# shot loses positivity at a mid-step stage after 7 steps (exit 3); a flat
# shot with a large velocity has its 76th step rejected for its energy jump
# (exit 4).
FAILING = {
    "positivity_lost": (terms((1, 0), (0, 1), coefficient=0.95),
                        terms((1, 0), (0, 1), coefficient=0.2), 0.1, 0.5, 20),
    "step_rejected": (terms((1, 1), coefficient=0.2),
                      terms((1, 0), (0, 1), coefficient=2.0), 0.0, 1.0, 200),
}

reports = {}


def run(name, workdir, argv, report_path, *files):
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    text = report_bytes(json.loads(report_path.read_text())).decode() if report_path.exists() else ""
    for path in files:
        text += f"{FILE_MARK}{path.name}\n" + (path.read_text() if path.exists() else "")
    stderr = err.getvalue()
    exit_line = f"exit {code}" + (f" stderr {json.dumps(stderr)}" if stderr else "")
    reports[name] = f"{exit_line}\n" + text.replace(str(workdir), "<tmp>")


for seed, points in ((3, 32), (7, 64), (41, 64)):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "validation_report.json"
        run(f"validate_{seed}_{points}", tmp,
            ["validate", "--seed", str(seed), "--grid", str(points), "-o", str(out)], out)
for name in ("geodesic", "scan3d"):
    for seed in (1, 41):
        with tempfile.TemporaryDirectory() as tmp:
            workload = workloads.WORKLOADS[name](Path(tmp), seed)
            workload.prepare()
            run(f"{name}_{seed}", tmp, workload.argv(), *workload.outputs())
for job, params in JOBS.items():
    for label, (n, eps) in GEOMETRIES.items():
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = Path(tmp) / "config.json", Path(tmp) / "report.json"
            cfg.write_text(json.dumps(dict(geometry(n, eps), job=job, params=params)))
            run(f"{job}_{label}", tmp, ["run", str(cfg), "-o", str(out)], out)
for label, (potential, h0, eps, total_time, steps) in FAILING.items():
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "config.json", Path(tmp) / "report.json"
        model = {"n": 2, "period": workloads.TWO_PI, "twist_amplitude": eps, "twist_mode": 1}
        cfg.write_text(json.dumps({
            "model": model, "grid": {"points": 32}, "potential": potential,
            "functions": {"h": h0}, "job": "geodesic",
            "params": {"h0": "h", "time": total_time, "steps": steps},
        }))
        run(f"geodesic_{label}", tmp, ["run", str(cfg), "-o", str(out)], out)
for label, params in MIRRORS.items():
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "config.json", Path(tmp) / "report.json"
        cfg.write_text(json.dumps({"job": "mirror", "params": params}))
        run(f"mirror_{label}", tmp, ["run", str(cfg), "-o", str(out)], out)

print(json.dumps(reports))
'''


def reports_of(tree: Path) -> dict[str, str]:
    """Run the job list in a fresh interpreter on ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    with tempfile.TemporaryDirectory() as cwd:
        done = subprocess.run(
            [sys.executable, "-c", CHILD, str(tree), FILE_MARK],
            cwd=cwd, env=env, capture_output=True, text=True,
        )
    if done.returncode != 0:
        sys.exit(f"job list failed on {tree}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def _leaves(node, path: str = "") -> dict:
    """Every leaf of a parsed report, keyed by its path."""
    if isinstance(node, dict):
        items = ((f"{path}.{key}" if path else key, value) for key, value in node.items())
    elif isinstance(node, list):
        items = ((f"{path}[{i}]", value) for i, value in enumerate(node))
    else:
        return {path: node}
    return {leaf: value for sub, child in items for leaf, value in _leaves(child, sub).items()}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def summarize(old: str, new: str) -> str:
    """One line quantifying how two reports (the exit line, the report JSON, then
    each appended output file, a CSV table) differ."""
    def parse(text: str) -> dict:
        head, _, body = text.partition("\n")
        body, *files = body.split(FILE_MARK)
        tables = {}
        for part in files:
            name, _, content = part.partition("\n")
            tables[name] = [[_cell(c) for c in row] for row in csv.reader(content.splitlines())]
        report = json.loads(body) if body else None
        return _leaves({"exit": head, "report": report, "files": tables})

    before, after = parse(old), parse(new)
    other = before.keys() != after.keys()
    numeric, worst, where = 0, 0.0, None
    for path in sorted(before.keys() & after.keys()):
        a, b = before[path], after[path]
        if a == b or (a != a and b != b):  # equal, or both NaN
            continue
        if not (_is_number(a) and _is_number(b)):
            other = True
            continue
        numeric += 1
        rel = abs(a - b) / max(abs(a), abs(b))
        if where is None or rel > worst:
            worst, where = rel, path
    largest = f"{worst:.1e} at {where}" if where else "none"
    return (f"        {numeric} numeric leaves differ; largest relative difference {largest}; "
            f"non-numeric leaf or structure differs: {'yes' if other else 'no'}\n")


def main() -> int:
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    parent, change = (Path(arg).resolve() for arg in sys.argv[1:])
    before, after = reports_of(parent), reports_of(change)
    differing = 0
    for name in sorted(before.keys() | after.keys()):
        old, new = before.get(name, ""), after.get(name, "")
        if old == new:
            print(f"same    {name} ({len(new)} bytes)")
            continue
        differing += 1
        print(f"DIFFERS {name}")
        sys.stdout.writelines(difflib.unified_diff(
            old.splitlines(keepends=True), new.splitlines(keepends=True),
            f"{parent.name}/{name}", f"{change.name}/{name}",
        ))
        sys.stdout.write(summarize(old, new))
    print(f"{differing} of {len(before.keys() | after.keys())} reports differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
