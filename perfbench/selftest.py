"""Self-test of the benchmark at tiny sizes (about a minute on two cores).

    python3 perfbench/selftest.py

Checks that
  * every run prints, as its last line, exactly the metric names and units
    that BENCHMARK.json lists for its trace mode, with correct = true;
  * the traced counts match what the code implies (5 builds per RK4 step,
    one build per scan, no curvature calls on geodesic, no hermitian calls
    outside validate);
  * corrupted reports (inflated drift, flipped sectional sign, a failed or
    out-of-tolerance validation check, a loosened tolerance) fail the
    output checks;
  * without the laglab sources the benchmark exits nonzero and prints no
    result.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, list[str]]:
    out = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False)
    return out.returncode, out.stdout.strip().splitlines()


def check_outputs(spec: dict):
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, lines = run_benchmark(workload, trace)
            assert code == 0, f"{workload} trace={trace}: exit {code}"
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True and result["failed"] == 0, result
            assert isinstance(result["attempted"], int) and result["attempted"] >= 1
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            assert units == expected[trace], (
                f"{workload} trace={trace}: metric names or units differ from "
                f"BENCHMARK.json: {sorted(set(units) ^ set(expected[trace]))}")
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (name, m)
            if trace:
                check_counts(workload, {k: m["value"] for k, m in result["metrics"].items()})
            print(f"ok  {workload} trace={trace}: {len(units)} metrics")


def check_counts(workload: str, metrics: dict):
    def calls(layer: str) -> float:
        return sum(v for k, v in metrics.items()
                   if k.startswith(layer + ".") and k.endswith(".calls"))

    if workload == "geodesic":
        assert metrics["connection.builds_per_step"] == 5.0, metrics["connection.builds_per_step"]
        assert calls("curvature") == 0
    if workload == "scan3d":
        assert metrics["lagrangian.GraphLagrangian.__init__.calls"] == 1
    if workload != "validate":
        assert calls("hermitian") == 0
    else:
        assert calls("hermitian") > 0 and calls("validation") > 0
    assert calls("torus") > 0 and calls("cli") > 0


def check_corruption():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import laglab.cli
    from workloads import WORKLOADS

    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        loaded = {}
        for name, cls in WORKLOADS.items():
            workload = cls(Path(tmp), seed=3, tiny=True)
            workload.prepare()
            with contextlib.redirect_stdout(io.StringIO()):
                assert laglab.cli.main(workload.argv()) == 0, name
            assert all(c.passed for c in workload.check()), name
            loaded[name] = workload

        def corrupt(workload, path: Path, edit, failing: str):
            original = path.read_text()
            try:
                path.write_text(edit(original))
                bad = {c.name for c in workload.check() if not c.passed}
                assert failing in bad, f"{failing} not among failed checks {bad}"
            finally:
                path.write_text(original)
            print(f"ok  corrupted {path.name}: {failing} fails")

        def report_edit(update):
            def edit(text):
                doc = json.loads(text)
                update(doc["results"])
                return json.dumps(doc)
            return edit

        geo = loaded["geodesic"]
        corrupt(geo, geo.report_path,
                report_edit(lambda r: r.update(energy_drift=1e-3)), "geodesic_energy")
        corrupt(geo, geo.report_path,
                report_edit(lambda r: r.update(reversal_error_sup=1e-3)), "geodesic_reversal")

        scan = loaded["scan3d"]
        ref = scan.reference_ids[0]

        def flip(rows):
            rows["pairs"][ref]["sectional"] *= -1.0

        corrupt(scan, scan.report_path, report_edit(flip), "scan_nonpositive")
        corrupt(scan, scan.report_path, report_edit(flip), "scan_pairing_route")
        corrupt(scan, scan.report_path, report_edit(flip), "scan_csv_matches_json")

        val = loaded["validate"]
        corrupt(val, val.report_path,
                report_edit(lambda r: r.update(all_passed=False)), "validate_all_passed")

        def inflate(results):
            check = results["checks"][0]
            check["error_" + check["measure"]] = 10.0 * check["tolerance"]

        def loosen(results):
            check = results["checks"][0]
            check["error_" + check["measure"]] = 10.0 * check["tolerance"]
            check["tolerance"] = 1.0

        first = json.loads(val.report_path.read_text())["results"]["checks"][0]["name"]
        corrupt(val, val.report_path, report_edit(inflate), first)
        corrupt(val, val.report_path, report_edit(loosen), first)


def check_without_sources(spec: dict):
    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = run_benchmark("geodesic", 0, cwd=bare)
        assert code != 0, "benchmark succeeded without sources"
        assert not any(line.startswith("{") for line in lines), lines
    print("ok  no sources: nonzero exit, no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_outputs(spec)
    check_corruption()
    check_without_sources(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
