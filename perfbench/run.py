"""laglab benchmark: one workload per process, through the public CLI entry.

    python3 perfbench/run.py --workload {geodesic,scan3d,validate} \
        --seed N --seconds S --trace {0,1}

Run from the root of a laglab checkout; the package is imported from
``src/``.  Inputs are generated from ``--seed`` into ``.perfbench-work/``,
then one untimed warm-up job runs, then jobs run back to back (a closed loop
with one caller) until ``--seconds`` have passed.  Every job's outputs are
checked.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it is a JSON record with the job-time samples, the work done
and the environment.  The exit code is 0 only if every job passed.
"""

import time

PROCESS_START = time.perf_counter()

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench-work"
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_s": "s",
    "peak_rss_mb": "MiB",
    "accuracy_digits": "digits",
    "success_rate": "fraction",
}


def cap_threads():
    """Cap BLAS/OpenMP pools at nproc; must run before numpy is imported."""
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, NPROC))
        except ValueError:
            current = NPROC
        os.environ[var] = str(max(1, min(current, NPROC)))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("geodesic", "scan3d", "validate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny grids and job sizes, for perfbench/selftest.py")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def environment(numpy_version: str, cli) -> dict:
    # The scan pool size as the CLI computes it; 1 once the pool is removed.
    thread_count = getattr(cli, "_thread_count", None)
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": git_sha(),
        "scan_threads": thread_count() if thread_count else 1,
        **{var.lower(): os.environ[var] for var in THREAD_VARS},
    }


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


class Runner:
    """Runs jobs through ``cli.main`` and counts attempts, failures and
    the accuracy headroom of the checks that passed."""

    def __init__(self, workload, cli):
        self.workload = workload
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.worst_digits = math.inf
        self.limiting_check = None
        self.checks_seen: set[str] = set()

    def job(self) -> float:
        """Run one job; returns its wall time.  Outputs are checked after."""
        self.workload.clear_outputs()
        self.attempted += 1
        sink = io.StringIO()
        error = None
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(self.workload.argv())
        except Exception:  # a job that raises counts as failed, the loop goes on
            code, error = None, traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - started
        if code != 0:
            self._fail(f"exit code {code}: {error or sink.getvalue()[-500:]}")
        else:
            self.verify()
        return elapsed

    def verify(self):
        try:
            checks = self.workload.check()
        except (OSError, KeyError, TypeError, ValueError) as exc:
            self._fail(f"unreadable output: {exc!r}")
            return
        bad = [c for c in checks if not c.passed]
        if bad:
            self._fail("failed checks: " + ", ".join(f"{c.name} ({c.error:.3e} > "
                                                     f"{c.tolerance:.1e})" for c in bad))
            return
        for c in checks:
            self.checks_seen.add(c.name)
            if c.digits < self.worst_digits:
                self.worst_digits, self.limiting_check = c.digits, c.name

    def _fail(self, message: str):
        self.failed += 1
        self.failures.append(message)
        print(f"job {self.attempted} failed: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "laglab" / "__init__.py").is_file():
        print(f"error: no laglab sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    cap_threads()
    sys.path[:0] = [str(SRC), str(HERE)]
    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir)


def cold_import_s() -> float:
    """Time of ``import laglab.cli`` in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import laglab.cli; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                         text=True, timeout=60, check=True)
    return float(out.stdout)


def run(args, workdir: Path) -> int:
    import numpy as np

    import laglab.cli
    from tracer import Tracer, layer_metrics, metric_units
    from workloads import WORKLOADS

    # Set-up is measured phase by phase, each phase repeated where it can be
    # and its median taken: the import here plus two in fresh interpreters,
    # five input generations, and the single warm-up job.
    import_times = [time.perf_counter() - PROCESS_START, cold_import_s(), cold_import_s()]
    workload = WORKLOADS[args.workload](workdir, args.seed, tiny=args.tiny)
    input_times = []
    for _ in range(5):
        started = time.perf_counter()
        workload.prepare()
        input_times.append(time.perf_counter() - started)
    runner = Runner(workload, laglab.cli)
    warmup_s = runner.job()
    setup = {"import_s": statistics.median(import_times),
             "inputs_s": statistics.median(input_times), "warmup_s": warmup_s}
    setup_s = sum(setup.values())

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    plain_times, traced_times, traced_spans = [], [], []
    loop_start = time.perf_counter()
    while True:
        plain_times.append(runner.job())
        if tracer:
            tracer.enabled = True
            try:
                traced_times.append(runner.job())
            finally:
                tracer.enabled = False
            traced_spans.append(tracer.take())
        if time.perf_counter() - loop_start >= args.seconds:
            break
    if tracer:
        tracer.uninstall()

    job_q = quartiles(plain_times)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "setup": {"setup_s": setup_s, **setup},
        "job_s": {"samples": len(plain_times), "median": job_q[1],
                  "q1": job_q[0], "q3": job_q[2], "values": plain_times},
        "work": workload.work(),
        "checks": sorted(runner.checks_seen),
        "accuracy": {"digits": runner.worst_digits, "limiting_check": runner.limiting_check},
        "environment": environment(np.__version__, laglab.cli),
        "failures": runner.failures[:5],
    }
    correct = runner.failed == 0
    if tracer:
        spans_path = WORKDIR / f"spans-{args.workload}.json"
        spans_path.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "info"], "jobs": traced_spans},
            default=lambda info: info.hex()))
        record["traced_job_s"] = {"samples": len(traced_times),
                                  "median": statistics.median(traced_times),
                                  "spans": str(spans_path.relative_to(ROOT))}
        per_job = [layer_metrics(spans) for spans in traced_spans]
        metrics = {name: {"value": statistics.median(m[name] for m in per_job), "unit": unit}
                   for name, (unit, _) in metric_units().items()}
        metrics["trace.overhead_s"]["value"] = (
            statistics.median(traced_times) - statistics.median(plain_times))
    else:
        values = {
            "setup_s": setup_s,
            "job_s": job_q[1],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "accuracy_digits": runner.worst_digits if correct else 0.0,
            "success_rate": 1.0 - runner.failed / runner.attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
