"""Job time and minor page faults of one benchmark workload, in process.

    python tools/faults.py WORKLOAD [--seed S] [--jobs N] [--tiny]

Run from the root of a laglab checkout; the package is imported from its
``src`` and the workload (``geodesic``, ``scan3d`` or ``validate``) from its
``perfbench/workloads.py``, which is only read.  The tool writes the
workload's inputs for ``--seed`` into a temporary directory, runs one
untimed warm-up job and then ``--jobs`` jobs through ``laglab.cli.main``,
as ``perfbench/run.py`` does.  For each job it takes the wall time and the
process's minor page faults (the ``ru_minflt`` delta of
``resource.getrusage``): a fresh page that the job touches costs one.  It
prints one line with the medians of both, and exits 1 if any job failed
(a nonzero exit code or a failed output check), else 0.  ``--tiny`` runs
the workload's small sizes.  BLAS threads follow the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def run_job(cli, workload) -> tuple[float, int, bool]:
    """One job: its wall time, its minor faults, and whether it passed."""
    workload.clear_outputs()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        faults, started = minor_faults(), time.perf_counter()
        code = cli.main(workload.argv())
        elapsed, faults = time.perf_counter() - started, minor_faults() - faults
    return elapsed, faults, code == 0 and all(check.passed for check in workload.check())


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import laglab.cli
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--jobs", type=int, default=25)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.jobs < 1:
        parser.error("--seed must be non-negative and --jobs positive")
    with tempfile.TemporaryDirectory() as workdir:
        workload = WORKLOADS[args.workload](Path(workdir), args.seed, tiny=args.tiny)
        workload.prepare()
        warmup = run_job(laglab.cli, workload)
        runs = [run_job(laglab.cli, workload) for _ in range(args.jobs)]
    times, faults, passed = zip(*runs)
    failed = (warmup[2], *passed).count(False)
    print(f"{args.workload} seed {args.seed}{' tiny' if args.tiny else ''}: {args.jobs} jobs, "
          f"median job {statistics.median(times):.4f} s, "
          f"median {statistics.median(faults):,.0f} minor faults per job, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
