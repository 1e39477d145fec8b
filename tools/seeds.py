"""Run the validation battery over a range of seeds and summarise each row.

    python tools/seeds.py GRID FIRST LAST

Runs ``run_suite`` on GRID^2 points for every seed from FIRST to LAST,
both included, with the package imported from this checkout's ``src``;
its sample counts are constants of ``laglab.validation``.  It prints a
header line, then one line per row of the battery in report order: the
seeds at which the row failed, and its worst error/tolerance over the sweep
with the seed it was read at (the governing error, ``CheckResult.error``; a
NaN counts as the worst).  A row can fail
with an error/tolerance below 1, on a side condition such as its
Richardson ratio.  A seed at which the battery raises is printed after the
rows.  The tool exits 1 if any row failed or the battery raised at any
seed, else 0.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def sweep(grid: int, seeds: range) -> tuple[dict, dict]:
    """Per row name (in report order), the seeds it failed at and its worst
    (error/tolerance, seed); and per seed at which the battery raised, the
    error's text."""
    from laglab.errors import LaglabError
    from laglab.validation import SuiteConfig, run_suite

    rows: dict[str, tuple[list[int], tuple[float, int]]] = {}
    raised: dict[int, str] = {}
    for seed in seeds:
        try:
            report = run_suite(SuiteConfig(grid_points=grid, seed=seed))
        except LaglabError as exc:
            raised[seed] = f"{type(exc).__name__}: {exc}"
            continue
        for r in report.results:
            failed, worst = rows.setdefault(r.name, ([], (-math.inf, seed)))
            if not r.passed:
                failed.append(seed)
            ratio = r.error / r.tolerance
            ratio = math.inf if math.isnan(ratio) else ratio
            if ratio > worst[0]:
                rows[r.name] = (failed, (ratio, seed))
    return rows, raised


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("grid", type=int)
    parser.add_argument("first", type=int)
    parser.add_argument("last", type=int)
    args = parser.parse_args(argv)
    if not 0 <= args.first <= args.last:
        parser.error("the seeds must satisfy 0 <= FIRST <= LAST")
    sys.path.insert(0, str(ROOT / "src"))
    from laglab.validation import SuiteConfig

    try:
        SuiteConfig(grid_points=args.grid)
    except ValueError as exc:
        parser.error(str(exc))

    seeds = range(args.first, args.last + 1)
    rows, raised = sweep(args.grid, seeds)
    failing = sorted({seed for failed, _ in rows.values() for seed in failed} | set(raised))
    print(f"seeds {args.first}-{args.last} at {args.grid}^2: {len(seeds)} runs, "
          f"{len(failing)} failed" + (f" (seeds {', '.join(map(str, failing))})" if failing else ""))
    width = max(map(len, rows), default=0)
    for name, (failed, (ratio, at)) in rows.items():
        seen = f" (seeds {', '.join(map(str, failed))})" if failed else ""
        print(f"{name:{width}s}  failed {len(failed)} of {len(seeds) - len(raised)}{seen}; "
              f"worst error/tolerance {ratio:.2e} at seed {at}")
    for seed, text in raised.items():
        print(f"seed {seed}: raised {text}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
