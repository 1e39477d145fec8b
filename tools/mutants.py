"""Which faults in the library does the validation battery catch?

    python tools/mutants.py

Each row of ``MUTANTS`` is one fault: a name, a file under ``src/laglab``,
a text in it and the text that replaces it.  The mutants run one after
another.  Each copies ``src/`` to a temporary directory, applies its
replacement there and runs ``run_suite`` at seed 3 / 32^2 and seed 7 / 64^2
in one subprocess on the copy.  A mutant is killed when a check fails or
the battery raises, and the tool prints its failing rows; it survived when
every check passes.  Survivors stay in the table, as the faults the battery
does not see yet.  The tool exits 1, before running anything,
when a row's old text does not occur exactly once in its file, else 0.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# (name, file, old text, new text).  The last two survive the battery as it
# stands.  The Christoffel part of the covariant Hessian cancels at n = 2
# (ROADMAP item 8).  A Gram matrix of un-normalised functions moves the
# sectional curvatures the battery samples, but none to a positive value,
# and its spot row pairs cosines of mean zero on the flat zero section;
# Tier-1 catches it (``test_sectional_takes_functions_modulo_constants``).
# The negated acceleration, which the straight-line geodesic rows do not see
# (w = 0 on the flat zero section), is killed by the
# ``geodesic_acceleration`` rows.
MUTANTS = (
    ("quadruple form: value sign", "curvature.py",
     "return -sec_integral(gamma, first - second)", "return sec_integral(gamma, first - second)"),
    ("quadruple form: raised l and m swapped", "curvature.py",
     "(dh, dk, _, _), (up_l, up_m) = _stacks", "(dh, dk, _, _), (up_m, up_l) = _stacks"),
    ("sectional: bracket += cross", "curvature.py", "bracket -= cross", "bracket += cross"),
    ("sectional: numerator sign", "curvature.py",
     "numerator[j, i] = -sec_integral", "numerator[j, i] = sec_integral"),
    ("mirror quadruple form: 1/4 -> 1/2", "hermitian.py",
     "return float(0.25 * _weighted_trace", "return float(0.5 * _weighted_trace"),
    ("mirror quadruple form: sign", "hermitian.py",
     "return float(0.25 * _weighted_trace", "return float(-0.25 * _weighted_trace"),
    ("FD oracle: Koszul 1/2 dropped", "hermitian.py", "rhs = 0.5 * (central(", "rhs = (central("),
    ("FD oracle: sign of de flipped", "hermitian.py",
     "- central(slice(2, None), u, v)", "+ central(slice(2, None), u, v)"),
    ("FD oracle: Gamma o Gamma sign flipped", "hermitian.py",
     "+ christoffel(H.matrices, 0.0, a, gamma_bc)\n        - christoffel(H.matrices, 0.0, b, gamma_ac)",
     "- christoffel(H.matrices, 0.0, a, gamma_bc)\n        + christoffel(H.matrices, 0.0, b, gamma_ac)"),
    ("geodesic_shoot: acceleration negated", "lagrangian.py",
     "return np.divide(sq, self.re_omega, out=sq)",
     "return np.divide(np.negative(sq, out=sq), self.re_omega, out=sq)"),
    ("covariant Hessian: Christoffel sign", "lagrangian.py",
     'hess = hess - np.einsum("...abc,...c->...ab"', 'hess = hess + np.einsum("...abc,...c->...ab"'),
    ("sectional_matrix: Gram on un-normalised functions", "curvature.py",
     "stack[n] = gamma.normalize_values(v)", "stack[n] = v"),
)

# Prints one line per failing row, or why the battery raised.
CHILD = r"""
from laglab.validation import SuiteConfig, run_suite
for seed, points in ((3, 32), (7, 64)):
    try:
        report = run_suite(SuiteConfig(grid_points=points, seed=seed))
    except Exception as exc:
        print(f"seed {seed}, {points}^2: raised {type(exc).__name__}: {exc}")
        continue
    for r in report.results:
        if not r.passed:
            print(f"seed {seed}, {points}^2: {r.name} error={r.error:.3e} tolerance={r.tolerance:.1e}")
"""


def occurrences(file: str, old: str) -> int:
    return (SRC / "laglab" / file).read_text().count(old)


def main() -> int:
    for name, file, old, _ in MUTANTS:
        if occurrences(file, old) != 1:
            print(f"{name}: {old!r} occurs {occurrences(file, old)} times in {file}")
            return 1
    for name, file, old, new in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(SRC, Path(tmp) / "src", ignore=shutil.ignore_patterns("__pycache__"))
            target = Path(tmp) / "src" / "laglab" / file
            target.write_text(target.read_text().replace(old, new))
            env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"))
            child = subprocess.run([sys.executable, "-c", CHILD], cwd=tmp, env=env,
                                   capture_output=True, text=True, check=False)
        rows = child.stdout.splitlines() or child.stderr.strip().splitlines()[-1:]
        print(f"{'killed' if rows or child.returncode else 'survived':9s}{name}")
        for row in rows:
            print(f"         {row}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
