"""Seeded inputs, CLI invocations and output checks for each workload.

A workload writes its config files from the seed once, then every job is one
call of ``laglab.cli.main(argv)``.  After each job the workload reads the
reports the CLI wrote and returns a list of ``Check``s; a job passes when the
exit code is 0 and every check holds.

Tolerances mirror ``laglab.validation.DEFAULT_TOLERANCES`` but are fixed here,
so that a change to the library cannot loosen the benchmark's own checks.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

EPS = float(np.finfo(float).eps)
ERROR_FLOOR = 1e3 * EPS

TWO_PI = 2.0 * math.pi

VALIDATE_TOLERANCES = {
    "sectional_spot": 1e-6,
    "r3_r4_pairing": 1e-6,
    "r3_vs_fd": 1e-4,
    "dijk_zero_section": 1e-4,
    "dtheta": 1e-6,
    "metric_compat": 1e-5,
    "torsion_free": 1e-9,
    "sectional_nonpositive": 1e-10,
    "flat_family": 1e-8,
    "dimension_one": 1e-10,
    "geodesic_energy": 1e-6,
    "geodesic_reversal": 1e-6,
    "mirror_commuting": 1e-12,
    "mirror_nonpositive": 1e-12,
    "mirror_pauli_fd": 1e-4,
    "mirror_sign_consistency": 1e-4,
    "rho_consistency": 1e-12,
    "lagang_identity": 1e-10,
    "mean_zero_residual": 1e-8,
    "bianchi": 1e-8,
}
GEODESIC_TOL = VALIDATE_TOLERANCES["geodesic_energy"]
NONPOSITIVE_TOL = VALIDATE_TOLERANCES["sectional_nonpositive"]  # relative to max |K|
PAIRING_TOL = VALIDATE_TOLERANCES["r3_r4_pairing"]


@dataclass(frozen=True)
class Check:
    """One output check: passes when ``error <= tolerance``."""

    name: str
    error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return math.isfinite(self.error) and self.error <= self.tolerance

    @property
    def digits(self) -> float:
        """log10(tolerance / max(error, 1e3 eps)): headroom in decimal digits."""
        return math.log10(self.tolerance / max(self.error, ERROR_FLOOR))


def structural(name: str, ok: bool) -> Check:
    """A yes/no check; it carries no accuracy information of its own."""
    return Check(name, 0.0 if ok else math.inf, 1.0)


def trig_terms(rng: np.random.Generator, n: int, max_mode: int, amplitude: float,
               terms: int = 3) -> list[dict]:
    """Random trig polynomial as config terms, sup norm at most ``amplitude``."""
    chosen = []
    while len(chosen) < terms:
        wave = [int(v) for v in rng.integers(-max_mode, max_mode + 1, size=n)]
        if not any(wave):
            continue
        phase = "cos" if rng.integers(0, 2) == 0 else "sin"
        chosen.append({"coefficient": float(rng.uniform(-1.0, 1.0)),
                       "wavevector": wave, "phase": phase})
    scale = amplitude / sum(abs(t["coefficient"]) for t in chosen)
    for t in chosen:
        t["coefficient"] *= scale
    return chosen


def _cos(coefficient: float, wavevector: list[int]) -> dict:
    return {"coefficient": coefficient, "wavevector": wavevector, "phase": "cos"}


def _write_json(path: Path, doc: dict):
    path.write_text(json.dumps(doc, indent=2) + "\n")


def _read_report(path: Path) -> dict:
    return json.loads(path.read_text())


class Workload:
    """A workload defines ``prepare()`` (write the inputs), ``argv()`` (one
    job's CLI arguments), ``outputs()`` (the files a job writes), ``check()``
    (a list of ``Check``s on those files) and ``work()`` (the amount of work
    one job does, so that a grown job shows as changed work)."""

    name = ""

    def __init__(self, workdir: Path, seed: int, tiny: bool = False):
        self.workdir = workdir
        self.seed = seed
        self.tiny = tiny

    def clear_outputs(self):
        for path in self.outputs():
            path.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# geodesic: construction-heavy (about 500 build() calls per job)
# ---------------------------------------------------------------------------


class GeodesicWorkload(Workload):
    name = "geodesic"

    def prepare(self):
        rng = np.random.default_rng(self.seed)
        self.points = 16 if self.tiny else 64
        self.steps = 4 if self.tiny else 50
        self.time = 0.1
        self.config_path = self.workdir / "geodesic.json"
        self.report_path = self.workdir / "geodesic_report.json"
        _write_json(self.config_path, {
            "model": {"n": 2, "period": TWO_PI, "twist_amplitude": 0.1, "twist_mode": 1},
            "grid": {"points": self.points},
            "potential": [_cos(0.2, [1, 1])],
            "functions": {"h0": trig_terms(rng, 2, 3, 0.1)},
            "job": "geodesic",
            "params": {"h0": "h0", "time": self.time, "steps": self.steps, "reverse": True},
        })

    def argv(self):
        return ["run", str(self.config_path), "-o", str(self.report_path)]

    def outputs(self):
        return [self.report_path]

    def check(self):
        results = _read_report(self.report_path)["results"]
        return [
            structural("geodesic_shape",
                       results.get("steps") == self.steps and results.get("time") == self.time),
            Check("geodesic_energy", float(results["energy_drift"]), GEODESIC_TOL),
            Check("geodesic_reversal", float(results["reversal_error_sup"]), GEODESIC_TOL),
        ]

    def work(self):
        return {"grid": f"{self.points}^2", "rk4_steps": 2 * self.steps}


# ---------------------------------------------------------------------------
# scan3d: read-heavy (one build(), 66 sectional curvatures at n = 3)
# ---------------------------------------------------------------------------


class Scan3dWorkload(Workload):
    name = "scan3d"
    reference_pairs = 3

    def prepare(self):
        rng = np.random.default_rng(self.seed)
        self.points = 32
        count = 4 if self.tiny else 12
        self.names = [f"f{i:02d}" for i in range(count)]
        self.functions = {name: trig_terms(rng, 3, 3, 0.2) for name in self.names}
        self.pairs = [(a, b) for i, a in enumerate(self.names) for b in self.names[i + 1:]]
        picks = rng.choice(len(self.pairs), size=self.reference_pairs, replace=False)
        self.reference_ids = sorted(int(i) for i in picks)
        self.config_path = self.workdir / "scan3d.json"
        self.report_path = self.workdir / "scan3d_report.json"
        self.csv_path = self.workdir / "scan3d_report.csv"
        self.model = {"n": 3, "period": TWO_PI, "twist_amplitude": 0.1, "twist_mode": 1}
        self.potential = [_cos(0.2, [1, 1, 0]), _cos(0.1, [0, 1, 1])]
        _write_json(self.config_path, {
            "model": self.model,
            "grid": {"points": self.points},
            "potential": self.potential,
            "functions": self.functions,
            "job": "scan",
            "params": {"all_pairs": True, "csv": str(self.csv_path)},
        })
        self._references = None

    def argv(self):
        return ["run", str(self.config_path), "-o", str(self.report_path)]

    def outputs(self):
        return [self.report_path, self.csv_path]

    def references(self) -> dict[int, float]:
        """Sectional curvatures of the seeded reference pairs by the pointwise
        route: (R(h,k)k, h) / Gram, where the CLI uses the quadruple form."""
        if self._references is None:
            from laglab.ambient import AlmostCYModel
            from laglab.curvature import riemann_field_values
            from laglab.lagrangian import build
            from laglab.torus import PeriodicGrid, TrigPolynomial, TrigTerm, sample

            def poly(terms):
                return TrigPolynomial(tuple(
                    TrigTerm(t["coefficient"], tuple(t["wavevector"]), t["phase"])
                    for t in terms))

            model = AlmostCYModel(**self.model)
            grid = PeriodicGrid(3, self.points, model.period)
            gamma = build(model, sample(poly(self.potential), grid))
            self._references = {}
            for i in self.reference_ids:
                h_name, k_name = self.pairs[i]
                h = gamma.normalize_values(sample(poly(self.functions[h_name]), grid).values)
                k = gamma.normalize_values(sample(poly(self.functions[k_name]), grid).values)
                gram = (gamma.inner_values(h, h) * gamma.inner_values(k, k)
                        - gamma.inner_values(h, k) ** 2)
                numerator = gamma.inner_values(riemann_field_values(gamma, h, k, k), h)
                self._references[i] = numerator / gram
        return self._references

    def check(self):
        rows = _read_report(self.report_path)["results"]["pairs"]
        with open(self.csv_path, newline="") as stream:
            csv_rows = list(csv.DictReader(stream))
        names_ok = [(r["h_name"], r["k_name"]) for r in rows] == self.pairs
        checks = [
            structural("scan_pairs", names_ok and len(csv_rows) == len(rows)),
            structural("scan_nondegenerate", all(r["sectional"] is not None for r in rows)),
        ]
        if not all(c.passed for c in checks):
            return checks
        values = [float(r["sectional"]) for r in rows]
        checks.append(structural("scan_csv_matches_json", all(
            float(c["sectional"]) == v and c["h_name"] == r["h_name"]
            and c["k_name"] == r["k_name"]
            for c, r, v in zip(csv_rows, rows, values))))
        scale = max(abs(v) for v in values)
        checks.append(Check("scan_nonpositive", max(max(values), 0.0) / scale, NONPOSITIVE_TOL))
        worst = 0.0
        for i, ref in self.references().items():
            worst = max(worst, abs(values[i] - ref) / abs(ref))
        checks.append(Check("scan_pairing_route", worst, PAIRING_TOL))
        return checks

    def work(self):
        return {"grid": f"{self.points}^3", "functions": len(self.names),
                "pairs_scanned": len(self.pairs), "reference_pairs": self.reference_ids}


# ---------------------------------------------------------------------------
# validate: the mixed, accuracy-bearing battery
# ---------------------------------------------------------------------------


class ValidateWorkload(Workload):
    name = "validate"

    def prepare(self):
        self.points = 32 if self.tiny else 64
        self.report_path = self.workdir / "validation_report.json"
        self.check_names: list[str] = []

    def argv(self):
        return ["validate", "--seed", str(self.seed), "--grid", str(self.points),
                "-o", str(self.report_path)]

    def outputs(self):
        return [self.report_path]

    def check(self):
        results = _read_report(self.report_path)["results"]
        self.check_names = [c["name"] for c in results["checks"]]
        checks = [structural("validate_all_passed", results["all_passed"] is True)]
        for c in results["checks"]:
            error = float(c["error_" + c["measure"]])
            # A check's family is its name up to "[": "dtheta[flat_zero]".
            pinned = VALIDATE_TOLERANCES.get(c["name"].split("[")[0], math.inf)
            if c["passed"]:
                checks.append(Check(c["name"], error, min(float(c["tolerance"]), pinned)))
            else:
                # A check can fail on a side condition (e.g. a Richardson ratio)
                # while its error is within tolerance.
                checks.append(structural(c["name"], False))
        return checks

    def work(self):
        return {"grid": f"{self.points}^2", "checks": len(self.check_names),
                "check_names": self.check_names}


WORKLOADS = {w.name: w for w in (GeodesicWorkload, Scan3dWorkload, ValidateWorkload)}
