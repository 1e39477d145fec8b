"""Batch experiment driver: JSON configs in, JSON/CSV reports out.

Subcommands
-----------
``laglab run config.json``       execute the configured job, mirror jobs too
``laglab describe config.json``  validate and summarize without computing
``laglab validate``              run the full validation battery

Every job is one row of the ``JOBS`` table: whether it reads a model, grid
and functions, the ``params`` keys it accepts, its parameter read, its
``describe`` plan line, its computation and any writer of its other
output files (the scan's CSV).  ``ExperimentConfig`` rejects
an unknown key at every level (top level, ``params``, ``model``, ``grid``
and each trig term) and runs the job's read and the top-level ``output``
read before any computation, so every subcommand sees the same reads and
the same configuration errors; an output path must lie in a directory
that exists.  Two configuration errors only computing finds: a degenerate
sectional plane, and a NaN or infinity in a job's results (every job but
``validate``), which ``_execute`` checks once before any file is written.

Exit codes: 0 success, 2 configuration error, 3 positivity lost,
4 check failure, 1 any other laglab error.  An error's base class in
``errors`` sets its code: ``main`` catches ``InputError`` and
``PositivityError``, not a list of classes.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .ambient import CONVENTIONS, AlmostCYModel
from .connection import MAX_STEPS, geodesic_shoot
from .curvature import (
    mean_zero_residual,
    riemann_field_values,
    riemann_quad_values,
    sectional_matrix,
)
from .errors import (
    BandLimitExceeded,
    ConfigError,
    DegeneratePlane,
    InputError,
    LaglabError,
    NonFiniteResult,
    PositivityError,
    ShapeMismatch,
    StepRejected,
)
from .hermitian import (
    HermBase,
    HermPoint,
    HermTangent,
    _aligned,
    _hermitian_family,
    herm_curvature_quad,
    herm_fd_riemann,
    herm_inner,
    herm_sectional,
)
from .lagrangian import GraphLagrangian, build
from .torus import (
    PeriodicGrid,
    TrigPolynomial,
    TrigTerm,
    check_band_limit,
    sample,
)
from .validation import SuiteConfig, check_mirror_sign_consistency, run_suite

SCHEMA_TAG = "laglab/report-v1"


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def _require(cfg: dict, key: str, kind=None):
    if key not in cfg:
        raise ConfigError(f"missing required key '{key}'")
    value = cfg[key]
    if kind is not None and not isinstance(value, kind):
        raise ConfigError(f"key '{key}' has wrong type {type(value).__name__}")
    return value


def _known_keys(raw: dict, keys: tuple[str, ...], where: str, owner: str = ""):
    """Reject the first key of ``raw`` outside ``keys``, naming its path
    ``where`` + key; ``owner`` follows the path in the message."""
    for key in raw:
        if key not in keys:
            raise ConfigError(f"unknown key {where}{key}{owner}; expected one of {keys}")


def _integer(value, where: str) -> int:
    """A config integer: a JSON integer or a float with no fractional part."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError(f"{where} must be an integer, got {value!r}")


def _number(value, where: str) -> float:
    """A config number: a finite JSON number, not a boolean."""
    try:
        if isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except OverflowError:
        pass
    raise ConfigError(f"{where} must be a finite number, got {value!r}")


def _flag(value, where: str) -> bool:
    """A config flag: a JSON boolean."""
    if isinstance(value, bool):
        return value
    raise ConfigError(f"{where} must be true or false, got {value!r}")


def _path(value, where: str) -> str:
    """An output path: a nonempty string in a directory that exists."""
    if isinstance(value, str) and value and Path(value).parent.is_dir():
        return value
    raise ConfigError(f"{where} must be a nonempty path in an existing directory, got {value!r}")


def parse_trig_terms(raw, where: str, grid: PeriodicGrid) -> TrigPolynomial:
    """Parse a list of trig terms and check it against the grid's band limit.

    A spectrum entry of the sampled polynomial is at most sum |c| N^n, so a
    term list whose sum overflows is rejected, naming the term where it
    does: its samples or derivatives would not be finite."""
    if not isinstance(raw, list):
        raise ConfigError(f"{where}: expected a list of trig terms")
    terms = []
    spectrum_bound = 0.0
    for i, item in enumerate(raw):
        if not isinstance(item, dict):
            raise ConfigError(f"{where}: term {i} is not an object")
        _known_keys(item, ("coefficient", "wavevector", "phase"), f"{where}[{i}].")
        try:
            coeff = _number(item["coefficient"], f"{where}: term {i} coefficient")
            wave = tuple(_integer(v, f"{where}: term {i} wavevector") for v in item["wavevector"])
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"{where}: term {i} malformed: {exc}") from exc
        phase = item.get("phase", "cos")
        if phase not in ("cos", "sin"):
            raise ConfigError(f"{where}: term {i} has invalid phase {phase!r}")
        spectrum_bound += abs(coeff) * grid.size
        if not math.isfinite(spectrum_bound):
            raise ConfigError(
                f"{where}: term {i} coefficient {coeff!r} overflows the spectrum: "
                f"sum |coefficient| * N^n exceeds the float64 range at N^n = {grid.size}"
            )
        terms.append(TrigTerm(coeff, wave, phase))
    try:
        poly = TrigPolynomial(tuple(terms))
        check_band_limit(poly, grid)
    except (ValueError, BandLimitExceeded) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return poly


# The top-level keys that a job whose row reads geometry accepts besides
# ``job``, ``params`` and ``output``.
_GEOMETRY_KEYS = ("model", "grid", "potential", "functions")


class ExperimentConfig:
    """Validated experiment description; ``inputs`` is the job's parameter
    read, done here so that no job starts computing on a malformed config."""

    def __init__(self, raw: dict):
        if not isinstance(raw, dict):
            raise ConfigError("top-level config must be a JSON object")
        self.raw = raw
        self.job = _require(raw, "job", str)
        if self.job not in JOBS:
            raise ConfigError(f"unknown job {self.job!r}; expected one of {tuple(JOBS)}")
        geometry = JOBS[self.job].geometry
        top_keys = ("job", "params", "output") + (_GEOMETRY_KEYS if geometry else ())
        _known_keys(raw, top_keys, "", f" for job {self.job!r}")
        self.params = raw.get("params", {})
        if not isinstance(self.params, dict):
            raise ConfigError("'params' must be an object")
        _known_keys(self.params, JOBS[self.job].keys, "params.", f" for job {self.job!r}")
        self.output = _path(raw["output"], "output") if "output" in raw else None

        self.model = None
        self.grid = None
        self.potential = TrigPolynomial(())
        self.functions: dict[str, TrigPolynomial] = {}
        if geometry:
            self._parse_geometry(raw)
        self.inputs = JOBS[self.job].read(self)

    def _parse_geometry(self, raw: dict):
        model_raw = _require(raw, "model", dict)
        _known_keys(model_raw, ("n", "period", "twist_amplitude", "twist_mode"), "model.")
        n = _integer(model_raw.get("n", 2), "model.n")
        period = _number(model_raw.get("period", 2.0 * np.pi), "model.period")
        twist_amplitude = _number(model_raw.get("twist_amplitude", 0.0), "model.twist_amplitude")
        twist_mode = _integer(model_raw.get("twist_mode", 1), "model.twist_mode")
        try:
            self.model = AlmostCYModel(n, period, twist_amplitude, twist_mode)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid model: {exc}") from exc

        grid_raw = raw.get("grid", {"points": 64})
        if isinstance(grid_raw, dict):
            _known_keys(grid_raw, ("points",), "grid.")
            points = _integer(grid_raw.get("points", 64), "grid.points")
        else:
            points = _integer(grid_raw, "grid")
        try:
            self.grid = PeriodicGrid(self.model.n, points, self.model.period)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid grid.points: {exc}") from exc
        # The twist eps e^{i kappa z_1} is Fourier mode twist_mode in x_1, so it
        # obeys the potential terms' band limit; a higher mode aliases.
        twist = [{"coefficient": 1.0, "wavevector": [twist_mode] + [0] * (n - 1)}]
        parse_trig_terms(twist, f"model.twist_mode = {twist_mode}", self.grid)

        self.potential = parse_trig_terms(raw.get("potential", []), "potential", self.grid)

        functions_raw = raw.get("functions", {})
        if not isinstance(functions_raw, dict):
            raise ConfigError("'functions' must map names to term lists")
        for name, terms in functions_raw.items():
            self.functions[name] = parse_trig_terms(terms, f"functions[{name}]", self.grid)

    def resolve(self, key: str, required: bool = True) -> str | None:
        name = self.params.get(key)
        if name is None:
            if required:
                raise ConfigError(f"job {self.job!r} requires params.{key}")
            return None
        if not isinstance(name, str) or name not in self.functions:
            raise ConfigError(f"params.{key} = {name!r} does not name a function")
        return name

    def build_gamma(self) -> GraphLagrangian:
        return build(self.model, sample(self.potential, self.grid))

    def samples(self, name: str) -> np.ndarray:
        return sample(self.functions[name], self.grid).values


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as stream:
            raw = json.load(stream)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    return ExperimentConfig(raw)


def _parse_complex_entry(entry, where: str) -> complex:
    """A finite number, or an ``[re, im]`` pair of finite numbers."""
    if not isinstance(entry, list):
        return complex(_number(entry, where))
    if len(entry) != 2:
        raise ConfigError(f"{where}: matrix entry must be a number or [re, im]")
    return complex(_number(entry[0], where), _number(entry[1], where))


def parse_matrix_family(raw, where: str) -> np.ndarray:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{where}: expected a nonempty list of matrices")
    mats = []
    for p, mat in enumerate(raw):
        if not isinstance(mat, list):
            raise ConfigError(f"{where}: point {p} is not a matrix")
        rows = []
        for r, row in enumerate(mat):
            if not isinstance(row, list):
                raise ConfigError(f"{where}: point {p} row {r} is not a list")
            rows.append([_parse_complex_entry(e, f"{where}[{p}][{r}]") for e in row])
        mats.append(rows)
    arr = np.asarray(mats, dtype=complex)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ConfigError(f"{where}: family has shape {arr.shape}, expected (p, N, N)")
    return arr


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------


def _job_sectional(cfg: ExperimentConfig, _report: Path, h_name: str, k_name: str):
    gamma = cfg.build_gamma()
    matrices = sectional_matrix(gamma, [cfg.samples(h_name), cfg.samples(k_name)])
    (hh, hk), (_, kk) = matrices.gram.tolist()
    return {
        "sectional": matrices.sectional(0, 1),
        "margin": gamma.margin,
        "inner_hh": hh,
        "inner_kk": kk,
        "inner_hk": hk,
    }, True


def _curvature_params(cfg: ExperimentConfig) -> tuple[list[str], str | None, bool]:
    """The h, k, l names, the optional m name and ``include_field`` of a
    curvature job."""
    names = [cfg.resolve("h"), cfg.resolve("k"), cfg.resolve("l")]
    m_name = cfg.resolve("m", required=False)
    include_field = _flag(cfg.params.get("include_field", True), "params.include_field")
    return names, m_name, include_field


def _job_curvature(cfg: ExperimentConfig, _report: Path, names: list[str],
                   m_name: str | None, include_field: bool):
    gamma = cfg.build_gamma()
    h, k, l = (gamma.normalize_values(cfg.samples(name)) for name in names)
    r = riemann_field_values(gamma, h, k, l)
    residual, scale = mean_zero_residual(gamma, r)
    out = {
        "margin": gamma.margin,
        "mean_zero_residual": residual,
        "mean_zero_scale": scale,
        "riemann_sup": float(np.abs(r).max()),
    }
    if m_name is not None:
        m = gamma.normalize_values(cfg.samples(m_name))
        out["quad_r3"] = gamma.inner_values(r, m)
        out["quad_r4"] = riemann_quad_values(gamma, h, k, l, m)
    if include_field:
        out["riemann_field"] = [float(v) for v in r.ravel()]
        out["field_shape"] = list(r.shape)
    return out, True


def _scan_params(cfg: ExperimentConfig) -> tuple[list[tuple[str, str]], str | None]:
    """The (h, k) name pairs of a scan, every pair of sorted names under
    ``params.all_pairs`` or else the validated ``params.pairs``, and its
    ``params.csv`` path, if given."""
    csv_name = _path(cfg.params["csv"], "params.csv") if "csv" in cfg.params else None
    if _flag(cfg.params.get("all_pairs", False), "params.all_pairs"):
        names = sorted(cfg.functions)
        return [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]], csv_name
    raw_pairs = cfg.params.get("pairs")
    if not isinstance(raw_pairs, list) or not raw_pairs:
        raise ConfigError("scan requires params.pairs or params.all_pairs")
    for i, pair in enumerate(raw_pairs):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ConfigError(f"params.pairs[{i}] must be a [h, k] pair")
        for name in pair:
            if not isinstance(name, str) or name not in cfg.functions:
                raise ConfigError(f"params.pairs[{i}]: unknown function {name!r}")
    return [(h, k) for h, k in raw_pairs], csv_name


def _job_scan(cfg: ExperimentConfig, report: Path, pairs: list[tuple[str, str]],
              csv_name: str | None):
    csv_path = Path(csv_name) if csv_name is not None else report.with_suffix(".csv")
    gamma = cfg.build_gamma()
    names = list(dict.fromkeys(name for pair in pairs for name in pair))
    index = {name: i for i, name in enumerate(names)}
    matrices = sectional_matrix(gamma, [cfg.samples(name) for name in names])

    rows = []
    for pair_id, (h_name, k_name) in enumerate(pairs):
        row = {"pair_id": pair_id, "h_name": h_name, "k_name": k_name, "margin": gamma.margin}
        try:
            row["sectional"] = matrices.sectional(index[h_name], index[k_name])
        except DegeneratePlane as exc:
            row.update(sectional=None, note=str(exc))
        rows.append(row)
    return {"pairs": rows, "csv": str(csv_path)}, True


def _write_scan_csv(results: dict):
    """The scan's plot-ready CSV, one line per pair, at ``results["csv"]``."""
    lines = [["pair_id", "h_name", "k_name", "sectional", "margin"]]
    for row in results["pairs"]:
        value = "" if row["sectional"] is None else f"{row['sectional']:.17g}"
        lines.append([row["pair_id"], row["h_name"], row["k_name"], value, f"{row['margin']:.17g}"])
    try:
        with open(results["csv"], "w", newline="") as stream:
            csv.writer(stream).writerows(lines)
    except OSError as exc:
        raise ConfigError(f"cannot write {results['csv']}: {exc}") from exc


def _geodesic_params(cfg: ExperimentConfig) -> tuple[str, float, int, bool]:
    """The initial velocity's name, the time, the step count and ``reverse``
    of a geodesic job."""
    h0_name = cfg.resolve("h0")
    total_time = _number(cfg.params.get("time", 0.1), "params.time")
    steps = _integer(cfg.params.get("steps", 100), "params.steps")
    if not 1 <= steps <= MAX_STEPS:
        raise ConfigError(f"params.steps must be between 1 and {MAX_STEPS}, got {steps}")
    reverse = _flag(cfg.params.get("reverse", False), "params.reverse")
    return h0_name, total_time, steps, reverse


def _job_geodesic(cfg: ExperimentConfig, _report: Path, h0_name: str, total_time: float,
                  steps: int, reverse: bool):
    gamma = cfg.build_gamma()
    path = geodesic_shoot(gamma, gamma.normalize_values(cfg.samples(h0_name)), total_time, steps)
    out = {
        "time": total_time,
        "steps": steps,
        "energy_initial": float(path.energies[0]),
        "energy_final": float(path.energies[-1]),
        "energy_drift": path.energy_drift(),
        "final_potential_sup": float(np.abs(path.potentials[-1].values).max()),
    }
    if reverse:
        out["reversal_error_sup"] = path.reversal_error()
    return out, True


def _validate_params(cfg: ExperimentConfig) -> tuple[SuiteConfig]:
    """The battery's ``SuiteConfig``: ``params.grid`` and ``params.seed``, both
    integers, override its two fields.  Its counts and tolerances are
    constants of ``validation``, so a config that names one exits 2."""
    kwargs = {
        field: _integer(cfg.params[key], f"params.{key}")
        for field, key in (("grid_points", "grid"), ("seed", "seed"))
        if key in cfg.params
    }
    try:
        return (SuiteConfig(**kwargs),)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid validation config: {exc}") from exc


def _job_validate(_cfg: ExperimentConfig, _report: Path, suite_cfg: SuiteConfig):
    report = run_suite(suite_cfg)
    return report.to_dict(), report.all_passed


def _mirror_params(cfg: ExperimentConfig) -> tuple:
    """(H, xi, eta, zeta, lambda) of a mirror job; zeta defaults to eta and
    lambda to xi.  H is read as a Hermitian family; the run checks that it is
    positive definite, as it checks the positivity of a potential, so
    ``describe`` of a non-positive H exits 0 and ``run`` 3."""
    params = cfg.params
    weights = params.get("weights", [1.0])
    if not isinstance(weights, list) or not weights:
        raise ConfigError("params.weights must be a nonempty list")
    values = [_number(w, f"params.weights[{i}]") for i, w in enumerate(weights)]
    try:
        base = HermBase(np.asarray(values))
    except ValueError as exc:
        raise ConfigError(f"params.weights: {exc}") from exc

    def family(kind, key: str, point: HermTangent | None = None):
        try:
            value = kind(base, parse_matrix_family(_require(params, key), f"params.{key}"))
            if point is not None:
                _aligned(point, value)
            return value
        except (ValueError, ShapeMismatch) as exc:
            raise ConfigError(f"params.{key}: {exc}") from exc

    def hermitian_point(b: HermBase, matrices) -> HermTangent:
        return HermTangent(b, _hermitian_family(b, matrices, "point matrices"))

    H = family(hermitian_point, "H")
    xi, eta = family(HermTangent, "xi", H), family(HermTangent, "eta", H)
    zeta = family(HermTangent, "zeta", H) if "zeta" in params else eta
    lam = family(HermTangent, "lambda", H) if "lambda" in params else xi
    return H, xi, eta, zeta, lam


def _job_mirror(_cfg: ExperimentConfig, _report: Path, H, xi, eta, zeta, lam):
    """The quadruple form against the finite-difference oracle, judged by the
    battery's ``check_mirror_sign_consistency``: agreement within the row's
    tolerance, and one sign."""
    H = HermPoint(H.base, H.matrices)
    corrected = herm_curvature_quad(H, xi, eta, zeta, lam)
    fd = herm_fd_riemann(H, xi, eta, zeta, lam)
    verdict = check_mirror_sign_consistency(corrected, fd)
    out = {
        "inner_xi_eta": herm_inner(H, xi, eta),
        "quad_corrected": corrected,
        "quad_literal": -corrected,
        "quad_fd_oracle": fd,
        "fd_agreement": verdict.error_abs,
        "tolerance": verdict.tolerance,
    }
    try:
        out["sectional"] = herm_sectional(H, xi, eta)
    except DegeneratePlane as exc:
        out["sectional"] = None
        out["sectional_note"] = str(exc)
    return out, verdict.passed


class Job(NamedTuple):
    """A row of ``JOBS``.  ``read(cfg)`` returns the job's parameters as a
    tuple, ``plan(*params)`` its ``describe`` line and
    ``run(cfg, report_path, *params)`` its ``(results, ok)``.  ``keys``
    are the ``params`` keys ``read`` accepts; any other exits 2.
    ``write(results)``, when given, writes the job's other output files
    once its results have passed ``_require_finite``."""

    geometry: bool  # reads model, grid, potential and functions
    keys: tuple[str, ...]
    read: Callable[[ExperimentConfig], tuple]
    plan: Callable[..., str]
    run: Callable[..., tuple[dict, bool]]
    write: Callable[[dict], None] | None = None


JOBS = {
    "curvature": Job(
        True, ("h", "k", "l", "m", "include_field"), _curvature_params,
        lambda names, m_name, _: f"curvature field R({names[0]},{names[1]}){names[2]}"
        + (f" paired with {m_name}" if m_name else ""),
        _job_curvature,
    ),
    "sectional": Job(
        True, ("h", "k"), lambda cfg: (cfg.resolve("h"), cfg.resolve("k")),
        lambda h, k: f"sectional curvature of ({h}, {k})", _job_sectional,
    ),
    "scan": Job(
        True, ("pairs", "all_pairs", "csv"), _scan_params,
        lambda pairs, _: f"sectional scan over {len(pairs)} pair(s), CSV + JSON output", _job_scan,
        _write_scan_csv,
    ),
    "geodesic": Job(
        True, ("h0", "time", "steps", "reverse"), _geodesic_params,
        lambda h0, total_time, steps, _: f"shoot from {h0} for T={total_time} in {steps} steps",
        _job_geodesic,
    ),
    "validate": Job(
        False, ("grid", "seed"), _validate_params,
        lambda s: f"validation battery, seed={s.seed}, grid={s.grid_points}", _job_validate,
    ),
    "mirror": Job(
        False, ("weights", "H", "xi", "eta", "zeta", "lambda"), _mirror_params,
        lambda *_: "matrix-model curvature with finite-difference oracle", _job_mirror,
    ),
}


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------


def make_report(cfg_raw: dict, job: str, results: dict, elapsed: float) -> dict:
    return {
        "schema": SCHEMA_TAG,
        "version": __version__,
        "job": job,
        "config": cfg_raw,
        "conventions": dict(CONVENTIONS),
        "results": results,
        "timing_seconds": elapsed,
    }


def report_bytes(report: dict, include_timing: bool = False) -> bytes:
    """Canonical serialization; timing is excluded by default so that equal
    configurations yield byte-identical payloads."""
    doc = dict(report)
    if not include_timing:
        doc.pop("timing_seconds", None)
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


def _require_finite(node, path: tuple = ()):
    """Raise ``NonFiniteResult`` naming the first NaN or infinity among the
    leaves of a job's results: JSON has no such number.  Only computing can
    find one, when finite inputs overflow float64 arithmetic."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        if isinstance(node, float) and not math.isfinite(node):
            key = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)[1:]
            raise NonFiniteResult(
                f"result {key} = {node!r} is not finite; the inputs are too large "
                "for float64 arithmetic"
            )
        return
    for key, value in items:
        _require_finite(value, path + (key,))


def write_report(report: dict, path: Path):
    try:
        path.write_bytes(report_bytes(report, include_timing=True))
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _execute(cfg: ExperimentConfig, out_path: Path) -> tuple[dict, bool, float]:
    """Check a ``-o`` path, run the job, check that its results are finite
    (every job but ``validate``), write its files and its report to
    ``out_path`` and return the results, whether its checks passed and the
    elapsed seconds."""
    _path(str(out_path), "-o")
    job = JOBS[cfg.job]
    started = time.perf_counter()
    results, ok = job.run(cfg, out_path, *cfg.inputs)
    elapsed = time.perf_counter() - started
    if cfg.job != "validate":
        _require_finite(results)
    if job.write is not None:
        job.write(results)
    write_report(make_report(cfg.raw, cfg.job, results, elapsed), out_path)
    return results, ok, elapsed


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    out_path = Path(args.output or cfg.output or f"{cfg.job}_report.json")
    _, ok, _ = _execute(cfg, out_path)
    print(f"{cfg.job}: report written to {out_path}")
    if not ok:
        print("one or more checks failed", file=sys.stderr)
        return 4
    return 0


def cmd_describe(args) -> int:
    cfg = load_config(args.config)
    lines = [f"job: {cfg.job}"]
    if cfg.model is not None:
        lines.append(
            f"model: n={cfg.model.n} period={cfg.model.period:.10g} "
            f"twist_amplitude={cfg.model.twist_amplitude} twist_mode={cfg.model.twist_mode}"
        )
        lines.append(f"grid: {cfg.grid.points}^{cfg.grid.n} points")
        lines.append(f"potential: {len(cfg.potential.terms)} term(s)")
        lines.append(f"functions: {', '.join(sorted(cfg.functions)) or '(none)'}")
    lines.append(f"plan: {JOBS[cfg.job].plan(*cfg.inputs)}")
    print("\n".join(lines))
    return 0


def cmd_validate(args) -> int:
    flags = {"seed": args.seed, "grid": args.grid}
    params = {key: value for key, value in flags.items() if value is not None}
    cfg = ExperimentConfig({"job": "validate", "params": params})
    out_path = Path(args.output or "validation_report.json")
    results, ok, elapsed = _execute(cfg, out_path)
    for check in results["checks"]:
        flag = "PASS" if check["passed"] else "FAIL"
        print(f"{flag}  {check['name']:40s} error={check['error_' + check['measure']]:.3e} "
              f"tolerance={check['tolerance']:.1e}")
    print(f"report written to {out_path} ({elapsed:.1f}s)")
    return 0 if ok else 4


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="laglab",
        description="Curvature and geodesics of positive Lagrangian graphs, with validation oracles.",
    )
    parser.add_argument("--version", action="version", version=f"laglab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a configured job")
    p_run.add_argument("config")
    p_run.add_argument("-o", "--output", help="report path (overrides config)")
    p_run.set_defaults(func=cmd_run)

    p_desc = sub.add_parser("describe", help="dry-run summary of a config")
    p_desc.add_argument("config")
    p_desc.set_defaults(func=cmd_describe)

    p_val = sub.add_parser("validate", help="run the validation battery")
    p_val.add_argument("--seed", type=int, default=None)
    p_val.add_argument("--grid", type=int, default=None)
    p_val.add_argument("-o", "--output", help="report path")
    p_val.set_defaults(func=cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PositivityError as exc:
        print(f"positivity error: {exc}", file=sys.stderr)
        return 3
    except StepRejected as exc:
        print(f"integration check failed: {exc}", file=sys.stderr)
        return 4
    except LaglabError as exc:  # an error with neither base class
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint():  # pragma: no cover - console script shim
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
