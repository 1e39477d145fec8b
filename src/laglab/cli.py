"""Batch experiment driver: JSON configs in, JSON/CSV reports out.

Subcommands
-----------
``laglab run config.json``       execute the configured job
``laglab describe config.json``  validate and summarize without computing
``laglab validate``              run the full validation battery
``laglab mirror config.json``    run a matrix-model job directly

Exit codes: 0 success, 2 configuration error, 3 positivity lost,
4 check failure.  ``LAGLAB_THREADS`` caps parallelism inside scans.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .ambient import CONVENTIONS, AlmostCYModel
from .connection import geodesic_shoot
from .curvature import mean_zero_residual, riemann_field, riemann_quad, sectional
from .errors import (
    BandLimitExceeded,
    ConfigError,
    DegeneratePlane,
    GammaMismatch,
    LaglabError,
    MarginTooSmall,
    NotPositive,
    NotPositiveDefinite,
    PositivityLost,
    ShapeMismatch,
    SingularDensity,
    StepRejected,
)
from .hermitian import (
    HermBase,
    HermPoint,
    HermTangent,
    herm_curvature_quad,
    herm_fd_riemann,
    herm_inner,
    herm_sectional,
)
from .lagrangian import GraphLagrangian, TangentFunction, build
from .torus import (
    PeriodicGrid,
    ScalarField,
    TrigPolynomial,
    TrigTerm,
    check_band_limit,
    sample,
)
from .validation import SuiteConfig, run_suite

SCHEMA_TAG = "laglab/report-v1"

JOBS = ("curvature", "sectional", "scan", "geodesic", "validate", "mirror")

_CONFIG_EXIT = (
    ConfigError,
    BandLimitExceeded,
    DegeneratePlane,
    GammaMismatch,
    ShapeMismatch,
)
_POSITIVITY_EXIT = (
    NotPositive,
    PositivityLost,
    MarginTooSmall,
    SingularDensity,
    NotPositiveDefinite,
)


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


def parse_trig_terms(raw, where: str, grid: PeriodicGrid) -> TrigPolynomial:
    """Parse a list of trig terms and check it against the grid's band limit."""
    if not isinstance(raw, list):
        raise ConfigError(f"{where}: expected a list of trig terms")
    terms = []
    for i, item in enumerate(raw):
        if not isinstance(item, dict):
            raise ConfigError(f"{where}: term {i} is not an object")
        try:
            coeff = float(item["coefficient"])
            wave = tuple(int(v) for v in item["wavevector"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{where}: term {i} malformed: {exc}") from exc
        phase = item.get("phase", "cos")
        if phase not in ("cos", "sin"):
            raise ConfigError(f"{where}: term {i} has invalid phase {phase!r}")
        terms.append(TrigTerm(coeff, wave, phase))
    poly = TrigPolynomial(tuple(terms))
    try:
        check_band_limit(poly, grid)
    except BandLimitExceeded as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return poly


class ExperimentConfig:
    """Validated experiment description."""

    def __init__(self, raw: dict):
        if not isinstance(raw, dict):
            raise ConfigError("top-level config must be a JSON object")
        self.raw = raw
        self.job = _require(raw, "job", str)
        if self.job not in JOBS:
            raise ConfigError(f"unknown job {self.job!r}; expected one of {JOBS}")
        self.params = raw.get("params", {})
        if not isinstance(self.params, dict):
            raise ConfigError("'params' must be an object")
        self.output = raw.get("output")

        self.model = None
        self.grid = None
        self.potential = TrigPolynomial(())
        self.functions: dict[str, TrigPolynomial] = {}
        if self.job in ("curvature", "sectional", "scan", "geodesic"):
            self._parse_geometry(raw)

    def _parse_geometry(self, raw: dict):
        model_raw = _require(raw, "model", dict)
        try:
            self.model = AlmostCYModel(
                n=int(model_raw.get("n", 2)),
                period=float(model_raw.get("period", 2.0 * np.pi)),
                twist_amplitude=float(model_raw.get("twist_amplitude", 0.0)),
                twist_mode=int(model_raw.get("twist_mode", 1)),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid model: {exc}") from exc

        grid_raw = raw.get("grid", {"points": 64})
        if isinstance(grid_raw, int):
            points = grid_raw
        elif isinstance(grid_raw, dict):
            points = grid_raw.get("points", 64)
        else:
            raise ConfigError("'grid' must be an integer or an object with 'points'")
        try:
            self.grid = PeriodicGrid(self.model.n, int(points), self.model.period)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid grid: {exc}") from exc

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
        if name not in self.functions:
            raise ConfigError(f"params.{key} = {name!r} does not name a function")
        return name

    def build_gamma(self) -> GraphLagrangian:
        return build(self.model, sample(self.potential, self.grid))

    def tangent(self, gamma: GraphLagrangian, name: str) -> TangentFunction:
        return gamma.normalize(sample(self.functions[name], self.grid))


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as stream:
            raw = json.load(stream)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    return ExperimentConfig(raw)


# ---------------------------------------------------------------------------
# Matrix-model input parsing
# ---------------------------------------------------------------------------


def _parse_complex_entry(entry, where: str) -> complex:
    if isinstance(entry, (int, float)) and not isinstance(entry, bool):
        return complex(entry)
    if isinstance(entry, list) and len(entry) == 2:
        try:
            return complex(float(entry[0]), float(entry[1]))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}: matrix entry {entry!r} malformed") from exc
    raise ConfigError(f"{where}: matrix entry must be a number or [re, im]")


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


def _job_sectional(cfg: ExperimentConfig) -> dict:
    gamma = cfg.build_gamma()
    h = cfg.tangent(gamma, cfg.resolve("h"))
    k = cfg.tangent(gamma, cfg.resolve("k"))
    value = sectional(gamma, h, k)
    return {
        "sectional": value,
        "margin": gamma.margin,
        "inner_hh": gamma.inner_values(h.values, h.values),
        "inner_kk": gamma.inner_values(k.values, k.values),
        "inner_hk": gamma.inner_values(h.values, k.values),
    }


def _job_curvature(cfg: ExperimentConfig) -> dict:
    gamma = cfg.build_gamma()
    h = cfg.tangent(gamma, cfg.resolve("h"))
    k = cfg.tangent(gamma, cfg.resolve("k"))
    l = cfg.tangent(gamma, cfg.resolve("l"))
    m_name = cfg.resolve("m", required=False)
    r = riemann_field(gamma, h, k, l)
    residual, scale = mean_zero_residual(r)
    out = {
        "margin": gamma.margin,
        "mean_zero_residual": residual,
        "mean_zero_scale": scale,
        "riemann_sup": float(np.abs(r.values).max()),
    }
    if m_name is not None:
        m = cfg.tangent(gamma, m_name)
        out["quad_r3"] = gamma.inner_values(r.values, m.values)
        out["quad_r4"] = riemann_quad(gamma, h, k, l, m)
    if cfg.params.get("include_field", True):
        out["riemann_field"] = [float(v) for v in r.values.ravel()]
        out["field_shape"] = list(r.values.shape)
    return out


def _job_scan(cfg: ExperimentConfig, csv_path: Path | None) -> dict:
    gamma = cfg.build_gamma()
    if cfg.params.get("all_pairs"):
        names = sorted(cfg.functions)
        pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    else:
        raw_pairs = cfg.params.get("pairs")
        if not isinstance(raw_pairs, list) or not raw_pairs:
            raise ConfigError("scan requires params.pairs or params.all_pairs")
        pairs = []
        for i, pair in enumerate(raw_pairs):
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ConfigError(f"params.pairs[{i}] must be a [h, k] pair")
            for name in pair:
                if name not in cfg.functions:
                    raise ConfigError(f"params.pairs[{i}]: unknown function {name!r}")
            pairs.append((pair[0], pair[1]))

    tangents = {name: cfg.tangent(gamma, name) for name in cfg.functions}

    def one(pair):
        h_name, k_name = pair
        try:
            value = sectional(gamma, tangents[h_name], tangents[k_name])
            return {"h_name": h_name, "k_name": k_name, "sectional": value,
                    "margin": gamma.margin}
        except DegeneratePlane as exc:
            return {"h_name": h_name, "k_name": k_name, "sectional": None,
                    "margin": gamma.margin, "note": str(exc)}

    threads = _thread_count()
    if threads > 1 and len(pairs) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(one, pairs))
    else:
        rows = [one(p) for p in pairs]
    for i, row in enumerate(rows):
        row["pair_id"] = i

    if csv_path is not None:
        with open(csv_path, "w", newline="") as stream:
            writer = csv.writer(stream)
            writer.writerow(["pair_id", "h_name", "k_name", "sectional", "margin"])
            for row in rows:
                writer.writerow(
                    [
                        row["pair_id"],
                        row["h_name"],
                        row["k_name"],
                        "" if row["sectional"] is None else f"{row['sectional']:.17g}",
                        f"{row['margin']:.17g}",
                    ]
                )
    return {"pairs": rows, "csv": str(csv_path) if csv_path else None}


def _job_geodesic(cfg: ExperimentConfig) -> dict:
    gamma = cfg.build_gamma()
    h0 = cfg.tangent(gamma, cfg.resolve("h0"))
    total_time = float(cfg.params.get("time", 0.1))
    steps = int(cfg.params.get("steps", 100))
    path = geodesic_shoot(gamma, h0, total_time, steps)
    out = {
        "time": total_time,
        "steps": steps,
        "energy_initial": float(path.energies[0]),
        "energy_final": float(path.energies[-1]),
        "energy_drift": path.energy_drift(),
        "final_potential_sup": float(np.abs(path.potentials[-1].values).max()),
    }
    if cfg.params.get("reverse", False):
        gamma_T = build(cfg.model, path.potentials[-1])
        h_back = gamma_T.normalize(
            ScalarField(cfg.grid, -path.velocities[-1].values)
        )
        back = geodesic_shoot(gamma_T, h_back, total_time, steps)
        ret = back.potentials[-1].values - back.potentials[-1].values.mean()
        start = path.potentials[0].values - path.potentials[0].values.mean()
        out["reversal_error_sup"] = float(np.abs(ret - start).max())
    return out


def _suite_config_from_params(params: dict) -> SuiteConfig:
    kwargs = {}
    mapping = {
        "seed": int,
        "grid": int,
        "quadruples": int,
        "fd_triples": int,
        "sectional_samples": int,
        "mirror_samples": int,
        "rho_points": int,
        "twist_amplitude": float,
        "geodesic_steps": int,
        "geodesic_time": float,
    }
    for key, conv in mapping.items():
        if key in params:
            target = "grid_points" if key == "grid" else key
            try:
                kwargs[target] = conv(params[key])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"params.{key}: {exc}") from exc
    tolerances = params.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ConfigError("params.tolerances must be an object")
    kwargs["tolerances"] = {k: float(v) for k, v in tolerances.items()}
    try:
        return SuiteConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid validation config: {exc}") from exc


def _job_validate(params: dict) -> tuple[dict, bool]:
    suite_cfg = _suite_config_from_params(params)
    report = run_suite(suite_cfg)
    payload = {
        "seed": suite_cfg.seed,
        "grid": suite_cfg.grid_points,
        "all_passed": report.all_passed,
        "checks": [r.to_dict() for r in report.results],
    }
    return payload, report.all_passed


def _job_mirror(params: dict) -> tuple[dict, bool]:
    weights = params.get("weights", [1.0])
    if not isinstance(weights, list) or not weights:
        raise ConfigError("params.weights must be a nonempty list")
    base = HermBase(np.asarray([float(w) for w in weights]))
    H = HermPoint(base, parse_matrix_family(_require(params, "H"), "params.H"))
    xi = HermTangent(base, parse_matrix_family(_require(params, "xi"), "params.xi"))
    eta = HermTangent(base, parse_matrix_family(_require(params, "eta"), "params.eta"))
    zeta = eta
    lam = xi
    if "zeta" in params:
        zeta = HermTangent(base, parse_matrix_family(params["zeta"], "params.zeta"))
    if "lambda" in params:
        lam = HermTangent(base, parse_matrix_family(params["lambda"], "params.lambda"))
    delta = float(params.get("delta", 1e-3))
    tolerance = float(params.get("tolerance", 1e-4))

    corrected = herm_curvature_quad(H, xi, eta, zeta, lam)
    literal = herm_curvature_quad(H, xi, eta, zeta, lam, literal=True)
    fd = herm_fd_riemann(H, xi, eta, zeta, lam, delta)
    agreement = abs(corrected - fd)
    out = {
        "inner_xi_eta": herm_inner(H, xi, eta),
        "quad_corrected": corrected,
        "quad_literal": literal,
        "quad_fd_oracle": fd,
        "fd_agreement": agreement,
        "tolerance": tolerance,
    }
    try:
        out["sectional"] = herm_sectional(H, xi, eta)
    except DegeneratePlane as exc:
        out["sectional"] = None
        out["sectional_note"] = str(exc)
    ok = agreement <= tolerance * max(1.0, abs(fd))
    return out, ok


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


def write_report(report: dict, path: Path):
    payload = report_bytes(report, include_timing=True)
    path.write_bytes(payload)


def _thread_count() -> int:
    raw = os.environ.get("LAGLAB_THREADS", "")
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            raise ConfigError(f"LAGLAB_THREADS must be an integer, got {raw!r}")
    return min(4, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    started = time.perf_counter()
    check_ok = True
    if cfg.job == "sectional":
        results = _job_sectional(cfg)
    elif cfg.job == "curvature":
        results = _job_curvature(cfg)
    elif cfg.job == "scan":
        out_path = Path(args.output or cfg.output or "scan_report.json")
        csv_path = Path(cfg.params["csv"]) if "csv" in cfg.params else out_path.with_suffix(".csv")
        results = _job_scan(cfg, csv_path)
    elif cfg.job == "geodesic":
        results = _job_geodesic(cfg)
    elif cfg.job == "validate":
        results, check_ok = _job_validate(cfg.params)
    elif cfg.job == "mirror":
        results, check_ok = _job_mirror(cfg.params)
    else:  # pragma: no cover - guarded in ExperimentConfig
        raise ConfigError(f"unhandled job {cfg.job!r}")
    elapsed = time.perf_counter() - started

    report = make_report(cfg.raw, cfg.job, results, elapsed)
    out_path = Path(args.output or cfg.output or f"{cfg.job}_report.json")
    write_report(report, out_path)
    print(f"{cfg.job}: report written to {out_path}")
    if not check_ok:
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
    if cfg.job == "sectional":
        lines.append(f"plan: sectional curvature of ({cfg.resolve('h')}, {cfg.resolve('k')})")
    elif cfg.job == "curvature":
        names = [cfg.resolve("h"), cfg.resolve("k"), cfg.resolve("l")]
        m_name = cfg.resolve("m", required=False)
        lines.append(f"plan: curvature field R({names[0]},{names[1]}){names[2]}"
                     + (f" paired with {m_name}" if m_name else ""))
    elif cfg.job == "scan":
        if cfg.params.get("all_pairs"):
            count = len(cfg.functions) * (len(cfg.functions) - 1) // 2
        else:
            pairs = cfg.params.get("pairs")
            if not isinstance(pairs, list) or not pairs:
                raise ConfigError("scan requires params.pairs or params.all_pairs")
            for i, pair in enumerate(pairs):
                if not (isinstance(pair, list) and len(pair) == 2):
                    raise ConfigError(f"params.pairs[{i}] must be a [h, k] pair")
                for name in pair:
                    if name not in cfg.functions:
                        raise ConfigError(f"params.pairs[{i}]: unknown function {name!r}")
            count = len(pairs)
        lines.append(f"plan: sectional scan over {count} pair(s), CSV + JSON output")
    elif cfg.job == "geodesic":
        lines.append(
            f"plan: shoot from {cfg.resolve('h0')} for T={cfg.params.get('time', 0.1)} "
            f"in {cfg.params.get('steps', 100)} steps"
        )
    elif cfg.job == "validate":
        suite_cfg = _suite_config_from_params(cfg.params)
        lines.append(f"plan: validation battery, seed={suite_cfg.seed}, "
                     f"grid={suite_cfg.grid_points}")
    elif cfg.job == "mirror":
        _require(cfg.params, "H")
        _require(cfg.params, "xi")
        _require(cfg.params, "eta")
        lines.append("plan: matrix-model curvature with finite-difference oracle")
    print("\n".join(lines))
    return 0


def cmd_validate(args) -> int:
    params = {}
    if args.seed is not None:
        params["seed"] = args.seed
    if args.grid is not None:
        params["grid"] = args.grid
    started = time.perf_counter()
    results, ok = _job_validate(params)
    elapsed = time.perf_counter() - started
    report = make_report({"job": "validate", "params": params}, "validate", results, elapsed)
    out_path = Path(args.output or "validation_report.json")
    write_report(report, out_path)
    for check in results["checks"]:
        flag = "PASS" if check["passed"] else "FAIL"
        print(f"{flag}  {check['name']:40s} error={check['error_' + check['measure']]:.3e} "
              f"tolerance={check['tolerance']:.1e}")
    print(f"report written to {out_path} ({elapsed:.1f}s)")
    return 0 if ok else 4


def cmd_mirror(args) -> int:
    cfg = load_config(args.config)
    if cfg.job != "mirror":
        raise ConfigError(f"mirror subcommand requires job='mirror', got {cfg.job!r}")
    return cmd_run(args)


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

    p_mir = sub.add_parser("mirror", help="run a matrix-model job")
    p_mir.add_argument("config")
    p_mir.add_argument("-o", "--output", help="report path (overrides config)")
    p_mir.set_defaults(func=cmd_mirror)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CONFIG_EXIT as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _POSITIVITY_EXIT as exc:
        print(f"positivity error: {exc}", file=sys.stderr)
        return 3
    except StepRejected as exc:
        print(f"integration check failed: {exc}", file=sys.stderr)
        return 4
    except LaglabError as exc:  # pragma: no cover - catch-all for new errors
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint():  # pragma: no cover - console script shim
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
