"""Independent oracles for every closed-form quantity in the library.

Each check compares a closed-form evaluation against a finite-difference,
quadrature or identity-based route that shares as little code as possible
with it, and returns a CheckResult with the measured error.  The full
battery (`run_suite`) is deterministic for a fixed seed and doubles as the
acceptance engine for the command-line driver.

A row's tolerance is its family's entry in ``DEFAULT_TOLERANCES``; the
family is the row name up to any ``[``, so ``dtheta[flat_zero]`` is judged
by ``dtheta``.  The tolerances, like the battery's geometry, steps and
sample counts (``QUADRUPLES`` and the seven after it), are module constants:
no config can shrink or loosen the checks that judge it.  ``SuiteConfig``
holds only the grid and the seed.

A single convention set (symplectic sign, complex structure, Hamiltonian
sign, orientation, nonnegative Laplacian) underlies all checks; they are
mutually rigid, so a sign flip that fixes one check breaks others loudly.
"""

from __future__ import annotations

import operator
from dataclasses import asdict, dataclass, fields, replace
from typing import Callable, Sequence

import numpy as np

from .ambient import AlmostCYModel
from .connection import (
    HamiltonianFamily,
    cov_deriv_pair_values,
    geodesic_acceleration,
    geodesic_shoot,
)
from .curvature import (
    _drift_laplacian,
    flat_family_check,
    mean_zero_residual,
    quad_form,
    riemann_field_values,
    riemann_quad_values,
    sectional,
    sectional_quotient,
)
from .errors import BandLimitExceeded, DegeneratePlane
from .hermitian import (
    HermBase,
    HermPoint,
    HermTangent,
    herm_curvature_quad,
    herm_fd_riemann,
    herm_inner,
    herm_sectional,
    random_point,
    random_tangent,
)
from .lagrangian import GraphLagrangian, build
from .torus import (
    PeriodicGrid,
    ScalarField,
    TrigPolynomial,
    TrigTerm,
    check_band_limit,
    constant_field,
    gradient_values,
    sample,
    vector_dot,
)

DEFAULT_TOLERANCES = {
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
    "geodesic_acceleration": 1e-10,
    "mirror_commuting": 1e-12,
    "mirror_nonpositive": 1e-12,
    "mirror_pauli_fd": 1e-4,
    "mirror_sign_consistency": 1e-4,
    "rho_consistency": 1e-12,
    "lagang_identity": 1e-10,
    "mean_zero_residual": 1e-8,
    "bianchi": 1e-8,
}

# Richardson ratios outside this window flag a stencil that is not second
# order; below the floor the ratio is roundoff-dominated and skipped.
RICHARDSON_WINDOW = (3.5, 4.5)
RICHARDSON_FLOOR = 1e-11

# The battery's fixed geometry and finite-difference steps: the torus period,
# twist amplitude and twist mode of its models, the time of its geodesic, the
# step of the connection and curvature oracles, the step of the
# angle-derivative oracle, the highest mode, term count and coefficient sum
# of its random inputs and the pairing's error floor, as a fraction of the
# scale.
PERIOD = 2.0 * np.pi
TWIST_AMPLITUDE = 0.1
TWIST_MODE = 1
GEODESIC_TIME = 0.1
DELTA_FD = 1e-3
DELTA_DTHETA = 1e-4
MAX_MODE = 3
RANDOM_TERMS = 3
RANDOM_AMPLITUDE = 0.2
PAIRING_FLOOR = 1e-3

# The battery's sample counts: quadruples and FD triples per base point,
# sectional curvatures on each side of the mirror, rho points (split over six
# models), geodesic steps, commuting mirror families, and random triples per
# base point at n = 1.  Suites read them when they run.
QUADRUPLES = 20
FD_TRIPLES = 10
SECTIONAL_SAMPLES = 100
MIRROR_SAMPLES = 100
RHO_POINTS = 1000
GEODESIC_STEPS = 100
MIRROR_FAMILIES = 10
DIMENSION_ONE_TRIPLES = 3


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one validation check.

    ``measure`` records which of the two errors governs the pass flag.
    """

    name: str
    error_abs: float
    error_rel: float
    tolerance: float
    measure: str
    passed: bool
    params: dict

    @property
    def error(self) -> float:
        return self.error_abs if self.measure == "abs" else self.error_rel

    def to_dict(self) -> dict:
        return asdict(self)


def _result(
    name: str,
    error_abs: float,
    error_rel: float,
    measure: str,
    params: dict,
    extra_ok: bool = True,
) -> CheckResult:
    """A row judged by its family's tolerance (the name up to any ``[``)."""
    tolerance = DEFAULT_TOLERANCES[name.split("[")[0]]
    governing = error_abs if measure == "abs" else error_rel
    return CheckResult(
        name=name,
        error_abs=float(error_abs),
        error_rel=float(error_rel),
        tolerance=float(tolerance),
        measure=measure,
        passed=bool(governing <= tolerance) and extra_ok,
        params=params,
    )


def _worst(trials: Sequence[CheckResult], extra_ok: bool = True, **params) -> CheckResult:
    """The trial with the largest governing error, passing only if all trials did."""
    worst = max(trials, key=lambda r: r.error)
    return replace(
        worst, params={**worst.params, **params},
        passed=extra_ok and all(r.passed for r in trials),
    )


# ---------------------------------------------------------------------------
# Random band-limited inputs
# ---------------------------------------------------------------------------


def random_trig_polynomial(rng: np.random.Generator, n: int) -> TrigPolynomial:
    """Random band-limited trig polynomial of ``RANDOM_TERMS`` terms with sup
    norm at most ``RANDOM_AMPLITUDE``.

    Coefficients are rescaled so their absolute sum equals
    ``RANDOM_AMPLITUDE``; modes stay at or below ``MAX_MODE`` so quartic
    products remain fully resolved on grids of 64 points and up.
    """
    chosen: list[TrigTerm] = []
    while len(chosen) < RANDOM_TERMS:
        wave = tuple(int(v) for v in rng.integers(-MAX_MODE, MAX_MODE + 1, size=n))
        if all(v == 0 for v in wave):
            continue
        coeff = float(rng.uniform(-1.0, 1.0))
        phase = "cos" if rng.integers(0, 2) == 0 else "sin"
        chosen.append(TrigTerm(coeff, wave, phase))
    total = sum(abs(t.coefficient) for t in chosen)
    scale = RANDOM_AMPLITUDE / total
    return TrigPolynomial(tuple(TrigTerm(t.coefficient * scale, t.wavevector, t.phase) for t in chosen))


def _random_field(rng: np.random.Generator, grid: PeriodicGrid) -> ScalarField:
    return sample(random_trig_polynomial(rng, grid.n), grid)


# ---------------------------------------------------------------------------
# Standard base points
# ---------------------------------------------------------------------------

def standard_base_points(grid_points: int = 64, *, n: int = 2) -> list[tuple[str, GraphLagrangian]]:
    """Zero-section and generic graphs in the flat and twisted models on the
    n-torus; the generic potential is 0.2 cos(x_1 + ... + x_n)."""
    grid = PeriodicGrid(n, grid_points, PERIOD)
    flat = AlmostCYModel(n, PERIOD)
    twisted = AlmostCYModel(n, PERIOD, TWIST_AMPLITUDE, TWIST_MODE)
    zero = constant_field(grid)
    generic = sample(TrigPolynomial((TrigTerm(0.2, (1,) * n),)), grid)
    return [
        ("flat_zero", build(flat, zero)),
        ("twisted_zero", build(twisted, zero)),
        ("flat_generic", build(flat, generic)),
        ("twisted_generic", build(twisted, generic)),
    ]


def _cos_mode(grid: PeriodicGrid, wavevector: tuple[int, ...]) -> ScalarField:
    """The unit-coefficient cosine mode with this wavevector."""
    return sample(TrigPolynomial((TrigTerm(1.0, wavevector),)), grid)


def _require_zero_section(gamma: GraphLagrangian, check: str):
    if np.abs(gamma.grad_phi).max() > 1e-13:
        raise ValueError(f"{check} requires a zero-section base point")


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------


def _richardson(
    err_at: Callable[[float], float], delta: float, params: dict
) -> tuple[float, bool]:
    """Error at ``delta`` and whether halving the step cuts it about fourfold;
    records ``error_half_delta`` and, above the roundoff floor, the ratio."""
    err = err_at(delta)
    err_half = err_at(delta / 2.0)
    params["error_half_delta"] = err_half
    if err_half <= RICHARDSON_FLOOR:
        return err, True
    ratio = err / err_half
    params["richardson_ratio"] = ratio
    return err, RICHARDSON_WINDOW[0] <= ratio <= RICHARDSON_WINDOW[1]


def check_dtheta(
    gamma: GraphLagrangian,
    h: ScalarField,
    label: str = "dtheta",
) -> CheckResult:
    """Angle derivative along the vertical flow vs its closed form.

    The closed form is the drift Laplacian the curvature field uses; the
    oracle differentiates the angle of rebuilt graphs at the steps
    ``DELTA_DTHETA`` and half of it.  Valid only at zero
    sections, where the vertical graph flow realizes the parametrization
    hypothesis of the closed form (perpendicular fibers).
    """
    _require_zero_section(gamma, "check_dtheta")
    model, grid = gamma.model, gamma.grid
    _, up_h, _, lap_h = gamma.derivatives(h.values)
    closed = _drift_laplacian(gamma, up_h, lap_h)
    family = HamiltonianFamily(model, gamma.phi, (h,))

    def err_at(d: float) -> float:
        fd = (family.gamma_at([d]).theta - family.gamma_at([-d]).theta) / (2.0 * d)
        return float(np.abs(fd - closed).max())

    rho_term = vector_dot(gamma.grad_rho, up_h) * (grid.n / 2.0) / gamma.rho
    params = {
        "delta": DELTA_DTHETA,
        "model_eps": model.twist_amplitude,
        "rho_term_sup": float(np.abs(rho_term).max()),
    }
    err, ratio_ok = _richardson(err_at, DELTA_DTHETA, params)
    theta_scale = max(np.abs(gamma.theta).max(), 1.0)
    return _result(label, err, err / theta_scale, "abs", params, ratio_ok)


def check_metric_compat(
    family: HamiltonianFamily,
    h: ScalarField,
    k: ScalarField,
    label: str = "metric_compat",
) -> CheckResult:
    """d/dt (h,k) against the covariant product rule, by central differences
    at the steps ``DELTA_FD`` and half of it."""
    if len(family.generators) != 1:
        raise ValueError("metric compatibility check expects a one-parameter family")
    gamma0 = family.gamma_at([0.0])
    grad_w = gradient_values(gamma0.grid, family.generators[0].values)
    wh = cov_deriv_pair_values(gamma0, family.generators[0].values, h.values, grad_j=grad_w)
    wk = cov_deriv_pair_values(gamma0, family.generators[0].values, k.values, grad_j=grad_w)
    covariant = gamma0.inner_values(wh, k.values) + gamma0.inner_values(h.values, wk)

    def err_at(d: float) -> float:
        fd = (
            family.gamma_at([d]).inner_values(h.values, k.values)
            - family.gamma_at([-d]).inner_values(h.values, k.values)
        ) / (2.0 * d)
        return abs(fd - covariant)

    params = {"delta": DELTA_FD, "model_eps": family.model.twist_amplitude}
    err, ratio_ok = _richardson(err_at, DELTA_FD, params)
    scale = max(abs(gamma0.inner_values(h.values, k.values)), 1.0)
    return _result(label, err, err / scale, "abs", params, ratio_ok)


def check_torsion_free(
    family: HamiltonianFamily,
    t: Sequence[float],
    label: str = "torsion_free",
) -> CheckResult:
    """Pointwise symmetry of the coordinate covariant derivative of the
    family's first two generators."""
    gamma = family.gamma_at(t)
    hj, hk = (g.values for g in family.generators[:2])
    jk = cov_deriv_pair_values(gamma, hj, hk)
    kj = cov_deriv_pair_values(gamma, hk, hj)
    err = float(np.abs(jk - kj).max())
    scale = max(np.abs(jk).max(), 1.0)
    params = {"t": list(float(v) for v in t), "model_eps": family.model.twist_amplitude}
    return _result(label, err, err / scale, "abs", params)


def _second_cov_deriv_fd(
    gamma: GraphLagrangian,
    hi: np.ndarray,
    hj: np.ndarray,
    hk: np.ndarray,
    grads: Sequence[np.ndarray],
) -> Callable[[float], np.ndarray]:
    """D_{h^i} D_{h^j} h^k by differencing the coordinate derivative along i,
    as a function of the step delta.  The terms that do not depend on delta
    (the gradients of h^i, h^j and h^k and the advection
    w(h^i) . grad D_{h^j} h^k at the centre) are computed once; only the
    graphs at phi +- delta h^i are built per step.  ``grads`` holds the
    gradients of h^i, h^j and h^k."""
    grad_i, grad_j, grad_k = grads
    center = cov_deriv_pair_values(gamma, hj, hk, grad_j=grad_j, grad_k=grad_k)
    advect = cov_deriv_pair_values(gamma, hi, center, grad_j=grad_i)
    family = HamiltonianFamily(gamma.model, gamma.phi, (ScalarField(gamma.grid, hi),))

    def pair_at(t: float) -> np.ndarray:
        return cov_deriv_pair_values(family.gamma_at([t]), hj, hk, grad_j=grad_j, grad_k=grad_k)

    def at(delta: float) -> np.ndarray:
        return (pair_at(delta) - pair_at(-delta)) / (2.0 * delta) + advect

    return at


def check_r3_vs_fd(
    gamma: GraphLagrangian,
    h: ScalarField,
    k: ScalarField,
    l: ScalarField,
    label: str = "r3_vs_fd",
) -> CheckResult:
    """Curvature field against nested finite differences of the connection.

    The oracle assembles D_h D_k l - D_k D_h l on a two-parameter graph
    family at the steps ``DELTA_FD`` and half of it, sharing nothing with
    the closed-form route except the coordinate covariant derivative itself.
    """
    closed = riemann_field_values(gamma, h.values, k.values, l.values)
    scale = max(1.0, float(np.abs(closed).max()))

    grad_h, grad_k, grad_l = (gradient_values(gamma.grid, f.values) for f in (h, k, l))
    d_hk = _second_cov_deriv_fd(gamma, h.values, k.values, l.values, (grad_h, grad_k, grad_l))
    d_kh = _second_cov_deriv_fd(gamma, k.values, h.values, l.values, (grad_k, grad_h, grad_l))

    def err_at(d: float) -> float:
        return float(np.abs(d_hk(d) - d_kh(d) - closed).max()) / scale

    params = {"delta": DELTA_FD, "model_eps": gamma.model.twist_amplitude, "scale": scale}
    err, ratio_ok = _richardson(err_at, DELTA_FD, params)
    return _result(label, err, err, "abs", params, ratio_ok)


def check_dijk_zero_section(
    gamma: GraphLagrangian,
    hi: ScalarField,
    hj: ScalarField,
    hk: ScalarField,
    label: str = "dijk_zero_section",
) -> CheckResult:
    """Non-antisymmetrized second covariant derivative at the flat zero
    section, by central differences at the step ``DELTA_FD``, against its
    reduced closed form -<dh^k, dh^j> Lap h^i - Hess h^i(grad h^j, grad h^k)."""
    _require_zero_section(gamma, "check_dijk_zero_section")
    if gamma.model.twist_amplitude != 0.0:
        raise ValueError("check_dijk_zero_section requires the flat model")
    grad_i, _, hess_i, lap_i = gamma.derivatives(hi.values)
    grad_j, grad_k = (gradient_values(gamma.grid, f.values) for f in (hj, hk))
    grads = (grad_i, grad_j, grad_k)
    fd = _second_cov_deriv_fd(gamma, hi.values, hj.values, hk.values, grads)(DELTA_FD)
    closed = -vector_dot(grad_k, grad_j) * lap_i - np.einsum(
        "...ab,...a,...b->...", hess_i, grad_j, grad_k
    )
    err = float(np.abs(fd - closed).max())
    scale = max(np.abs(closed).max(), 1.0)
    return _result(label, err, err / scale, "abs", {"delta": DELTA_FD})


def check_r3_r4_pairing(
    gamma: GraphLagrangian,
    h: np.ndarray,
    k: np.ndarray,
    l: np.ndarray,
    m: np.ndarray,
    label: str = "r3_r4_pairing",
) -> CheckResult:
    """Pointwise-curvature pairing against the integrated quadruple form.

    This is the integration-by-parts content of the curvature computation:
    every Laplacian, Christoffel and angle-gradient term of the pointwise
    route must cancel into the single Cauchy-Schwarz bracket (``quad_form``).
    """
    r_vals = riemann_field_values(gamma, h, k, l)
    lhs = gamma.inner_values(r_vals, m)
    rhs, scale = quad_form(gamma, h, k, l, m)  # scale: the identity's natural one
    err_abs = abs(lhs - rhs)
    denom = max(abs(rhs), PAIRING_FLOOR * scale, 1e-300)
    err_rel = err_abs / denom
    params = {
        "lhs": lhs,
        "rhs": rhs,
        "integrand_scale": scale,
        "model_eps": gamma.model.twist_amplitude,
    }
    return _result(label, err_abs, err_rel, "rel", params)


def check_mirror_sign_consistency(corrected: float, fd: float) -> CheckResult:
    """The mirror quadruple form against its finite-difference oracle: it
    passes when |corrected - fd| / max(|fd|, 1) is within the row's
    tolerance and the two have one sign (the literal transcription is the
    negation).  The battery's row and the ``mirror`` job are judged by it."""
    err_abs = abs(corrected - fd)
    return _result(
        "mirror_sign_consistency", err_abs, err_abs / max(abs(fd), 1.0), "rel",
        {"corrected": corrected, "literal": -corrected, "fd": fd},
        corrected * fd >= 0.0,
    )


# ---------------------------------------------------------------------------
# Suite configuration and runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteConfig:
    """Deterministic configuration of the validation battery: its grid and
    its seed, each an integer (a Python or NumPy one, not a bool).  Its
    sample counts, like its tolerances, are module constants."""

    grid_points: int = 64
    seed: int = 7

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            try:
                if isinstance(value, bool):
                    raise TypeError
                object.__setattr__(self, f.name, operator.index(value))
            except TypeError:
                raise ValueError(f"{f.name} must be an integer, got {value!r}") from None
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        try:
            grid = PeriodicGrid(2, self.grid_points, PERIOD)
            check_band_limit(TrigPolynomial((TrigTerm(1.0, (MAX_MODE, 0)),)), grid)
        except (ValueError, BandLimitExceeded) as exc:
            raise ValueError(f"grid_points: {exc}") from exc


@dataclass(frozen=True)
class SuiteReport:
    config: SuiteConfig
    results: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_dict(self) -> dict:
        """The ``validate`` job's results."""
        return {
            "seed": self.config.seed,
            "grid": self.config.grid_points,
            "all_passed": self.all_passed,
            "checks": [r.to_dict() for r in self.results],
        }


def _suite_sectional_spot(cfg: SuiteConfig, bases: dict, rng: np.random.Generator) -> list[CheckResult]:
    gamma = bases["flat_zero"]
    grid = gamma.grid
    value = sectional(gamma, _cos_mode(grid, (1, 0)).values, _cos_mode(grid, (0, 1)).values)
    expected = -1.0 / (4.0 * np.pi**2)
    err_abs = abs(value - expected)
    err_rel = err_abs / abs(expected)
    return [_result(
        "sectional_spot", err_abs, err_rel, "rel", {"value": value, "expected": expected},
    )]


def _suite_pairing(cfg: SuiteConfig, bases: dict, rng: np.random.Generator) -> list[CheckResult]:
    """One pairing result per base point: the error and pass flag of the worst
    trial, and the ``lhs``, ``rhs`` and ``integrand_scale`` of the trial with
    the largest ``integrand_scale``.  The errors sit at roundoff, so which
    trial is worst can change with roundoff elsewhere; the largest scale
    changes only at a tie.  ``trials_under_floor`` counts the trials whose
    |rhs| is below ``PAIRING_FLOOR`` times their scale: their sign is unchecked."""
    out = []
    for name, gamma in bases.items():
        trials = []
        for trial in range(QUADRUPLES):
            fields = [
                gamma.normalize_values(_random_field(rng, gamma.grid).values)
                for _ in range(4)
            ]
            trials.append(check_r3_r4_pairing(gamma, *fields, label=f"r3_r4_pairing[{name}]"))
        largest = max(trials, key=lambda r: r.params["integrand_scale"])
        shown = {key: largest.params[key] for key in ("lhs", "rhs", "integrand_scale")}
        under = sum(abs(r.params["rhs"]) < PAIRING_FLOOR * r.params["integrand_scale"] for r in trials)
        out.append(_worst(trials, quadruples=QUADRUPLES, trials_under_floor=under, **shown))
    return out


def _suite_fd_curvature(cfg: SuiteConfig, bases: dict, rng: np.random.Generator) -> list[CheckResult]:
    out = []
    for name, gamma in bases.items():
        trials = []
        ratios = []
        for trial in range(FD_TRIPLES):
            h = _random_field(rng, gamma.grid)
            k = _random_field(rng, gamma.grid)
            l = _random_field(rng, gamma.grid)
            res = check_r3_vs_fd(gamma, h, k, l, label=f"r3_vs_fd[{name}]")
            trials.append(res)
            if "richardson_ratio" in res.params:
                ratios.append(res.params["richardson_ratio"])
        extra = {"richardson_ratio_range": [min(ratios), max(ratios)]} if ratios else {}
        out.append(_worst(trials, triples=FD_TRIPLES, **extra))
    return out


def _suite_dtheta(cfg: SuiteConfig, bases: dict, rng: np.random.Generator) -> list[CheckResult]:
    out = []
    grid = bases["flat_zero"].grid
    h_main = _cos_mode(grid, (1, 0))
    for name in ("flat_zero", "twisted_zero"):
        gamma = bases[name]
        results = [
            check_dtheta(gamma, h_main, label=f"dtheta[{name}]"),
            check_dtheta(gamma, _random_field(rng, grid), label=f"dtheta[{name}]"),
        ]
        # The twist term must be genuinely exercised for the x1 mode.
        rho_term_sup = results[0].params["rho_term_sup"]
        exercised = name != "twisted_zero" or rho_term_sup >= 1e-3
        out.append(_worst(results, exercised, rho_term_sup=rho_term_sup))
    return out


def _suite_levi_civita(cfg: SuiteConfig, bases: dict, rng: np.random.Generator) -> list[CheckResult]:
    flat_zero, twisted_generic = bases["flat_zero"], bases["twisted_generic"]
    grid = flat_zero.grid
    cos2 = _cos_mode(grid, (0, 1))

    compat = []
    compat.append(
        check_metric_compat(
            HamiltonianFamily(flat_zero.model, flat_zero.phi, (_cos_mode(grid, (1, 0)),)),
            cos2, cos2, label="metric_compat[flat]",
        )
    )
    gen_dir = _random_field(rng, grid)
    compat.append(
        check_metric_compat(
            HamiltonianFamily(twisted_generic.model, twisted_generic.phi, (gen_dir,)),
            _random_field(rng, grid), _random_field(rng, grid), label="metric_compat[twisted]",
        )
    )

    torsion = []
    for label, gamma in bases.items():
        family = HamiltonianFamily(
            gamma.model, gamma.phi, (_random_field(rng, grid), _random_field(rng, grid))
        )
        torsion.append(
            check_torsion_free(family, (0.0, 0.0), label=f"torsion_free[{label}]")
        )
        torsion.append(
            check_torsion_free(family, (0.05, -0.03), label=f"torsion_free[{label},t!=0]")
        )
    return compat + torsion


def _nonpositive(name: str, samples: int, draw: Callable[[int], float]) -> CheckResult:
    """Largest of ``samples`` sectional curvatures ``draw(i)``, i = 0, 1, ...;
    a degenerate plane is redrawn, within 10 * ``samples`` attempts.  The row
    fails when fewer than ``samples`` were drawn, and reports a null
    ``max_sectional`` when none was."""
    max_val = -np.inf
    drawn = 0
    attempts = 0
    while drawn < samples and attempts < 10 * samples:
        attempts += 1
        try:
            max_val = max(max_val, draw(drawn))
        except DegeneratePlane:
            continue
        drawn += 1
    err = max(max_val, 0.0)
    return _result(
        name, err, err, "abs",
        {"samples": drawn, "max_sectional": max_val if drawn else None},
        drawn == samples,
    )


def _suite_dijk(cfg: SuiteConfig, bases: dict, rng: np.random.Generator) -> list[CheckResult]:
    gamma = bases["flat_zero"]
    cos1, cos2 = _cos_mode(gamma.grid, (1, 0)), _cos_mode(gamma.grid, (0, 1))
    return [check_dijk_zero_section(gamma, cos1, cos2, cos2)]


def _suite_sectional_nonpositive(cfg: SuiteConfig, bases: dict, rng: np.random.Generator) -> list[CheckResult]:
    gammas = list(bases.values())

    def draw(i: int) -> float:
        gamma = gammas[i % len(gammas)]
        h = _random_field(rng, gamma.grid).values
        k = _random_field(rng, gamma.grid).values
        return sectional(gamma, h, k)

    return [_nonpositive("sectional_nonpositive", SECTIONAL_SAMPLES, draw)]


def _suite_flat_families(cfg: SuiteConfig, bases: dict, rng: np.random.Generator) -> list[CheckResult]:
    out = []
    reparams = [lambda s: s, lambda s: s**2, lambda s: s**3 - s]
    for name in ("flat_zero", "twisted_zero"):
        gamma = bases[name]
        poly = TrigPolynomial((TrigTerm(1.0, (1, 0)), TrigTerm(0.5, (0, 1))))
        l = gamma.normalize_values(sample(poly, gamma.grid).values)
        report = flat_family_check(gamma, l, reparams)
        out.append(
            _result(
                f"flat_family[{name}]", report.max_abs_sectional,
                report.max_abs_sectional, "abs",
                {"pairs": len(report.sectionals), "skipped": len(report.skipped)},
            )
        )
    return out


def _suite_dimension_one(cfg: SuiteConfig, bases: dict, rng: np.random.Generator) -> list[CheckResult]:
    worst_field = 0.0
    worst_sec = 0.0
    for _, gamma in standard_base_points(cfg.grid_points, n=1):
        for _ in range(DIMENSION_ONE_TRIPLES):
            h, k, l = (_random_field(rng, gamma.grid).values for _ in range(3))
            r = riemann_field_values(gamma, h, k, l)
            worst_field = max(worst_field, float(np.abs(r).max()))
            try:
                val = sectional(gamma, h, k)
            except DegeneratePlane:
                continue
            worst_sec = max(worst_sec, abs(val))
    err = max(worst_field, worst_sec)
    return [_result(
        "dimension_one", err, err, "abs",
        {"sup_riemann": worst_field, "max_abs_sectional": worst_sec},
    )]


def _suite_geodesic(cfg: SuiteConfig, bases: dict, rng: np.random.Generator) -> list[CheckResult]:
    gamma0 = bases["flat_zero"]
    h0 = sample(TrigPolynomial((TrigTerm(0.1, (1, 0)),)), gamma0.grid).values
    forward = geodesic_shoot(gamma0, gamma0.normalize_values(h0), GEODESIC_TIME, GEODESIC_STEPS)
    drift = forward.energy_drift()
    reversal = forward.reversal_error()

    return [
        _result("geodesic_energy", drift, drift, "rel",
                {"steps": GEODESIC_STEPS, "time": GEODESIC_TIME,
                 "initial_energy": float(forward.energies[0])}),
        _result("geodesic_reversal", reversal, reversal, "abs",
                {"steps": GEODESIC_STEPS, "time": GEODESIC_TIME}),
    ]


def _suite_geodesic_acceleration(cfg: SuiteConfig, bases: dict, rng: np.random.Generator) -> list[CheckResult]:
    """The geodesic step's acceleration against its oracle -D_psi psi =
    -w(psi) . grad psi, for a seeded, normalised psi, at every base point
    but ``flat_zero``: there w = 0 and both routes give exactly 0."""
    out = []
    for name in ("twisted_zero", "flat_generic", "twisted_generic"):
        gamma = bases[name]
        psi = gamma.normalize_values(_random_field(rng, gamma.grid).values)
        expected = -cov_deriv_pair_values(gamma, psi, psi)
        err = float(np.abs(geodesic_acceleration(gamma, psi) - expected).max())
        sup = float(np.abs(expected).max())
        out.append(_result(f"geodesic_acceleration[{name}]", err, err / max(sup, 1.0), "rel",
                           {"sup_acceleration": sup}))
    return out


def _suite_model_consistency(cfg: SuiteConfig, bases: dict, rng: np.random.Generator) -> list[CheckResult]:
    models = [AlmostCYModel(n, PERIOD, eps, TWIST_MODE)
              for n in (1, 2, 3) for eps in (0.0, TWIST_AMPLITUDE)]
    count = RHO_POINTS // len(models)
    worst = 0.0
    for model in models:
        x = rng.uniform(0.0, PERIOD, size=(count, model.n))
        y = rng.uniform(-1.0, 1.0, size=(count, model.n))
        worst = max(worst, float(np.abs(model.rho(x, y) - model.rho_closed_form(x, y)).max()))
    lagang = max(gamma.lagang_residual for gamma in bases.values())
    return [
        _result("rho_consistency", worst, worst, "abs", {"points": len(models) * count}),
        _result("lagang_identity", lagang, lagang, "abs", {"base_points": list(bases.keys())}),
    ]


def _suite_tensor_structure(cfg: SuiteConfig, bases: dict, rng: np.random.Generator) -> list[CheckResult]:
    gamma = bases["twisted_generic"]
    h, k, l, m = [gamma.normalize_values(_random_field(rng, gamma.grid).values) for _ in range(4)]
    residual, scale = mean_zero_residual(gamma, riemann_field_values(gamma, h, k, l))
    out = [
        _result("mean_zero_residual", residual, residual / scale, "rel", {"scale": scale}),
    ]
    cyclic = [riemann_quad_values(gamma, a, b, c, m) for a, b, c in ((h, k, l), (k, l, h), (l, h, k))]
    bianchi = abs(sum(cyclic))
    bscale = max(*(abs(q) for q in cyclic), 1e-300)
    out.append(
        _result("bianchi", bianchi, bianchi / bscale, "rel", {"scale": bscale}),
    )
    return out


def _suite_mirror(cfg: SuiteConfig, bases: dict, rng: np.random.Generator) -> list[CheckResult]:
    out = []

    # Commuting families stay flat: simultaneously diagonalizable directions.
    worst_comm = 0.0
    for _ in range(MIRROR_FAMILIES):
        dim = int(rng.integers(2, 4))
        npts = int(rng.integers(1, 5))
        base = HermBase(rng.uniform(0.5, 2.0, size=npts))
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q_mat, _ = np.linalg.qr(raw)
        def conj_diag(diag):
            return q_mat @ np.diag(diag) @ q_mat.conj().T
        H = HermPoint(base, np.stack([conj_diag(rng.uniform(0.5, 2.0, size=dim)) for _ in range(npts)]))
        xi = HermTangent(base, np.stack([conj_diag(rng.standard_normal(dim)) for _ in range(npts)]))
        eta = HermTangent(base, np.stack([conj_diag(rng.standard_normal(dim)) for _ in range(npts)]))
        try:
            worst_comm = max(worst_comm, abs(herm_sectional(H, xi, eta)))
        except DegeneratePlane:
            continue
    out.append(
        _result("mirror_commuting", worst_comm, worst_comm, "abs", {"families": MIRROR_FAMILIES}),
    )

    # Non-positivity across random pairs.
    def draw(i: int) -> float:
        dim = int(rng.integers(2, 4))
        npts = int(rng.integers(1, 5))
        base = HermBase(rng.uniform(0.5, 2.0, size=npts))
        H = random_point(rng, base, dim)
        xi = random_tangent(rng, base, dim)
        eta = random_tangent(rng, base, dim)
        return herm_sectional(H, xi, eta)

    out.append(_nonpositive("mirror_nonpositive", MIRROR_SAMPLES, draw))

    # Pauli plane at the identity: closed form vs the FD oracle.
    base = HermBase(np.array([1.0]))
    sx = HermTangent(base, np.array([[[0.0, 1.0], [1.0, 0.0]]], dtype=complex))
    sy = HermTangent(base, np.array([[[0.0, -1.0j], [1.0j, 0.0]]]))
    ident = HermPoint(base, np.eye(2, dtype=complex)[None, :, :])
    fd = herm_fd_riemann(ident, sx, sy, sy, sx)
    fd_sectional = sectional_quotient(
        fd, herm_inner(ident, sx, sx), herm_inner(ident, sy, sy), herm_inner(ident, sx, sy)
    )
    closed_sectional = herm_sectional(ident, sx, sy)
    err = abs(fd_sectional - closed_sectional)
    out.append(
        _result("mirror_pauli_fd", err, err, "abs",
                {"fd_sectional": fd_sectional,
                 "closed_sectional": closed_sectional,
                 "expected": -0.5}),
    )

    # Sign agreement between the corrected quadruple form and the FD oracle
    # at a generic point; the literal transcription is its negation.
    # Inputs are normalized so the FD truncation error stays well below tol.
    base = HermBase(np.array([1.0, 0.7]))
    H = random_point(rng, base, 2, margin=1.0)

    def unit_tangent():
        t = random_tangent(rng, base, 2)
        scale = np.linalg.norm(t.matrices, axis=(1, 2)).max()
        return HermTangent(base, t.matrices / scale)

    xi = unit_tangent()
    eta = unit_tangent()
    corrected = herm_curvature_quad(H, xi, eta, eta, xi)
    out.append(check_mirror_sign_consistency(corrected, herm_fd_riemann(H, xi, eta, eta, xi)))
    return out


# The battery in report order.  Each suite draws from its own stream
# default_rng([seed, key]), so a row's inputs depend only on the seed and its
# own suite: adding, removing or changing a suite moves no other row.  A key
# is written here once and never reused.
SUITES = (
    (1, _suite_sectional_spot),
    (2, _suite_pairing),
    (3, _suite_fd_curvature),
    (4, _suite_dtheta),
    (5, _suite_levi_civita),
    (6, _suite_dijk),
    (7, _suite_sectional_nonpositive),
    (8, _suite_flat_families),
    (9, _suite_dimension_one),
    (10, _suite_geodesic),
    (14, _suite_geodesic_acceleration),
    (11, _suite_model_consistency),
    (12, _suite_tensor_structure),
    (13, _suite_mirror),
)


def run_suite(cfg: SuiteConfig | None = None) -> SuiteReport:
    """Run the full validation battery; deterministic for a fixed seed."""
    cfg = cfg or SuiteConfig()
    bases = dict(standard_base_points(cfg.grid_points))
    results: list[CheckResult] = []
    for key, suite in SUITES:
        results.extend(suite(cfg, bases, np.random.default_rng([cfg.seed, key])))
    return SuiteReport(cfg, tuple(results))
