"""Acceptance battery: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``) and
asserts the criterion, so the module doubles as a human-readable report and
a hard gate.
"""

import time

import numpy as np
import pytest

from laglab.ambient import AlmostCYModel
from laglab.connection import HamiltonianFamily, geodesic_shoot
from laglab.curvature import (
    flat_family_check,
    riemann_field_values,
    sectional,
)
from laglab.errors import DegeneratePlane
from laglab.hermitian import (
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
from laglab.lagrangian import build
from laglab.torus import (
    PeriodicGrid,
    ScalarField,
    TrigPolynomial,
    TrigTerm,
    constant_field,
    field_from_function,
    sample,
)
from laglab.validation import (
    check_dtheta,
    check_metric_compat,
    check_r3_r4_pairing,
    check_r3_vs_fd,
    check_torsion_free,
    random_trig_polynomial,
    standard_base_points,
)

SEED = 2024


def report(criterion: str, passed: bool, detail: str):
    flag = "PASS" if passed else "FAIL"
    print(f"[acceptance] {criterion}: {flag} ({detail})")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def bases():
    return dict(standard_base_points(64))


def test_c01_sectional_spot_value():
    started = time.perf_counter()
    grid = PeriodicGrid(2, 64)
    gamma = build(AlmostCYModel(2), constant_field(grid))
    h = gamma.normalize(sample(TrigPolynomial((TrigTerm(1.0, (1, 0)),)), grid))
    k = gamma.normalize(sample(TrigPolynomial((TrigTerm(1.0, (0, 1)),)), grid))
    value = sectional(gamma, h, k)
    elapsed = time.perf_counter() - started
    expected = -1.0 / (4.0 * np.pi**2)
    rel = abs(value - expected) / abs(expected)
    report(
        "criterion 01 sectional spot value",
        rel <= 1e-6 and elapsed < 1.0,
        f"K={value:.10f}, rel err={rel:.2e}, runtime={elapsed:.2f}s",
    )


def test_c02_pairing_identity(bases):
    # Relative error uses the guarded denominator max(|value|, 1e-3 * L1
    # scale of the integrand): a quadruple can make the pairing itself
    # vanish by cancellation, where a bare ratio is 0/0 noise.
    started = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for name, gamma in bases.items():
        for _ in range(20):
            fields = [
                gamma.normalize_values(
                    sample(random_trig_polynomial(rng, 2), gamma.grid).values
                )
                for _ in range(4)
            ]
            res = check_r3_r4_pairing(gamma, *fields)
            worst = max(worst, res.error_rel)
            assert res.passed, f"{name}: rel err {res.error_rel:.2e}"
    elapsed = time.perf_counter() - started
    report(
        "criterion 02 pointwise/integrated curvature pairing",
        worst <= 1e-6 and elapsed < 30.0,
        f"worst rel err={worst:.2e} over 80 quadruples, runtime={elapsed:.1f}s",
    )


def test_c03_nested_fd_oracle(bases):
    started = time.perf_counter()
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    ratios = []
    for name, gamma in bases.items():
        for _ in range(10):
            h = sample(random_trig_polynomial(rng, 2), gamma.grid)
            k = sample(random_trig_polynomial(rng, 2), gamma.grid)
            l = sample(random_trig_polynomial(rng, 2), gamma.grid)
            res = check_r3_vs_fd(gamma, h, k, l)
            worst = max(worst, res.error_abs)
            assert res.passed, f"{name}: {res.error_abs:.2e}"
            if "richardson_ratio" in res.params:
                ratios.append(res.params["richardson_ratio"])
    elapsed = time.perf_counter() - started
    ratio_ok = all(3.5 <= r <= 4.5 for r in ratios) and ratios
    report(
        "criterion 03 nested finite-difference curvature oracle",
        worst <= 1e-4 and bool(ratio_ok) and elapsed < 60.0,
        f"worst err={worst:.2e}, ratios in [{min(ratios):.2f},{max(ratios):.2f}], "
        f"runtime={elapsed:.1f}s",
    )


def test_c04_angle_derivative(bases):
    grid = bases["flat_zero"].grid
    h = sample(TrigPolynomial((TrigTerm(1.0, (1, 0)),)), grid)
    res_flat = check_dtheta(bases["flat_zero"], h)
    res_twist = check_dtheta(bases["twisted_zero"], h)
    rho_term = res_twist.params["rho_term_sup"]
    ok = res_flat.passed and res_twist.passed and rho_term >= 1e-3
    report(
        "criterion 04 angle derivative vs closed form",
        ok,
        f"flat err={res_flat.error_abs:.2e}, twisted err={res_twist.error_abs:.2e}, "
        f"conformal term sup={rho_term:.3f}",
    )


def test_c05_levi_civita_properties(bases):
    rng = np.random.default_rng(SEED + 2)
    grid = bases["flat_zero"].grid
    flat = bases["flat_zero"].model
    twisted = bases["twisted_zero"].model
    zero = constant_field(grid)
    generic = bases["flat_generic"].phi
    cos1 = sample(TrigPolynomial((TrigTerm(1.0, (1, 0)),)), grid)
    cos2 = sample(TrigPolynomial((TrigTerm(1.0, (0, 1)),)), grid)

    compat_errs = []
    res = check_metric_compat(HamiltonianFamily(flat, zero, (cos1,)), cos2, cos2)
    compat_errs.append(res.error_abs)
    assert res.passed
    res = check_metric_compat(
        HamiltonianFamily(twisted, generic, (sample(random_trig_polynomial(rng, 2), grid),)),
        sample(random_trig_polynomial(rng, 2), grid),
        sample(random_trig_polynomial(rng, 2), grid),
    )
    compat_errs.append(res.error_abs)
    assert res.passed

    torsion_errs = []
    for model, base in ((flat, zero), (twisted, zero), (flat, generic), (twisted, generic)):
        family = HamiltonianFamily(
            model, base,
            (sample(random_trig_polynomial(rng, 2), grid),
             sample(random_trig_polynomial(rng, 2), grid)),
        )
        res = check_torsion_free(family, (0.0, 0.0))
        torsion_errs.append(res.error_abs)
        assert res.passed
    report(
        "criterion 05 Levi-Civita properties",
        max(compat_errs) <= 1e-5 and max(torsion_errs) <= 1e-9,
        f"metric compat max={max(compat_errs):.2e}, torsion max={max(torsion_errs):.2e}",
    )


def test_c06_nonpositive_sectional(bases):
    rng = np.random.default_rng(SEED + 3)
    gammas = list(bases.values())
    max_val = -np.inf
    drawn = 0
    while drawn < 100:
        gamma = gammas[drawn % len(gammas)]
        h = gamma.normalize(sample(random_trig_polynomial(rng, 2), gamma.grid))
        k = gamma.normalize(sample(random_trig_polynomial(rng, 2), gamma.grid))
        try:
            max_val = max(max_val, sectional(gamma, h, k))
        except DegeneratePlane:
            continue
        drawn += 1
    report(
        "criterion 06 non-positive sectional curvature",
        max_val <= 1e-10,
        f"max K={max_val:.3e} over 100 seeded planes",
    )


def test_c07_flat_families(bases):
    worst = 0.0
    for name in ("flat_zero", "twisted_zero"):
        gamma = bases[name]
        l = gamma.normalize(
            sample(TrigPolynomial((TrigTerm(1.0, (1, 0)), TrigTerm(0.5, (0, 1)))), gamma.grid)
        )
        rep = flat_family_check(gamma, l, [lambda s: s, lambda s: s**2, lambda s: s**3 - s])
        worst = max(worst, rep.max_abs_sectional)
        assert len(rep.sectionals) == 3
    report(
        "criterion 07 reparametrization families are flat",
        worst <= 1e-8,
        f"max |K|={worst:.3e} across both models",
    )


def test_c08_dimension_one_degeneracy():
    rng = np.random.default_rng(SEED + 4)
    grid = PeriodicGrid(1, 64)
    worst_field = 0.0
    worst_sec = 0.0
    for eps in (0.0, 0.1):
        model = AlmostCYModel(1, twist_amplitude=eps)
        for phi in (constant_field(grid), sample(TrigPolynomial((TrigTerm(0.2, (1,)),)), grid)):
            gamma = build(model, phi)
            for _ in range(5):
                f = [sample(random_trig_polynomial(rng, 1), grid) for _ in range(3)]
                r = riemann_field_values(gamma, f[0].values, f[1].values, f[2].values)
                worst_field = max(worst_field, float(np.abs(r).max()))
                try:
                    val = sectional(gamma, gamma.normalize(f[0]), gamma.normalize(f[1]))
                except DegeneratePlane:
                    continue
                worst_sec = max(worst_sec, abs(val))
    report(
        "criterion 08 dimension-one degeneracy",
        worst_field <= 1e-10 and worst_sec <= 1e-10,
        f"sup |R|={worst_field:.3e}, max |K|={worst_sec:.3e}",
    )


def test_c09_geodesic_shooting():
    grid = PeriodicGrid(2, 64)
    model = AlmostCYModel(2)
    gamma0 = build(model, constant_field(grid))
    h0 = gamma0.normalize(sample(TrigPolynomial((TrigTerm(0.1, (1, 0)),)), grid))
    forward = geodesic_shoot(gamma0, h0, 0.1, 100)
    drift = forward.energy_drift()

    gamma_T = build(model, forward.potentials[-1])
    h_back = gamma_T.normalize(ScalarField(grid, -forward.velocities[-1].values))
    backward = geodesic_shoot(gamma_T, h_back, 0.1, 100)
    ret = backward.potentials[-1].values - backward.potentials[-1].values.mean()
    start = forward.potentials[0].values - forward.potentials[0].values.mean()
    reversal = float(np.abs(ret - start).max())
    report(
        "criterion 09 geodesic shooting",
        drift <= 1e-6 and reversal <= 1e-6,
        f"energy drift={drift:.3e}, reversal sup error={reversal:.3e}",
    )


def test_c10_mirror_model():
    rng = np.random.default_rng(SEED + 5)

    # commuting pairs are exactly flat
    base2 = HermBase(np.array([1.0]))
    ident = HermPoint(base2, np.eye(2, dtype=complex)[None])
    diag_a = HermTangent(base2, np.diag([1.0, 0.0]).astype(complex)[None])
    diag_b = HermTangent(base2, np.diag([0.0, 1.0]).astype(complex)[None])
    commuting = abs(herm_sectional(ident, diag_a, diag_b))

    # 100 random pairs stay non-positive
    max_k = -np.inf
    drawn = 0
    while drawn < 100:
        dim = int(rng.integers(2, 4))
        npts = int(rng.integers(1, 5))
        base = HermBase(rng.uniform(0.5, 2.0, size=npts))
        H = random_point(rng, base, dim)
        xi = random_tangent(rng, base, dim)
        eta = random_tangent(rng, base, dim)
        try:
            max_k = max(max_k, herm_sectional(H, xi, eta))
        except DegeneratePlane:
            continue
        drawn += 1

    # Pauli plane: closed form against the finite-difference oracle
    sx = HermTangent(base2, np.array([[[0.0, 1.0], [1.0, 0.0]]], dtype=complex))
    sy = HermTangent(base2, np.array([[[0.0, -1.0j], [1.0j, 0.0]]]))
    fd = herm_fd_riemann(ident, sx, sy, sy, sx, delta=1e-3)
    gram = (
        herm_inner(ident, sx, sx) * herm_inner(ident, sy, sy)
        - herm_inner(ident, sx, sy) ** 2
    )
    fd_sectional = fd / gram
    closed = herm_sectional(ident, sx, sy)
    pauli_err = abs(closed - fd_sectional)

    corrected = herm_curvature_quad(ident, sx, sy, sy, sx)
    literal = -herm_curvature_quad(ident, sx, sy, sy, sx)
    signs_ok = corrected * fd < 0 < literal * fd or (corrected * fd > 0 > literal * fd)

    ok = (
        commuting <= 1e-12
        and max_k <= 1e-12
        and pauli_err <= 1e-4
        and abs(fd_sectional - (-0.5)) <= 1e-4
        and signs_ok
    )
    report(
        "criterion 10 matrix mirror model",
        ok,
        f"commuting K={commuting:.1e}, max random K={max_k:.1e}, "
        f"Pauli closed={closed:.6f} vs fd={fd_sectional:.6f}, sign fix consistent={signs_ok}",
    )


def test_c11_model_consistency(bases):
    rng = np.random.default_rng(SEED + 6)
    worst_rho = 0.0
    total = 0
    for n in (1, 2, 3):
        for eps in (0.0, 0.1):
            model = AlmostCYModel(n, twist_amplitude=eps)
            count = 167
            x = rng.uniform(0, model.period, size=(count, n))
            y = rng.uniform(-1, 1, size=(count, n))
            worst_rho = max(
                worst_rho, float(np.abs(model.rho(x, y) - model.rho_closed_form(x, y)).max())
            )
            total += count

    gammas = list(bases.values())
    grid1 = PeriodicGrid(1, 64)
    gammas.append(
        build(AlmostCYModel(1, twist_amplitude=0.1),
              sample(TrigPolynomial((TrigTerm(0.2, (1,)),)), grid1))
    )
    grid3 = PeriodicGrid(3, 16)
    phi3 = field_from_function(
        grid3, lambda c: 0.1 * np.cos(c[..., 0] + c[..., 1]) + 0.1 * np.cos(c[..., 2])
    )
    gammas.append(build(AlmostCYModel(3, twist_amplitude=0.1), phi3))
    worst_lagang = max(g.lagang_residual for g in gammas)
    report(
        "criterion 11 model consistency",
        worst_rho <= 1e-12 and total >= 1000 and worst_lagang <= 1e-10,
        f"rho defect={worst_rho:.2e} at {total} points, "
        f"phase identity defect={worst_lagang:.2e} on {len(gammas)} graphs",
    )
