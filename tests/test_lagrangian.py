import numpy as np
import pytest
from conftest import per_component_derivative
from scipy.integrate import quad

from laglab.ambient import AlmostCYModel
from laglab.connection import w_field_values
from laglab.errors import GammaMismatch, NotPositive
from laglab.lagrangian import build, inner, require_same_gamma
from laglab.torus import (
    PeriodicGrid,
    adjugate,
    constant_field,
    det,
    field_from_function,
    gradient_values,
    hessian_values,
    integrate_values,
    symmetric_gradient_values,
    vector_dot,
)

# Frozen from the quadrature oracle below (exp(0.1 cos t) cos(0.1 sin t) weight):
# the projection constant of cos(x1) and the squared norm of cos(x1) at the
# twisted zero section.
TWISTED_NORMALIZE_SHIFT = 0.05
TWISTED_INNER_COS1 = 19.788556824184163


def twisted_weight(t):
    return np.exp(0.1 * np.cos(t)) * np.cos(0.1 * np.sin(t))


def test_flat_zero_section(flat_zero):
    assert np.abs(flat_zero.theta).max() == 0.0
    assert np.abs(flat_zero.rho - 1.0).max() < 1e-15
    assert np.abs(flat_zero.metric - np.eye(2)).max() == 0.0
    assert np.abs(flat_zero.sqrt_det_metric - 1.0).max() == 0.0
    assert flat_zero.margin == 1.0


def test_twisted_zero_section_closed_forms(twisted_zero, grid64):
    x1 = grid64.coords[..., 0]
    assert np.abs(twisted_zero.theta - 0.1 * np.sin(x1)).max() < 1e-14
    assert np.abs(twisted_zero.rho - np.exp(0.1 * np.cos(x1))).max() < 1e-14


def test_one_dimensional_angle():
    grid = PeriodicGrid(1, 64)
    model = AlmostCYModel(1)
    a = 0.4
    phi = field_from_function(grid, lambda c: a * np.cos(c[..., 0]))
    gamma = build(model, phi)
    # det(I - i Hess phi) = 1 + i a cos x, so theta = arctan(a cos x).
    expected = np.arctan(a * np.cos(grid.coords[..., 0]))
    assert np.abs(gamma.theta - expected).max() < 1e-13


@pytest.mark.parametrize("n, points", [(1, 32), (2, 32), (3, 8)])
def test_gradient_of_the_potential_holds_only_its_own_fields(n, points):
    """grad phi is a view of a stack of n fields, not of a stack that also
    holds the Hessian rows."""
    grid = PeriodicGrid(n, points)
    phi = field_from_function(grid, lambda c: 0.2 * np.cos(c.sum(axis=-1)))
    gamma = build(AlmostCYModel(n), phi)
    assert gamma.grad_phi.base.shape == (n,) + grid.shape


def test_positivity_failure():
    grid = PeriodicGrid(2, 64)
    model = AlmostCYModel(2)
    phi = field_from_function(
        grid, lambda c: 1.5 * (np.cos(c[..., 0]) + np.cos(c[..., 1]))
    )
    with pytest.raises(NotPositive) as excinfo:
        build(model, phi)
    assert excinfo.value.margin <= 0.0
    assert len(excinfo.value.worst_point) == 2


def test_margin_decreases_with_hessian(flat_model, grid64):
    margins = []
    for amp in (0.2, 0.5, 0.8):
        phi = field_from_function(
            grid64, lambda c, a=amp: a * (np.cos(c[..., 0]) + np.cos(c[..., 1]))
        )
        margins.append(build(flat_model, phi).margin)
    assert margins[0] > margins[1] > margins[2] > 0.0


def test_phase_volume_identity(flat_generic, twisted_generic, twisted_zero):
    for gamma in (flat_generic, twisted_generic, twisted_zero):
        assert gamma.lagang_residual < 1e-10
        # |det(I - i Hess phi)| = sqrt(det(I + Hess^2)) pointwise.
        lhs = np.hypot(gamma._re_det_B, gamma._im_det_B)
        assert np.abs(lhs - gamma.sqrt_det_metric).max() < 1e-10


def test_phase_volume_residual_sees_a_wrong_rho(twisted_model, generic_potential):
    """theta = arg Omega~ matches the phase by construction, so the residual
    must still compare |Omega~| against an independently computed rho."""
    gamma = build(twisted_model, generic_potential)
    gamma.rho = gamma.rho * (1.0 + 1e-6)
    assert gamma.lagang_residual >= 1e-7


def test_normalize_flat(flat_zero, grid64):
    f = field_from_function(grid64, lambda c: np.cos(c[..., 0]))
    h = flat_zero.normalize(f)
    assert np.abs(h.values - f.values).max() < 1e-14

    one = flat_zero.normalize(constant_field(grid64, 1.0))
    assert np.abs(one.values).max() < 1e-14


def test_normalize_twisted_oracle(twisted_zero, grid64):
    num, _ = quad(lambda t: np.cos(t) * twisted_weight(t), 0, 2 * np.pi)
    den, _ = quad(twisted_weight, 0, 2 * np.pi)
    shift = num / den
    assert shift == pytest.approx(TWISTED_NORMALIZE_SHIFT, abs=1e-12)

    f = field_from_function(grid64, lambda c: np.cos(c[..., 0]))
    h = twisted_zero.normalize(f)
    expected = f.values - shift
    assert np.abs(h.values - expected).max() < 1e-12
    assert abs(integrate_values(grid64, h.values * twisted_zero.re_omega)) < 1e-12


def test_normalize_idempotent(twisted_generic, grid64):
    f = field_from_function(grid64, lambda c: np.cos(c[..., 0]) + 0.3 * np.sin(2 * c[..., 1]))
    once = twisted_generic.normalize(f)
    twice = twisted_generic.normalize(once.h)
    assert np.abs(once.values - twice.values).max() < 1e-14


def test_inner_flat_values(flat_zero, grid64):
    h = flat_zero.normalize(field_from_function(grid64, lambda c: np.cos(c[..., 0])))
    k = flat_zero.normalize(field_from_function(grid64, lambda c: np.cos(c[..., 1])))
    assert inner(h, h) == pytest.approx(2 * np.pi**2, rel=1e-13)
    assert abs(inner(h, k)) < 1e-13


def test_inner_twisted_oracle(twisted_zero, grid64):
    val, _ = quad(lambda t: np.cos(t) ** 2 * twisted_weight(t), 0, 2 * np.pi)
    oracle = 2 * np.pi * val
    assert oracle == pytest.approx(TWISTED_INNER_COS1, rel=1e-13)

    f = field_from_function(grid64, lambda c: np.cos(c[..., 0]))
    raw = twisted_zero.inner_values(f.values, f.values)
    assert raw == pytest.approx(TWISTED_INNER_COS1, rel=1e-12)


def test_inner_bilinear_positive(twisted_generic, grid64):
    rng = np.random.default_rng(1)
    fields = [
        twisted_generic.normalize(
            field_from_function(
                grid64,
                lambda c, a=rng.uniform(-1, 1, 3): a[0] * np.cos(c[..., 0])
                + a[1] * np.sin(c[..., 1])
                + a[2] * np.cos(c[..., 0] + 2 * c[..., 1]),
            )
        )
        for _ in range(3)
    ]
    h, k, l = fields
    assert inner(h, k) == pytest.approx(inner(k, h), rel=1e-12)
    lhs = twisted_generic.inner_values(h.values + 2.0 * k.values, l.values)
    rhs = inner(h, l) + 2.0 * inner(k, l)
    assert lhs == pytest.approx(rhs, rel=1e-12)
    assert inner(h, h) > 0.0
    zero = twisted_generic.normalize(constant_field(grid64, 5.0))
    assert abs(inner(zero, h)) < 1e-12


def test_grad_inner_flat(flat_zero, grid64):
    h = flat_zero.normalize(field_from_function(grid64, lambda c: np.cos(c[..., 0])))
    k = flat_zero.normalize(field_from_function(grid64, lambda c: np.cos(c[..., 1])))
    hh = flat_zero.grad_inner_values(h.values, h.values)
    assert np.abs(hh - np.sin(grid64.coords[..., 0]) ** 2).max() < 1e-12
    assert np.abs(flat_zero.grad_inner_values(h.values, k.values)).max() < 1e-12


def test_grad_inner_one_dimensional_inverse():
    grid = PeriodicGrid(1, 64)
    model = AlmostCYModel(1)
    a = 0.3
    phi = field_from_function(grid, lambda c: a * np.cos(c[..., 0]))
    gamma = build(model, phi)
    x = grid.coords[..., 0]
    h_vals = np.sin(x)
    pairing = gamma.grad_inner_values(h_vals, h_vals)
    expected = np.cos(x) ** 2 / (1.0 + (a * np.cos(x)) ** 2)
    assert np.abs(pairing - expected).max() < 1e-12


def test_gamma_mismatch(flat_zero, twisted_zero, grid64):
    f = field_from_function(grid64, lambda c: np.cos(c[..., 0]))
    h1 = flat_zero.normalize(f)
    h2 = twisted_zero.normalize(f)
    with pytest.raises(GammaMismatch):
        inner(h1, h2)
    with pytest.raises(GammaMismatch):
        require_same_gamma(h1, h2)


def test_laplacian_eigenfunction(flat_zero, grid64):
    h = field_from_function(grid64, lambda c: np.cos(c[..., 0]))
    lap = flat_zero.laplace_beltrami(h)
    # Nonnegative convention: Lap cos = +cos.
    assert np.abs(lap.values - h.values).max() < 1e-12
    assert np.abs(flat_zero.laplace_beltrami(constant_field(grid64, 2.0)).values).max() < 1e-13


def test_laplacian_integration_by_parts(twisted_generic, grid64):
    rng = np.random.default_rng(3)
    for _ in range(3):
        coeffs = rng.uniform(-1, 1, 4)
        h = field_from_function(
            grid64,
            lambda c: coeffs[0] * np.cos(c[..., 0]) + coeffs[1] * np.sin(2 * c[..., 1]),
        )
        k = field_from_function(
            grid64,
            lambda c: coeffs[2] * np.sin(c[..., 0] + c[..., 1]) + coeffs[3] * np.cos(c[..., 1]),
        )
        lap_h = twisted_generic.laplace_beltrami(h)
        vol = twisted_generic.sqrt_det_metric
        lhs = integrate_values(grid64, lap_h.values * k.values * vol)
        rhs = integrate_values(grid64, twisted_generic.grad_inner_values(h.values, k.values) * vol)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_covariant_hessian_flat(flat_zero, grid64):
    h = field_from_function(grid64, lambda c: np.cos(c[..., 0] + c[..., 1]))
    hess = flat_zero.covariant_hessian(h)
    expected = -np.cos(grid64.coords[..., 0] + grid64.coords[..., 1])
    for a in range(2):
        for b in range(2):
            assert np.abs(hess[..., a, b] - expected).max() < 1e-11


def test_covariant_hessian_symmetry_and_trace(twisted_generic, grid64):
    h = field_from_function(
        grid64, lambda c: np.cos(c[..., 0]) + 0.5 * np.sin(c[..., 0] + 2 * c[..., 1])
    )
    hess = twisted_generic.covariant_hessian(h)
    sym_defect = np.abs(hess - np.swapaxes(hess, -1, -2)).max()
    assert sym_defect < 1e-12
    trace = -np.einsum("...ab,...ab->...", twisted_generic.inverse_metric, hess)
    lap = twisted_generic.laplace_beltrami(h).values
    assert np.abs(trace - lap).max() < 1e-8


def test_build_rejects_mismatched_grid(flat_model):
    grid = PeriodicGrid(1, 64)
    with pytest.raises(ValueError):
        build(flat_model, constant_field(grid))


def test_rho_from_the_build_density(twisted_generic, grid64):
    expected = twisted_generic.model.rho(grid64.coords, twisted_generic.grad_phi)
    assert np.array_equal(twisted_generic.rho, expected)


def test_build_evaluates_the_twist_density_once(twisted_model, generic_potential, monkeypatch):
    calls = []
    original = AlmostCYModel.holomorphic_density_parts

    def counting(self, x, y, *args, **kwargs):
        calls.append(1)
        return original(self, x, y, *args, **kwargs)

    monkeypatch.setattr(AlmostCYModel, "holomorphic_density_parts", counting)
    build(twisted_model, generic_potential)
    assert len(calls) == 1


def test_positivity_fails_at_one_grid_point():
    """Flat n = 2: Re Omega~ = 1 - det Hess phi.  This potential has
    det Hess phi = 1.02 at the origin and below 1 at every other grid point."""
    grid = PeriodicGrid(2, 16)
    a, c = 0.8, 0.11875

    def potential(x):
        return a * (np.cos(x[..., 0]) + np.cos(x[..., 1])) + c * np.cos(2 * x[..., 0])

    x1, x2 = grid.coords[..., 0], grid.coords[..., 1]
    det_hess = (a * np.cos(x1) + 4 * c * np.cos(2 * x1)) * a * np.cos(x2)
    assert np.argwhere(1.0 - det_hess <= 0.0).tolist() == [[0, 0]]

    with pytest.raises(NotPositive) as excinfo:
        build(AlmostCYModel(2), field_from_function(grid, potential))
    assert excinfo.value.margin <= 0.0
    assert excinfo.value.worst_point == (0.0, 0.0)


@pytest.mark.parametrize("amplitude", [8.0, 10.0])
def test_overflowing_twist_is_not_positive(amplitude):
    """On the twisted 16^2 model the twist of phi = a sin x1 grows like
    exp(0.1 e^a): at a = 8 Re Omega~ is negative (down to -3.3e9), at
    a = 10 it overflows to NaN at 48 points; both graphs are rejected, with
    no RuntimeWarning on the way."""
    grid = PeriodicGrid(2, 16)
    model = AlmostCYModel(2, twist_amplitude=0.1)
    phi = field_from_function(grid, lambda c: amplitude * np.sin(c[..., 0]))
    with pytest.raises(NotPositive) as excinfo:
        build(model, phi)
    assert not excinfo.value.margin > 0.0
    assert len(excinfo.value.worst_point) == 2


def test_build_from_given_derivatives(twisted_model, generic_potential, grid64, transform_calls):
    grad = gradient_values(grid64, generic_potential.values)
    derivatives = grad, hessian_values(grid64, generic_potential.values, grad=grad)
    del transform_calls[:]
    given = build(twisted_model, generic_potential, derivatives)
    assert transform_calls == []
    assert given.grad_phi is derivatives[0] and given.hess_phi is derivatives[1]
    assert np.array_equal(given.re_omega, build(twisted_model, generic_potential).re_omega)
    with pytest.raises(ValueError, match="derivatives do not match"):
        build(twisted_model, generic_potential, (derivatives[0], derivatives[0]))


METRIC_SIDE = (
    "metric", "inverse_metric", "sqrt_det_metric", "rho", "theta", "lagang_residual",
)


def test_geodesic_stage_build_never_forms_the_metric_side(twisted_model, generic_potential, grid64):
    gamma = build(twisted_model, generic_potential)
    h = field_from_function(grid64, lambda c: np.cos(c[..., 0]) + 0.5 * np.sin(c[..., 1]))
    w_field_values(gamma, h.values)
    assert [name for name in METRIC_SIDE if name in vars(gamma)] == []


def eager_fields(model, phi):
    """Every field as the fully eager constructor computed it, with the
    pullback from the invariants s1 = tr H, s2 = tr adj H, s3 = det H of
    H = Hess phi: det(I - iH) = (1 - s2) - i (s1 - s3)."""
    grid, n = phi.grid, phi.grid.n
    grad_phi, hess_phi = gradient_values(grid, phi.values), hessian_values(grid, phi.values)
    trace = np.trace(hess_phi, axis1=-2, axis2=-1)
    s2 = {1: 0.0, 2: det(hess_phi), 3: np.trace(adjugate(hess_phi), axis1=-2, axis2=-1)}[n]
    s3 = det(hess_phi) if n == 3 else 0.0
    re_det_B, im_det_B = 1.0 - s2, s3 - trace
    metric = np.empty(hess_phi.shape)
    for a in range(n):
        for b in range(n):
            metric[..., a, b] = sum(hess_phi[..., a, c] * hess_phi[..., c, b] for c in range(n))
        metric[..., a, a] += 1.0
    det_metric = det(metric)
    sqrt_det_metric = np.sqrt(det_metric)
    twist_density = model.holomorphic_density(grid.coords, grad_phi)
    re_E, im_E = twist_density.real, twist_density.imag
    pullback_density = (re_E * re_det_B - im_E * im_det_B) + 1j * (
        re_E * im_det_B + im_E * re_det_B
    )
    rho = model.rho_from_density(twist_density)
    rho_half = rho ** (n / 2.0)
    theta = np.angle(pullback_density)
    cos_theta = np.real(pullback_density) / np.abs(pullback_density)
    recon = np.exp(1j * theta) * rho_half * sqrt_det_metric
    scale = np.abs(pullback_density).max()
    return {
        "_re_det_B": np.broadcast_to(re_det_B, grid.shape),
        "_im_det_B": im_det_B,
        "pullback_density": pullback_density,
        "re_omega": np.real(pullback_density),
        "metric": metric,
        "det_metric": det_metric,
        "inverse_metric": adjugate(metric) / det_metric[..., None, None],
        "sqrt_det_metric": sqrt_det_metric,
        "rho": rho,
        "theta": theta,
        "cos_theta": cos_theta,
        "margin": float(cos_theta.min()),
        "re_omega": np.real(pullback_density),
        "total_weight": integrate_values(grid, np.real(pullback_density)),
        "lagang_residual": float(np.abs(pullback_density - recon).max() / scale),
    }


@pytest.mark.parametrize("n, points", [(1, 64), (2, 32), (3, 16)])
def test_lazy_fields_equal_the_eager_formulas(n, points):
    grid = PeriodicGrid(n, points)
    model = AlmostCYModel(n, twist_amplitude=0.1, twist_mode=1)
    phi = field_from_function(
        grid, lambda c: 0.2 * np.cos(c.sum(axis=-1)) + 0.1 * np.sin(c[..., -1] - c[..., 0])
    )
    gamma = build(model, phi)
    for name, expected in eager_fields(model, phi).items():
        assert np.array_equal(getattr(gamma, name), expected), name


def relative_error(actual, expected):
    return np.abs(actual - expected).max() / np.abs(expected).max()


@pytest.mark.parametrize("twist", [0.0, 0.1])
@pytest.mark.parametrize("n, points", [(1, 64), (2, 32), (3, 16)])
def test_re_omega_is_the_phase_volume_weight(n, points, twist):
    """Re Omega~ agrees with cos(theta) rho^{n/2} sqrt(det g), the weight of
    the phase/volume decomposition, to roundoff."""
    grid = PeriodicGrid(n, points)
    model = AlmostCYModel(n, twist_amplitude=twist, twist_mode=1)
    phi = field_from_function(
        grid, lambda c: 0.2 * np.cos(c.sum(axis=-1)) + 0.1 * np.sin(c[..., -1] - c[..., 0])
    )
    gamma = build(model, phi)
    weight = gamma.cos_theta * gamma.rho ** (n / 2.0) * gamma.sqrt_det_metric
    assert relative_error(gamma.re_omega, weight) <= 1e-14
    assert abs(gamma.total_weight - integrate_values(grid, weight)) <= 1e-14 * gamma.total_weight
    # The phase side read off Omega~ against the angle of Omega~ over
    # rho^{n/2} sqrt(det g).
    rho_half = gamma.rho ** (n / 2.0)
    theta = np.angle(gamma.pullback_density / (rho_half * gamma.sqrt_det_metric))
    assert relative_error(gamma.theta, theta) <= 1e-14
    assert relative_error(gamma.cos_theta, np.cos(theta)) <= 1e-14
    assert relative_error(gamma.sec_weight, rho_half * gamma.sqrt_det_metric / np.cos(theta)) <= 1e-14


@pytest.mark.parametrize("n, points", [(1, 64), (2, 32), (3, 16)])
def test_real_invariant_forms_match_complex_linear_algebra(n, points):
    """The pullback, Cramer numerator and metric built from the real invariants
    of Hess phi against B = I - iH by LAPACK, the complex adjugate and einsum."""
    grid = PeriodicGrid(n, points)
    model = AlmostCYModel(n, twist_amplitude=0.1, twist_mode=1)
    phi = field_from_function(
        grid, lambda c: 0.2 * np.cos(c.sum(axis=-1)) + 0.1 * np.sin(c[..., -1] - c[..., 0])
    )
    gamma = build(model, phi)
    H = gamma.hess_phi
    B = np.eye(n) - 1j * H
    det_B = np.linalg.det(B)
    adj_B = det_B[..., None, None] * np.linalg.inv(B)
    E = np.exp(model.twist(grid.coords, gamma.grad_phi))
    assert relative_error(gamma._re_det_B + 1j * gamma._im_det_B, det_B) <= 1e-14
    assert relative_error(gamma.pullback_density, E * det_B) <= 1e-14
    assert relative_error(gamma.re_omega, np.real(E * det_B)) <= 1e-14

    x = grid.coords
    vec = gradient_values(grid, np.cos(x[..., 0]) + 0.5 * np.sin(x.sum(axis=-1)))
    cramer = np.imag(E[..., None] * np.einsum("...ab,...b->...a", adj_B, vec))
    assert relative_error(gamma.cramer_numerator(vec), cramer) <= 1e-14

    metric = np.eye(n) + np.einsum("...ac,...cb->...ab", H, H)
    assert relative_error(gamma.metric, metric) <= 1e-14
    other = gradient_values(grid, np.sin(x[..., -1]))
    pair = np.einsum("...ab,...a,...b->...", np.linalg.inv(metric), vec, other)
    assert relative_error(vector_dot(vec, gamma.raise_index(other)), pair) <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 3])
def test_holomorphic_density_matches_the_complex_exponential(n):
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 2.0 * np.pi, size=(200, n))
    y = rng.uniform(-1.0, 1.0, size=(200, n))
    twisted = AlmostCYModel(n, twist_amplitude=0.3, twist_mode=2)
    oracle = np.exp(twisted.twist(x, y))
    assert relative_error(twisted.holomorphic_density(x, y), oracle) <= 1e-15
    flat = AlmostCYModel(n)
    assert np.array_equal(flat.holomorphic_density(x, y), np.exp(flat.twist(x, y)))
    assert np.array_equal(flat.holomorphic_density(x, y), np.ones(200))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_holomorphic_density_where_the_half_angle_tangent_is_large(n):
    """eps = 0.9 and y_1 in [1, 4] take |b| = |Im g| up to about 49, so b
    crosses odd multiples of pi, where t = tan(b/2) is large."""
    rng = np.random.default_rng(6)
    x = rng.uniform(0.0, 2.0 * np.pi, size=(2000, n))
    y = rng.uniform(-1.0, 1.0, size=(2000, n))
    y[:, 0] = rng.uniform(1.0, 4.0, size=2000)
    model = AlmostCYModel(n, twist_amplitude=0.9, twist_mode=1)
    b = np.imag(model.twist(x, y))
    assert np.abs(b).max() > 45.0 and np.abs(np.tan(b / 2.0)).max() > 1e3
    oracle = np.exp(model.twist(x, y))
    pointwise = np.abs(model.holomorphic_density(x, y) - oracle) / np.abs(oracle)
    assert pointwise.max() <= 1e-13


def test_overflowing_twist_names_its_first_non_finite_point():
    """phi = 10 sin(x1 + pi/4) overflows e^{Re g} on the rows x1 = 7 pi/4 and
    15 pi/8 of the twisted 16^2 grid, not at the origin: the build reports a
    NaN margin at the first point where Re Omega~, taken in complex
    arithmetic from exp(twist), is not finite."""
    grid = PeriodicGrid(2, 16)
    model = AlmostCYModel(2, twist_amplitude=0.1)
    phi = field_from_function(grid, lambda c: 10.0 * np.sin(c[..., 0] + np.pi / 4))
    with pytest.raises(NotPositive) as excinfo:
        build(model, phi)
    assert np.isnan(excinfo.value.margin)

    grad_phi, hess_phi = gradient_values(grid, phi.values), hessian_values(grid, phi.values)
    det_B = np.linalg.det(np.eye(2) - 1j * hess_phi)
    with np.errstate(over="ignore", invalid="ignore"):
        re_pullback = np.real(np.exp(model.twist(grid.coords, grad_phi)) * det_B)
    first = np.unravel_index(np.argmax(~np.isfinite(re_pullback)), grid.shape)
    assert first[0] > 0
    assert excinfo.value.worst_point == tuple(float(grid.axis[i]) for i in first)


def _twisted_generic(n, points, period=2.0 * np.pi):
    grid = PeriodicGrid(n, points, period)
    model = AlmostCYModel(n, period, twist_amplitude=0.1, twist_mode=1)
    k = 2.0 * np.pi / period  # the Hessian of phi stays of one size for any period
    phi = field_from_function(
        grid,
        lambda c: (0.2 * np.cos(k * c.sum(axis=-1)) + 0.1 * np.sin(k * (c[..., -1] - c[..., 0])))
        / k**2,
    )
    return build(model, phi)


@pytest.mark.parametrize("n, points", [(1, 32), (2, 32), (3, 16)])
def test_raise_index_solves_the_metric(n, points):
    gamma = _twisted_generic(n, points)
    x = gamma.grid.coords
    f, g = np.cos(x[..., 0]) + 0.5 * np.sin(x.sum(axis=-1)), np.sin(x[..., -1])
    grad = gradient_values(gamma.grid, f)
    up = gamma.raise_index(grad)
    assert relative_error(up, np.linalg.solve(gamma.metric, grad[..., None])[..., 0]) <= 1e-14
    other = gradient_values(gamma.grid, g)
    assert np.array_equal(gamma.grad_inner_values(g, f), vector_dot(other, up))


@pytest.mark.parametrize(
    "n, points, period", [(1, 32, 2 * np.pi), (2, 32, 2 * np.pi), (2, 32, 3.0), (3, 16, 2 * np.pi)]
)
def test_christoffels_match_per_component_transforms(n, points, period):
    """The metric's derivatives, taken from the stack of its components,
    agree to 1e-14 of their size with a transform pair per derivative; the
    Gauss-formula Christoffels agree with the Levi-Civita bracket of those
    derivatives to roundoff.  The transform pair differentiates each
    component less its mean (the same derivative): the FFT's roundoff on
    the unit mean of g alone moves its derivatives by up to 1e-13 of their
    size."""
    gamma = _twisted_generic(n, points, period)
    grid, g = gamma.grid, gamma.metric
    dg = np.empty(grid.shape + (n, n, n))
    for a in range(n):
        for b in range(a, n):
            for c in range(n):
                dg[..., c, a, b] = dg[..., c, b, a] = per_component_derivative(
                    grid, g[..., a, b] - g[..., a, b].mean(), (c,)
                )
    assert np.abs(symmetric_gradient_values(grid, g) - dg).max() <= 1e-14 * np.abs(dg).max()
    bracket = (
        np.einsum("...adb->...abd", dg)
        + np.einsum("...bda->...abd", dg)
        - np.einsum("...dab->...abd", dg)
    )
    expected = 0.5 * np.einsum("...cd,...abd->...abc", gamma.inverse_metric, bracket)
    assert np.abs(gamma.christoffels - expected).max() <= 1e-10 * np.abs(expected).max()


@pytest.mark.parametrize("n, points", [(1, 32), (2, 32), (3, 16)])
def test_raise_index_in_place_keeps_the_bits_of_the_row_sums(n, points):
    """Each raised component is g^{ab} grad_b summed over b in order, as
    ``vector_dot`` sums it, with the same bits."""
    gamma = _twisted_generic(n, points)
    x = gamma.grid.coords
    grad = gradient_values(gamma.grid, np.cos(x[..., 0]) + 0.5 * np.sin(x.sum(axis=-1)))
    ginv = gamma.inverse_metric
    rows = np.stack([vector_dot(ginv[..., a, :], grad) for a in range(n)], axis=-1)
    assert np.array_equal(gamma.raise_index(grad), rows)
    assert np.array_equal(gamma.raise_index(np.ascontiguousarray(grad)), rows)
