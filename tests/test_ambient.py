import numpy as np
import pytest

import laglab.ambient as ambient
from laglab.ambient import AlmostCYModel
from laglab.errors import NonPositiveDensity
from laglab.lagrangian import build
from laglab.torus import PeriodicGrid, field_from_function

RHO_TWISTED_ORIGIN = 1.1051709180756477  # exp(0.1), n = 2


def point(x, y):
    """One point (x, y) of T*T^n as the (1, n) arrays the model evaluates."""
    return np.array([x], dtype=float), np.array([y], dtype=float)


def test_model_validation():
    with pytest.raises(ValueError):
        AlmostCYModel(5)
    with pytest.raises(ValueError):
        AlmostCYModel(2, twist_amplitude=1.0)
    with pytest.raises(ValueError):
        AlmostCYModel(2, twist_mode=0)
    with pytest.raises(ValueError):
        AlmostCYModel(2, period=0.0)


def test_the_torus_volume_must_be_a_float():
    """The quadratures weigh by period^n: 1e200 is a valid period at n = 1
    only, and 1e308 squared overflows."""
    assert AlmostCYModel(1, period=1e200).period == 1e200
    for n, period in ((2, 1e200), (2, 1e308), (3, 1e103), (1, np.inf), (1, np.nan)):
        with pytest.raises(ValueError, match="period\\^n in the float64 range"):
            AlmostCYModel(n, period=period)


def test_omega_matrix_convention():
    model = AlmostCYModel(1)
    W = model.omega_matrix()
    # omega(d_y, d_x) = 1 in one dimension
    assert W[1, 0] == 1.0 and W[0, 1] == -1.0

    model2 = AlmostCYModel(2)
    W2 = model2.omega_matrix()
    assert W2[0, 1] == 0.0  # omega(d_x1, d_x2) = 0
    rng = np.random.default_rng(0)
    v = rng.standard_normal(4)
    assert abs(v @ W2 @ v) < 1e-15  # antisymmetry


def test_metric_from_omega_and_j():
    # omega(., J.) must be the Euclidean metric on the coordinate frame.
    for n in (1, 2, 3):
        model = AlmostCYModel(n)
        W = model.omega_matrix()
        J = model.complex_structure_matrix()
        metric = W @ J
        assert np.allclose(metric, np.eye(2 * n), atol=1e-15)
        # compatibility: omega(Jv, Jw) = omega(v, w)
        assert np.allclose(J.T @ W @ J, W, atol=1e-15)


def test_hamiltonian_field_is_vertical():
    # Solving i_xi omega = dH for H = h(x) must give xi = sum d_j h d_{y_j}.
    model = AlmostCYModel(2)
    W = model.omega_matrix()
    dh = np.array([0.3, -0.7])  # components of dH on (dx_1, dx_2)
    target = np.concatenate([dh, np.zeros(2)])
    # (i_xi omega)_b = sum_a xi_a W[a, b]; solve W^T xi = target
    xi = np.linalg.solve(W.T, target)
    assert np.allclose(xi, np.concatenate([np.zeros(2), dh]), atol=1e-15)


def test_twist_values():
    flat = AlmostCYModel(2)
    p0 = point((0.0, 0.0), (0.0, 0.0))
    assert flat.twist(*p0)[0] == 0.0

    model = AlmostCYModel(2, twist_amplitude=0.1, twist_mode=1)
    assert model.twist(*p0)[0] == pytest.approx(0.1)
    quarter = point((np.pi / 2, 0.0), (0.0, 0.0))
    assert model.twist(*quarter)[0] == pytest.approx(0.1j)


def test_twist_periodicity():
    model = AlmostCYModel(2, twist_amplitude=0.3, twist_mode=2)
    p = point((1.1, 0.4), (0.2, -0.3))
    shifted = point((1.1 + model.period, 0.4), (0.2, -0.3))
    assert model.twist(*p)[0] == pytest.approx(model.twist(*shifted)[0])


def test_rho_flat():
    model = AlmostCYModel(2)
    assert model.rho(*point((1.0, 2.0), (0.3, -0.4)))[0] == pytest.approx(1.0)


def test_rho_twisted_origin():
    model = AlmostCYModel(2, twist_amplitude=0.1, twist_mode=1)
    val = model.rho(*point((0.0, 0.0), (0.0, 0.0)))[0]
    assert val == pytest.approx(RHO_TWISTED_ORIGIN, rel=1e-14)


def test_rho_decay_limit():
    # Re g -> 0 along y_1 -> -infinity, so rho -> 1.
    model = AlmostCYModel(2, twist_amplitude=0.1, twist_mode=1)
    val = model.rho(*point((0.0, 0.0), (-30.0, 0.0)))[0]
    assert val == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("eps", [0.0, 0.1, 0.5])
def test_rho_defining_relation_vs_closed_form(n, eps):
    model = AlmostCYModel(n, twist_amplitude=eps)
    rng = np.random.default_rng(42)
    x = rng.uniform(0, model.period, size=(200, n))
    y = rng.uniform(-1, 1, size=(200, n))
    assert np.abs(model.rho(x, y) - model.rho_closed_form(x, y)).max() < 1e-12


def test_omega_density_values():
    flat = AlmostCYModel(2)
    assert flat.holomorphic_density(*point((0.4, 1.0), (0.1, 0.2)))[0] == pytest.approx(1.0)
    model = AlmostCYModel(2, twist_amplitude=0.1, twist_mode=1)
    quarter = point((np.pi / 2, 0.0), (0.0, 0.0))
    assert model.holomorphic_density(*quarter)[0] == pytest.approx(np.exp(0.1j))


def explicit_density(model, x, y):
    """e^a ((1 - t^2) + 2it) / (1 + t^2) with a + ib = eps e^{kappa y_1} e^{i kappa x_1}
    and t = tan(b/2)."""
    radius = model.twist_amplitude * np.exp(model.kappa * y[..., 0])
    a = radius * np.cos(model.kappa * x[..., 0])
    b = radius * np.sin(model.kappa * x[..., 0])
    t = np.tan(b / 2.0)
    scale = np.exp(a) / (1.0 + t * t)
    c = np.empty(a.shape, dtype=complex)
    c.real, c.imag = (1.0 - t * t) * scale, 2.0 * t * scale
    return c


@pytest.mark.parametrize(
    "n, points, potential",
    [
        (2, 64, lambda c: 0.2 * np.cos(c[..., 0] + c[..., 1])),
        (3, 32, lambda c: 0.2 * np.cos(c[..., 0] + c[..., 1]) + 0.1 * np.cos(c[..., 1] + c[..., 2])),
    ],
)
def test_grid_twist_density_is_the_explicit_formula(n, points, potential):
    """On a grid the trig of kappa x_1 is taken on the axis samples and
    broadcast; the density is still the pointwise formula to the bit."""
    model = AlmostCYModel(n, twist_amplitude=0.1, twist_mode=1)
    grid = PeriodicGrid(n, points)
    gamma = build(model, field_from_function(grid, potential))
    expected = explicit_density(model, grid.coords, gamma.grad_phi)
    assert np.array_equal(gamma._twist_density, expected)
    assert np.array_equal(model.holomorphic_density(grid.coords, gamma.grad_phi), expected)


def _axis_samples(grid):
    """x_1's N axis samples shaped (N,) + (1,) * n, as the graph build passes
    them: they broadcast against the fiber coordinates of every grid point."""
    return grid.axis.reshape((-1,) + (1,) * grid.n)


def test_grid_twist_density_of_two_modes_on_one_grid():
    grid = PeriodicGrid(2, 32)
    y = 0.3 * np.sin(grid.coords)
    models = [AlmostCYModel(2, twist_amplitude=0.1, twist_mode=m) for m in (1, 2)]
    for model in models + models[::-1]:
        density = model.holomorphic_density(_axis_samples(grid), y)
        assert np.array_equal(density, explicit_density(model, grid.coords, y))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_axis_samples_broadcast_to_the_grid_bit_for_bit(n):
    """Both parts from x_1's axis samples equal those from every grid point,
    twisted and flat, at 16, 16^2 and 16^3."""
    grid = PeriodicGrid(n, 16)
    y = 0.3 * np.sin(grid.coords + 0.5)
    for model in (AlmostCYModel(n, twist_amplitude=0.2), AlmostCYModel(n)):
        for full, broadcast in zip(model.holomorphic_density_parts(grid.coords, y),
                                   model.holomorphic_density_parts(_axis_samples(grid), y)):
            assert broadcast.shape == grid.shape
            assert np.array_equal(full, broadcast)


def test_flat_density_is_exactly_one():
    """eps = 0 returns ones without evaluating the twist: a fiber coordinate
    that would overflow exp(kappa y_1) raises no RuntimeWarning."""
    grid = PeriodicGrid(2, 16)
    y = np.full(grid.coords.shape, 1e4)
    for x in (grid.coords, _axis_samples(grid)):
        density = AlmostCYModel(2).holomorphic_density(x, y)
        assert density.dtype == complex
        assert np.array_equal(density, np.ones(grid.shape))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_density_modulus_matches_rho(n):
    # |c(p)| = rho(p)^{n/2} links the two evaluators pointwise.
    model = AlmostCYModel(n, twist_amplitude=0.2, twist_mode=1)
    rng = np.random.default_rng(5)
    x = rng.uniform(0, model.period, size=(100, n))
    y = rng.uniform(-1, 1, size=(100, n))
    lhs = np.abs(model.holomorphic_density(x, y))
    rhs = model.rho(x, y) ** (n / 2.0)
    assert np.abs(lhs - rhs).max() < 1e-13


def test_non_positive_density_guard(monkeypatch):
    model = AlmostCYModel(2)
    x = np.zeros((1, 2))
    y = np.zeros((1, 2))
    monkeypatch.setattr(ambient, "_frame_ratio", lambda n: complex(-1.0))
    with pytest.raises(NonPositiveDensity):
        model.rho(x, y)
    monkeypatch.setattr(ambient, "_frame_ratio", lambda n: complex(1.0, 0.5))
    with pytest.raises(NonPositiveDensity):
        model.rho(x, y)


def test_underflowed_density_gives_zero_rho():
    # At y_1 = 10, x_1 = pi the twist is g = -0.1 e^10, so |e^g|^2 underflows
    # to 0: a valid point, where the closed form also gives rho = 0.
    model = AlmostCYModel(2, twist_amplitude=0.1)
    p = point((np.pi, 0.0), (10.0, 0.0))
    assert model.rho(*p)[0] == 0.0
    assert float(model.rho_closed_form(*p)[0]) == 0.0


def test_frame_ratio_is_exactly_one():
    # The convention set makes the defining-relation frame constant exactly 1.
    for n in (1, 2, 3):
        ratio = ambient._frame_ratio(n)
        assert ratio == pytest.approx(1.0)
        assert abs(ratio.imag) < 1e-15
