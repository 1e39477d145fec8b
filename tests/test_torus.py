import numpy as np
import pytest

from laglab.errors import BandLimitExceeded
from laglab.torus import (
    PeriodicGrid,
    ScalarField,
    TensorField,
    TrigPolynomial,
    TrigTerm,
    adjugate,
    constant_field,
    det,
    field_from_function,
    grad_hess,
    gradient_values,
    hessian_values,
    integrate,
    partial,
    sample,
)


def test_grid_validation():
    with pytest.raises(ValueError):
        PeriodicGrid(4, 64)
    with pytest.raises(ValueError):
        PeriodicGrid(2, 48)  # not a power of two
    with pytest.raises(ValueError):
        PeriodicGrid(2, 4)  # too small
    with pytest.raises(ValueError):
        PeriodicGrid(2, 64, -1.0)


def test_partial_sin(grid64):
    f = field_from_function(grid64, lambda c: np.sin(c[..., 0]))
    df = partial(f, 0)
    expected = np.cos(grid64.coords[..., 0])
    assert np.abs(df.values - expected).max() < 1e-13


def test_partial_constant(grid64):
    df = partial(constant_field(grid64, 3.7), 1)
    assert np.abs(df.values).max() < 1e-14


def test_partial_high_mode(grid64):
    f = field_from_function(grid64, lambda c: np.cos(3 * c[..., 1]))
    df = partial(f, 1)
    expected = -3.0 * np.sin(3 * grid64.coords[..., 1])
    assert np.abs(df.values - expected).max() < 1e-12


def test_partial_axis_range(grid64):
    f = constant_field(grid64)
    with pytest.raises(ValueError):
        partial(f, 2)


def test_integrate_constant(grid64):
    assert integrate(constant_field(grid64, 1.0)) == pytest.approx((2 * np.pi) ** 2)


def test_integrate_cos_squared(grid64):
    f = field_from_function(grid64, lambda c: np.cos(c[..., 0]) ** 2)
    assert integrate(f) == pytest.approx(2 * np.pi**2, rel=1e-14)


def test_integrate_odd_modes(grid64):
    f = field_from_function(grid64, lambda c: np.cos(c[..., 0]) * np.cos(c[..., 1]))
    assert abs(integrate(f)) < 1e-14


def test_sample_single_mode(grid64):
    poly = TrigPolynomial((TrigTerm(1.0, (1, 0)),))
    f = sample(poly, grid64)
    assert np.abs(f.values - np.cos(grid64.coords[..., 0])).max() < 1e-15


def test_sample_empty(grid64):
    assert sample(TrigPolynomial(()), grid64).sup_norm() == 0.0


def test_sample_superposition_at_origin(grid64):
    poly = TrigPolynomial((TrigTerm(2.0, (1, 1), "sin"), TrigTerm(-1.0, (0, 2), "cos")))
    f = sample(poly, grid64)
    assert f.values[0, 0] == pytest.approx(-1.0)


def test_sample_band_limit(grid64):
    poly = TrigPolynomial((TrigTerm(1.0, (17, 0)),))  # N/4 = 16
    with pytest.raises(BandLimitExceeded):
        sample(poly, grid64)
    ok = TrigPolynomial((TrigTerm(1.0, (16, 0)),))
    sample(ok, grid64)


def test_sample_dimension_mismatch(grid64):
    poly = TrigPolynomial((TrigTerm(1.0, (1,)),))
    with pytest.raises(BandLimitExceeded):
        sample(poly, grid64)


def _random_poly(rng, n, max_mode=3, terms=4):
    out = []
    for _ in range(terms):
        wave = tuple(int(v) for v in rng.integers(-max_mode, max_mode + 1, size=n))
        if all(v == 0 for v in wave):
            wave = (1,) + (0,) * (n - 1)
        out.append(TrigTerm(float(rng.uniform(-1, 1)), wave, rng.choice(["cos", "sin"])))
    return TrigPolynomial(tuple(out))


@pytest.mark.parametrize("seed", range(5))
def test_partials_commute(grid64, seed):
    rng = np.random.default_rng(seed)
    f = sample(_random_poly(rng, 2), grid64)
    ab = partial(partial(f, 0), 1).values
    ba = partial(partial(f, 1), 0).values
    scale = max(np.abs(ab).max(), 1.0)
    assert np.abs(ab - ba).max() / scale < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_integral_of_derivative_vanishes(grid64, seed):
    rng = np.random.default_rng(100 + seed)
    f = sample(_random_poly(rng, 2), grid64)
    for axis in range(2):
        assert abs(integrate(partial(f, axis))) < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_parseval(grid64, seed):
    rng = np.random.default_rng(200 + seed)
    f = sample(_random_poly(rng, 2), grid64)
    coeffs = np.fft.fftn(f.values) / grid64.size
    spectral = float(np.sum(np.abs(coeffs) ** 2)) * grid64.period**grid64.n
    direct = integrate(ScalarField(grid64, f.values**2))
    assert abs(direct - spectral) / abs(direct) < 1e-10


def test_three_dimensional_grid():
    grid = PeriodicGrid(3, 16)
    f = field_from_function(grid, lambda c: np.sin(c[..., 2]))
    df = partial(f, 2)
    assert np.abs(df.values - np.cos(grid.coords[..., 2])).max() < 1e-13
    assert integrate(constant_field(grid, 1.0)) == pytest.approx((2 * np.pi) ** 3)


def test_scalar_field_algebra(grid64):
    f = field_from_function(grid64, lambda c: np.sin(c[..., 0]))
    g = field_from_function(grid64, lambda c: np.cos(c[..., 0]))
    assert np.allclose((f * f + g * g).values, 1.0)
    assert np.allclose((2.0 * f - f - f).values, 0.0)
    with pytest.raises(ValueError):
        f + field_from_function(PeriodicGrid(2, 32), lambda c: c[..., 0] * 0)


def test_scalar_field_shape_checks(grid64):
    with pytest.raises(ValueError):
        ScalarField(grid64, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        ScalarField(grid64, np.full(grid64.shape, np.nan))


def test_tensor_field_symmetry(grid64):
    n = grid64.n
    vals = np.zeros(grid64.shape + (n, n))
    vals[..., 0, 1] = 1.0
    with pytest.raises(ValueError):
        TensorField(grid64, 2, vals, symmetric=True)
    vals[..., 1, 0] = 1.0
    t = TensorField(grid64, 2, vals, symmetric=True)
    assert t.component(0, 1).values[0, 0] == 1.0


def test_trig_polynomial_helpers():
    poly = TrigPolynomial((TrigTerm(2.0, (3, -1)), TrigTerm(1.0, (0, 2), "sin")))
    assert poly.max_mode() == 3
    scaled = poly.scaled(0.5)
    assert scaled.terms[0].coefficient == 1.0
    pts = np.zeros((1, 2))
    assert poly.evaluate(pts)[0] == pytest.approx(2.0)


def _exact_derivatives(poly, grid):
    """Gradient and Hessian of a trig polynomial, term by term."""
    freq = 2.0 * np.pi / grid.period
    grad = np.zeros(grid.shape + (grid.n,))
    hess = np.zeros(grid.shape + (grid.n, grid.n))
    for t in poly.terms:
        k = freq * np.asarray(t.wavevector, dtype=float)
        arg = grid.coords @ k
        even, odd = (np.cos(arg), np.sin(arg)) if t.phase == "cos" else (np.sin(arg), -np.cos(arg))
        grad -= t.coefficient * odd[..., None] * k
        hess -= t.coefficient * even[..., None, None] * np.multiply.outer(k, k)
    return grad, hess


@pytest.mark.parametrize(
    "n, points, period", [(1, 32, 2 * np.pi), (2, 64, 2 * np.pi), (2, 32, 3.0), (3, 16, 2 * np.pi)]
)
@pytest.mark.parametrize("seed", range(3))
def test_spectral_derivatives_exact(n, points, period, seed):
    grid = PeriodicGrid(n, points, period)
    poly = _random_poly(np.random.default_rng(300 + seed), n, max_mode=points // 4)
    f = sample(poly, grid).values
    grad_exact, hess_exact = _exact_derivatives(poly, grid)
    grad, hess = gradient_values(grid, f), hessian_values(grid, f)
    assert np.abs(grad - grad_exact).max() <= 1e-12 * max(np.abs(grad_exact).max(), 1.0)
    assert np.abs(hess - hess_exact).max() <= 1e-12 * max(np.abs(hess_exact).max(), 1.0)
    assert np.array_equal(hess, np.swapaxes(hess, -1, -2))
    both = grad_hess(grid, f)
    assert np.array_equal(both[0], grad) and np.array_equal(both[1], hess)
    for a in range(n):
        assert np.array_equal(partial(ScalarField(grid, f), a).values, grad[..., a])


@pytest.mark.parametrize("n, points", [(1, 16), (2, 16), (3, 8)])
def test_nyquist_mode_differentiates_to_zero(n, points):
    grid = PeriodicGrid(n, points)
    for axis in range(n):
        f = np.cos(points // 2 * grid.coords[..., axis])
        assert np.abs(gradient_values(grid, f)).max() < 1e-12
        assert np.abs(hessian_values(grid, f)).max() < 1e-12


def _random_symmetric(rng, n, batch=2000, scale=0.6):
    h = rng.normal(scale=scale, size=(batch, n, n))
    return 0.5 * (h + np.swapaxes(h, -1, -2))


def _max_rel(a, ref):
    """Largest error per batch member, relative to that member's size."""
    axes = tuple(range(1, ref.ndim))
    err = np.abs(a - ref).max(axis=axes) if axes else np.abs(a - ref)
    size = np.abs(ref).max(axis=axes) if axes else np.abs(ref)
    return float((err / size).max())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_closed_form_linear_algebra_matches_lapack(n):
    rng = np.random.default_rng(40 + n)
    hess = _random_symmetric(rng, n)
    eye = np.eye(n)
    # The two batches the graph geometry uses: real SPD g and complex B.
    for m in (eye + hess @ hess, eye - 1j * hess):
        d, adj = det(m), adjugate(m)
        ref_det, ref_inv = np.linalg.det(m), np.linalg.inv(m)
        assert _max_rel(d, ref_det) <= 1e-14
        assert _max_rel(adj / d[:, None, None], ref_inv) <= 1e-14
        assert _max_rel(adj, ref_det[:, None, None] * ref_inv) <= 1e-14
        assert adj.dtype == m.dtype


def test_closed_form_linear_algebra_shapes():
    m = np.arange(1.0, 10.0).reshape(3, 3) ** 2
    assert det(m) == pytest.approx(np.linalg.det(m), rel=1e-14)
    assert np.allclose(m @ adjugate(m), det(m) * np.eye(3), rtol=0, atol=1e-9)
    with pytest.raises(ValueError):
        det(np.zeros((5, 4, 4)))
    with pytest.raises(ValueError):
        adjugate(np.zeros((5, 2, 3)))
