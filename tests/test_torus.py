import numpy as np
import pytest
from conftest import per_component_derivative

import laglab.torus
from laglab.curvature import riemann_field_values, sectional_matrix
from laglab.errors import BandLimitExceeded
from laglab.lagrangian import build
from laglab.torus import (
    PeriodicGrid,
    ScalarField,
    TrigPolynomial,
    TrigTerm,
    adjugate,
    constant_field,
    det,
    divergence_values,
    field_from_function,
    gradient_values,
    hessian_values,
    integrate_product,
    integrate_values,
    partial_values,
    sample,
    symmetric_gradient_values,
)
from laglab.validation import random_trig_polynomial


def test_grid_validation():
    with pytest.raises(ValueError):
        PeriodicGrid(4, 64)
    with pytest.raises(ValueError):
        PeriodicGrid(2, 48)  # not a power of two
    with pytest.raises(ValueError):
        PeriodicGrid(2, 4)  # too small
    with pytest.raises(ValueError):
        PeriodicGrid(2, 64, -1.0)
    # The model's rule: period^n must be a float, so 1e200 is a period at n = 1 only.
    assert PeriodicGrid(1, 16, 1e200).period == 1e200
    for n, period in ((2, 1e200), (2, 1e308), (3, 1e103), (1, np.inf), (1, np.nan), (2, np.inf)):
        with pytest.raises(ValueError, match="period\\^n in the float64 range"):
            PeriodicGrid(n, 16, period)
    for n, points in ((1, 2048), (2, 2048), (3, 256)):
        with pytest.raises(ValueError, match="MAX_GRID_SIZE"):
            PeriodicGrid(n, points)
    assert PeriodicGrid(3, 128).size == 2**21
    assert PeriodicGrid(2, 1024).size == 2**20 and PeriodicGrid(1, 1024).size == 2**10


def test_partial_sin(grid64):
    f = field_from_function(grid64, lambda c: np.sin(c[..., 0]))
    df = partial_values(grid64, f.values, 0)
    expected = np.cos(grid64.coords[..., 0])
    assert np.abs(df - expected).max() < 1e-13


def test_partial_constant(grid64):
    df = partial_values(grid64, constant_field(grid64, 3.7).values, 1)
    assert np.abs(df).max() < 1e-14


def test_partial_high_mode(grid64):
    f = field_from_function(grid64, lambda c: np.cos(3 * c[..., 1]))
    df = partial_values(grid64, f.values, 1)
    expected = -3.0 * np.sin(3 * grid64.coords[..., 1])
    assert np.abs(df - expected).max() < 1e-12


def test_partial_axis_range(grid64):
    f = constant_field(grid64)
    with pytest.raises(ValueError):
        partial_values(grid64, f.values, 2)


def test_integrate_constant(grid64):
    assert integrate_values(grid64, constant_field(grid64, 1.0).values) == pytest.approx(
        (2 * np.pi) ** 2
    )


def test_integrate_cos_squared(grid64):
    f = field_from_function(grid64, lambda c: np.cos(c[..., 0]) ** 2)
    assert integrate_values(grid64, f.values) == pytest.approx(2 * np.pi**2, rel=1e-14)


def test_integrate_odd_modes(grid64):
    f = field_from_function(grid64, lambda c: np.cos(c[..., 0]) * np.cos(c[..., 1]))
    assert abs(integrate_values(grid64, f.values)) < 1e-14


def test_sample_single_mode(grid64):
    poly = TrigPolynomial((TrigTerm(1.0, (1, 0)),))
    f = sample(poly, grid64)
    assert np.abs(f.values - np.cos(grid64.coords[..., 0])).max() < 1e-15


def test_sample_empty(grid64):
    assert np.abs(sample(TrigPolynomial(()), grid64).values).max() == 0.0


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


def _synthesis_cases(n, points):
    """Terms that exercise every branch of the spectral placement: both
    phases, zero wavevectors, a negative and a zero last component,
    duplicate and opposite wavevectors, and components at the band limit."""
    q = points // 4
    waves = [
        ((1, 1, 1), 0.5, "cos"),
        ((1, 1, 1), -0.3, "sin"),
        ((1, 1, 1), 0.25, "cos"),
        ((-1, -1, -1), 0.8, "cos"),
        ((-1, -1, -1), 0.6, "sin"),
        ((3, 2, -1), -0.4, "cos"),
        ((-2, 3, 0), 0.35, "sin"),
        ((2, -3, 0), -0.45, "cos"),
        ((q, q, -q), 0.55, "cos"),
        ((-q, 0, q), -0.65, "sin"),
        ((0, 0, 0), 0.7, "cos"),
        ((0, 0, 0), 0.9, "sin"),
    ]
    return TrigPolynomial(tuple(TrigTerm(c, k[-n:], phase) for k, c, phase in waves))


@pytest.mark.parametrize("n, points", [(1, 32), (2, 16), (3, 16)])
@pytest.mark.parametrize("period", [2 * np.pi, 3.0])
def test_sample_matches_pointwise_evaluation(n, points, period):
    """The spectral synthesis agrees with the term-by-term evaluator."""
    grid = PeriodicGrid(n, points, period)
    polys = [_synthesis_cases(n, points)] + [
        _random_poly(np.random.default_rng(400 + seed), n, max_mode=points // 4, terms=6)
        for seed in range(3)
    ]
    for poly in polys:
        scale = sum(abs(t.coefficient) for t in poly.terms)
        err = np.abs(sample(poly, grid).values - poly.evaluate(grid.coords, period)).max()
        assert err <= 1e-14 * scale


def test_sample_takes_one_inverse_transform(monkeypatch):
    calls = {"_from_spectrum": 0}
    for name in calls:
        original = getattr(laglab.torus, name)

        def counting(grid, data, _name=name, _original=original):
            calls[_name] += 1
            return _original(grid, data)

        monkeypatch.setattr(laglab.torus, name, counting)
    sample(_synthesis_cases(3, 16), PeriodicGrid(3, 16))
    assert calls == {"_from_spectrum": 1}


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
    ab = partial_values(grid64, partial_values(grid64, f.values, 0), 1)
    ba = partial_values(grid64, partial_values(grid64, f.values, 1), 0)
    scale = max(np.abs(ab).max(), 1.0)
    assert np.abs(ab - ba).max() / scale < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_integral_of_derivative_vanishes(grid64, seed):
    rng = np.random.default_rng(100 + seed)
    f = sample(_random_poly(rng, 2), grid64)
    for axis in range(2):
        assert abs(integrate_values(grid64, partial_values(grid64, f.values, axis))) < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_parseval(grid64, seed):
    rng = np.random.default_rng(200 + seed)
    f = sample(_random_poly(rng, 2), grid64)
    coeffs = np.fft.fftn(f.values) / grid64.size
    spectral = float(np.sum(np.abs(coeffs) ** 2)) * grid64.period**grid64.n
    direct = integrate_values(grid64, f.values**2)
    assert abs(direct - spectral) / abs(direct) < 1e-10


def test_three_dimensional_grid():
    grid = PeriodicGrid(3, 16)
    f = field_from_function(grid, lambda c: np.sin(c[..., 2]))
    df = partial_values(grid, f.values, 2)
    assert np.abs(df - np.cos(grid.coords[..., 2])).max() < 1e-13
    assert integrate_values(grid, constant_field(grid, 1.0).values) == pytest.approx(
        (2 * np.pi) ** 3
    )


def test_scalar_field_shape_checks(grid64):
    with pytest.raises(ValueError):
        ScalarField(grid64, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        ScalarField(grid64, np.full(grid64.shape, np.nan))


def test_trig_polynomial_helpers():
    poly = TrigPolynomial((TrigTerm(2.0, (3, -1)), TrigTerm(1.0, (0, 2), "sin")))
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
    for a in range(n):
        assert np.array_equal(partial_values(grid, f, a), grad[..., a])


@pytest.mark.parametrize(
    "n, points, period", [(1, 32, 2 * np.pi), (2, 16, 2 * np.pi), (2, 16, 3.0), (3, 8, 2 * np.pi)]
)
def test_batched_derivatives_match_per_component_transforms(n, points, period):
    """Every derivative agrees, to 1e-14 of its size, with what one FFT pair
    per derivative gives; the entry points agree with each other bit for
    bit."""
    grid = PeriodicGrid(n, points, period)
    rng = np.random.default_rng(n)
    f = rng.standard_normal(grid.shape)
    grad = np.stack([per_component_derivative(grid, f, (a,)) for a in range(n)], axis=-1)
    hess = np.empty(grid.shape + (n, n))
    for a in range(n):
        for b in range(a, n):
            hess[..., a, b] = hess[..., b, a] = per_component_derivative(grid, f, (a, b))
    batched = gradient_values(grid, f)
    assert np.abs(batched - grad).max() <= 1e-14 * np.abs(grad).max()
    assert np.abs(hessian_values(grid, f) - hess).max() <= 1e-14 * np.abs(hess).max()
    for a in range(n):
        assert np.array_equal(partial_values(grid, f, a), batched[..., a])

    vector = rng.standard_normal(grid.shape + (n,))
    div = np.zeros(grid.shape)
    for a in range(n):
        div += per_component_derivative(grid, vector[..., a], (a,))
    assert np.abs(divergence_values(grid, vector) - div).max() <= 1e-14 * np.abs(div).max()


@pytest.mark.parametrize("n, points", [(1, 32), (2, 32), (3, 16)])
def test_hessian_from_a_given_gradient(n, points):
    """``hessian_values`` with the field's own gradient takes no second
    gradient and gives the same Hessian bit for bit; a gradient of another
    shape is rejected."""
    grid = PeriodicGrid(n, points)
    f = np.random.default_rng(30 + n).standard_normal(grid.shape)
    grad = gradient_values(grid, f)
    assert np.array_equal(hessian_values(grid, f, grad=grad), hessian_values(grid, f))
    with pytest.raises(ValueError, match="gradient shape"):
        hessian_values(grid, f, grad=grad[..., :1] if n > 1 else grad[..., 0])


def _grid_last_out(grid, indices):
    """A grid-last array whose index-first view is C-contiguous, as the
    derivative routines return."""
    n = grid.n
    stack = np.full((n,) * indices + grid.shape, np.nan)
    return stack.transpose((*range(indices, indices + n), *range(indices)))


@pytest.mark.parametrize("n, points", [(1, 32), (2, 32), (3, 16)])
def test_derivatives_written_into_out_match_the_allocating_calls(n, points):
    """``out=`` gives the allocating call's bits and returns a view of
    ``out``; an ``out`` of another shape or layout is rejected."""
    grid = PeriodicGrid(n, points)
    f = np.random.default_rng(40 + n).standard_normal(grid.shape)
    grad_out, hess_out = _grid_last_out(grid, 1), _grid_last_out(grid, 2)
    grad = gradient_values(grid, f, out=grad_out)
    hess = hessian_values(grid, f, grad=grad, out=hess_out)
    assert np.array_equal(grad, gradient_values(grid, f))
    assert np.array_equal(hess, hessian_values(grid, f))
    assert np.array_equal(hessian_values(grid, f, out=_grid_last_out(grid, 2)), hess)
    assert np.shares_memory(grad, grad_out) and np.array_equal(grad, grad_out)
    assert np.shares_memory(hess, hess_out) and np.array_equal(hess, hess_out)
    with pytest.raises(ValueError, match="out shape"):
        gradient_values(grid, f, out=np.empty(grid.shape + (n + 1,)))
    with pytest.raises(ValueError, match="out shape"):
        hessian_values(grid, f, grad=grad, out=np.empty(grid.shape + (n,)))
    # The right shape, but every other sample of a longer last axis.
    strided = np.empty(grid.shape[:-1] + (2 * points, n))[..., ::2, :]
    with pytest.raises(ValueError, match="C-contiguous"):
        gradient_values(grid, f, out=strided)


@pytest.mark.parametrize("n, points, period", [(1, 16, 2 * np.pi), (2, 16, 3.0), (3, 8, 2 * np.pi)])
def test_constant_along_an_axis_differentiates_to_exactly_zero(n, points, period):
    """A field that does not vary along axis a has d_a and every d_a d_b
    exactly 0, as the Fourier multiplier gives."""
    grid = PeriodicGrid(n, points, period)
    rng = np.random.default_rng(10 + n)
    for axis in range(n):
        shape = list(grid.shape)
        shape[axis] = 1
        f = np.broadcast_to(rng.standard_normal(shape), grid.shape).copy()
        grad, hess = gradient_values(grid, f), hessian_values(grid, f)
        assert not grad[..., axis].any()
        assert not hess[..., axis, :].any() and not hess[..., :, axis].any()
        assert not partial_values(grid, f, axis).any()


@pytest.mark.parametrize("n, points, period", [(1, 32, 2 * np.pi), (2, 16, 3.0), (3, 8, 2 * np.pi)])
def test_differentiation_matrix_is_antisymmetric(n, points, period):
    d = PeriodicGrid(n, points, period)._diff_matrix
    assert d.shape == (points, points)
    assert np.array_equal(d, -d.T)


@pytest.mark.parametrize(
    "n, points, exact", [(1, 32, True), (2, 16, True), (2, 32, False), (2, 64, True), (3, 8, True)]
)
def test_stacked_and_single_fields_differentiate_alike(n, points, exact):
    """A stack of fields differentiates as its fields do one at a time.
    Both are the same matmul with a different row count, so they agree bit
    for bit unless the row count moves the product across one of the BLAS's
    kernel-size thresholds (OpenBLAS does at 32^2, a 32-row product alone
    and 96 rows stacked, by 1e-14 absolute)."""
    grid = PeriodicGrid(n, points)
    rng = np.random.default_rng(20 + n)
    m = rng.standard_normal(grid.shape + (n, n))
    m = m + np.swapaxes(m, -1, -2)
    vector = rng.standard_normal(grid.shape + (n,))
    stacked = symmetric_gradient_values(grid, m)
    pairs = [
        (stacked[..., a, b], gradient_values(grid, m[..., a, b].copy()))
        for a in range(n)
        for b in range(n)
    ]
    div = partial_values(grid, vector[..., 0].copy(), 0)
    for a in range(1, n):
        div += partial_values(grid, vector[..., a].copy(), a)
    pairs.append((divergence_values(grid, vector), div))
    for got, want in pairs:
        if exact:
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= 1e-15 * points * np.abs(want).max()


_FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn", "rfft2", "irfft2")


def test_no_fft_outside_sample(monkeypatch, twisted_generic):
    """Once a grid's differentiation matrix exists, the whole derivative
    kernel, a build and the curvature routes run without numpy's FFT;
    ``sample`` alone takes one inverse transform."""
    grid, model = twisted_generic.grid, twisted_generic.model
    grid._diff_matrix
    calls = []
    for name in _FFT_NAMES:
        original = getattr(np.fft, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counting)
    h = sample(TrigPolynomial((TrigTerm(0.1, (1, 2)), TrigTerm(0.2, (0, 1), "sin"))), grid)
    assert calls == ["irfftn"]
    calls.clear()
    gamma = build(model, ScalarField(grid, twisted_generic.phi.values + 0.1 * h.values))
    gamma.derivatives(h.values)
    gamma.christoffels, gamma.grad_theta, gamma.grad_rho
    riemann_field_values(gamma, h.values, h.values ** 2, h.values)
    sectional_matrix(gamma, [h.values, h.values ** 2])
    divergence_values(grid, gradient_values(grid, h.values))
    assert calls == []


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


@pytest.mark.parametrize("n,points", [(1, 64), (2, 64), (3, 32)])
def test_integrate_product_is_exact_on_band_limited_products(n, points):
    grid = PeriodicGrid(n, points)
    wave = np.arange(1, n + 1, dtype=float)  # k = (1, ..., n), within N/4
    f = np.cos(np.tensordot(grid.coords, wave, axes=([-1], [0])))
    exact = grid.period**n / 2
    assert abs(integrate_product(grid, f, f) - exact) <= 1e-15 * exact


@pytest.mark.parametrize("n,points", [(1, 64), (2, 64), (3, 32)])
def test_integrate_product_agrees_with_the_mean_and_is_bit_symmetric(n, points):
    grid = PeriodicGrid(n, points)
    rng = np.random.default_rng(50 + n)
    a, b = (sample(random_trig_polynomial(rng, n), grid).values for _ in range(2))
    b = b + 0.3  # a nonzero mean, so the product does not integrate to ~0
    product = integrate_product(grid, a, b)
    scale = integrate_values(grid, np.abs(a * b))
    assert abs(product - integrate_values(grid, a * b)) <= 1e-15 * scale
    # The Gram matrix's batch independence relies on the exact symmetry.
    assert product == integrate_product(grid, b, a)
