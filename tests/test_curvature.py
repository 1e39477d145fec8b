import tracemalloc

import numpy as np
import pytest

from laglab.ambient import AlmostCYModel
from laglab.connection import (
    cov_deriv_pair_values,
    geodesic_acceleration,
    geodesic_shoot,
    w_field_values,
)
from laglab.curvature import (
    DEFAULT_MARGIN_THRESHOLD,
    flat_family_check,
    mean_zero_residual,
    riemann_field_values,
    riemann_quad_values,
    sectional,
    sectional_matrix,
)
from laglab.errors import (
    DegeneratePlane,
    GammaMismatch,
    InputError,
    MarginTooSmall,
    ShapeMismatch,
)
from laglab.lagrangian import GraphLagrangian, build
from laglab.torus import PeriodicGrid, constant_field, field_from_function, integrate_values
from laglab.validation import random_trig_polynomial
from laglab.torus import sample

SECTIONAL_SPOT = -0.025330295910584444  # -1/(4 pi^2)
QUAD_SPOT = -9.869604401089358  # -pi^2


def _tangent(gamma, fn):
    return gamma.normalize(field_from_function(gamma.grid, fn))


def test_riemann_field_spot(flat_zero, grid64):
    h = _tangent(flat_zero, lambda c: np.cos(c[..., 0]))
    k = _tangent(flat_zero, lambda c: np.cos(c[..., 1]))
    r = riemann_field_values(flat_zero, h.values, k.values, k.values)
    x = grid64.coords
    expected = -np.cos(x[..., 0]) * np.sin(x[..., 1]) ** 2
    assert np.abs(r - expected).max() < 1e-11


def test_riemann_antisymmetry(twisted_generic, grid64):
    h = _tangent(twisted_generic, lambda c: np.cos(c[..., 0]) + np.sin(2 * c[..., 1]))
    l = _tangent(twisted_generic, lambda c: np.sin(c[..., 0] + c[..., 1]))
    r = riemann_field_values(twisted_generic, h.values, h.values, l.values)
    assert np.abs(r).max() < 1e-14


def test_riemann_gauge_invariance(twisted_generic, grid64):
    h = field_from_function(grid64, lambda c: np.cos(c[..., 0]))
    k = field_from_function(grid64, lambda c: np.sin(c[..., 1]))
    l = field_from_function(grid64, lambda c: np.cos(c[..., 0] + c[..., 1]))
    base = riemann_field_values(twisted_generic, h.values, k.values, l.values)
    shifted = riemann_field_values(
        twisted_generic, h.values + 3.0, k.values - 1.5, l.values
    )
    assert np.abs(base - shifted).max() < 1e-12


def test_riemann_vanishes_in_dimension_one():
    grid = PeriodicGrid(1, 64)
    for eps in (0.0, 0.1):
        model = AlmostCYModel(1, twist_amplitude=eps)
        phi = field_from_function(grid, lambda c: 0.2 * np.cos(c[..., 0]))
        gamma = build(model, phi)
        rng = np.random.default_rng(9)
        for _ in range(3):
            fields = [sample(random_trig_polynomial(rng, 1), grid).values for _ in range(3)]
            r = riemann_field_values(gamma, *fields)
            assert np.abs(r).max() < 1e-10


def test_riemann_quad_spot(flat_zero, grid64):
    h = _tangent(flat_zero, lambda c: np.cos(c[..., 0]))
    k = _tangent(flat_zero, lambda c: np.cos(c[..., 1]))
    value = riemann_quad_values(flat_zero, h.values, k.values, k.values, h.values)
    assert value == pytest.approx(QUAD_SPOT, rel=1e-12)


def test_riemann_quad_antisymmetry_and_pair_symmetry(twisted_generic, grid64):
    rng = np.random.default_rng(17)
    f = [
        twisted_generic.normalize_values(
            sample(random_trig_polynomial(rng, 2), grid64).values
        )
        for _ in range(4)
    ]
    q = lambda a, b, c, d: riemann_quad_values(twisted_generic, a, b, c, d)
    hk = q(f[0], f[1], f[2], f[3])
    kh = q(f[1], f[0], f[2], f[3])
    assert hk == pytest.approx(-kh, rel=1e-12)
    lm = q(f[2], f[3], f[0], f[1])
    assert hk == pytest.approx(lm, rel=1e-10)


def test_pairing_identity_random(flat_generic, twisted_generic, grid64):
    rng = np.random.default_rng(23)
    for gamma in (flat_generic, twisted_generic):
        for _ in range(5):
            f = [
                gamma.normalize_values(
                    sample(random_trig_polynomial(rng, 2), grid64).values
                )
                for _ in range(4)
            ]
            r = riemann_field_values(gamma, f[0], f[1], f[2])
            lhs = gamma.inner_values(r, f[3])
            rhs = riemann_quad_values(gamma, *f)
            assert lhs == pytest.approx(rhs, rel=1e-6, abs=1e-12)


def test_first_bianchi(twisted_generic, grid64):
    rng = np.random.default_rng(29)
    f = [
        twisted_generic.normalize_values(
            sample(random_trig_polynomial(rng, 2), grid64).values
        )
        for _ in range(4)
    ]
    q = lambda a, b, c, d: riemann_quad_values(twisted_generic, a, b, c, d)
    cyclic = q(f[0], f[1], f[2], f[3]) + q(f[1], f[2], f[0], f[3]) + q(f[2], f[0], f[1], f[3])
    scale = max(abs(q(f[0], f[1], f[2], f[3])), 1e-300)
    assert abs(cyclic) / scale < 1e-8


def test_mean_zero_residual(twisted_generic, grid64):
    rng = np.random.default_rng(31)
    f = [
        twisted_generic.normalize(sample(random_trig_polynomial(rng, 2), grid64)).values
        for _ in range(3)
    ]
    r = riemann_field_values(twisted_generic, *f)
    residual, scale = mean_zero_residual(twisted_generic, r)
    assert residual <= 1e-8 * scale


def test_sectional_spot(flat_zero, grid64):
    h = _tangent(flat_zero, lambda c: np.cos(c[..., 0]))
    k = _tangent(flat_zero, lambda c: np.cos(c[..., 1]))
    value = sectional(flat_zero, h, k)
    assert value == pytest.approx(SECTIONAL_SPOT, rel=1e-6)


def test_sectional_degenerate(flat_zero, grid64):
    h = _tangent(flat_zero, lambda c: np.cos(c[..., 0]))
    parallel = _tangent(flat_zero, lambda c: 2.0 * np.cos(c[..., 0]) + 0.7)
    with pytest.raises(DegeneratePlane):
        sectional(flat_zero, h, parallel)


def test_sectional_one_dimensional_zero():
    grid = PeriodicGrid(1, 64)
    model = AlmostCYModel(1, twist_amplitude=0.1)
    gamma = build(model, field_from_function(grid, lambda c: 0.2 * np.cos(c[..., 0])))
    h = _tangent(gamma, lambda c: np.cos(c[..., 0]))
    k = _tangent(gamma, lambda c: np.sin(2 * c[..., 0]))
    assert abs(sectional(gamma, h, k)) < 1e-10


def test_sectional_nonpositive_random(flat_generic, twisted_generic, grid64):
    rng = np.random.default_rng(37)
    for gamma in (flat_generic, twisted_generic):
        for _ in range(10):
            h = gamma.normalize(sample(random_trig_polynomial(rng, 2), grid64))
            k = gamma.normalize(sample(random_trig_polynomial(rng, 2), grid64))
            try:
                assert sectional(gamma, h, k) <= 1e-10
            except DegeneratePlane:
                continue


def _thin_margin_graph():
    """Flat n = 2 at 32^2, phi = 0.995 (cos x_1 + cos x_2): a positive graph
    whose margin 5.0e-3 is below ``DEFAULT_MARGIN_THRESHOLD``."""
    grid = PeriodicGrid(2, 32)
    gamma = build(AlmostCYModel(2), field_from_function(
        grid, lambda c: 0.995 * (np.cos(c[..., 0]) + np.cos(c[..., 1]))
    ))
    assert 0.0 < gamma.margin <= DEFAULT_MARGIN_THRESHOLD
    return gamma


def test_margin_threshold():
    gamma = _thin_margin_graph()
    h = _tangent(gamma, lambda c: np.cos(c[..., 0]))
    k = _tangent(gamma, lambda c: np.cos(c[..., 1]))
    with pytest.raises(MarginTooSmall, match="<= threshold 1.0e-02"):
        riemann_field_values(gamma, h.values, k.values, k.values)
    with pytest.raises(MarginTooSmall):
        riemann_quad_values(gamma, h.values, k.values, k.values, h.values)


def test_tangents_on_another_graph_are_rejected():
    """Tangents that share one graph, but not ``gamma``, are a mismatch too."""
    grid = PeriodicGrid(2, 32)
    flat_zero = build(AlmostCYModel(2), constant_field(grid))
    twisted_generic = build(
        AlmostCYModel(2, twist_amplitude=0.1, twist_mode=1),
        field_from_function(grid, lambda c: 0.2 * np.cos(c[..., 0] + c[..., 1])),
    )
    h = _tangent(twisted_generic, lambda c: np.cos(c[..., 0]))
    k = _tangent(twisted_generic, lambda c: np.cos(c[..., 1]))
    assert sectional(twisted_generic, h, k) < 0.0
    with pytest.raises(GammaMismatch, match="other than gamma"):
        sectional(flat_zero, h, k)
    with pytest.raises(GammaMismatch, match="other than gamma"):
        flat_family_check(flat_zero, h, [lambda s: s])
    with pytest.raises(GammaMismatch, match="other than gamma"):
        geodesic_shoot(flat_zero, h, 0.1, 1)


def test_flat_family(flat_zero, twisted_zero, grid64):
    for gamma in (flat_zero, twisted_zero):
        l = _tangent(gamma, lambda c: np.cos(c[..., 0]) + 0.5 * np.cos(c[..., 1]))
        report = flat_family_check(gamma, l, [lambda s: s, lambda s: s**2, lambda s: s**3 - s])
        assert report.max_abs_sectional < 1e-8
        assert len(report.sectionals) == 3


def test_flat_family_single_member(flat_zero, grid64):
    l = _tangent(flat_zero, lambda c: np.cos(c[..., 0]))
    report = flat_family_check(flat_zero, l, [lambda s: s])
    assert report.max_abs_sectional == 0.0
    assert report.sectionals == ()


def _twisted_generic(n, points):
    """The twisted generic graph of dimension n (0.2 cos(x1 + x2) + 0.1 cos(x2 + x3))."""
    def potential(c):
        out = 0.2 * np.cos(c[..., 0] + c[..., min(1, n - 1)])
        if n == 3:
            out += 0.1 * np.cos(c[..., 1] + c[..., 2])
        return out

    grid = PeriodicGrid(n, points)
    return build(AlmostCYModel(n, twist_amplitude=0.1), field_from_function(grid, potential))


@pytest.mark.parametrize("n,points", [(1, 64), (2, 64), (3, 32)])
def test_sectional_matrix_matches_per_pair_route(n, points):
    gamma = _twisted_generic(n, points)
    rng = np.random.default_rng(41)
    f = [gamma.normalize_values(sample(random_trig_polynomial(rng, n), gamma.grid).values)
         for _ in range(5)]
    numerator, gram = sectional_matrix(gamma, f)
    weight = gamma.rho ** (n / 2) * gamma.sqrt_det_metric / gamma.cos_theta
    for i in range(len(f)):
        for j in range(len(f)):
            num_ref = riemann_quad_values(gamma, f[i], f[j], f[j], f[i])
            # Cauchy-Schwarz bound of the numerator: the size of the terms
            # whose difference it is (at n = 1 they cancel to roundoff).
            bound = integrate_values(gamma.grid, weight * gamma.grad_inner_values(f[i], f[i])
                                     * gamma.grad_inner_values(f[j], f[j]))
            assert abs(numerator[i, j] - num_ref) <= 1e-14 * bound
            gram_ref = gamma.inner_values(f[i], f[j])
            assert abs(gram[i, j] - gram_ref) <= 1e-14 * np.sqrt(gram[i, i] * gram[j, j])
            if n > 1 and i != j:
                det_ref = (gamma.inner_values(f[i], f[i]) * gamma.inner_values(f[j], f[j])
                           - gram_ref**2)
                k_ref = num_ref / det_ref
                k_new = numerator[i, j] / (gram[i, i] * gram[j, j] - gram[i, j] ** 2)
                assert abs(k_new - k_ref) <= 1e-14 * abs(k_ref)


def test_sectional_matrix_symmetric_with_zero_diagonal(twisted_generic, grid64):
    rng = np.random.default_rng(43)
    f = [sample(random_trig_polynomial(rng, 2), grid64).values for _ in range(6)]
    numerator, gram = sectional_matrix(twisted_generic, f)
    assert numerator.shape == gram.shape == (6, 6)
    assert np.array_equal(numerator, numerator.T)
    assert np.array_equal(gram, gram.T)
    assert np.all(np.diag(numerator) == 0.0)


def test_sectional_matrix_entries_do_not_depend_on_the_batch(twisted_generic, grid64):
    rng = np.random.default_rng(47)
    f = [sample(random_trig_polynomial(rng, 2), grid64).values for _ in range(5)]
    whole = sectional_matrix(twisted_generic, f)
    part = sectional_matrix(twisted_generic, [f[3], f[1]])
    assert np.array_equal(part.gram, whole.gram[np.ix_([3, 1], [3, 1])])
    assert part.sectional(0, 1) == pytest.approx(whole.sectional(3, 1), rel=1e-14)


def test_sectional_matrix_margin_threshold(twisted_generic):
    gamma = _thin_margin_graph()
    h = _tangent(gamma, lambda c: np.cos(c[..., 0]))
    k = _tangent(gamma, lambda c: np.cos(c[..., 1]))
    with pytest.raises(MarginTooSmall):
        sectional_matrix(gamma, [h.values, k.values])
    with pytest.raises(MarginTooSmall):
        sectional(gamma, h, k)
    with pytest.raises(MarginTooSmall):
        flat_family_check(gamma, h, [lambda s: s, lambda s: s**2])
    h = _tangent(twisted_generic, lambda c: np.cos(c[..., 0]))
    k = _tangent(twisted_generic, lambda c: np.cos(c[..., 1]))
    numerator, gram = sectional_matrix(twisted_generic, [h.values, k.values])
    assert numerator.shape == (2, 2)


def test_sectional_matrix_empty(flat_zero, grid64):
    numerator, gram = sectional_matrix(flat_zero, [])
    assert numerator.shape == gram.shape == (0, 0)


def test_riemann_field_differentiates_each_function_once(warm_twisted_generic, transform_calls):
    x = warm_twisted_generic.grid.coords
    riemann_field_values(warm_twisted_generic, *(np.cos(x[..., 0] + i) for i in range(3)))
    assert sorted(transform_calls) == ["gradient_values"] * 3 + ["hessian_values"] * 2


def test_riemann_field_raises_each_gradient_once(warm_twisted_generic, monkeypatch):
    raised = []
    original = GraphLagrangian.raise_index

    def counting(self, grad):
        raised.append(grad)
        return original(self, grad)

    monkeypatch.setattr(GraphLagrangian, "raise_index", counting)
    x = warm_twisted_generic.grid.coords
    riemann_field_values(warm_twisted_generic, *(np.cos(x[..., 0] + i) for i in range(3)))
    assert len(raised) == 3


def test_riemann_quad_takes_one_gradient_per_function(warm_twisted_generic, transform_calls):
    x = warm_twisted_generic.grid.coords
    riemann_quad_values(warm_twisted_generic, *(np.sin(x[..., 1] * (i + 1)) for i in range(4)))
    assert transform_calls == ["gradient_values"] * 4


# Each raw-array entry point with the wrong-shaped array at one position
# among its value arrays.
_SHAPE_ENTRY_POINTS = {
    "inner_values": (1, lambda gamma, ok, bad: gamma.inner_values(ok, bad)),
    "normalize_values": (0, lambda gamma, ok, bad: gamma.normalize_values(bad)),
    "w_field_values": (0, lambda gamma, ok, bad: w_field_values(gamma, bad)),
    "cov_deriv_pair_values": (1, lambda gamma, ok, bad: cov_deriv_pair_values(gamma, ok, bad)),
    "geodesic_acceleration": (0, lambda gamma, ok, bad: geodesic_acceleration(gamma, bad)),
    "riemann_field_values": (2, lambda gamma, ok, bad: riemann_field_values(gamma, ok, ok, bad)),
    "riemann_quad_values": (1, lambda gamma, ok, bad: riemann_quad_values(gamma, ok, bad, ok, ok)),
    "sectional_matrix": (2, lambda gamma, ok, bad: sectional_matrix(gamma, [ok, ok, bad])),
}


@pytest.mark.parametrize("bad_shape", [(64, 64, 1), (32, 32)])
@pytest.mark.parametrize("entry", sorted(_SHAPE_ENTRY_POINTS))
def test_raw_array_entry_points_reject_a_wrong_shape(twisted_generic, grid64, entry, bad_shape):
    position, call = _SHAPE_ENTRY_POINTS[entry]
    with pytest.raises(ShapeMismatch) as info:
        call(twisted_generic, np.cos(grid64.coords[..., 0]), np.ones(bad_shape))
    assert isinstance(info.value, InputError)  # exit code 2
    assert str(info.value) == (
        f"value array {position} has shape {bad_shape}, the grid's is {grid64.shape}"
    )

def _generic_3d_functions(count, seed=5):
    gamma = _twisted_generic(3, 32)
    rng = np.random.default_rng(seed)
    return gamma, [gamma.normalize_values(sample(random_trig_polynomial(rng, 3), gamma.grid).values)
                   for _ in range(count)]


@pytest.mark.parametrize("n, points", [(2, 64), (3, 32)])
def test_sectional_matrix_gram_is_inner_values_bit_for_bit(n, points):
    """The Gram entries are formed in a reused scratch field, with the
    product and the dot of ``inner_values``, so with its bits."""
    gamma = _twisted_generic(n, points)
    rng = np.random.default_rng(53)
    f = [gamma.normalize_values(sample(random_trig_polynomial(rng, n), gamma.grid).values)
         for _ in range(5)]
    gram = sectional_matrix(gamma, f).gram
    for i in range(len(f)):
        for j in range(len(f)):
            assert gram[i, j] == gamma.inner_values(f[i], f[j]), (i, j)


def test_sectional_matrix_3d_entries_do_not_depend_on_the_batch():
    gamma, f = _generic_3d_functions(5)
    whole = sectional_matrix(gamma, f)
    # The same relative order gives the same operations, so the same bits.
    part = sectional_matrix(gamma, [f[1], f[3]])
    assert np.array_equal(part.gram, whole.gram[np.ix_([1, 3], [1, 3])])
    assert np.array_equal(part.numerator, whole.numerator[np.ix_([1, 3], [1, 3])])
    assert part.sectional(0, 1) == whole.sectional(1, 3)
    # The reversed order pairs the raised gradients the other way round:
    # the Gram entry is still exact (the dot is symmetric), the sectional
    # agrees to roundoff.
    swapped = sectional_matrix(gamma, [f[3], f[1]])
    assert np.array_equal(swapped.gram, whole.gram[np.ix_([3, 1], [3, 1])])
    assert swapped.sectional(0, 1) == pytest.approx(whole.sectional(3, 1), rel=1e-14)


def test_sectional_matrix_3d_zero_and_one_function():
    gamma, f = _generic_3d_functions(1)
    numerator, gram = sectional_matrix(gamma, [])
    assert numerator.shape == gram.shape == (0, 0)
    numerator, gram = sectional_matrix(gamma, f)
    assert numerator.tolist() == [[0.0]]
    assert gram[0, 0] == gamma.inner_values(f[0], f[0]) > 0.0


@pytest.mark.parametrize("count", [2, 12])
def test_sectional_matrix_3d_peak_memory(count):
    """The pair loop keeps F gradients, F raised gradients and F pointwise
    norms, (2n + 1) F fields, plus a few scratch fields: no F^2 stack."""
    gamma, f = _generic_3d_functions(count)
    gamma.inverse_metric, gamma.sec_weight, gamma.margin  # the graph's own cache
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        sectional_matrix(gamma, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    field_bytes = gamma.grid.size * 8
    assert peak <= ((2 * 3 + 1) * count + 6) * field_bytes


def test_sectional_matrix_3d_raises_one_stack_at_a_time(monkeypatch):
    """F = 8 on the 32^3 twisted generic graph: F index raises, and a traced
    peak of at most F (n + 1) + 10 fields, the F gradient stacks and
    diagonals with one raised stack (59 fields when all F were kept)."""
    count = 8
    gamma, f = _generic_3d_functions(count)
    gamma.inverse_metric, gamma.sec_weight, gamma.margin  # the graph's own cache
    raised = 0
    original = GraphLagrangian.raise_index

    def counting(self, grad):
        nonlocal raised
        raised += 1
        return original(self, grad)

    monkeypatch.setattr(GraphLagrangian, "raise_index", counting)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        sectional_matrix(gamma, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert raised == count
    assert peak <= (count * (3 + 1) + 10) * gamma.grid.size * 8
