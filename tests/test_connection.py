import numpy as np
import pytest

from laglab.connection import (
    HamiltonianFamily,
    SampledPath,
    VerticalDeformation,
    cov_deriv_along_path,
    cov_deriv_coordinate,
    cov_deriv_pair_values,
    geodesic_shoot,
    w_field,
    w_field_values,
)
from laglab.ambient import AlmostCYModel
from laglab.errors import (
    InsufficientSamples,
    PositivityLost,
    SingularDensity,
    StepRejected,
)
from laglab.lagrangian import build
from laglab.torus import (
    PeriodicGrid,
    ScalarField,
    constant_field,
    field_from_function,
    gradient_values,
)


@pytest.fixture
def h_field(grid64):
    return field_from_function(
        grid64, lambda c: np.cos(c[..., 0]) + 0.5 * np.sin(c[..., 1])
    )


@pytest.fixture
def k_field(grid64):
    return field_from_function(grid64, lambda c: np.cos(c[..., 1]))


def test_w_vanishes_flat_zero(flat_zero, h_field):
    w = w_field_values(flat_zero, h_field.values)
    assert np.abs(w).max() < 1e-14


def test_w_vanishes_for_zero_deformation(twisted_generic, grid64):
    w = w_field_values(twisted_generic, np.zeros(grid64.shape))
    assert np.abs(w).max() == 0.0


def test_w_closed_form_twisted_zero(twisted_zero, h_field, grid64):
    w = np.stack(
        [c.values for c in w_field(twisted_zero, h_field)], axis=-1
    )
    grad_h = gradient_values(grid64, h_field.values)
    expected = -np.tan(twisted_zero.theta)[..., None] * grad_h
    assert np.abs(w - expected).max() < 1e-13


def test_w_linearity(twisted_generic, h_field, k_field):
    w_h = w_field_values(twisted_generic, h_field.values)
    w_k = w_field_values(twisted_generic, k_field.values)
    w_sum = w_field_values(twisted_generic, h_field.values + 2.0 * k_field.values)
    assert np.abs(w_sum - w_h - 2.0 * w_k).max() < 1e-13


def test_w_accepts_vertical_deformation(twisted_zero, h_field):
    deformation = VerticalDeformation(twisted_zero, h_field)
    w1 = w_field(twisted_zero, deformation)
    w2 = w_field(twisted_zero, h_field)
    assert np.abs(w1[0].values - w2[0].values).max() == 0.0


def test_w_rejects_foreign_deformation(flat_zero, twisted_zero, h_field):
    deformation = VerticalDeformation(flat_zero, h_field)
    with pytest.raises(ValueError):
        w_field(twisted_zero, deformation)


def test_singular_density_guard(twisted_zero, h_field):
    with pytest.raises(SingularDensity):
        w_field(twisted_zero, h_field, tolerance=2.0)


def test_cov_deriv_flat_zero(flat_model, grid64, h_field, k_field):
    family = HamiltonianFamily(flat_model, constant_field(grid64), (h_field, k_field))
    djk = cov_deriv_coordinate(family, (0.0, 0.0), 0, 1)
    assert djk.sup_norm() < 1e-14


def test_cov_deriv_twisted_zero_closed_form(twisted_model, grid64, h_field, k_field):
    family = HamiltonianFamily(twisted_model, constant_field(grid64), (h_field, k_field))
    djk = cov_deriv_coordinate(family, (0.0, 0.0), 0, 1)
    gamma = family.gamma_at((0.0, 0.0))
    pairing = gamma.grad_inner_values(h_field.values, k_field.values)
    expected = -np.tan(gamma.theta) * pairing
    assert np.abs(djk.values - expected).max() < 1e-13


@pytest.mark.parametrize("t", [(0.0, 0.0), (0.08, -0.05)])
def test_cov_deriv_symmetry(twisted_model, generic_potential, grid64, h_field, k_field, t):
    family = HamiltonianFamily(twisted_model, generic_potential, (h_field, k_field))
    jk = cov_deriv_coordinate(family, t, 0, 1)
    kj = cov_deriv_coordinate(family, t, 1, 0)
    assert np.abs(jk.values - kj.values).max() < 1e-9


def test_cov_deriv_equals_w_contraction(twisted_generic, grid64, h_field, k_field):
    # First equality of the defining lemma: D_{h}k = w_h . k.
    djk = cov_deriv_pair_values(twisted_generic, h_field.values, k_field.values)
    w = w_field_values(twisted_generic, h_field.values)
    contraction = np.einsum(
        "...a,...a->...", w, gradient_values(grid64, k_field.values)
    )
    assert np.abs(djk - contraction).max() < 1e-13


def _cramer_by_column_replacement(gamma, vec):
    """E * det(B with column a replaced by vec) for each a, by LAPACK."""
    n = gamma.grid.n
    B = np.eye(n) - 1j * gamma.hess_phi
    dets = []
    for a in range(n):
        M = B.copy()
        M[..., :, a] = vec
        dets.append(np.linalg.det(M))
    return gamma._twist_density[..., None] * np.stack(dets, axis=-1)


def test_adjugate_cramer_matches_column_replacement_n3():
    grid = PeriodicGrid(3, 32)
    model = AlmostCYModel(3, twist_amplitude=0.1, twist_mode=1)
    gamma = build(model, field_from_function(
        grid, lambda c: 0.2 * np.cos(c[..., 0] + c[..., 1]) + 0.1 * np.cos(c[..., 1] + c[..., 2])
    ))
    h = field_from_function(
        grid, lambda c: np.cos(c[..., 0]) + 0.5 * np.sin(c[..., 1] - c[..., 2])
    )
    k = field_from_function(grid, lambda c: np.sin(c[..., 2]) + 0.3 * np.cos(2 * c[..., 0]))
    density = np.real(gamma.pullback_density)
    grad_h = gradient_values(grid, h.values)
    grad_k = gradient_values(grid, k.values)

    w_ref = -np.real(_cramer_by_column_replacement(gamma, -1j * grad_h)) / density[..., None]
    w = w_field_values(gamma, h.values)
    assert np.abs(w - w_ref).max() <= 1e-13 * np.abs(w_ref).max()
    assert np.array_equal(w_field_values(gamma, h.values, grad_h=grad_h), w)

    comp = np.imag(_cramer_by_column_replacement(gamma, grad_h.astype(complex)))
    cov_ref = -np.einsum("...a,...a->...", grad_k, comp) / density
    cov = cov_deriv_pair_values(gamma, h.values, k.values)
    assert np.abs(cov - cov_ref).max() <= 1e-13 * np.abs(cov_ref).max()


def test_family_parameter_count(flat_model, grid64, h_field):
    family = HamiltonianFamily(flat_model, constant_field(grid64), (h_field,))
    with pytest.raises(ValueError):
        family.potential_at((0.1, 0.2))


def test_path_constant(flat_model, grid64, h_field):
    times = np.linspace(0.0, 1.0, 5)
    potentials = tuple(constant_field(grid64) for _ in times)
    path = SampledPath(flat_model, times, potentials)
    samples = [h_field for _ in times]
    out = cov_deriv_along_path(path, samples, 2)
    assert out.sup_norm() < 1e-13


def test_path_matches_coordinate_derivative(twisted_model, grid64, h_field, k_field):
    # Along graph(t dk) the path derivative of a fixed h must match the
    # coordinate formula at the center to the stencil's quadratic accuracy.
    dt = 1e-3
    times = np.array([-dt, 0.0, dt])
    potentials = tuple(
        ScalarField(grid64, float(t) * k_field.values) for t in times
    )
    path = SampledPath(twisted_model, times, potentials)
    samples = [h_field] * 3
    along = cov_deriv_along_path(path, samples, 1)
    family = HamiltonianFamily(twisted_model, constant_field(grid64), (k_field, h_field))
    coordinate = cov_deriv_coordinate(family, (0.0, 0.0), 0, 1)
    assert np.abs(along.values - coordinate.values).max() < 1e-6


def test_path_endpoint_raises(flat_model, grid64, h_field):
    times = np.linspace(0.0, 1.0, 3)
    potentials = tuple(constant_field(grid64) for _ in times)
    path = SampledPath(flat_model, times, potentials)
    with pytest.raises(InsufficientSamples):
        cov_deriv_along_path(path, [h_field] * 3, 0)
    with pytest.raises(InsufficientSamples):
        cov_deriv_along_path(path, [h_field] * 3, 2)


def test_geodesic_zero_velocity(flat_zero, grid64):
    h0 = flat_zero.normalize(constant_field(grid64))
    path = geodesic_shoot(flat_zero, h0, 0.1, 10)
    assert np.abs(path.potentials[-1].values - path.potentials[0].values).max() < 1e-15
    assert path.energies[-1] == pytest.approx(0.0, abs=1e-30)


def test_geodesic_energy_conservation(flat_zero, grid64):
    h0 = flat_zero.normalize(
        field_from_function(grid64, lambda c: 0.1 * np.cos(c[..., 0]))
    )
    path = geodesic_shoot(flat_zero, h0, 0.1, 100)
    assert path.energy_drift() < 1e-6
    # The path genuinely curves: the angle moves away from zero.
    final_gamma = build(flat_zero.model, path.potentials[-1])
    assert np.abs(final_gamma.theta).max() > 1e-4


def test_geodesic_time_reversal(twisted_zero, grid64):
    h0 = twisted_zero.normalize(
        field_from_function(grid64, lambda c: 0.1 * np.cos(c[..., 0]))
    )
    forward = geodesic_shoot(twisted_zero, h0, 0.1, 100)
    gamma_T = build(twisted_zero.model, forward.potentials[-1])
    h_back = gamma_T.normalize(ScalarField(grid64, -forward.velocities[-1].values))
    backward = geodesic_shoot(gamma_T, h_back, 0.1, 100)
    ret = backward.potentials[-1].values - backward.potentials[-1].values.mean()
    start = forward.potentials[0].values - forward.potentials[0].values.mean()
    assert np.abs(ret - start).max() < 1e-6


def test_geodesic_positivity_lost(flat_zero, grid64):
    h0 = flat_zero.normalize(
        field_from_function(grid64, lambda c: 2.0 * (np.cos(c[..., 0]) + np.cos(c[..., 1])))
    )
    with pytest.raises(PositivityLost) as excinfo:
        geodesic_shoot(flat_zero, h0, 1.0, 50, step_energy_tol=np.inf)
    assert 0.0 < excinfo.value.time <= 1.0


def test_geodesic_step_rejection(flat_zero, grid64):
    h0 = flat_zero.normalize(
        field_from_function(grid64, lambda c: 0.1 * np.cos(c[..., 0]))
    )
    with pytest.raises(StepRejected):
        geodesic_shoot(flat_zero, h0, 0.1, 10, step_energy_tol=0.0)


def test_geodesic_velocity_stays_normalized(flat_zero, grid64):
    h0 = flat_zero.normalize(
        field_from_function(grid64, lambda c: 0.1 * np.cos(c[..., 0]))
    )
    path = geodesic_shoot(flat_zero, h0, 0.1, 20)
    gamma_end = build(flat_zero.model, path.potentials[-1])
    residual = abs(
        np.mean(path.velocities[-1].values * gamma_end.re_omega)
        * grid64.period**2
    )
    assert residual < 1e-12


def test_sampled_path_validation(flat_model, grid64):
    with pytest.raises(ValueError):
        SampledPath(flat_model, np.array([0.0, 0.1]), (constant_field(grid64),))
    with pytest.raises(ValueError):
        SampledPath(
            flat_model,
            np.array([0.0, 0.1, 0.35]),
            tuple(constant_field(grid64) for _ in range(3)),
        )
