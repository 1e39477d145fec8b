import tracemalloc

import numpy as np
import pytest

import laglab.connection
import laglab.lagrangian
import laglab.torus
from laglab.connection import (
    DENSITY_FLOOR,
    MAX_STEPS,
    HamiltonianFamily,
    SampledPath,
    cov_deriv_along_path,
    cov_deriv_pair_values,
    geodesic_acceleration,
    geodesic_shoot,
    w_field_values,
)
from laglab.ambient import AlmostCYModel
from laglab.errors import (
    InsufficientSamples,
    NotPositive,
    PositivityLost,
    ShapeMismatch,
    SingularDensity,
    StepRejected,
)
from laglab.lagrangian import GraphLagrangian, build
from laglab.torus import (
    PeriodicGrid,
    ScalarField,
    adjugate,
    constant_field,
    det,
    field_from_function,
    gradient_values,
    hessian_values,
    vector_dot,
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
    w = w_field_values(twisted_zero, h_field.values)
    grad_h = gradient_values(grid64, h_field.values)
    expected = -np.tan(twisted_zero.theta)[..., None] * grad_h
    assert np.abs(w - expected).max() < 1e-13


def test_w_linearity(twisted_generic, h_field, k_field):
    w_h = w_field_values(twisted_generic, h_field.values)
    w_k = w_field_values(twisted_generic, k_field.values)
    w_sum = w_field_values(twisted_generic, h_field.values + 2.0 * k_field.values)
    assert np.abs(w_sum - w_h - 2.0 * w_k).max() < 1e-13


def _nearly_singular_graph():
    """Flat n = 2 at 32^2, phi = a (cos x_1 + cos x_2) with a^2 = 1 - 5e-13:
    Re Omega~ = 1 - a^2 cos x_1 cos x_2 > 0 has its minimum 5e-13 at the
    origin, below ``DENSITY_FLOOR``."""
    grid = PeriodicGrid(2, 32)
    a = np.sqrt(1.0 - 5e-13)
    gamma = build(AlmostCYModel(2), field_from_function(
        grid, lambda c: a * (np.cos(c[..., 0]) + np.cos(c[..., 1]))
    ))
    assert 0.0 < gamma.re_omega_min < DENSITY_FLOOR
    return gamma


def test_singular_density_guard():
    gamma = _nearly_singular_graph()
    with pytest.raises(SingularDensity):
        w_field_values(gamma, np.cos(gamma.grid.coords[..., 0]))


def test_cov_deriv_flat_zero(flat_model, grid64, h_field, k_field):
    family = HamiltonianFamily(flat_model, constant_field(grid64), (h_field, k_field))
    djk = cov_deriv_pair_values(family.gamma_at((0.0, 0.0)), h_field.values, k_field.values)
    assert np.abs(djk).max() < 1e-14


def test_cov_deriv_twisted_zero_closed_form(twisted_model, grid64, h_field, k_field):
    family = HamiltonianFamily(twisted_model, constant_field(grid64), (h_field, k_field))
    gamma = family.gamma_at((0.0, 0.0))
    djk = cov_deriv_pair_values(gamma, h_field.values, k_field.values)
    pairing = gamma.grad_inner_values(h_field.values, k_field.values)
    expected = -np.tan(gamma.theta) * pairing
    assert np.abs(djk - expected).max() < 1e-13


@pytest.mark.parametrize("t", [(0.0, 0.0), (0.08, -0.05)])
def test_cov_deriv_symmetry(twisted_model, generic_potential, grid64, h_field, k_field, t):
    family = HamiltonianFamily(twisted_model, generic_potential, (h_field, k_field))
    gamma = family.gamma_at(t)
    jk = cov_deriv_pair_values(gamma, h_field.values, k_field.values)
    kj = cov_deriv_pair_values(gamma, k_field.values, h_field.values)
    assert np.abs(jk - kj).max() < 1e-9


def test_cov_deriv_equals_w_contraction(twisted_generic, grid64, h_field, k_field):
    # First equality of the defining lemma: D_{h}k = w_h . k.
    djk = cov_deriv_pair_values(twisted_generic, h_field.values, k_field.values)
    w = w_field_values(twisted_generic, h_field.values)
    contraction = np.einsum(
        "...a,...a->...", w, gradient_values(grid64, k_field.values)
    )
    assert np.abs(djk - contraction).max() < 1e-13


def test_cov_deriv_is_the_w_field_contraction(twisted_generic, grid64, h_field, k_field):
    """D_h k is exactly the contraction w(h) . grad k, bit for bit."""
    djk = cov_deriv_pair_values(twisted_generic, h_field.values, k_field.values)
    w = w_field_values(twisted_generic, h_field.values)
    assert np.array_equal(djk, vector_dot(w, gradient_values(grid64, k_field.values)))


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
    assert np.abs(out.values).max() < 1e-13


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
    coordinate = cov_deriv_pair_values(family.gamma_at((0.0, 0.0)), k_field.values, h_field.values)
    assert np.abs(along.values - coordinate).max() < 1e-6


def test_path_endpoint_raises(flat_model, grid64, h_field):
    times = np.linspace(0.0, 1.0, 3)
    potentials = tuple(constant_field(grid64) for _ in times)
    path = SampledPath(flat_model, times, potentials)
    with pytest.raises(InsufficientSamples):
        cov_deriv_along_path(path, [h_field] * 3, 0)
    with pytest.raises(InsufficientSamples):
        cov_deriv_along_path(path, [h_field] * 3, 2)


def test_path_rejects_tangent_samples_on_another_grid(flat_model, grid64, h_field):
    times = np.linspace(0.0, 1.0, 3)
    path = SampledPath(flat_model, times, tuple(constant_field(grid64) for _ in times))
    coarse = field_from_function(PeriodicGrid(2, 32), lambda c: np.cos(c[..., 0]))
    with pytest.raises(ValueError, match="tangent sample 2 lives on a different grid"):
        cov_deriv_along_path(path, [h_field, h_field, coarse], 1)


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


def test_geodesic_positivity_lost(flat_zero, grid64, monkeypatch):
    monkeypatch.setattr(laglab.connection, "STEP_ENERGY_TOL", np.inf)
    h0 = flat_zero.normalize(
        field_from_function(grid64, lambda c: 2.0 * (np.cos(c[..., 0]) + np.cos(c[..., 1])))
    )
    with pytest.raises(PositivityLost) as excinfo:
        geodesic_shoot(flat_zero, h0, 1.0, 50)
    assert 0.0 < excinfo.value.time <= 1.0


def test_geodesic_step_rejection(twisted_generic, h_field, monkeypatch):
    """A zero tolerance rejects the first step of a curved path, whose energy
    jump (4.0e-11 of the start, 4 steps to T = 0.2) is far above roundoff."""
    monkeypatch.setattr(laglab.connection, "STEP_ENERGY_TOL", 0.0)
    h0 = twisted_generic.normalize(h_field)
    with pytest.raises(StepRejected) as excinfo:
        geodesic_shoot(twisted_generic, h0, 0.2, 4)
    assert excinfo.value.time == pytest.approx(0.05)
    assert excinfo.value.drift > 1e-11


def test_geodesic_rejects_a_nan_energy_at_the_first_step(twisted_generic, h_field, monkeypatch):
    """A NaN energy fails every comparison, so the drift check is written to
    reject it: the first step raises ``StepRejected``, with the NaN drift, and
    the NaN never reaches the path."""
    h0 = twisted_generic.normalize(h_field)
    original = GraphLagrangian.inner_values
    calls = []

    def nan_after_the_start(self, a, b):
        calls.append(1)
        return original(self, a, b) if len(calls) == 1 else float("nan")

    monkeypatch.setattr(GraphLagrangian, "inner_values", nan_after_the_start)
    with pytest.raises(StepRejected) as excinfo:
        geodesic_shoot(twisted_generic, h0, 0.2, 4)
    assert len(calls) == 2
    assert excinfo.value.time == pytest.approx(0.05)
    assert np.isnan(excinfo.value.drift)


@pytest.mark.parametrize("steps", [0, MAX_STEPS + 1])
def test_geodesic_step_count_out_of_range(flat_zero, grid64, steps):
    h0 = flat_zero.normalize(field_from_function(grid64, lambda c: 0.1 * np.cos(c[..., 0])))
    with pytest.raises(ValueError, match=f"got {steps}"):
        geodesic_shoot(flat_zero, h0, 0.1, steps)


@pytest.mark.parametrize("time", [np.nan, np.inf, -np.inf])
def test_geodesic_rejects_a_time_that_is_not_finite(flat_zero, grid64, time):
    """A non-finite time is refused at entry, naming ``time``, before any
    stage runs."""
    h0 = flat_zero.normalize(field_from_function(grid64, lambda c: 0.1 * np.cos(c[..., 0])))
    with pytest.raises(ValueError, match=f"time must be finite, got {time}"):
        geodesic_shoot(flat_zero, h0, time, 3)


def test_geodesic_positivity_lost_at_the_first_failing_stage(flat_zero, grid64, monkeypatch):
    monkeypatch.setattr(laglab.connection, "STEP_ENERGY_TOL", np.inf)
    h0 = flat_zero.normalize(
        field_from_function(grid64, lambda c: 2.0 * (np.cos(c[..., 0]) + np.cos(c[..., 1])))
    )
    time, steps = 1.0, 50
    dt = time / steps
    with pytest.raises(PositivityLost) as excinfo:
        geodesic_shoot(flat_zero, h0, time, steps)
    lost = excinfo.value.time
    # RK4 builds at t, t + dt/2 and t + dt, so the failure sits on that lattice.
    assert lost / (0.5 * dt) == pytest.approx(round(lost / (0.5 * dt)), abs=1e-9)
    assert isinstance(excinfo.value.__cause__, NotPositive)
    # Every step before the failing one completes on the same time grid.
    done = int(np.ceil(lost / dt - 1e-9)) - 1
    assert done >= 1
    geodesic_shoot(flat_zero, h0, done * dt, done)


def test_geodesic_step_rejection_on_a_curved_path(twisted_generic, h_field, monkeypatch):
    """Two coarse steps on the twisted generic graph change the energy by
    2.7e-9 and 5.5e-9 of its start, far above roundoff: the rejection does not
    hinge on last-bit noise."""
    h0 = twisted_generic.normalize(h_field)
    monkeypatch.setattr(laglab.connection, "STEP_ENERGY_TOL", 1e-9)
    with pytest.raises(StepRejected) as excinfo:
        geodesic_shoot(twisted_generic, h0, 0.2, 2)
    assert excinfo.value.time == pytest.approx(0.1)
    assert 1e-9 < excinfo.value.drift < 1e-8
    monkeypatch.setattr(laglab.connection, "STEP_ENERGY_TOL", 1e-8)
    path = geodesic_shoot(twisted_generic, h0, 0.2, 2)
    assert 1e-9 < path.energy_drift() < 1e-8


def test_shot_satisfies_its_geodesic_equation(monkeypatch):
    """Along a shot on the twisted generic graph, D_t psi = d psi/dt + D_psi psi
    as ``cov_deriv_along_path`` reads it (central differences of the stored
    velocities) vanishes to the second order of that difference: 1.9e-6 at
    20 steps against |d psi/dt| of 0.044, and 4x less at 40.  With the
    acceleration negated the residual reads 0.084."""
    monkeypatch.setattr(laglab.connection, "STEP_ENERGY_TOL", np.inf)
    grid = PeriodicGrid(2, 32)
    model = AlmostCYModel(2, twist_amplitude=0.1, twist_mode=1)
    gamma = build(model, field_from_function(grid, lambda c: 0.2 * np.cos(c[..., 0] + c[..., 1])))
    h0 = gamma.normalize(
        field_from_function(grid, lambda c: 0.3 * (np.cos(c[..., 0]) + 0.5 * np.sin(c[..., 1])))
    )

    def residual(steps):
        shot = geodesic_shoot(gamma, h0, 0.5, steps)
        path = SampledPath(model, shot.times, shot.potentials, shot.velocities)
        return max(
            np.abs(cov_deriv_along_path(path, shot.velocities, i).values).max()
            for i in range(1, steps)
        )

    coarse, fine = residual(20), residual(40)
    assert coarse <= 1e-5
    assert 3.5 <= coarse / fine <= 4.5


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


def test_sampled_path_rejects_a_zero_time_step(flat_model, grid64, h_field):
    potentials = tuple(constant_field(grid64) for _ in range(3))
    with pytest.raises(ValueError, match="step must be nonzero"):
        SampledPath(flat_model, np.zeros(3), potentials)
    # A decreasing grid is uniform with a negative step, and stays valid.
    path = SampledPath(flat_model, np.array([0.2, 0.1, 0.0]), potentials)
    assert np.abs(cov_deriv_along_path(path, [h_field] * 3, 1).values).max() < 1e-13


@pytest.mark.parametrize("count", [1, 4])
def test_sampled_path_rejects_velocities_of_another_length(flat_model, grid64, count):
    potentials = tuple(constant_field(grid64) for _ in range(3))
    velocities = tuple(constant_field(grid64) for _ in range(count))
    with pytest.raises(ValueError, match=f"at index {min(count, 3)}: {count} velocities for 3"):
        SampledPath(flat_model, np.array([0.0, 0.1, 0.2]), potentials, velocities)


@pytest.mark.parametrize("kind", ["potential", "velocity"])
def test_sampled_path_rejects_samples_on_another_grid(flat_model, grid64, kind):
    samples = {name: [constant_field(grid64)] * 3 for name in ("potential", "velocity")}
    samples[kind][2] = constant_field(PeriodicGrid(2, 32))
    with pytest.raises(ValueError, match=f"{kind} 2 lives on a different grid"):
        SampledPath(
            flat_model, np.array([0.0, 0.1, 0.2]), tuple(samples["potential"]), tuple(samples["velocity"])
        )


def test_geodesic_carries_the_potential_derivatives(twisted_generic, h_field, grid64, monkeypatch):
    """Stage and end-of-step graphs are built from grad phi and Hess phi
    carried through the RK4 combinations; after 500 steps the last graph's
    carried derivatives still match a fresh transform of its potential."""
    last = []

    def recording(*args):
        last[:] = [build(*args)]
        return last[0]

    monkeypatch.setattr(laglab.connection, "build", recording)
    h0 = twisted_generic.normalize(h_field)
    geodesic_shoot(twisted_generic, h0, 0.5, 500)
    gamma = last[0]
    grad = gradient_values(grid64, gamma.phi.values)
    hess = hessian_values(grid64, gamma.phi.values, grad=grad)
    assert np.abs(gamma.grad_phi - grad).max() <= 1e-10 * np.abs(grad).max()
    assert np.abs(gamma.hess_phi - hess).max() <= 1e-10 * np.abs(hess).max()


def test_geodesic_step_differentiates_only_its_velocity(twisted_generic, h_field, transform_calls):
    """Each of the four RK4 stages takes one gradient and one Hessian of its
    velocity; no graph in the loop transforms its potential."""
    h0 = twisted_generic.normalize(h_field)
    steps = 3
    geodesic_shoot(twisted_generic, h0, 0.03, steps)
    assert transform_calls == ["gradient_values", "hessian_values"] * 4 * steps


@pytest.mark.parametrize("n, points, per_stage", [(1, 64, 2), (2, 32, 5), (3, 16, 9)])
def test_geodesic_stage_differentiates_one_gradient(n, points, per_stage, monkeypatch):
    """A stage writes the n fields of its velocity's gradient and the
    n(n+1)/2 of the Hessian taken from that gradient (5 at n = 2, not the 7
    of a second gradient), and the step's graphs normalise and pair
    velocities on Re Omega~ without forming the metric side."""
    grid = PeriodicGrid(n, points)
    model = AlmostCYModel(n, twist_amplitude=0.1, twist_mode=1)
    gamma0 = build(model, field_from_function(grid, lambda c: 0.2 * np.cos(c.sum(axis=-1))))
    h0 = gamma0.normalize(
        field_from_function(grid, lambda c: np.cos(c[..., 0]) + 0.5 * np.sin(c[..., -1]))
    )
    graphs = [gamma0]

    def recording(*args):
        graphs.append(build(*args))
        return graphs[-1]

    fields = 0
    original = laglab.torus._differentiate

    def counting(grid, values, axis, out):
        nonlocal fields
        fields += out.size // grid.size
        return original(grid, values, axis, out)

    monkeypatch.setattr(laglab.connection, "build", recording)
    monkeypatch.setattr(laglab.torus, "_differentiate", counting)
    steps = 2
    geodesic_shoot(gamma0, h0, 0.02, steps)
    assert fields == 4 * steps * per_stage
    assert len(graphs) > steps
    metric_side = ("metric", "inverse_metric", "sqrt_det_metric", "rho", "theta")
    assert [name for g in graphs for name in metric_side if name in vars(g)] == []


def _written_out_shot(gamma0, h0, time, steps):
    """Potentials, velocities and energies of the RK4 step written per
    component with fresh arrays: stages state + (c dt) k and the update
    state + dt/6 (k1 + 2 k2 + 2 k3 + k4) as Python evaluates them."""
    model, grid = gamma0.model, gamma0.grid
    dt = time / steps

    def rate(state):
        phi, psi, grad_phi, hess_phi = state
        gamma = build(model, ScalarField(grid, phi), (grad_phi, hess_phi))
        grad = gradient_values(grid, psi)
        accel = geodesic_acceleration(gamma, psi, grad_psi=grad)
        return psi, accel, grad, hessian_values(grid, psi, grad=grad)

    phi = gamma0.phi.values - gamma0.phi.values.mean()
    psi = gamma0.normalize_values(h0.values)
    state = (phi, psi, gamma0.grad_phi, gamma0.hess_phi)
    potentials, velocities, energies = [phi], [psi], [gamma0.inner_values(psi, psi)]
    for _ in range(steps):
        k1 = rate(state)
        k2 = rate(tuple(s + 0.5 * dt * k for s, k in zip(state, k1)))
        k3 = rate(tuple(s + 0.5 * dt * k for s, k in zip(state, k2)))
        k4 = rate(tuple(s + dt * k for s, k in zip(state, k3)))
        phi, psi, grad_phi, hess_phi = (
            s + dt / 6.0 * (a + 2.0 * b + 2.0 * c + d)
            for s, a, b, c, d in zip(state, k1, k2, k3, k4)
        )
        phi = phi - phi.mean()
        gamma = build(model, ScalarField(grid, phi), (grad_phi, hess_phi))
        psi = gamma.normalize_values(psi)
        state = (phi, psi, grad_phi, hess_phi)
        potentials.append(phi)
        velocities.append(psi)
        energies.append(gamma.inner_values(psi, psi))
    return potentials, velocities, energies


@pytest.mark.parametrize("n, points", [(1, 64), (2, 32), (3, 16)])
@pytest.mark.parametrize("twist", [0.0, 0.1])
def test_shot_is_the_written_out_rk4_step_bit_for_bit(n, points, twist):
    grid = PeriodicGrid(n, points)
    model = AlmostCYModel(n, twist_amplitude=twist, twist_mode=1)
    gamma0 = build(model, field_from_function(grid, lambda c: 0.2 * np.cos(c.sum(axis=-1))))
    h0 = gamma0.normalize(
        field_from_function(grid, lambda c: 0.3 * np.cos(c[..., 0]) + 0.1 * np.sin(c[..., -1]))
    )
    path = geodesic_shoot(gamma0, h0, 0.2, 5)
    potentials, velocities, energies = _written_out_shot(gamma0, h0, 0.2, 5)
    assert all(np.array_equal(f.values, v) for f, v in zip(path.potentials, potentials))
    assert all(np.array_equal(f.values, v) for f, v in zip(path.velocities, velocities))
    assert np.array_equal(path.energies, energies)


@pytest.mark.parametrize("n, points", [(1, 64), (2, 32), (3, 16)])
def test_shot_fields_share_no_memory(n, points):
    """The shot reuses its RK4 blocks from step to step; every potential and
    velocity it returns is a buffer of its own."""
    grid = PeriodicGrid(n, points)
    model = AlmostCYModel(n, twist_amplitude=0.1, twist_mode=1)
    gamma0 = build(model, field_from_function(grid, lambda c: 0.2 * np.cos(c.sum(axis=-1))))
    h0 = gamma0.normalize(field_from_function(grid, lambda c: 0.3 * np.cos(c[..., 0])))
    path = geodesic_shoot(gamma0, h0, 0.05, 4)
    fields = [f.values for f in path.potentials + path.velocities]
    assert len(fields) == 10
    for i, a in enumerate(fields):
        for b in fields[i + 1 :]:
            assert not np.shares_memory(a, b)
    assert not any(np.shares_memory(a, gamma0.phi.values) for a in fields)


def test_shot_peak_memory_beyond_its_path(twisted_generic, h_field, grid64):
    """One 10-step shot at 64^2 holds at most 60 fields at its peak beyond
    the 2 (S + 1) potentials and velocities it returns: five RK4 blocks of
    8 rows (40 fields) and the transients of one stage (55.4 in all).
    Allocating the state, the shifts and the stage derivatives afresh took
    66.5."""
    h0 = twisted_generic.normalize(h_field)
    steps = 10
    geodesic_shoot(twisted_generic, h0, 0.01, 1)  # fills the graph's cached fields
    tracemalloc.start()
    try:
        geodesic_shoot(twisted_generic, h0, 0.1, steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    field = grid64.size * 8
    assert peak / field - 2 * (steps + 1) <= 60


def _written_out_w_field(gamma, grad):
    """-(Re E (H grad - s1 grad) + Im E (grad - adj3 H grad)) / Re Omega~,
    every sum written out in its order, component a in column a."""
    from laglab.torus import adjugate

    H, n = gamma.hess_phi, gamma.grid.n
    adj3 = adjugate(H) if n == 3 else None

    def row_dot(m, a):
        out = m[..., a, 0] * grad[..., 0]
        for b in range(1, n):
            out = out + m[..., a, b] * grad[..., b]
        return out

    trace = H[..., 0, 0]
    for a in range(1, n):
        trace = trace + H[..., a, a]
    rows = []
    for a in range(n):
        real = row_dot(H, a) - trace * grad[..., a]
        imag = grad[..., a] if adj3 is None else grad[..., a] - row_dot(adj3, a)
        rows.append(-(gamma._re_twist * real + gamma._im_twist * imag) / gamma.re_omega)
    return np.stack(rows, axis=-1)


@pytest.mark.parametrize("twist", [0.0, 0.3])
@pytest.mark.parametrize("n, points", [(1, 64), (2, 64), (3, 16)])
def test_w_field_is_the_written_out_expression_bit_for_bit(n, points, twist):
    grid = PeriodicGrid(n, points)
    model = AlmostCYModel(n, twist_amplitude=twist, twist_mode=1)
    gamma = build(model, field_from_function(
        grid, lambda c: 0.2 * np.cos(c.sum(axis=-1)) + 0.1 * np.sin(c[..., -1] - c[..., 0])
    ))
    h = field_from_function(grid, lambda c: np.cos(c[..., 0]) + 0.3 * np.sin(2 * c[..., -1]))
    expected = _written_out_w_field(gamma, gradient_values(grid, h.values))
    assert np.array_equal(w_field_values(gamma, h.values), expected)


@pytest.mark.parametrize("twist, points", [(0.1, 32), (0.0, 16)])
def test_n3_graph_forms_adj_hess_once_for_the_w_field(twist, points, monkeypatch):
    """At n = 3 the build takes tr adj H from the diagonal cofactors and forms
    no adjugate; the first w-field forms adj H once, and later ones reuse it.
    Re Omega~, its minimum and the w-field keep the bits of an eager build
    that takes the trace of ``adjugate(H)``.  The twisted graph is the scan3d
    workload's."""
    formed = []

    def counting(m):
        formed.append(m)
        return adjugate(m)

    monkeypatch.setattr(laglab.lagrangian, "adjugate", counting)
    grid = PeriodicGrid(3, points)
    model = AlmostCYModel(3, twist_amplitude=twist, twist_mode=1)
    phi = field_from_function(
        grid, lambda c: 0.2 * np.cos(c[..., 0] + c[..., 1]) + 0.1 * np.cos(c[..., 1] + c[..., 2])
    )
    gamma = build(model, phi)
    assert formed == []

    H = gamma.hess_phi
    s2 = np.trace(adjugate(H), axis1=-2, axis2=-1)
    im_det_B = det(H) - np.trace(H, axis1=-2, axis2=-1)
    twist_density = model.holomorphic_density(grid.coords, gamma.grad_phi)
    re_omega = twist_density.real * (1.0 - s2) - twist_density.imag * im_det_B
    assert np.array_equal(gamma.re_omega, re_omega)
    assert gamma.re_omega_min == re_omega.min()

    h = field_from_function(grid, lambda c: np.cos(c[..., 0]) + 0.3 * np.sin(2 * c[..., -1]))
    w = w_field_values(gamma, h.values)
    assert len(formed) == 1 and formed[0] is H
    assert np.array_equal(w, _written_out_w_field(gamma, gradient_values(grid, h.values)))
    assert np.array_equal(w_field_values(gamma, h.values), w)
    assert len(formed) == 1


def test_singular_density_reports_the_graphs_minimum():
    gamma = _nearly_singular_graph()
    worst = np.abs(gamma.re_omega).min()
    with pytest.raises(SingularDensity) as info:
        w_field_values(gamma, np.cos(gamma.grid.coords[..., 0]))
    assert str(info.value) == (
        f"|Re Omega~| = {worst:.3e} below tolerance 1.0e-12; positivity nearly violated"
    )


def _generic_graph(n, points, twist):
    grid = PeriodicGrid(n, points)
    model = AlmostCYModel(n, twist_amplitude=twist, twist_mode=1)
    return build(model, field_from_function(
        grid, lambda c: 0.2 * np.cos(c.sum(axis=-1)) + 0.1 * np.sin(c[..., -1] - c[..., 0])
    ))


@pytest.mark.parametrize("twist", [0.0, 0.1, 0.3])
@pytest.mark.parametrize("n, points", [(1, 64), (2, 64), (3, 16)])
def test_geodesic_acceleration_is_minus_the_covariant_derivative(n, points, twist):
    """The quadratic form of grad psi is -w(psi) . grad psi, the step's
    oracle, to roundoff on generic graphs, and exactly where w = 0; with or
    without the gradient given and into ``out``, with the same bits."""
    gamma = _generic_graph(n, points, twist)
    grid = gamma.grid
    psi = gamma.normalize_values(field_from_function(
        grid, lambda c: np.cos(c[..., 0]) + 0.3 * np.sin(2 * c[..., -1])
    ).values)
    grad = gradient_values(grid, psi)
    expected = -cov_deriv_pair_values(gamma, psi, psi)
    accel = geodesic_acceleration(gamma, psi)
    scale = np.abs(expected).max()
    assert scale > 0.1 or (n, twist) == (1, 0.0)  # w = 0 in the flat model at n = 1
    assert np.abs(accel - expected).max() <= 1e-14 * scale
    out = np.empty(grid.shape)
    assert geodesic_acceleration(gamma, psi, grad_psi=grad, out=out) is out
    assert np.array_equal(out, accel)


@pytest.mark.parametrize("n, points", [(1, 64), (2, 64), (3, 16)])
def test_geodesic_acceleration_vanishes_on_the_flat_zero_section(n, points):
    """w = 0 on the flat zero section, and both routes give exactly 0."""
    grid = PeriodicGrid(n, points)
    gamma = build(AlmostCYModel(n), constant_field(grid))
    psi = np.cos(grid.coords[..., 0]) + 0.5 * np.sin(grid.coords[..., -1])
    assert np.all(geodesic_acceleration(gamma, psi) == 0.0)
    assert np.all(cov_deriv_pair_values(gamma, psi, psi) == 0.0)


def test_geodesic_acceleration_raises_below_the_density_floor():
    """The same ``SingularDensity``, with the same message, as the w-field."""
    gamma = _nearly_singular_graph()
    psi = np.cos(gamma.grid.coords[..., 0])
    with pytest.raises(SingularDensity) as accel_info:
        geodesic_acceleration(gamma, psi)
    with pytest.raises(SingularDensity) as w_info:
        w_field_values(gamma, psi)
    assert str(accel_info.value) == str(w_info.value)


@pytest.mark.parametrize("bad_shape", [(64, 64), (64, 64, 3), (32, 32, 2)])
def test_geodesic_acceleration_rejects_a_wrong_shaped_gradient(twisted_generic, grid64, bad_shape):
    psi = np.cos(grid64.coords[..., 0])
    with pytest.raises(ShapeMismatch) as info:
        geodesic_acceleration(twisted_generic, psi, grad_psi=np.ones(bad_shape))
    assert str(info.value) == (
        f"gradient has shape {bad_shape}, the grid's gradients have (64, 64, 2)"
    )
