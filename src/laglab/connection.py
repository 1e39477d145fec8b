"""Levi-Civita connection in the graph chart: the w-field and geodesics.

For a vertical deformation with potential h, the connection datum is the
base vector field w solving

    i_w Re(Omega~) = -i_u Re(Omega),      u = (0, grad h),

where Omega~ is the pullback of Omega to the graph.  With B the holomorphic
frame matrix and E the twist density e^{g(z)}, Cramer's rule on the
top-form components gives

    w_a = -Re( E * det(B with column a replaced by -i grad h) ) / Re(E det B)
        = -Im( E * det(B with column a replaced by grad h) ) / Re(E det B).

The numerator is ``GraphLagrangian.cramer_numerator`` (one contraction with
adj B; the ``lagrangian`` docstring derives it) and the denominator is the
graph's Re Omega~.

The connection is D_h k = w(h) . grad k, and ``cov_deriv_pair_values`` is
its one implementation: the derivative along a sampled path and the
validation oracles call it.  It reduces to -tan(theta) <grad h, grad k>
wherever the fibers meet the Lagrangian perpendicularly (any zero section).
The geodesic equation needs only D_psi psi, the Cramer numerator dotted with
v = grad psi over Re Omega~, and that is one quadratic form in v:

    -D_psi psi = [Re E (v^T H v - s1 |v|^2) + Im E (|v|^2 - v^T adj3 H v)] / Re Omega~

(``geodesic_acceleration``, through
``GraphLagrangian.cramer_quadratic_form``), one field with no w-field
formed.  ``cov_deriv_pair_values`` is its oracle (the battery's
``geodesic_acceleration`` rows).

Geodesics solve phi_tt = -D_{phi_t} phi_t with a classical fourth-order
one-step method; velocities are renormalized into the tangent space after
every step and positions kept mean-zero (both touch only the additive
constants, which carry no geometry).  A graph build reads grad phi and
Hess phi, and both are linear in phi, so RK4 runs on the state
(phi, psi, grad phi, Hess phi) with rate (psi, -D_psi psi, grad psi,
Hess psi): a stage shifts all four components alike, and the end of the
step combines the four rates.  Each stage therefore differentiates only
its velocity psi: one gradient, then the Hessian taken from that gradient
(n + n(n+1)/2 single-field derivatives, 5 at n = 2), and every stage graph
and end-of-step graph is built from the carried derivatives, without
differentiating the potential.  The end-of-step graph normalises and pairs
the velocity on its Re Omega~, so it forms no metric side.

The state is one C-contiguous block of 2 + n + n^2 component-major rows:
phi, psi, the n rows of grad phi, then the n^2 rows of Hess phi, whose
grid-last views are what ``build`` takes.  A shot allocates it once, with
four blocks of its shape: an accumulator, a stage and two rate blocks.  A
stage shift is state + c k over the whole block, into the stage block, and
each stage writes grad psi, -D_psi psi and Hess psi straight into its rate
block's rows (``out=`` of ``gradient_values``, ``geodesic_acceleration``
and ``hessian_values``).  The rates k1 and k3 share one rate block, k2 and
k4 the other: the accumulator takes 2 k2 + k1 before k3 is written, and
2 k3 and k4 after k4 is written, so state + dt/6 (k1 + 2 k2 + 2 k3 + k4)
is summed in place in the order of the written expression, with the same
bits as per-component arrays.  The accumulator then becomes the state.  Stage and end-of-step graphs are
transient views of the blocks and never leave the step; the returned path
keeps copies of phi and psi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ambient import AlmostCYModel
from .errors import (
    InsufficientSamples,
    NotPositive,
    PositivityLost,
    ShapeMismatch,
    SingularDensity,
    StepRejected,
)
from .lagrangian import GraphLagrangian, TangentFunction, build, require_same_gamma
from .torus import (
    PeriodicGrid,
    ScalarField,
    check_field_shapes,
    gradient_values,
    hessian_values,
    vector_dot,
)

# The largest step count ``geodesic_shoot`` accepts: each step keeps a
# potential, a velocity and an energy, so an unbounded count is unbounded
# memory and time.
MAX_STEPS = 10_000

# The largest relative energy jump ``geodesic_shoot`` accepts across one step.
STEP_ENERGY_TOL = 1e-6

# Below this |Re Omega~| the w-field's Cramer quotient is considered singular.
DENSITY_FLOOR = 1e-12


@dataclass(frozen=True)
class HamiltonianFamily:
    """Closed-form family of graphs phi0 + sum_i t_i h_i.

    The generators are base functions; flowing them as fiberwise Hamiltonians
    translates the graph vertically, so the family member at parameter t is
    simply the graph of d(phi0 + sum t_i h_i).
    """

    model: AlmostCYModel
    base_potential: ScalarField
    generators: tuple[ScalarField, ...]

    def potential_at(self, t: Sequence[float]) -> ScalarField:
        if len(t) != len(self.generators):
            raise ValueError(f"expected {len(self.generators)} parameters, got {len(t)}")
        vals = self.base_potential.values.copy()
        for ti, gen in zip(t, self.generators):
            vals = vals + float(ti) * gen.values
        return ScalarField(self.base_potential.grid, vals)

    def gamma_at(self, t: Sequence[float]) -> GraphLagrangian:
        return build(self.model, self.potential_at(t))


@dataclass(frozen=True)
class SampledPath:
    """Time-sampled path of potentials on a uniform time grid."""

    model: AlmostCYModel
    times: np.ndarray
    potentials: tuple[ScalarField, ...]
    velocities: tuple[ScalarField, ...] | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if len(times) != len(self.potentials):
            raise ValueError("time grid and potential samples disagree in length")
        if len(times) >= 2:
            dt = np.diff(times)
            if dt[0] == 0.0:
                raise ValueError(f"time step must be nonzero, got {dt[0]}")
            if np.abs(dt - dt[0]).max() > 1e-12 * abs(dt[0]):
                raise ValueError("time grid must be uniform")
        if self.velocities is not None and len(self.velocities) != len(times):
            count = len(self.velocities)
            raise ValueError(
                f"velocity samples and time grid disagree at index {min(count, len(times))}: "
                f"{count} velocities for {len(times)} times"
            )
        grid = self.potentials[0].grid if self.potentials else None
        for kind, samples in (("potential", self.potentials), ("velocity", self.velocities or ())):
            for i, sample in enumerate(samples):
                if sample.grid != grid:
                    raise ValueError(f"{kind} {i} lives on a different grid than potential 0")
        object.__setattr__(self, "times", times)


def _check_density(gamma: GraphLagrangian) -> None:
    """Raise ``SingularDensity`` if |Re Omega~| drops below ``DENSITY_FLOOR``."""
    worst = gamma.re_omega_min  # min |Re Omega~|: the build checked Re Omega~ > 0
    if not worst >= DENSITY_FLOOR:  # NaN fails the comparison too
        raise SingularDensity(
            f"|Re Omega~| = {worst:.3e} below tolerance {DENSITY_FLOOR:.1e}; "
            "positivity nearly violated"
        )


def w_field_values(
    gamma: GraphLagrangian,
    h_values: np.ndarray,
    *,
    grad_h: np.ndarray | None = None,
) -> np.ndarray:
    """The base vector field w with i_w Re(Omega~) = -i_u Re(Omega), shape
    ``grid.shape + (n,)``.

    ``grad_h`` is the gradient of ``h_values`` when the caller already has it.

    Raises
    ------
    ShapeMismatch
        If ``h_values`` does not have the grid's shape.
    SingularDensity
        If |Re Omega~| drops below ``DENSITY_FLOOR`` (1e-12) anywhere.
    """
    check_field_shapes(gamma.grid, h_values)
    _check_density(gamma)
    if grad_h is None:
        grad_h = gradient_values(gamma.grid, h_values)
    w = gamma.cramer_numerator(grad_h)
    return np.divide(np.negative(w, out=w), gamma.re_omega[..., None], out=w)


def cov_deriv_pair_values(
    gamma: GraphLagrangian,
    hj_values: np.ndarray,
    hk_values: np.ndarray,
    *,
    grad_j: np.ndarray | None = None,
    grad_k: np.ndarray | None = None,
) -> np.ndarray:
    """D_{h^j} h^k = w(h^j) . grad h^k at one graph.

    ``grad_j`` and ``grad_k`` are the gradients of ``hj_values`` and
    ``hk_values`` when the caller already has them.

    Raises
    ------
    ShapeMismatch
        If either array does not have the grid's shape.
    """
    check_field_shapes(gamma.grid, hj_values, hk_values)
    w = w_field_values(gamma, hj_values, grad_h=grad_j)
    if grad_k is None:
        grad_k = gradient_values(gamma.grid, hk_values)
    return vector_dot(w, grad_k)


def geodesic_acceleration(
    gamma: GraphLagrangian,
    psi_values: np.ndarray,
    *,
    grad_psi: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """-D_psi psi = -w(psi) . grad psi at one graph, the acceleration of the
    geodesic equation, as the one field
    ``GraphLagrangian.cramer_quadratic_form(grad psi)``: no w-field is formed.

    ``grad_psi`` is the gradient of ``psi_values`` when the caller already
    has it; the result is written into ``out`` when it is given.

    Raises
    ------
    ShapeMismatch
        If ``psi_values`` does not have the grid's shape, or ``grad_psi``
        not the shape of its gradients.
    SingularDensity
        If |Re Omega~| drops below ``DENSITY_FLOOR`` (1e-12) anywhere.
    """
    grid = gamma.grid
    check_field_shapes(grid, psi_values)
    _check_density(gamma)
    if grad_psi is None:
        grad_psi = gradient_values(grid, psi_values)
    elif np.shape(grad_psi) != grid.shape + (grid.n,):
        raise ShapeMismatch(
            f"gradient has shape {np.shape(grad_psi)}, "
            f"the grid's gradients have {grid.shape + (grid.n,)}"
        )
    return gamma.cramer_quadratic_form(grad_psi, out=out)


def cov_deriv_along_path(
    path: SampledPath,
    h_samples: Sequence[ScalarField],
    index: int,
) -> ScalarField:
    """Covariant time derivative dh/dt + D_{phi_t} h at an interior sample.

    The path velocity comes from stored velocities when present, otherwise
    from central differences of the potentials.

    Raises
    ------
    InsufficientSamples
        At the first or last sample, where no central stencil fits.
    ValueError
        If the tangent samples disagree with the path in length or grid.
    """
    m = len(path.times)
    if len(h_samples) != m:
        raise ValueError("tangent samples and time grid disagree in length")
    grid = path.potentials[0].grid
    for i, sample in enumerate(h_samples):
        if sample.grid != grid:
            raise ValueError(f"tangent sample {i} lives on a different grid than the path")
    if index <= 0 or index >= m - 1:
        raise InsufficientSamples(f"index {index} has no central stencil in 0..{m - 1}")
    dt = path.times[1] - path.times[0]
    dh_dt = (h_samples[index + 1].values - h_samples[index - 1].values) / (2.0 * dt)
    if path.velocities is not None:
        phi_dot = path.velocities[index].values
    else:
        phi_dot = (
            path.potentials[index + 1].values - path.potentials[index - 1].values
        ) / (2.0 * dt)
    gamma = build(path.model, path.potentials[index])
    vals = dh_dt + cov_deriv_pair_values(gamma, phi_dot, h_samples[index].values)
    return ScalarField(gamma.grid, vals)


# ---------------------------------------------------------------------------
# Geodesic shooting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeodesicPath:
    """Output of geodesic shooting: potentials, tangent-space velocities and
    kinetic energies on a uniform time grid, and the ``time`` shot for."""

    model: AlmostCYModel
    times: np.ndarray
    potentials: tuple[ScalarField, ...]
    velocities: tuple[ScalarField, ...]
    energies: np.ndarray
    time: float

    def energy_drift(self) -> float:
        e0 = self.energies[0]
        return float(np.abs(self.energies - e0).max() / abs(e0)) if e0 != 0 else 0.0

    def reversal_error(self) -> float:
        """Sup distance from the start to where shooting back from the end with
        the negated velocity lands after the forward ``time`` and step count."""
        gamma_T = build(self.model, self.potentials[-1])
        h_back = gamma_T.normalize(ScalarField(gamma_T.grid, -self.velocities[-1].values))
        back = geodesic_shoot(gamma_T, h_back, self.time, len(self.times) - 1)
        ret = back.potentials[-1].values - back.potentials[-1].values.mean()
        start = self.potentials[0].values - self.potentials[0].values.mean()
        return float(np.abs(ret - start).max())


def _block_rows(grid: PeriodicGrid, block: np.ndarray) -> tuple:
    """The rows of an RK4 block as (phi, psi, grad phi, Hess phi), the
    derivatives grid-last, as ``build`` takes them."""
    n = grid.n
    grad = block[2 : 2 + n].transpose(grid._axis_orders[1])
    hess = block[2 + n :].reshape((n, n) + grid.shape).transpose(grid._axis_orders[2])
    return block[0], block[1], grad, hess


def geodesic_shoot(
    gamma0: GraphLagrangian,
    h0: TangentFunction,
    time: float,
    steps: int,
) -> GeodesicPath:
    """Integrate the geodesic equation phi_tt = -D_{phi_t} phi_t.

    The RK4 state (phi, psi, grad phi, Hess phi) is one C-contiguous block of
    2 + n + n^2 component-major rows, allocated once per shot with four more
    blocks of its shape: the accumulator, the stage and two rate blocks.  The
    rates k1 and k3 share one rate block and k2 and k4 the other; the
    accumulator takes 2 k2 + k1 before k3 overwrites k1, so the combination
    runs in the order of the written RK4 sum and keeps its bits.  A stage
    writes its derivatives and its acceleration straight into its rate
    block's rows.  Stage and end-of-step graphs view the blocks and never
    leave the step; the path keeps copies of phi and psi, so no two of its
    fields share memory.

    Raises
    ------
    GammaMismatch
        If ``h0`` is attached to a Lagrangian other than ``gamma0``.
    PositivityLost
        If any stage of any step leaves the positive locus.
    StepRejected
        If the relative energy jump across one step exceeds the module
        constant ``STEP_ENERGY_TOL`` or is NaN.
    ValueError
        If ``steps`` is not between 1 and ``MAX_STEPS``, or ``time`` is not
        finite.
    """
    require_same_gamma(h0, gamma=gamma0)
    if not 1 <= steps <= MAX_STEPS:
        raise ValueError(f"steps must be between 1 and {MAX_STEPS}, got {steps}")
    if not math.isfinite(time):
        raise ValueError(f"time must be finite, got {time}")
    model, grid = gamma0.model, gamma0.grid
    n = grid.n
    dt = float(time) / steps

    def gamma_at(block: np.ndarray, t: float) -> GraphLagrangian:
        phi_vals, _, grad_phi, hess_phi = rows[id(block)]
        try:
            return build(model, ScalarField(grid, phi_vals), (grad_phi, hess_phi))
        except NotPositive as exc:
            raise PositivityLost(t, f"positivity lost at t = {t:.6g}: {exc}") from exc

    def rate(block: np.ndarray, k: np.ndarray, t: float) -> None:
        """Write d/dt (phi, psi, grad phi, Hess phi) = (psi, -D_psi psi,
        grad psi, Hess psi) at ``block`` into ``k``, with D at the graph of
        phi."""
        gamma = gamma_at(block, t)
        psi_vals = block[1]
        _, _, grad_out, hess_out = rows[id(k)]
        grad_psi = gradient_values(grid, psi_vals, out=grad_out)
        k[0] = psi_vals
        geodesic_acceleration(gamma, psi_vals, grad_psi=grad_psi, out=k[1])
        hessian_values(grid, psi_vals, grad=grad_psi, out=hess_out)

    def shift(c: float, k: np.ndarray) -> np.ndarray:
        """state + c k in the stage block, bit-identical to the expression
        (IEEE addition is commutative)."""
        np.multiply(k, c, out=stage)
        return np.add(stage, state, out=stage)

    state, acc, stage, k_odd, k_even = np.empty((5, 2 + n + n * n) + grid.shape)
    # The blocks live for the whole shot, so their ids key their row views.
    rows = {id(block): _block_rows(grid, block) for block in (state, acc, stage, k_odd, k_even)}
    phi0 = gamma0.phi.values
    np.subtract(phi0, phi0.mean(), out=state[0])
    psi = gamma0.normalize_values(h0.values)
    state[1] = psi
    _, _, grad_phi, hess_phi = rows[id(state)]
    grad_phi[...] = gamma0.grad_phi
    hess_phi[...] = gamma0.hess_phi

    times = [0.0]
    potentials = [ScalarField(grid, state[0].copy())]
    velocities = [ScalarField(grid, psi)]
    energies = [gamma0.inner_values(psi, psi)]

    for step in range(steps):
        t = step * dt
        # state + dt/6 (k1 + 2 k2 + 2 k3 + k4), summed in the order
        # 2 k2 + k1 + 2 k3 + k4: k3 overwrites k1 and k4 overwrites k2
        # only after the accumulator has taken them.
        rate(state, k_odd, t)
        rate(shift(0.5 * dt, k_odd), k_even, t + 0.5 * dt)
        np.multiply(k_even, 2.0, out=acc)
        acc += k_odd
        rate(shift(0.5 * dt, k_even), k_odd, t + 0.5 * dt)
        rate(shift(dt, k_odd), k_even, t + dt)
        k_odd *= 2.0
        acc += k_odd
        acc += k_even
        acc *= dt / 6.0
        acc += state
        state, acc = acc, state

        phi = state[0]
        phi -= phi.mean()
        gamma = gamma_at(state, t + dt)
        psi = gamma.normalize_values(state[1])
        state[1] = psi
        energy = gamma.inner_values(psi, psi)

        drift = abs(energy - energies[-1]) / max(abs(energies[0]), 1e-300)
        if not drift <= STEP_ENERGY_TOL:  # NaN fails the comparison too
            raise StepRejected(t + dt, drift, STEP_ENERGY_TOL)

        times.append(t + dt)
        potentials.append(ScalarField(grid, phi.copy()))
        velocities.append(ScalarField(grid, psi))
        energies.append(energy)

    return GeodesicPath(
        model,
        np.asarray(times),
        tuple(potentials),
        tuple(velocities),
        np.asarray(energies),
        time,
    )
