"""Levi-Civita connection in the graph chart: the w-field and geodesics.

For a vertical deformation with potential h, the connection datum is the
base vector field w solving

    i_w Re(Omega~) = -i_u Re(Omega),      u = (0, grad h),

where Omega~ is the pullback of Omega to the graph.  Writing B for the
holomorphic frame matrix (columns dz(df e_a) = delta - i Hess phi) and E for
the twist density e^{g(z)}, Cramer's rule on the top-form components gives

    w_a = -Re( E * det(B with column a replaced by -i grad h) ) / Re(E det B).

Expanding that determinant along the replaced column a gives the cofactors
of column a of B, i.e. row a of the adjugate:

    det(B with column a replaced by v) = sum_b adj(B)_ab v_b = (adj B . v)_a,

so all n determinants are one contraction with adj B, which every
GraphLagrangian caches.

The coordinate covariant derivative D_{h}k along a fiberwise Hamiltonian
family is the same contraction with the horizontal vector (grad h, 0) and
the imaginary part; both reduce to -tan(theta) <grad h, grad k> wherever the
fibers meet the Lagrangian perpendicularly (any zero section).

Geodesics solve phi_tt = -w(phi, phi_t) . grad(phi_t) and are integrated
with a classical fourth-order one-step method; velocities are renormalized
into the tangent space after every step and positions kept mean-zero (both
touch only the additive constants, which carry no geometry).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ambient import AlmostCYModel
from .errors import (
    InsufficientSamples,
    NotPositive,
    PositivityLost,
    SingularDensity,
    StepRejected,
)
from .lagrangian import GraphLagrangian, TangentFunction, build
from .torus import ScalarField, gradient_values


@dataclass(frozen=True)
class VerticalDeformation:
    """A vertical variation of a graph, d/dt (x, grad phi + t grad h)."""

    gamma: GraphLagrangian
    h: ScalarField


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
            if np.abs(dt - dt[0]).max() > 1e-12 * abs(dt[0]):
                raise ValueError("time grid must be uniform")
        object.__setattr__(self, "times", times)


LagrangianPath = HamiltonianFamily | SampledPath


# ---------------------------------------------------------------------------
# Pointwise contraction cores
# ---------------------------------------------------------------------------


def _cramer_values(gamma: GraphLagrangian, vec: np.ndarray) -> np.ndarray:
    """E * det(B with column a replaced by vec) for every a, as E * adj(B) vec."""
    cols = np.einsum("...ab,...b->...a", gamma._adj_B, vec)
    return gamma._twist_density[..., None] * cols


def _re_density(gamma: GraphLagrangian, tolerance: float) -> np.ndarray:
    density = np.real(gamma.pullback_density)
    worst = np.abs(density).min()
    if worst < tolerance:
        raise SingularDensity(
            f"|Re Omega~| = {worst:.3e} below tolerance {tolerance:.1e}; "
            "positivity nearly violated"
        )
    return density


def w_field_values(
    gamma: GraphLagrangian,
    h_values: np.ndarray,
    tolerance: float = 1e-12,
    *,
    grad_h: np.ndarray | None = None,
) -> np.ndarray:
    """Components of the w-field, shape ``grid.shape + (n,)``.

    ``grad_h`` is the gradient of ``h_values`` when the caller already has it.
    """
    density = _re_density(gamma, tolerance)
    if grad_h is None:
        grad_h = gradient_values(gamma.grid, h_values)
    return -np.real(_cramer_values(gamma, -1j * grad_h)) / density[..., None]


def w_field(
    gamma: GraphLagrangian,
    u: VerticalDeformation | ScalarField,
    tolerance: float = 1e-12,
) -> tuple[ScalarField, ...]:
    """The base vector field w with i_w Re(Omega~) = -i_u Re(Omega).

    ``u`` may be given as a VerticalDeformation or directly as its potential.

    Raises
    ------
    SingularDensity
        If |Re Omega~| drops below ``tolerance`` anywhere.
    """
    if isinstance(u, VerticalDeformation):
        if u.gamma is not gamma:
            raise ValueError("deformation attached to a different Lagrangian")
        h = u.h
    else:
        h = u
    vals = w_field_values(gamma, h.values, tolerance)
    return tuple(ScalarField(gamma.grid, vals[..., a]) for a in range(gamma.grid.n))


def _directional_derivative(
    gamma: GraphLagrangian, w: np.ndarray, values: np.ndarray
) -> np.ndarray:
    grad = gradient_values(gamma.grid, values)
    return np.einsum("...a,...a->...", w, grad)


def cov_deriv_pair_values(
    gamma: GraphLagrangian,
    hj_values: np.ndarray,
    hk_values: np.ndarray,
    tolerance: float = 1e-12,
) -> np.ndarray:
    """D_{h^j} h^k at one graph: -(d h^k ^ pullback i_{grad H^j} Im Omega)/Re Omega~."""
    density = _re_density(gamma, tolerance)
    grad_j = gradient_values(gamma.grid, hj_values)
    grad_k = gradient_values(gamma.grid, hk_values)
    comp = np.imag(_cramer_values(gamma, grad_j))
    return -np.einsum("...a,...a->...", grad_k, comp) / density


def cov_deriv_coordinate(
    family: HamiltonianFamily,
    t: Sequence[float],
    j: int,
    k: int,
    tolerance: float = 1e-12,
) -> ScalarField:
    """Coordinate covariant derivative D_{h^j} h^k at the family member t."""
    gamma = family.gamma_at(t)
    vals = cov_deriv_pair_values(
        gamma, family.generators[j].values, family.generators[k].values, tolerance
    )
    return ScalarField(gamma.grid, vals)


def cov_deriv_along_path(
    path: SampledPath,
    h_samples: Sequence[ScalarField],
    index: int,
    tolerance: float = 1e-12,
) -> ScalarField:
    """Covariant time derivative (d/dt + w .) h at an interior sample.

    The path velocity comes from stored velocities when present, otherwise
    from central differences of the potentials.

    Raises
    ------
    InsufficientSamples
        At the first or last sample, where no central stencil fits.
    """
    m = len(path.times)
    if len(h_samples) != m:
        raise ValueError("tangent samples and time grid disagree in length")
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
    w = w_field_values(gamma, phi_dot, tolerance)
    vals = dh_dt + _directional_derivative(gamma, w, h_samples[index].values)
    return ScalarField(gamma.grid, vals)


# ---------------------------------------------------------------------------
# Geodesic shooting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeodesicPath:
    """Output of geodesic shooting: potentials, tangent-space velocities and
    kinetic energies on a uniform time grid."""

    model: AlmostCYModel
    times: np.ndarray
    potentials: tuple[ScalarField, ...]
    velocities: tuple[ScalarField, ...]
    energies: np.ndarray

    def as_sampled_path(self) -> SampledPath:
        return SampledPath(self.model, self.times, self.potentials, self.velocities)

    def energy_drift(self) -> float:
        e0 = self.energies[0]
        return float(np.abs(self.energies - e0).max() / abs(e0)) if e0 != 0 else 0.0


def geodesic_shoot(
    gamma0: GraphLagrangian,
    h0: TangentFunction,
    time: float,
    steps: int,
    step_energy_tol: float = 1e-6,
) -> GeodesicPath:
    """Integrate the geodesic equation phi_tt = -w(phi, phi_t) . grad(phi_t).

    Raises
    ------
    PositivityLost
        If any stage of any step leaves the positive locus.
    StepRejected
        If the relative energy jump across one step exceeds
        ``step_energy_tol``.
    """
    if h0.gamma is not gamma0:
        raise ValueError("initial velocity attached to a different Lagrangian")
    if steps < 1:
        raise ValueError("steps must be positive")
    model, grid = gamma0.model, gamma0.grid
    dt = float(time) / steps

    def gamma_at(phi_vals: np.ndarray, t: float) -> GraphLagrangian:
        try:
            return build(model, ScalarField(grid, phi_vals))
        except NotPositive as exc:
            raise PositivityLost(t, f"positivity lost at t = {t:.6g}: {exc}") from exc

    def accel(phi_vals: np.ndarray, psi_vals: np.ndarray, t: float) -> np.ndarray:
        gamma = gamma_at(phi_vals, t)
        grad_psi = gradient_values(grid, psi_vals)
        w = w_field_values(gamma, psi_vals, grad_h=grad_psi)
        return -np.einsum("...a,...a->...", w, grad_psi)

    phi = gamma0.phi.values - gamma0.phi.values.mean()
    psi = gamma0.normalize_values(h0.values)

    times = [0.0]
    potentials = [ScalarField(grid, phi)]
    velocities = [ScalarField(grid, psi)]
    energies = [gamma0.inner_values(psi, psi)]

    for step in range(steps):
        t = step * dt
        k1p, k1v = psi, accel(phi, psi, t)
        k2p = psi + 0.5 * dt * k1v
        k2v = accel(phi + 0.5 * dt * k1p, k2p, t + 0.5 * dt)
        k3p = psi + 0.5 * dt * k2v
        k3v = accel(phi + 0.5 * dt * k2p, k3p, t + 0.5 * dt)
        k4p = psi + dt * k3v
        k4v = accel(phi + dt * k3p, k4p, t + dt)
        phi = phi + dt / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        psi = psi + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)

        phi = phi - phi.mean()
        gamma = gamma_at(phi, t + dt)
        psi = gamma.normalize_values(psi)
        energy = gamma.inner_values(psi, psi)

        drift = abs(energy - energies[-1]) / max(abs(energies[0]), 1e-300)
        if drift > step_energy_tol:
            raise StepRejected(t + dt, drift, step_energy_tol)

        times.append(t + dt)
        potentials.append(ScalarField(grid, phi))
        velocities.append(ScalarField(grid, psi))
        energies.append(energy)

    return GeodesicPath(
        model,
        np.asarray(times),
        tuple(potentials),
        tuple(velocities),
        np.asarray(energies),
    )
