"""Geometry of a positive Lagrangian graph and its tangent space.

A Lagrangian in the isotopy class is the graph of d(phi) for a periodic
potential phi; it is identified with the base torus through the projection,
so every intrinsic quantity is a field in the base coordinate x.  The
embedding x -> (x, grad phi) induces

    metric      g = I + (Hess phi)^2
    volume      sqrt(det g) dx
    pullback    Omega|_Gamma = e^{g(z(x))} det(I - i Hess phi) dx,  z = x - i grad phi

and the Lagrangian angle theta is the phase of the pullback density divided
by rho^{n/2} sqrt(det g).  Positivity (cos theta > 0) makes the principal
branch globally valid, so no unwrapping is needed.

Tangent vectors to the isotopy class are functions h on the base normalized
against the real part of the pulled-back volume form; the Riemannian metric
is (h, k) = integral of h*k*cos(theta)*rho^{n/2}*sqrt(det g).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ambient import AlmostCYModel
from .errors import GammaMismatch, NotPositive
from .torus import (
    ScalarField,
    TensorField,
    adjugate,
    det,
    grad_hess,
    gradient_values,
    integrate_values,
    partial_values,
)


class GraphLagrangian:
    """The graph of d(phi) with all induced geometry cached.

    Raises
    ------
    NotPositive
        If cos(theta) <= 0 at any grid point (the graph leaves the positive
        locus); the error reports the worst point and margin.
    """

    def __init__(self, model: AlmostCYModel, phi: ScalarField):
        grid = phi.grid
        if grid.n != model.n:
            raise ValueError(f"potential dimension {grid.n} != model dimension {model.n}")
        if abs(grid.period - model.period) > 1e-12 * model.period:
            raise ValueError("potential grid period differs from model period")
        self.model = model
        self.grid = grid
        self.phi = phi
        n = grid.n

        self.grad_phi, self.hess_phi = grad_hess(grid, phi.values)

        # g = I + H^2 is symmetric positive definite with det g >= 1, so the
        # closed-form inverse adj(g) / det g is well conditioned.
        eye = np.eye(n)
        self.metric = eye + self.hess_phi @ self.hess_phi
        self.det_metric = det(self.metric)
        self.inverse_metric = adjugate(self.metric) / self.det_metric[..., None, None]
        self.sqrt_det_metric = np.sqrt(self.det_metric)

        # Pullback of Omega along x -> (x, grad phi).  adj(B) turns the
        # connection's Cramer determinants into contractions.
        B = eye - 1j * self.hess_phi
        self._adj_B = adjugate(B)
        self._det_B = det(B)
        self._twist_density = model.holomorphic_density(grid.coords, self.grad_phi)
        self.pullback_density = self._twist_density * self._det_B

        self.rho = model.rho(grid.coords, self.grad_phi)
        rho_half = self.rho ** (n / 2.0)
        self.theta = np.angle(self.pullback_density / (rho_half * self.sqrt_det_metric))
        self.cos_theta = np.cos(self.theta)

        self.margin = float(self.cos_theta.min())
        if self.margin <= 0.0:
            worst = np.unravel_index(np.argmin(self.cos_theta), grid.shape)
            point = tuple(float(grid.axis[i]) for i in worst)
            raise NotPositive(self.margin, point)

        # Density of Re(Omega) pulled back, in the dx volume.
        self.re_omega = self.cos_theta * rho_half * self.sqrt_det_metric
        self.total_weight = integrate_values(grid, self.re_omega)

        # Pointwise defect of the phase/volume decomposition; by construction
        # only the modulus can drift, and only by roundoff.
        recon = np.exp(1j * self.theta) * rho_half * self.sqrt_det_metric
        scale = np.abs(self.pullback_density).max()
        self.lagang_residual = float(np.abs(self.pullback_density - recon).max() / scale)

        self._rho_half = rho_half

    # -- lazy derived fields -------------------------------------------------

    @cached_property
    def grad_theta(self) -> np.ndarray:
        return gradient_values(self.grid, self.theta)

    @cached_property
    def grad_rho(self) -> np.ndarray:
        return gradient_values(self.grid, self.rho)

    @cached_property
    def christoffels(self) -> np.ndarray:
        """Christoffel symbols of the induced metric, shape ``(..., a, b, c)``
        for Gamma^c_{ab}, computed spectrally from g = I + (Hess phi)^2."""
        grid, n = self.grid, self.grid.n
        dg = np.empty(grid.shape + (n, n, n))
        for a in range(n):
            for b in range(a, n):
                dg[..., :, a, b] = gradient_values(grid, self.metric[..., a, b])
                dg[..., :, b, a] = dg[..., :, a, b]
        # bracket[..., a, b, d] = d_a g_{db} + d_b g_{da} - d_d g_{ab}
        bracket = (
            np.einsum("...adb->...abd", dg)
            + np.einsum("...bda->...abd", dg)
            - np.einsum("...dab->...abd", dg)
        )
        return 0.5 * np.einsum("...cd,...abd->...abc", self.inverse_metric, bracket)

    # -- field views ----------------------------------------------------------

    @property
    def theta_field(self) -> ScalarField:
        return ScalarField(self.grid, self.theta)

    @property
    def rho_field(self) -> ScalarField:
        return ScalarField(self.grid, self.rho)

    @property
    def hessian_field(self) -> TensorField:
        return TensorField(self.grid, 2, self.hess_phi, symmetric=True)

    @property
    def metric_field(self) -> TensorField:
        return TensorField(self.grid, 2, self.metric, symmetric=True)

    # -- metric operations on raw value arrays --------------------------------

    def inner_values(self, a: np.ndarray, b: np.ndarray) -> float:
        return integrate_values(self.grid, a * b * self.re_omega)

    def grad_inner_values(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Pointwise <da, db> with respect to the induced metric."""
        ga = gradient_values(self.grid, a)
        gb = gradient_values(self.grid, b)
        return np.einsum("...ab,...a,...b->...", self.inverse_metric, ga, gb)

    def normalize_values(self, values: np.ndarray) -> np.ndarray:
        shift = integrate_values(self.grid, values * self.re_omega) / self.total_weight
        return values - shift

    # -- public operations -----------------------------------------------------

    def normalize(self, f: ScalarField) -> "TangentFunction":
        """Project a function into the tangent space by fixing its constant."""
        if f.grid != self.grid:
            raise ValueError("field lives on a different grid")
        return TangentFunction(self, ScalarField(self.grid, self.normalize_values(f.values)))

    def laplace_beltrami(self, h: ScalarField) -> ScalarField:
        """Nonnegative Laplacian of the induced metric:
        Lap h = -(det g)^{-1/2} d_a( sqrt(det g) g^{ab} d_b h )."""
        grid = self.grid
        grad = gradient_values(grid, h.values)
        flux = self.sqrt_det_metric[..., None] * np.einsum(
            "...ab,...b->...a", self.inverse_metric, grad
        )
        div = np.zeros(grid.shape)
        for a in range(grid.n):
            div += partial_values(grid, flux[..., a], a)
        return ScalarField(grid, -div / self.sqrt_det_metric)

    def covariant_hessian(self, h: ScalarField) -> TensorField:
        """Hess h(a, b) = d_a d_b h - Gamma^c_{ab} d_c h (symmetric)."""
        grid = self.grid
        grad, hess = grad_hess(grid, h.values)
        vals = hess - np.einsum("...abc,...c->...ab", self.christoffels, grad)
        return TensorField(grid, 2, vals, symmetric=True)

    def __repr__(self):
        return (
            f"GraphLagrangian(n={self.grid.n}, N={self.grid.points}, "
            f"eps={self.model.twist_amplitude}, margin={self.margin:.4f})"
        )


@dataclass(frozen=True)
class TangentFunction:
    """A tangent vector to the isotopy class at a fixed graph Lagrangian.

    Constructed through ``GraphLagrangian.normalize`` the function satisfies
    the zero-mean normalization against Re(Omega); raw curvature outputs are
    also carried by this type, with their normalization defect reported as a
    diagnostic instead of being silently projected away.
    """

    gamma: GraphLagrangian
    h: ScalarField

    def __post_init__(self):
        if self.h.grid != self.gamma.grid:
            raise ValueError("tangent function sampled on a different grid")

    @property
    def values(self) -> np.ndarray:
        return self.h.values

    def normalization_residual(self) -> float:
        """|integral of h Re(Omega)|, zero (to roundoff) for normalized h."""
        return abs(integrate_values(self.gamma.grid, self.values * self.gamma.re_omega))


def build(model: AlmostCYModel, phi: ScalarField) -> GraphLagrangian:
    """Construct the graph of d(phi) with all cached geometry."""
    return GraphLagrangian(model, phi)


def require_same_gamma(*tangents: TangentFunction) -> GraphLagrangian:
    gamma = tangents[0].gamma
    for t in tangents[1:]:
        if t.gamma is not gamma:
            raise GammaMismatch("tangent functions attached to different Lagrangians")
    return gamma


def inner(h: TangentFunction, k: TangentFunction) -> float:
    """Riemannian metric (h, k) = integral of h*k*Re(Omega) over the graph."""
    gamma = require_same_gamma(h, k)
    return gamma.inner_values(h.values, k.values)


def grad_inner(h: TangentFunction, k: TangentFunction) -> ScalarField:
    """Pointwise induced-metric inner product of the differentials."""
    gamma = require_same_gamma(h, k)
    return ScalarField(gamma.grid, gamma.grad_inner_values(h.values, k.values))
