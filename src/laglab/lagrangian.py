"""Geometry of a positive Lagrangian graph and its tangent space.

A Lagrangian in the isotopy class is the graph of d(phi) for a periodic
potential phi; it is identified with the base torus through the projection,
so every intrinsic quantity is a field in the base coordinate x.  The
embedding x -> (x, grad phi) induces

    metric      g = I + (Hess phi)^2
    volume      sqrt(det g) dx
    pullback    Omega|_Gamma = e^{g(z(x))} det(I - i Hess phi) dx,  z = x - i grad phi

and Omega~ = e^{i theta} rho^{n/2} sqrt(det g) defines the Lagrangian angle
theta.  The factor rho^{n/2} sqrt(det g) is positive, so theta = arg Omega~,
cos theta = Re Omega~ / |Omega~|, tan theta = Im Omega~ / Re Omega~ and the
quadruple-form weight sec theta rho^{n/2} sqrt(det g) = |Omega~|^2 / Re Omega~
are all read off Omega~.  Positivity (Re Omega|_Gamma > 0, equivalently
cos theta > 0) keeps theta in (-pi/2, pi/2), so the principal branch never
wraps.  ``GraphLagrangian`` builds the pullback at construction, since the
positivity check and the geodesic right-hand side read nothing else, and
computes the metric side (g, rho) on first read.  The metric weight
Re Omega|_Gamma is Re Omega~ itself, so normalising and pairing tangent
vectors read no metric side either.  ``lagang_residual`` checks the modulus
|Omega~| = rho^{n/2} sqrt(det g) against the metric side.

The holomorphic frame B = I - i H (H = Hess phi; its columns are
dz(df e_a)) is never formed.  Its determinant and adjugate are real
polynomials in the invariants s1 = tr H, s2 = tr adj H (det H at n = 2, 0 at
n = 1) and s3 = det H (n = 3 only):

    det B = (1 - s2) - i (s1 - s3),      adj B = (I - adj3 H) - i (s1 I - H),

with adj3 H = adj H at n = 3 and 0 otherwise.  So with E = Re E + i Im E the
build keeps only real arrays: ``re_omega`` = Re Omega~ = Re E Re det B -
Im E Im det B, which the positivity check, the w-field and the geodesic
acceleration read, and the complex det B and Omega~ are assembled from the
parts on first read.  At n = 3 the build takes s2 from the three diagonal
cofactors (``torus.cofactor3``, the entries ``torus.adjugate`` places on
the diagonal), not from adj H.  By Cramer's rule, replacing column a of B by v
gives the determinant (adj B v)_a, so the n determinants the w-field needs
are one contraction with adj B; for a real v, ``cramer_numerator`` returns

    Im(E adj(B) v) = Re E (H v - s1 v) + Im E (v - adj3 H v).

Dotted with v and divided by Re Omega~, it is the one field
``cramer_quadratic_form`` returns, -D_h h for v = grad h (the geodesic
step's acceleration):

    [Re E (v^T H v - s1 |v|^2) + Im E (|v|^2 - v^T adj3 H v)] / Re Omega~,

where v^T H v - s1 |v|^2 = -v^T adj(H) v at n = 2 and 0 at n = 1.  These
two are the readers of adj3 H, which is formed on the first call of either
on a graph at n = 3.

Tangent vectors to the isotopy class are functions h on the base normalized
against the real part of the pulled-back volume form; the Riemannian metric
is (h, k) = integral of h*k*Re(Omega~) dx, the real part of the pullback
density that the build already holds for the positivity check.  The pairing
and the normalisation each integrate against Re Omega~ as one dot
(``torus.integrate_product``), and check the shape of the raw arrays they
are given (``torus.check_field_shapes``).

The graph lies in flat space, so by the Gauss formula its Christoffel
symbols are Gamma^c_{ab} = (g^{-1} Hess phi)_ce d_e (Hess phi)_ab.
``GraphLagrangian.derivatives`` is the one method that gives a function's
gradient, raised gradient, covariant Hessian and divergence-form Laplacian,
all from one gradient and Hessian and one index raise; ``laplace_beltrami``
and ``covariant_hessian`` read it.  ``GraphLagrangian.raise_index`` is the
one application of g^{-1}: the metric pairing, the Laplacian's flux and the
curvature routes all go through it.  It builds each raised component in
place in the component-major stack whose transposed view it returns, as
``cramer_numerator`` does, and ``inverse_metric`` divides the adjugate in
place, all with the bits of the allocating forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ambient import AlmostCYModel
from .errors import GammaMismatch, NotPositive
from .torus import (
    ScalarField,
    adjugate,
    check_field_shapes,
    cofactor3,
    det,
    divergence_values,
    gradient_values,
    hessian_values,
    integrate_product,
    integrate_values,
    symmetric_gradient_values,
    vector_dot,
)


class GraphLagrangian:
    """The graph of d(phi): the pulled-back form built eagerly, the induced
    metric side on first read.

    Eager: ``grad_phi``, ``hess_phi``, tr H and tr adj H (n = 3 only), Re E
    and Im E of the twist density E = e^{g} as two contiguous real arrays
    (``AlmostCYModel.holomorphic_density_parts`` from x_1's N axis samples,
    which broadcast to the grid, and with e^{ib} in the half-angle form: one
    vectorised tan instead of numpy's scalar sin and cos), the real and
    imaginary parts of det B (B = I - i Hess phi), ``re_omega`` = Re Omega~
    = Re(E det B), the density of Re(Omega) pulled back in the dx volume,
    and its minimum ``re_omega_min``.  Every other field is computed on
    first read and then cached: adj H (n = 3 only), which only
    ``cramer_numerator`` and ``cramer_quadratic_form`` read, so a geodesic
    step reads it and a sectional scan does not; the complex E, which only
    ``rho`` reads, and ``pullback_density``; the phase side ``theta``,
    ``cos_theta``, ``margin`` and ``sec_weight``, read off Omega~ alone;
    the metric side ``metric``, ``det_metric``, ``inverse_metric``,
    ``sqrt_det_metric`` and ``rho``; ``total_weight``, ``lagang_residual``
    and the derivative fields below.

    ``derivatives`` is (grad phi, Hess phi) when the caller already has them
    (a geodesic stage carries them through its linear combinations); the
    build then does not differentiate phi.

    Raises
    ------
    NotPositive
        If Re Omega~ <= 0 or is not finite at any grid point (the graph
        leaves the positive locus, or the twist overflows); the error
        reports min cos(theta) and its point, or, where Re Omega~ is not
        finite, the first such point.
    """

    def __init__(
        self,
        model: AlmostCYModel,
        phi: ScalarField,
        derivatives: tuple[np.ndarray, np.ndarray] | None = None,
    ):
        grid = phi.grid
        if grid.n != model.n:
            raise ValueError(f"potential dimension {grid.n} != model dimension {model.n}")
        if abs(grid.period - model.period) > 1e-12 * model.period:
            raise ValueError("potential grid period differs from model period")
        self.model = model
        self.grid = grid
        self.phi = phi

        if derivatives is None:
            grad = gradient_values(grid, phi.values)
            derivatives = grad, hessian_values(grid, phi.values, grad=grad)
        self.grad_phi, self.hess_phi = derivatives
        n = grid.n
        if self.grad_phi.shape != grid.shape + (n,) or self.hess_phi.shape != grid.shape + (n, n):
            raise ValueError("derivatives do not match the potential's grid")

        # Pullback of Omega along x -> (x, grad phi) from the invariants of H
        # (module docstring): det B = (1 - s2) - i (s1 - s3), each array
        # formed in place in the order of the written sums.
        H = self.hess_phi
        trace = H[..., 0, 0].copy() if n == 1 else np.add(H[..., 0, 0], H[..., 1, 1])
        if n == 3:
            trace += H[..., 2, 2]
        self._trace_hess = trace
        if n < 3:
            self._re_det_B = re_det_B = np.ones(grid.shape) if n == 1 else det(H)
            self._im_det_B = im_det_B = np.subtract(0.0, trace)
        else:
            # s2 = tr adj H from the three diagonal cofactors alone.
            self._re_det_B = re_det_B = cofactor3(H, 0, 0)
            re_det_B += cofactor3(H, 1, 1)
            re_det_B += cofactor3(H, 2, 2)
            self._im_det_B = im_det_B = det(H)
            im_det_B -= trace
        if n > 1:
            np.subtract(1.0, re_det_B, out=re_det_B)

        # An overflowing twist leaves inf or NaN in Re Omega~, which the
        # positivity check reports; evaluate it without warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            self._re_twist, self._im_twist = model.holomorphic_density_parts(
                grid.axis.reshape((-1,) + (1,) * n), self.grad_phi
            )
            # Not in place: that raised the validate job's peak RSS by 1 MiB.
            self.re_omega = re_omega = self._re_twist * re_det_B - self._im_twist * im_det_B

            # Positivity is 0 < Re Omega~ < inf at every point; NaN fails
            # both comparisons.  Where Re Omega~ is not finite, cos(theta) has
            # no value, so the first such point is reported with a NaN margin.
            self.re_omega_min = re_omega.min()
            if not (self.re_omega_min > 0.0 and re_omega.max() < np.inf):
                not_finite = ~np.isfinite(re_omega)
                if not_finite.any():
                    margin, worst = np.nan, np.argmax(not_finite)
                else:
                    worst = np.argmin(self.cos_theta)
                    margin = float(self.cos_theta.flat[worst])
                worst = np.unravel_index(worst, grid.shape)
                raise NotPositive(margin, tuple(float(grid.axis[i]) for i in worst))

    # -- complex pullback, assembled from the real parts on first read ---------

    @cached_property
    def _twist_density(self) -> np.ndarray:
        """E = e^{g}, assembled from the real parts the build holds."""
        density = np.empty(self.grid.shape, dtype=complex)
        density.real, density.imag = self._re_twist, self._im_twist
        return density

    @cached_property
    def pullback_density(self) -> np.ndarray:
        """Omega~ = E det(I - i Hess phi), the pulled-back form in the dx volume."""
        omega = np.empty(self.grid.shape, dtype=complex)
        omega.real = self.re_omega
        omega.imag = self._re_twist * self._im_det_B + self._im_twist * self._re_det_B
        return omega

    @cached_property
    def _adj_hess(self) -> np.ndarray:
        """adj H, which only ``cramer_numerator`` and ``cramer_quadratic_form``
        read, and only at n = 3."""
        return adjugate(self.hess_phi)

    def cramer_numerator(self, vec: np.ndarray) -> np.ndarray:
        """Im(E * det(B with column a replaced by vec)) for every a, as
        Im(E adj(B) vec) in real arithmetic (module docstring), for a real
        vector field ``vec``; component a is summed in place in the written
        order, in row a of a component-major buffer, returned as a view."""
        H, grid = self.hess_phi, self.grid
        adj3 = self._adj_hess if grid.n == 3 else None
        out = np.empty((grid.n,) + grid.shape)
        term, part = np.empty(grid.shape), np.empty(grid.shape)

        def row_dot(m, a, acc):  # (m vec)_a into acc, as ``vector_dot`` sums it
            np.multiply(m[..., a, 0], vec[..., 0], out=acc)
            for b in range(1, grid.n):
                acc += np.multiply(m[..., a, b], vec[..., b], out=term)
            return acc

        for a, row in enumerate(out):
            row_dot(H, a, row)
            row -= np.multiply(self._trace_hess, vec[..., a], out=term)
            row *= self._re_twist
            imag = vec[..., a]
            if adj3 is not None:
                imag = np.subtract(imag, row_dot(adj3, a, part), out=part)
            row += np.multiply(self._im_twist, imag, out=part)
        return out.transpose(grid._axis_orders[1])

    def cramer_quadratic_form(self, vec: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Im(E adj(B) vec) . vec / Re Omega~ for a real vector field ``vec``:
        the Cramer numerator dotted with ``vec``, as one quadratic form
        (module docstring)

            [Re E (v^T H v - s1 |v|^2) + Im E (|v|^2 - v^T adj3 H v)] / Re Omega~,

        in which v^T H v - s1 |v|^2 is 0 at n = 1 and -v^T adj(H) v at
        n = 2.  For vec = grad h it is -D_h h (``connection``).  H and adj H
        are symmetric, so each product v_a v_b with a <= b is formed once,
        and doubled once when a < b.  Written into ``out`` when given; at
        n = 2 it uses two scratch fields, at n = 3 four."""
        H, n = self.hess_phi, self.grid.n
        v = [vec[..., a] for a in range(n)]
        sq = np.multiply(v[0], v[0], out=out)  # v_0^2, summed into |v|^2 below
        if n == 1:
            sq *= self._im_twist
        else:
            prod = np.empty_like(sq)
            if n == 2:
                # real = -v^T adj(H) v = 2 H_01 v_0 v_1 - H_11 v_0^2 - H_00 v_1^2.
                np.multiply(v[0], v[1], out=prod)
                prod += prod
                real = np.multiply(H[..., 0, 1], prod)
                real -= np.multiply(H[..., 1, 1], sq, out=prod)
                sq += np.multiply(v[1], v[1], out=prod)
                real -= np.multiply(H[..., 0, 0], prod, out=prod)
                imag = sq
            else:
                # real = v^T H v - s1 |v|^2 and imag = |v|^2 - v^T adj(H) v.
                adj, term = self._adj_hess, np.empty_like(sq)
                real, imag = np.multiply(H[..., 0, 0], sq), np.multiply(adj[..., 0, 0], sq)
                for a, b in ((1, 1), (2, 2), (0, 1), (0, 2), (1, 2)):
                    np.multiply(v[a], v[b], out=prod)
                    if a == b:
                        sq += prod
                    else:
                        prod += prod
                    real += np.multiply(H[..., a, b], prod, out=term)
                    imag += np.multiply(adj[..., a, b], prod, out=term)
                real -= np.multiply(self._trace_hess, sq, out=term)
                np.subtract(sq, imag, out=imag)
            real *= self._re_twist
            sq = np.multiply(self._im_twist, imag, out=sq)
            sq += real
        # -D_h h = -w(h) . grad h with w = -(Cramer numerator) / Re Omega~:
        # the two minus signs cancel.
        return np.divide(sq, self.re_omega, out=sq)

    # -- metric side, computed on first read -----------------------------------

    @cached_property
    def metric(self) -> np.ndarray:
        """g = I + H^2, written out (H is symmetric)."""
        H, n = self.hess_phi, self.grid.n
        g = np.empty_like(H)
        for a in range(n):
            g[..., a, a] = vector_dot(H[..., a, :], H[..., :, a]) + 1.0
            for b in range(a + 1, n):
                g[..., a, b] = g[..., b, a] = vector_dot(H[..., a, :], H[..., :, b])
        return g

    @cached_property
    def det_metric(self) -> np.ndarray:
        return det(self.metric)

    @cached_property
    def inverse_metric(self) -> np.ndarray:
        # g is symmetric positive definite with det g >= 1, so the closed-form
        # inverse adj(g) / det g is well conditioned.  The division runs in
        # place on the adjugate, with the same bits as the allocating one:
        # at 32^3 the whole read takes 0.64 ms against 1.68 ms (2-core VM),
        # since no fresh n^2-field array is touched.
        inverse = adjugate(self.metric)
        inverse /= self.det_metric[..., None, None]
        return inverse

    @cached_property
    def sqrt_det_metric(self) -> np.ndarray:
        return np.sqrt(self.det_metric)

    @cached_property
    def rho(self) -> np.ndarray:
        return self.model.rho_from_density(self._twist_density)

    @cached_property
    def theta(self) -> np.ndarray:
        return np.angle(self.pullback_density)

    @cached_property
    def cos_theta(self) -> np.ndarray:
        return self.re_omega / np.abs(self.pullback_density)

    @cached_property
    def margin(self) -> float:
        return float(self.cos_theta.min())

    @cached_property
    def sec_weight(self) -> np.ndarray:
        """sec(theta) rho^{n/2} sqrt(det g) = |Omega~|^2 / Re Omega~, the
        quadruple-form weight."""
        return self.re_omega / self.cos_theta**2

    @cached_property
    def total_weight(self) -> float:
        return integrate_values(self.grid, self.re_omega)

    @cached_property
    def lagang_residual(self) -> float:
        """Pointwise defect of the phase/volume decomposition.  With
        theta = arg Omega~ the phase agrees by construction, so this checks the
        modulus identity |Omega~| = rho^{n/2} sqrt(det g), with rho from the
        twist density and sqrt(det g) from the written-out metric."""
        rho_half = self.rho ** (self.grid.n / 2.0)
        recon = np.exp(1j * self.theta) * rho_half * self.sqrt_det_metric
        scale = np.abs(self.pullback_density).max()
        return float(np.abs(self.pullback_density - recon).max() / scale)

    # -- derivative fields, computed on first read -----------------------------

    @cached_property
    def grad_theta(self) -> np.ndarray:
        return gradient_values(self.grid, self.theta)

    @cached_property
    def grad_rho(self) -> np.ndarray:
        return gradient_values(self.grid, self.rho)

    @cached_property
    def christoffels(self) -> np.ndarray:
        """Christoffel symbols Gamma^c_{ab} of the induced metric, shape
        ``(..., a, b, c)``: the graph sits in flat space, so by the Gauss formula
        Gamma_{d,ab} = H_de d_e H_ab and Gamma^c_{ab} = (g^{-1} H)_ce d_e H_ab."""
        dH = symmetric_gradient_values(self.grid, self.hess_phi)
        return np.einsum("...ce,...eab->...abc", self.inverse_metric @ self.hess_phi, dH)

    # -- metric operations on raw value arrays --------------------------------

    def inner_values(self, a: np.ndarray, b: np.ndarray) -> float:
        """(a, b) = integral of a*b*Re(Omega~) dx of two raw sample arrays: one
        product and one dot against the weight, bit-symmetric in a and b.

        Raises
        ------
        ShapeMismatch
            If either array does not have the grid's shape.
        """
        check_field_shapes(self.grid, a, b)
        return integrate_product(self.grid, a * b, self.re_omega)

    def grad_inner_values(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Pointwise <da, db> with respect to the induced metric: da . g^{-1} db."""
        grid = self.grid
        return vector_dot(gradient_values(grid, a), self.raise_index(gradient_values(grid, b)))

    def raise_index(self, grad: np.ndarray) -> np.ndarray:
        """g^{-1} grad: the vector field metrically dual to a gradient field.

        Component a is g^{ab} grad_b, summed over b in order, as
        ``vector_dot`` sums it, and built in place in the contiguous row a
        of a component-major stack, returned as its ``grid.shape + (n,)``
        view; one scratch field holds each product."""
        ginv, n = self.inverse_metric, self.grid.n
        up = np.empty((n,) + self.grid.shape)
        term = np.empty(self.grid.shape) if n > 1 else None
        for a, row in enumerate(up):
            np.multiply(ginv[..., a, 0], grad[..., 0], out=row)
            for b in range(1, n):
                np.multiply(ginv[..., a, b], grad[..., b], out=term)
                row += term
        return up.transpose(self.grid._axis_orders[1])

    def normalize_values(self, values: np.ndarray) -> np.ndarray:
        """``values`` minus the constant that makes its Re(Omega~)-weighted
        integral zero.

        Raises
        ------
        ShapeMismatch
            If ``values`` does not have the grid's shape.
        """
        check_field_shapes(self.grid, values)
        shift = integrate_product(self.grid, values, self.re_omega) / self.total_weight
        return values - shift

    # -- public operations -----------------------------------------------------

    def normalize(self, f: ScalarField) -> "TangentFunction":
        """Project a function into the tangent space by fixing its constant."""
        if f.grid != self.grid:
            raise ValueError("field lives on a different grid")
        return TangentFunction(self, ScalarField(self.grid, self.normalize_values(f.values)))

    def derivatives(
        self, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(grad h, g^{-1} grad h, Hess h, Lap h) from one gradient of h, the
        Hessian taken from it: the covariant Hessian d_a d_b h - Gamma^c_{ab}
        d_c h and the nonnegative Laplacian -(det g)^{-1/2} d_a( sqrt(det g)
        g^{ab} d_b h ), whose flux is the raised gradient.  The divergence
        form integrates by parts exactly, which the r3/r4 pairing relies on."""
        grid = self.grid
        grad = gradient_values(grid, values)
        hess = hessian_values(grid, values, grad=grad)
        hess = hess - np.einsum("...abc,...c->...ab", self.christoffels, grad)
        up = self.raise_index(grad)
        div = divergence_values(grid, self.sqrt_det_metric[..., None] * up)
        return grad, up, hess, -div / self.sqrt_det_metric

    def laplace_beltrami(self, h: ScalarField) -> ScalarField:
        """Nonnegative Laplacian of the induced metric (see ``derivatives``)."""
        return ScalarField(self.grid, self.derivatives(h.values)[3])

    def covariant_hessian(self, h: ScalarField) -> np.ndarray:
        """Hess h(a, b) = d_a d_b h - Gamma^c_{ab} d_c h, shape ``grid.shape +
        (n, n)``; symmetric because the Hessian of h and Gamma^c_{ab} are."""
        return self.derivatives(h.values)[2]

    def __repr__(self):
        return (
            f"GraphLagrangian(n={self.grid.n}, N={self.grid.points}, "
            f"eps={self.model.twist_amplitude}, margin={self.margin:.4f})"
        )


@dataclass(frozen=True)
class TangentFunction:
    """A tangent vector to the isotopy class at a fixed graph Lagrangian.

    Constructed through ``GraphLagrangian.normalize`` the function satisfies
    the zero-mean normalization against Re(Omega).  The curvature field
    R(h,k)l is returned as a raw array instead, so its normalization defect
    can be reported (``curvature.mean_zero_residual``) rather than projected
    away.
    """

    gamma: GraphLagrangian
    h: ScalarField

    def __post_init__(self):
        if self.h.grid != self.gamma.grid:
            raise ValueError("tangent function sampled on a different grid")

    @property
    def values(self) -> np.ndarray:
        return self.h.values


def build(
    model: AlmostCYModel,
    phi: ScalarField,
    derivatives: tuple[np.ndarray, np.ndarray] | None = None,
) -> GraphLagrangian:
    """Construct the graph of d(phi); see ``GraphLagrangian`` for which
    fields are built at once and which on first read, and for
    ``derivatives``."""
    return GraphLagrangian(model, phi, derivatives)


def require_same_gamma(
    *tangents: TangentFunction, gamma: GraphLagrangian | None = None
) -> GraphLagrangian:
    """The one graph the tangents are attached to, which must be ``gamma``
    when it is given.

    Raises
    ------
    GammaMismatch
        If the tangents are attached to different graphs, or to one other
        than ``gamma``.
    """
    first = tangents[0].gamma
    for t in tangents[1:]:
        if t.gamma is not first:
            raise GammaMismatch("tangent functions attached to different Lagrangians")
    if gamma is not None and first is not gamma:
        raise GammaMismatch("tangent functions attached to a Lagrangian other than gamma")
    return first


def inner(h: TangentFunction, k: TangentFunction) -> float:
    """Riemannian metric (h, k) = integral of h*k*Re(Omega) over the graph."""
    gamma = require_same_gamma(h, k)
    return gamma.inner_values(h.values, k.values)
