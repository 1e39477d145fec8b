"""Curvature of the metric on the isotopy class of positive Lagrangian graphs.

Two independent routes to the same tensor:

* ``riemann_field_values`` assembles the pointwise field R(h,k)l from
  intrinsic data (nonnegative Laplacian, restricted conformal factor,
  covariant Hessians, angle gradient) of the base Lagrangian;
* ``quad_form`` evaluates the integrated quadruple pairing (R(h,k)l, m)
  directly as a quadrature, where integration by parts has already
  cancelled everything but one sec(theta)-weighted Cauchy-Schwarz bracket.
  It is the form's one implementation: ``riemann_quad_values``, the
  ``curvature`` job and the validation battery all read it.

Both take the raw sample arrays of tangent functions at one graph.

Pairing the first against the metric must reproduce the second; the
validation suite enforces this at every base point, and the sectional
curvature built from the quadruple form is non-positive by the pointwise
Cauchy-Schwarz inequality of its integrand.  The field route raises each of
h, k and l once and contracts d rho and d theta with the raised gradients.
``sectional_matrix`` is the quadruple form at (h_i, h_j, h_j, h_i) for every
pair of F functions, from the same component-major gradient and raised
stacks (``_raised``) and the same ``sec_integral``.  It keeps its F gradient
stacks and pointwise norms in one block, and its pair loop makes few passes
over the fields and allocates none: the pointwise pairing of two functions
is one einsum over their component-major stacks, the bracket and the Gram
entry's product are formed in place in reused scratch fields, and every
quadrature against a weight is one dot (``torus.integrate_product``).  At
32^3, passes over the fields and fresh temporaries, not arithmetic, set the
cost (README).

Every entry point that takes raw sample arrays checks their shapes against
the grid (``torus.check_field_shapes``) before any work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DegeneratePlane, MarginTooSmall
from .lagrangian import (
    GraphLagrangian,
    TangentFunction,
    require_same_gamma,
)
from .torus import (
    ScalarField,
    check_field_shapes,
    gradient_values,
    integrate_product,
    vector_dot,
)

# P = <u, v> pointwise, for component-major stacks u, v of shape (n,) + grid.
_STACK_DOT = "a...,a...->..."

# At or below this worst-case cos(theta) the sec^2 factors are considered too
# ill-conditioned for curvature evaluation: every curvature entry point
# raises ``MarginTooSmall``.
DEFAULT_MARGIN_THRESHOLD = 1e-2

# A plane is degenerate when its Gram determinant is below this fraction of
# the product of the squared norms.
DEGENERACY_THRESHOLD = 1e-10


def _require_margin(gamma: GraphLagrangian):
    if gamma.margin <= DEFAULT_MARGIN_THRESHOLD:
        raise MarginTooSmall(
            f"positivity margin {gamma.margin:.3e} <= threshold {DEFAULT_MARGIN_THRESHOLD:.1e}"
        )


def _drift_laplacian(gamma: GraphLagrangian, up: np.ndarray, lap: np.ndarray) -> np.ndarray:
    """Lap h - (n / 2 rho) <dh, d rho> from the raised gradient and the
    Laplacian of h (nonnegative-Laplacian convention)."""
    return lap - (gamma.grid.n / 2.0) * vector_dot(up, gamma.grad_rho) / gamma.rho


def riemann_field_values(
    gamma: GraphLagrangian,
    h: np.ndarray,
    k: np.ndarray,
    l: np.ndarray,
) -> np.ndarray:
    """The pointwise curvature field R(h,k)l, returned without renormalization.

    The output is analytically expected to land in the tangent space; its
    zero-mean defect is deliberately *not* projected away (that could mask a
    sign bug) and can be read off with ``mean_zero_residual``.

    Raises
    ------
    ShapeMismatch
        If h, k or l does not have the grid's shape.
    MarginTooSmall
        If min cos(theta) is at most ``DEFAULT_MARGIN_THRESHOLD`` (1e-2).
    """
    check_field_shapes(gamma.grid, h, k, l)
    _require_margin(gamma)

    grad_h, up_h, hess_h, lap_h = gamma.derivatives(h)
    grad_k, up_k, hess_k, lap_k = gamma.derivatives(k)
    up_l = gamma.raise_index(gradient_values(gamma.grid, l))

    kl = vector_dot(grad_k, up_l)
    hl = vector_dot(grad_h, up_l)

    sec2 = 1.0 / gamma.cos_theta**2
    tan = gamma.pullback_density.imag / gamma.re_omega

    term1 = -sec2 * (
        _drift_laplacian(gamma, up_h, lap_h) * kl - _drift_laplacian(gamma, up_k, lap_k) * hl
    )

    # <grad_x grad y, grad l> = Hess y(grad x, grad l) with raised gradients.
    term2 = sec2 * (
        np.einsum("...ab,...a,...b->...", hess_k, up_h, up_l)
        - np.einsum("...ab,...a,...b->...", hess_h, up_k, up_l)
    )

    h_theta = vector_dot(up_h, gamma.grad_theta)
    k_theta = vector_dot(up_k, gamma.grad_theta)
    term3 = tan * sec2 * (h_theta * kl - k_theta * hl)

    return term1 + term2 + term3


def mean_zero_residual(gamma: GraphLagrangian, values: np.ndarray) -> tuple[float, float]:
    """(|integral R Re(Omega)|, integral |R| Re(Omega)) — defect and scale."""
    raw = integrate_product(gamma.grid, values, gamma.re_omega)
    scale = integrate_product(gamma.grid, np.abs(values), gamma.re_omega)
    return abs(raw), scale


def sec_integral(gamma: GraphLagrangian, bracket: np.ndarray) -> float:
    """Integral of ``bracket`` against the quadruple-form weight sec(theta)
    rho^{n/2} sqrt(det g) = |Omega~|^2 / Re Omega~ (``sec_weight``): one dot."""
    return integrate_product(gamma.grid, bracket, gamma.sec_weight)


def _stacks(gamma: GraphLagrangian, values: Sequence[np.ndarray], raised: Sequence[int]):
    """Component-major gradient stacks of ``values`` and the raised stacks of
    ``values[i]`` for i in ``raised``: one spectral gradient each."""
    grads = [gradient_values(gamma.grid, v).transpose(gamma.grid._axis_orders[0]) for v in values]
    return grads, [_raised(gamma, grads[i]) for i in raised]


def _raised(gamma: GraphLagrangian, grad: np.ndarray) -> np.ndarray:
    """The raised stack of a component-major gradient stack, component-major."""
    orders = gamma.grid._axis_orders
    return gamma.raise_index(grad.transpose(orders[1])).transpose(orders[0])


def quad_form(
    gamma: GraphLagrangian, h: np.ndarray, k: np.ndarray, l: np.ndarray, m: np.ndarray
) -> tuple[float, float]:
    """(R(h,k)l, m) = -integral sec(theta) [P_hm P_kl - P_hl P_km] rho^{n/2} vol
    and its L1 size, the same integral of |P_hm P_kl| + |P_hl P_km|, where
    P_ij = <dh_i, dh_j>_g is one einsum against the raised stack of l or m.
    Raises ``ShapeMismatch`` if an array does not have the grid's shape."""
    check_field_shapes(gamma.grid, h, k, l, m)
    (dh, dk, _, _), (up_l, up_m) = _stacks(gamma, (h, k, l, m), (2, 3))
    first = np.einsum(_STACK_DOT, dh, up_m) * np.einsum(_STACK_DOT, dk, up_l)
    second = np.einsum(_STACK_DOT, dh, up_l) * np.einsum(_STACK_DOT, dk, up_m)
    return -sec_integral(gamma, first - second), sec_integral(gamma, np.abs(first) + np.abs(second))


def riemann_quad_values(
    gamma: GraphLagrangian,
    h: np.ndarray,
    k: np.ndarray,
    l: np.ndarray,
    m: np.ndarray,
) -> float:
    """The value of ``quad_form``, the pairing (R(h,k)l, m), after the shape
    check (``ShapeMismatch``) and the margin check (``MarginTooSmall`` at
    min cos(theta) <= ``DEFAULT_MARGIN_THRESHOLD``)."""
    check_field_shapes(gamma.grid, h, k, l, m)
    _require_margin(gamma)
    return quad_form(gamma, h, k, l, m)[0]


class SectionalMatrix(NamedTuple):
    """Quadruple-form numerators and metric Gram matrix of F tangent functions.

    ``numerator[i, j]`` is (R(h_i, h_j) h_j, h_i) and ``gram[i, j]`` is
    (h_i, h_j); both are exactly symmetric.
    """

    numerator: np.ndarray
    gram: np.ndarray

    def sectional(self, i: int, j: int) -> float:
        """K(h_i, h_j) = (R(h_i,h_j)h_j, h_i) / ((h_i,h_i)(h_j,h_j) - (h_i,h_j)^2)
        by ``sectional_quotient``, which raises ``DegeneratePlane`` for a
        degenerate plane."""
        gram = self.gram
        return sectional_quotient(self.numerator[i, j], gram[i, i], gram[j, j], gram[i, j])


def sectional_quotient(numerator: float, hh: float, kk: float, hk: float) -> float:
    """K = numerator / (hh kk - hk^2), the sectional curvature of a plane
    from its quadruple form (R(h,k)k, h) and its Gram entries; the mirror
    model's ``herm_sectional`` divides by it too.

    Raises
    ------
    DegeneratePlane
        If the Gram determinant falls below ``DEGENERACY_THRESHOLD`` times
        hh kk.
    """
    det = hh * kk - hk * hk
    if det <= DEGENERACY_THRESHOLD * hh * kk:
        raise DegeneratePlane(
            f"Gram determinant {det:.3e} below threshold for (h,h)(k,k) = {hh * kk:.3e}"
        )
    return float(numerator / det)


def sectional_matrix(
    gamma: GraphLagrangian,
    values: Sequence[np.ndarray],
) -> SectionalMatrix:
    """Numerators (R(h_i,h_j)h_j, h_i) and Gram matrix (h_i, h_j) of F functions.

    The numerator is the quadruple form at (h_i, h_j, h_j, h_i),
    -integral sec(theta) (P_ii P_jj - P_ij^2) rho^{n/2} vol, which depends on
    the functions only through the pointwise Gram matrix P_ij = <dh_i, dh_j>_g
    (so ``numerator[i, i]`` is 0).  So F functions take F spectral gradients
    and F index raises, one raised stack at a time.  The F gradient stacks
    and diagonals P_ii share one ``(F, n + 1) + grid`` block: row f holds
    the component-major gradient of h_f, then P_ff.  Per pair, P_ij is one
    einsum over the component-major stacks, and the bracket and then the
    Gram entry's product h_i h_j are formed in place in two scratch fields
    reused by every pair, so the pair loop allocates no field.  The
    numerator and the Gram entry are each one dot against their weight; the
    Gram entry is ``inner_values``' product and dot, so its bits.  Each entry
    is reduced on its own, so its value does not depend on which other
    functions are in the batch.

    Raises
    ------
    ShapeMismatch
        If any of the arrays does not have the grid's shape.
    MarginTooSmall
        If min cos(theta) is at most ``DEFAULT_MARGIN_THRESHOLD`` (1e-2).
    """
    check_field_shapes(gamma.grid, *values)
    _require_margin(gamma)
    grid, count = gamma.grid, len(values)
    n = grid.n
    block = np.empty((count, n + 1) + grid.shape)
    for stack, v in zip(block, values):
        stack[:n] = gradient_values(grid, v).transpose(grid._axis_orders[0])
    numerator = np.zeros((count, count))
    gram = np.zeros((count, count))
    cross, bracket = np.empty(grid.shape), np.empty(grid.shape)

    def inner(i: int, j: int) -> float:
        # ``inner_values``' product, formed in ``bracket``, and its dot.
        product = np.multiply(values[i], values[j], out=bracket)
        return integrate_product(grid, product, gamma.re_omega)

    # Descending i: P_jj is there for every j > i, and one raised stack lives.
    for i in reversed(range(count)):
        grad, diag = block[i, :n], block[i, n]
        up = _raised(gamma, grad)
        np.einsum(_STACK_DOT, grad, up, out=diag)
        gram[i, i] = inner(i, i)
        for j in range(i + 1, count):
            np.einsum(_STACK_DOT, block[j, :n], up, out=cross)
            cross *= cross
            np.multiply(diag, block[j, n], out=bracket)
            bracket -= cross
            numerator[i, j] = numerator[j, i] = -sec_integral(gamma, bracket)
            gram[i, j] = gram[j, i] = inner(i, j)
        del up
    return SectionalMatrix(numerator, gram)


def sectional(
    gamma: GraphLagrangian,
    h: TangentFunction,
    k: TangentFunction,
) -> float:
    """Sectional curvature K(h, k); non-positive up to quadrature error.

    The 2x2 case of ``sectional_matrix``.

    Raises
    ------
    DegeneratePlane
        If the Gram determinant falls below the degeneracy threshold times
        (h,h)(k,k).
    """
    require_same_gamma(h, k, gamma=gamma)
    return sectional_matrix(gamma, (h.values, k.values)).sectional(0, 1)


@dataclass(frozen=True)
class FlatFamilyReport:
    """Sectional curvatures across reparametrizations of one function."""

    max_abs_sectional: float
    sectionals: tuple[tuple[int, int, float], ...]
    skipped: tuple[tuple[int, int, str], ...]


def flat_family_check(
    gamma: GraphLagrangian,
    l: TangentFunction,
    reparams: Sequence[Callable[[np.ndarray], np.ndarray]],
) -> FlatFamilyReport:
    """Sectional curvatures over the family {a_i(l) + const}.

    Differentials of reparametrized copies of one function are pointwise
    collinear, so every plane they span is expected flat; degenerate pairs
    are skipped with a note.

    Raises
    ------
    GammaMismatch
        If ``l`` is attached to a Lagrangian other than ``gamma``.
    """
    require_same_gamma(l, gamma=gamma)
    members = [
        gamma.normalize(ScalarField(gamma.grid, np.asarray(a(l.values), dtype=float)))
        for a in reparams
    ]
    matrices = sectional_matrix(gamma, [m.values for m in members])
    sectionals: list[tuple[int, int, float]] = []
    skipped: list[tuple[int, int, str]] = []
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            try:
                sectionals.append((i, j, matrices.sectional(i, j)))
            except DegeneratePlane as exc:
                skipped.append((i, j, str(exc)))
    max_abs = max((abs(v) for _, _, v in sectionals), default=0.0)
    return FlatFamilyReport(max_abs, tuple(sectionals), tuple(skipped))
