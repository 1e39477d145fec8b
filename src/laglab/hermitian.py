"""Finite-dimensional mirror model: positive Hermitian matrix families.

Over a weighted finite point set, a point is a family of positive-definite
Hermitian matrices H_p with the symmetric-space metric

    (xi, eta) = sum_p w_p tr(H_p^{-1} xi_p H_p^{-1} eta_p),

a non-positively curved analog of the Lagrangian-graph picture.  The
quadruple curvature form carries a commutator-of-commutators integrand; its
overall sign here is pinned by ``herm_fd_riemann``, a finite-difference
Levi-Civita computation on the affine chart that serves as ground truth.
Its step is the module constant ``FD_STEP``, which no caller sets.
Taken with the standard sectional pairing the literal transcription of the
displayed formula comes out with K >= 0 on anticommuting Pauli directions,
contradicting the non-positivity it is meant to exhibit.  So
``herm_curvature_quad`` has the sign that matches the oracle, and the
literal value is its negation.  ``herm_sectional`` divides the quadruple
form by the Gram determinant in ``curvature.sectional_quotient``, the same
quotient, degeneracy threshold and message as the Lagrangian side.

One kernel, ``_metric_raw``, evaluates the metric from the weights and the
inverses over any leading stack axes: the inner product and the oracle's
stacked Christoffel steps alike.  Weights and matrices must be finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import sectional_quotient
from .errors import NotPositiveDefinite, ShapeMismatch

HERM_TOL = 1e-12

# The step of every central difference in ``herm_fd_riemann``.
FD_STEP = 1e-3


@dataclass(frozen=True)
class HermBase:
    """Finite weighted point set (a quadrature-level stand-in for omega^n)."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-d array")
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        if np.any(w <= 0):
            raise ValueError("weights must be positive")
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return int(self.weights.size)


def _hermitian_family(base: HermBase, matrices, label: str) -> np.ndarray:
    """``matrices`` as a complex array of one Hermitian matrix per base point.

    Raises
    ------
    ShapeMismatch
        If the array is not (base size, m, m).
    ValueError
        If an entry is not finite or a matrix is not Hermitian; the message
        starts with ``label``.
    """
    mats = np.asarray(matrices, dtype=complex)
    if mats.ndim != 3 or mats.shape[0] != base.size or mats.shape[1] != mats.shape[2]:
        raise ShapeMismatch(f"matrices shape {mats.shape} incompatible with base")
    if not np.isfinite(mats).all():
        raise ValueError(f"{label} must be finite")
    scale = max(np.abs(mats).max(), 1.0)
    defect = np.abs(mats - np.conj(np.swapaxes(mats, -1, -2))).max()
    if defect > HERM_TOL * scale:
        raise ValueError(f"{label} not Hermitian (defect {defect:.3e})")
    return mats


@dataclass(frozen=True)
class HermPoint:
    """A positive-definite Hermitian matrix per base point."""

    base: HermBase
    matrices: np.ndarray

    def __post_init__(self):
        mats = _hermitian_family(self.base, self.matrices, "point matrices")
        eigs = np.linalg.eigvalsh(mats)
        if eigs.min() <= 0:
            raise NotPositiveDefinite(f"minimum eigenvalue {eigs.min():.3e} <= 0")
        object.__setattr__(self, "matrices", mats)

    @property
    def matrix_dim(self) -> int:
        return int(self.matrices.shape[1])

    def inverses(self) -> np.ndarray:
        return np.linalg.inv(self.matrices)


@dataclass(frozen=True)
class HermTangent:
    """A Hermitian matrix per base point (tangent via the affine chart)."""

    base: HermBase
    matrices: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "matrices", _hermitian_family(self.base, self.matrices, "tangent matrices")
        )


def _aligned(H: HermPoint, *tangents: HermTangent) -> list[np.ndarray]:
    for t in tangents:
        if t.base is not H.base and not np.array_equal(t.base.weights, H.base.weights):
            raise ShapeMismatch("tangent attached to a different base")
        if t.matrices.shape != H.matrices.shape:
            raise ShapeMismatch(
                f"tangent shape {t.matrices.shape} != point shape {H.matrices.shape}"
            )
    return [t.matrices for t in tangents]


def _weighted_trace(weights: np.ndarray, products: np.ndarray) -> np.ndarray:
    """Re sum_p w_p tr(products_p); leading axes of ``products`` stay."""
    traces = np.trace(products, axis1=-2, axis2=-1)
    return np.real(np.sum(weights * traces, axis=-1))


def _metric_raw(weights: np.ndarray, inverses: np.ndarray, a, b) -> np.ndarray:
    """sum_p w_p tr(H^{-1} a H^{-1} b), broadcast over leading stack axes."""
    return _weighted_trace(weights, inverses @ a @ inverses @ b)


def herm_inner(H: HermPoint, xi: HermTangent, eta: HermTangent) -> float:
    """Metric sum_p w_p tr(H^{-1} xi H^{-1} eta)."""
    return float(_metric_raw(H.base.weights, H.inverses(), *_aligned(H, xi, eta)))


def _curvature_raw(weights: np.ndarray, Hi: np.ndarray, a, b, c, d) -> float:
    """``herm_curvature_quad`` from the weights and the inverses H^{-1}."""
    A, B, C, D = Hi @ a, Hi @ b, Hi @ c, Hi @ d
    comm1 = A @ B - B @ A
    comm2 = D @ C - C @ D
    return float(0.25 * _weighted_trace(weights, comm1 @ comm2))


def herm_curvature_quad(
    H: HermPoint,
    xi: HermTangent,
    eta: HermTangent,
    zeta: HermTangent,
    lam: HermTangent,
) -> float:
    """Quadruple curvature pairing (R(xi,eta)zeta, lambda), with the sign
    fixed by the finite-difference Levi-Civita oracle: (+1/4) sum_p w_p
    tr([H^{-1}xi, H^{-1}eta][H^{-1}lambda, H^{-1}zeta]).  The displayed
    transcription is its negation.
    """
    a, b, c, d = _aligned(H, xi, eta, zeta, lam)
    return _curvature_raw(H.base.weights, H.inverses(), a, b, c, d)


def herm_sectional(H: HermPoint, xi: HermTangent, eta: HermTangent) -> float:
    """Sectional curvature K(xi, eta) = (R(xi,eta)eta, xi) / Gram, <= 0, by
    ``curvature.sectional_quotient``, from one inversion of H: the same
    operations as ``herm_curvature_quad`` and three ``herm_inner``, so the
    same bits.

    Raises
    ------
    DegeneratePlane
        If the Gram determinant is below threshold relative to the norms.
    """
    a, b = _aligned(H, xi, eta)
    weights, Hi = H.base.weights, H.inverses()
    return sectional_quotient(
        _curvature_raw(weights, Hi, a, b, b, a),
        float(_metric_raw(weights, Hi, a, a)),
        float(_metric_raw(weights, Hi, b, b)),
        float(_metric_raw(weights, Hi, a, b)),
    )


# ---------------------------------------------------------------------------
# Finite-difference Levi-Civita oracle on the affine chart
# ---------------------------------------------------------------------------


def _family_basis(points: int, matrix_dim: int) -> np.ndarray:
    """Frobenius-orthonormal real basis of Hermitian families, stacked on a
    leading axis: for each point in turn its m diagonal units, then for each
    j < k the symmetric and the antisymmetric off-diagonal element."""
    single = np.zeros((matrix_dim**2, matrix_dim, matrix_dim), dtype=complex)
    diag = np.arange(matrix_dim)
    single[diag, diag, diag] = 1.0
    j, k = np.triu_indices(matrix_dim, 1)
    sym = matrix_dim + 2 * np.arange(j.size)
    single[sym, j, k] = single[sym, k, j] = 1.0 / np.sqrt(2.0)
    single[sym + 1, j, k] = 1j / np.sqrt(2.0)
    single[sym + 1, k, j] = -1j / np.sqrt(2.0)
    family = np.zeros((points, matrix_dim**2, points, matrix_dim, matrix_dim), dtype=complex)
    family[np.arange(points), :, np.arange(points)] = single
    return family.reshape((points * matrix_dim**2, points, matrix_dim, matrix_dim))


def herm_fd_riemann(
    H: HermPoint,
    xi: HermTangent,
    eta: HermTangent,
    zeta: HermTangent,
    lam: HermTangent,
) -> float:
    """(R(xi,eta)zeta, lambda) by finite differences of the metric.

    Christoffel contractions are recovered from central differences of the
    metric coefficients on the affine chart, then assembled into
    R(xi,eta)zeta = D_xi Gamma(eta,zeta) - D_eta Gamma(xi,zeta)
    + Gamma(xi, Gamma(eta,zeta)) - Gamma(eta, Gamma(xi,zeta)) for the
    constant coordinate fields xi, eta, zeta.  Ground truth for the sign of
    ``herm_curvature_quad``.

    Each Christoffel step Gamma(u, v) at P stacks P, P +- d u, P +- d v and
    P +- d e for every basis family e, where d is the module constant
    ``FD_STEP``; it checks the stack with one eigenvalue pass and inverts it
    once.  The metric differences are array algebra on those inverses, the
    basis Gram matrix one block per point.

    Raises
    ------
    NotPositiveDefinite
        If a finite-difference shift leaves the positive-definite cone; the
        message names the first such shift (in stack order, P first) and its
        minimum eigenvalue.  Also if the metric's basis Gram matrix, which
        is positive definite in exact arithmetic, is singular in floating
        point (an ill-conditioned H, whose inverse's squared entries
        underflow); the message names the Gram and the shift.
    """
    a, b, c, d = _aligned(H, xi, eta, zeta, lam)
    weights = H.base.weights
    basis = _family_basis(H.base.size, H.matrix_dim)
    single, on_point = basis[: H.matrix_dim**2, 0], np.arange(H.base.size)  # one point's basis
    steps = np.array([FD_STEP, -FD_STEP])

    def christoffel(P: np.ndarray, shift: float, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        # P lies ``shift`` off H; the stack interleaves +FD_STEP and -FD_STEP.
        directions = np.concatenate([np.stack([u, v]), basis])
        shifted = P + steps[:, None, None, None] * directions[:, None]
        stack = np.concatenate([P[None], shifted.reshape((-1,) + P.shape)])
        lowest = np.linalg.eigvalsh(stack).min(axis=(1, 2))
        if (lowest <= 0).any():
            i = (lowest <= 0).argmax()
            amounts = np.concatenate([[shift], np.tile(steps, len(directions))])
            raise NotPositiveDefinite(
                f"finite-difference shift of size {amounts[i]:.1e} left the positive cone "
                f"(minimum eigenvalue {lowest[i]:.3e} <= 0)"
            )
        inverses = np.linalg.inv(stack)
        plus, minus = inverses[1::2], inverses[2::2]

        def central(k, x, y):  # derivative of (x, y) along directions[k]
            diff = _metric_raw(weights, plus[k], x, y) - _metric_raw(weights, minus[k], x, y)
            return diff / (2 * FD_STEP)

        rhs = 0.5 * (central(0, v, basis) + central(1, u, basis) - central(slice(2, None), u, v))
        # Families on different points are orthogonal: one m^2 x m^2 Gram block per point.
        Hi = inverses[0][:, None, None]
        traces = np.trace(Hi @ single[:, None] @ Hi @ single, axis1=-2, axis2=-1)
        gram = np.zeros((len(P), len(single)) * 2)
        gram[on_point, :, on_point] = np.real(weights[:, None, None] * traces)
        try:
            coeff = np.linalg.solve(gram.reshape(rhs.size, rhs.size), rhs)
        except np.linalg.LinAlgError as exc:  # H^{-1} squared underflows
            raise NotPositiveDefinite(
                f"basis Gram matrix at the shift of size {shift:.1e} is singular: "
                "H is too ill-conditioned for the finite-difference oracle"
            ) from exc
        return np.tensordot(coeff, basis, axes=(0, 0))

    def dgamma(direction: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        plus, minus = (christoffel(H.matrices + s * direction, s, u, v) for s in (FD_STEP, -FD_STEP))
        return (plus - minus) / (2 * FD_STEP)

    gamma_bc = christoffel(H.matrices, 0.0, b, c)
    gamma_ac = christoffel(H.matrices, 0.0, a, c)
    riem = (
        dgamma(a, b, c)
        - dgamma(b, a, c)
        + christoffel(H.matrices, 0.0, a, gamma_bc)
        - christoffel(H.matrices, 0.0, b, gamma_ac)
    )
    return float(_metric_raw(weights, H.inverses(), riem, d))


# -- helpers for tests and the battery --------------------------------------


def random_hermitian(rng: np.random.Generator, matrix_dim: int) -> np.ndarray:
    raw = rng.standard_normal((matrix_dim, matrix_dim)) + 1j * rng.standard_normal(
        (matrix_dim, matrix_dim)
    )
    return 0.5 * (raw + raw.conj().T)


def random_tangent(rng: np.random.Generator, base: HermBase, matrix_dim: int) -> HermTangent:
    mats = np.stack([random_hermitian(rng, matrix_dim) for _ in range(base.size)])
    return HermTangent(base, mats)


def random_point(
    rng: np.random.Generator, base: HermBase, matrix_dim: int, margin: float = 0.5
) -> HermPoint:
    mats = []
    for _ in range(base.size):
        raw = rng.standard_normal((matrix_dim, matrix_dim)) + 1j * rng.standard_normal(
            (matrix_dim, matrix_dim)
        )
        mats.append(raw @ raw.conj().T + margin * np.eye(matrix_dim))
    return HermPoint(base, np.stack(mats))
