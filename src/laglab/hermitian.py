"""Finite-dimensional mirror model: positive Hermitian matrix families.

Over a weighted finite point set, a point is a family of positive-definite
Hermitian matrices H_p with the symmetric-space metric

    (xi, eta) = sum_p w_p tr(H_p^{-1} xi_p H_p^{-1} eta_p),

a non-positively curved analog of the Lagrangian-graph picture.  The
quadruple curvature form carries a commutator-of-commutators integrand; its
overall sign here is pinned by ``herm_fd_riemann``, a finite-difference
Levi-Civita computation on the affine chart that serves as ground truth.
Taken with the standard sectional pairing the literal transcription of the
displayed formula comes out with K >= 0 on anticommuting Pauli directions,
contradicting the non-positivity it is meant to exhibit, so the corrected
sign (the one matching the oracle) is the default and the literal value
stays available for comparison.  ``herm_sectional`` divides the quadruple
form by the Gram determinant in ``curvature.sectional_quotient``, the same
quotient, degeneracy threshold and message as the Lagrangian side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import sectional_quotient
from .errors import NotPositiveDefinite, ShapeMismatch

HERM_TOL = 1e-12


@dataclass(frozen=True)
class HermBase:
    """Finite weighted point set (a quadrature-level stand-in for omega^n)."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-d array")
        if np.any(w <= 0):
            raise ValueError("weights must be positive")
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return int(self.weights.size)


def _check_hermitian(matrices: np.ndarray, label: str):
    scale = max(np.abs(matrices).max(), 1.0)
    defect = np.abs(matrices - np.conj(np.swapaxes(matrices, -1, -2))).max()
    if defect > HERM_TOL * scale:
        raise ValueError(f"{label} not Hermitian (defect {defect:.3e})")


def _hermitian_family(base: HermBase, matrices, label: str) -> np.ndarray:
    """``matrices`` as a complex array of one Hermitian matrix per base point.

    Raises
    ------
    ShapeMismatch
        If the array is not (base size, m, m).
    ValueError
        If a matrix is not Hermitian; the message starts with ``label``.
    """
    mats = np.asarray(matrices, dtype=complex)
    if mats.ndim != 3 or mats.shape[0] != base.size or mats.shape[1] != mats.shape[2]:
        raise ShapeMismatch(f"matrices shape {mats.shape} incompatible with base")
    _check_hermitian(mats, label)
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
    out = []
    for t in tangents:
        if t.base is not H.base and not np.array_equal(t.base.weights, H.base.weights):
            raise ShapeMismatch("tangent attached to a different base")
        if t.matrices.shape != H.matrices.shape:
            raise ShapeMismatch(
                f"tangent shape {t.matrices.shape} != point shape {H.matrices.shape}"
            )
        out.append(t.matrices)
    return out


def _weighted_trace(H: HermPoint, products: np.ndarray) -> float:
    traces = np.trace(products, axis1=-2, axis2=-1)
    return float(np.real(np.sum(H.base.weights * traces)))


def _metric_raw(H: HermPoint, a: np.ndarray, b: np.ndarray) -> float:
    Hi = H.inverses()
    return _weighted_trace(H, Hi @ a @ Hi @ b)


def herm_inner(H: HermPoint, xi: HermTangent, eta: HermTangent) -> float:
    """Metric sum_p w_p tr(H^{-1} xi H^{-1} eta)."""
    return _metric_raw(H, *_aligned(H, xi, eta))


def herm_curvature_quad(
    H: HermPoint,
    xi: HermTangent,
    eta: HermTangent,
    zeta: HermTangent,
    lam: HermTangent,
    literal: bool = False,
) -> float:
    """Quadruple curvature pairing (R(xi,eta)zeta, lambda).

    With ``literal=False`` (default) the sign is the one fixed by the
    finite-difference Levi-Civita oracle, (+1/4) sum_p w_p
    tr([H^{-1}xi, H^{-1}eta][H^{-1}lambda, H^{-1}zeta]); ``literal=True``
    flips the leading sign to the displayed transcription.
    """
    a, b, c, d = _aligned(H, xi, eta, zeta, lam)
    Hi = H.inverses()
    A, B, C, D = Hi @ a, Hi @ b, Hi @ c, Hi @ d
    comm1 = A @ B - B @ A
    comm2 = D @ C - C @ D
    value = 0.25 * _weighted_trace(H, comm1 @ comm2)
    return -value if literal else value


def herm_sectional(H: HermPoint, xi: HermTangent, eta: HermTangent) -> float:
    """Sectional curvature K(xi, eta) = (R(xi,eta)eta, xi) / Gram, <= 0, by
    ``curvature.sectional_quotient``.

    Raises
    ------
    DegeneratePlane
        If the Gram determinant is below threshold relative to the norms.
    """
    return sectional_quotient(
        herm_curvature_quad(H, xi, eta, eta, xi),
        herm_inner(H, xi, xi),
        herm_inner(H, eta, eta),
        herm_inner(H, xi, eta),
    )


# ---------------------------------------------------------------------------
# Finite-difference Levi-Civita oracle on the affine chart
# ---------------------------------------------------------------------------


def hermitian_basis(matrix_dim: int) -> list[np.ndarray]:
    """Orthogonal real basis of Hermitian matrices (Frobenius-normalized)."""
    es = []
    for j in range(matrix_dim):
        E = np.zeros((matrix_dim, matrix_dim), dtype=complex)
        E[j, j] = 1.0
        es.append(E)
    for j in range(matrix_dim):
        for k in range(j + 1, matrix_dim):
            E = np.zeros((matrix_dim, matrix_dim), dtype=complex)
            E[j, k] = E[k, j] = 1.0 / np.sqrt(2.0)
            es.append(E)
            E = np.zeros((matrix_dim, matrix_dim), dtype=complex)
            E[j, k] = 1j / np.sqrt(2.0)
            E[k, j] = -1j / np.sqrt(2.0)
            es.append(E)
    return es


def _family_basis(base: HermBase, matrix_dim: int) -> list[np.ndarray]:
    single = hermitian_basis(matrix_dim)
    out = []
    zero = np.zeros((base.size, matrix_dim, matrix_dim), dtype=complex)
    for p in range(base.size):
        for E in single:
            fam = zero.copy()
            fam[p] = E
            out.append(fam)
    return out


def _shifted_point(H: HermPoint, direction: np.ndarray, amount: float) -> HermPoint:
    try:
        return HermPoint(H.base, H.matrices + amount * direction)
    except NotPositiveDefinite as exc:
        raise NotPositiveDefinite(
            f"finite-difference shift of size {amount:.1e} left the positive cone ({exc})"
        ) from exc


def herm_fd_riemann(
    H: HermPoint,
    xi: HermTangent,
    eta: HermTangent,
    zeta: HermTangent,
    lam: HermTangent,
    delta: float = 1e-3,
) -> float:
    """(R(xi,eta)zeta, lambda) by finite differences of the metric.

    Christoffel contractions are recovered from central differences of the
    metric coefficients on the affine chart, then assembled into
    R(xi,eta)zeta = D_xi Gamma(eta,zeta) - D_eta Gamma(xi,zeta)
    + Gamma(xi, Gamma(eta,zeta)) - Gamma(eta, Gamma(xi,zeta)) for the
    constant coordinate fields xi, eta, zeta.  Ground truth for the sign of
    ``herm_curvature_quad``.

    Raises
    ------
    NotPositiveDefinite
        If a finite-difference shift leaves the positive-definite cone.
    """
    a, b, c, d = _aligned(H, xi, eta, zeta, lam)
    basis = _family_basis(H.base, H.matrix_dim)
    dim = len(basis)

    def christoffel(base_point: HermPoint, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        rhs = np.empty(dim)
        plus_u = _shifted_point(base_point, u, delta)
        minus_u = _shifted_point(base_point, u, -delta)
        plus_v = _shifted_point(base_point, v, delta)
        minus_v = _shifted_point(base_point, v, -delta)
        for i, e in enumerate(basis):
            du = (_metric_raw(plus_u, v, e) - _metric_raw(minus_u, v, e)) / (2 * delta)
            dv = (_metric_raw(plus_v, u, e) - _metric_raw(minus_v, u, e)) / (2 * delta)
            de = (
                _metric_raw(_shifted_point(base_point, e, delta), u, v)
                - _metric_raw(_shifted_point(base_point, e, -delta), u, v)
            ) / (2 * delta)
            rhs[i] = 0.5 * (du + dv - de)
        gram = np.array(
            [[_metric_raw(base_point, ei, ej) for ej in basis] for ei in basis]
        )
        coeff = np.linalg.solve(gram, rhs)
        return np.tensordot(coeff, np.asarray(basis), axes=(0, 0))

    def dgamma(direction: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        plus = christoffel(_shifted_point(H, direction, delta), u, v)
        minus = christoffel(_shifted_point(H, direction, -delta), u, v)
        return (plus - minus) / (2 * delta)

    gamma_bc = christoffel(H, b, c)
    gamma_ac = christoffel(H, a, c)
    riem = (
        dgamma(a, b, c)
        - dgamma(b, a, c)
        + christoffel(H, a, gamma_bc)
        - christoffel(H, b, gamma_ac)
    )
    return _metric_raw(H, riem, d)


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
