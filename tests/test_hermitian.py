import tracemalloc

import numpy as np
import pytest

from laglab.errors import DegeneratePlane, NotPositiveDefinite, ShapeMismatch
from laglab.hermitian import (
    FD_STEP,
    HermBase,
    HermPoint,
    HermTangent,
    herm_curvature_quad,
    herm_fd_riemann,
    herm_inner,
    herm_sectional,
    random_point,
    random_tangent,
)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])

PAULI_SECTIONAL = -0.5
PAULI_QUAD = -2.0


@pytest.fixture
def single_base():
    return HermBase(np.array([1.0]))


@pytest.fixture
def identity_point(single_base):
    return HermPoint(single_base, np.eye(2, dtype=complex)[None])


def _tangent(base, *mats):
    return HermTangent(base, np.stack([np.asarray(m, dtype=complex) for m in mats]))


def test_inner_pauli(single_base, identity_point):
    sx = _tangent(single_base, SIGMA_X)
    sy = _tangent(single_base, SIGMA_Y)
    assert herm_inner(identity_point, sx, sx) == pytest.approx(2.0)
    assert herm_inner(identity_point, sx, sy) == pytest.approx(0.0, abs=1e-15)


def test_inner_diagonal(single_base):
    H = HermPoint(single_base, np.diag([2.0, 1.0]).astype(complex)[None])
    xi = _tangent(single_base, np.diag([1.0, 0.0]))
    assert herm_inner(H, xi, xi) == pytest.approx(0.25)


def test_inner_weighted_sum():
    base = HermBase(np.array([2.0, 3.0]))
    H = HermPoint(base, np.stack([np.eye(2, dtype=complex)] * 2))
    xi = _tangent(base, SIGMA_X, SIGMA_X)
    # each point contributes tr(sigma_x^2) = 2
    assert herm_inner(H, xi, xi) == pytest.approx(2.0 * 2 + 3.0 * 2)


def test_quad_commuting(single_base, identity_point):
    a = _tangent(single_base, np.diag([1.0, 0.0]))
    b = _tangent(single_base, np.diag([0.0, 1.0]))
    assert herm_curvature_quad(identity_point, a, b, b, a) == pytest.approx(0.0, abs=1e-15)


def test_quad_pauli_value(single_base, identity_point):
    sx = _tangent(single_base, SIGMA_X)
    sy = _tangent(single_base, SIGMA_Y)
    corrected = herm_curvature_quad(identity_point, sx, sy, sy, sx)
    literal = -herm_curvature_quad(identity_point, sx, sy, sy, sx)
    assert corrected == pytest.approx(PAULI_QUAD)
    assert literal == pytest.approx(-PAULI_QUAD)


def test_quad_antisymmetry(single_base):
    rng = np.random.default_rng(2)
    H = random_point(rng, single_base, 3)
    xi = random_tangent(rng, single_base, 3)
    eta = random_tangent(rng, single_base, 3)
    zeta = random_tangent(rng, single_base, 3)
    lam = random_tangent(rng, single_base, 3)
    ab = herm_curvature_quad(H, xi, eta, zeta, lam)
    ba = herm_curvature_quad(H, eta, xi, zeta, lam)
    assert ab == pytest.approx(-ba, rel=1e-12)


def test_sectional_pauli(single_base, identity_point):
    sx = _tangent(single_base, SIGMA_X)
    sy = _tangent(single_base, SIGMA_Y)
    assert herm_sectional(identity_point, sx, sy) == pytest.approx(PAULI_SECTIONAL)


def test_sectional_commuting_zero(single_base, identity_point):
    a = _tangent(single_base, np.diag([1.0, 0.0]))
    b = _tangent(single_base, np.diag([0.0, 1.0]))
    assert herm_sectional(identity_point, a, b) == pytest.approx(0.0, abs=1e-15)


def test_sectional_nonpositive_random():
    rng = np.random.default_rng(7)
    for _ in range(100):
        dim = int(rng.integers(2, 4))
        npts = int(rng.integers(1, 5))
        base = HermBase(rng.uniform(0.5, 2.0, size=npts))
        H = random_point(rng, base, dim)
        xi = random_tangent(rng, base, dim)
        eta = random_tangent(rng, base, dim)
        try:
            assert herm_sectional(H, xi, eta) <= 1e-12
        except DegeneratePlane:
            continue


def test_commuting_family_flat():
    rng = np.random.default_rng(11)
    base = HermBase(np.array([1.0, 0.5]))
    raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, _ = np.linalg.qr(raw)
    conj = lambda d: q @ np.diag(d) @ q.conj().T
    H = HermPoint(base, np.stack([conj(rng.uniform(0.5, 2.0, 3)) for _ in range(2)]))
    xi = HermTangent(base, np.stack([conj(rng.standard_normal(3)) for _ in range(2)]))
    eta = HermTangent(base, np.stack([conj(rng.standard_normal(3)) for _ in range(2)]))
    assert abs(herm_sectional(H, xi, eta)) < 1e-12


def test_noncommuting_strictly_negative(single_base, identity_point):
    sx = _tangent(single_base, SIGMA_X)
    sz = _tangent(single_base, np.diag([1.0, -1.0]))
    assert herm_sectional(identity_point, sx, sz) < -1e-3


def test_scaling_invariance():
    rng = np.random.default_rng(13)
    base = HermBase(np.array([1.0]))
    H = random_point(rng, base, 2)
    xi = random_tangent(rng, base, 2)
    eta = random_tangent(rng, base, 2)
    k1 = herm_sectional(H, xi, eta)
    c = 3.7
    H2 = HermPoint(base, c * H.matrices)
    xi2 = HermTangent(base, c * xi.matrices)
    eta2 = HermTangent(base, c * eta.matrices)
    k2 = herm_sectional(H2, xi2, eta2)
    assert k1 == pytest.approx(k2, rel=1e-12)


def test_fd_oracle_pauli(single_base, identity_point):
    sx = _tangent(single_base, SIGMA_X)
    sy = _tangent(single_base, SIGMA_Y)
    fd = herm_fd_riemann(identity_point, sx, sy, sy, sx)
    assert fd == pytest.approx(PAULI_QUAD, abs=1e-4)
    # Corrected closed form agrees with the oracle; the literal sign cannot.
    corrected = herm_curvature_quad(identity_point, sx, sy, sy, sx)
    literal = -herm_curvature_quad(identity_point, sx, sy, sy, sx)
    assert abs(corrected - fd) < 1e-4
    assert abs(literal - fd) > 1.0


def test_fd_oracle_commuting(single_base, identity_point):
    a = _tangent(single_base, np.diag([1.0, 0.0]))
    b = _tangent(single_base, np.diag([0.0, 1.0]))
    fd = herm_fd_riemann(identity_point, a, b, b, a)
    assert abs(fd) < 1e-6


@pytest.mark.parametrize(
    "weights, m, seed", [([1.0, 0.7], 2, 17), ([1.0, 0.7, 1.3], 3, 23)], ids=["2x2", "3x3"]
)
def test_fd_oracle_generic_base(weights, m, seed):
    """Random families; at m = 3 the basis has three diagonal units and three
    symmetric and three antisymmetric off-diagonal elements per point."""
    rng = np.random.default_rng(seed)
    base = HermBase(np.array(weights))
    H = random_point(rng, base, m)
    xi, eta, zeta, lam = (random_tangent(rng, base, m) for _ in range(4))
    for quadruple in ((xi, eta, zeta, lam), (xi, eta, eta, xi)):
        fd = herm_fd_riemann(H, *quadruple)
        closed = herm_curvature_quad(H, *quadruple)
        assert fd == pytest.approx(closed, rel=1e-3, abs=1e-4)


def test_fd_oracle_linearity(single_base, identity_point):
    rng = np.random.default_rng(19)
    xi = random_tangent(rng, single_base, 2)
    eta = random_tangent(rng, single_base, 2)
    zeta = random_tangent(rng, single_base, 2)
    lam1 = random_tangent(rng, single_base, 2)
    lam2 = random_tangent(rng, single_base, 2)
    lam_sum = HermTangent(single_base, lam1.matrices + lam2.matrices)
    v1 = herm_fd_riemann(identity_point, xi, eta, zeta, lam1)
    v2 = herm_fd_riemann(identity_point, xi, eta, zeta, lam2)
    v12 = herm_fd_riemann(identity_point, xi, eta, zeta, lam_sum)
    assert v12 == pytest.approx(v1 + v2, rel=1e-6, abs=1e-8)


def _fd_riemann_entry_by_entry(H, a, b, c, d, delta):
    """The oracle one metric entry at a time, H^{-1} formed again for each,
    in the order of operations the stacked evaluation keeps."""
    P, m, points = H.matrices, H.matrix_dim, H.base.size
    single = []
    for j in range(m):
        single.append(np.zeros((m, m), dtype=complex))
        single[-1][j, j] = 1.0
    for j in range(m):
        for k in range(j + 1, m):
            sym, anti = np.zeros((m, m), dtype=complex), np.zeros((m, m), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0 / np.sqrt(2.0)
            anti[j, k], anti[k, j] = 1j / np.sqrt(2.0), -1j / np.sqrt(2.0)
            single += [sym, anti]
    basis = []
    for p in range(points):
        for E in single:
            basis.append(np.zeros((points, m, m), dtype=complex))
            basis[-1][p] = E

    def metric(P, x, y):
        Hi = np.linalg.inv(P)
        traces = np.trace(Hi @ x @ Hi @ y, axis1=-2, axis2=-1)
        return float(np.real(np.sum(H.base.weights * traces)))

    def central(P, direction, x, y):
        plus, minus = P + delta * direction, P + -delta * direction
        return (metric(plus, x, y) - metric(minus, x, y)) / (2 * delta)

    def christoffel(P, u, v):
        rhs = [0.5 * (central(P, u, v, e) + central(P, v, u, e) - central(P, e, u, v))
               for e in basis]
        gram = np.array([[metric(P, ei, ej) for ej in basis] for ei in basis])
        return np.tensordot(np.linalg.solve(gram, np.array(rhs)), np.asarray(basis), axes=(0, 0))

    def dgamma(direction, u, v):
        plus = christoffel(P + delta * direction, u, v)
        minus = christoffel(P + -delta * direction, u, v)
        return (plus - minus) / (2 * delta)

    riem = (dgamma(a, b, c) - dgamma(b, a, c)
            + christoffel(P, a, christoffel(P, b, c)) - christoffel(P, b, christoffel(P, a, c)))
    return metric(P, riem, d)


@pytest.mark.parametrize("points, m", [(1, 1), (1, 2), (2, 2), (3, 3), (4, 3)])
def test_fd_oracle_stack_is_the_entry_by_entry_oracle_bit_for_bit(points, m):
    rng = np.random.default_rng([points, m])
    base = HermBase(rng.uniform(0.5, 2.0, size=points))
    H = random_point(rng, base, m, margin=1.0)
    xi, eta, zeta, lam = (random_tangent(rng, base, m) for _ in range(4))
    reference = _fd_riemann_entry_by_entry(
        H, xi.matrices, eta.matrices, zeta.matrices, lam.matrices, FD_STEP)
    assert herm_fd_riemann(H, xi, eta, zeta, lam) == reference


def test_fd_oracle_memory_stays_linear_in_the_point_count():
    """One oracle call at 8 points of 4 x 4 (dim 128) holds the shift stack,
    its inverses and one m^2 x m^2 Gram block per point, about 2.6 MiB; a Gram
    formed over every basis pair at every point grows as points^3 m^6 and
    needs 38 MiB here."""
    rng = np.random.default_rng([8, 4])
    base = HermBase(rng.uniform(0.5, 2.0, size=8))
    H = random_point(rng, base, 4, margin=1.0)
    xi, eta, zeta, lam = (random_tangent(rng, base, 4) for _ in range(4))
    tracemalloc.start()
    try:
        herm_fd_riemann(H, xi, eta, zeta, lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


@pytest.mark.parametrize("points, m", [(1, 2), (3, 3)])
def test_fd_oracle_checks_and_inverts_one_stack_per_christoffel_step(monkeypatch, points, m):
    """Eight Christoffel steps (two at H, four shifted for the derivatives,
    two for Gamma o Gamma), each one eigenvalue pass and one inversion, plus
    the final inverse at H, whatever the basis size."""
    rng = np.random.default_rng(29)
    base = HermBase(rng.uniform(0.5, 2.0, size=points))
    H = random_point(rng, base, m, margin=1.0)
    xi, eta = random_tangent(rng, base, m), random_tangent(rng, base, m)
    calls = {"inv": 0, "eigvalsh": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    herm_fd_riemann(H, xi, eta, eta, xi)
    assert calls == {"inv": 9, "eigvalsh": 8}


def test_fd_shift_positivity_guard(single_base):
    H = HermPoint(single_base, (1e-4 * np.eye(2, dtype=complex))[None])
    sx = _tangent(single_base, SIGMA_X)
    sy = _tangent(single_base, SIGMA_Y)
    with pytest.raises(NotPositiveDefinite, match=r"shift of size 1\.0e-03 left the positive cone"):
        herm_fd_riemann(H, sx, sy, sy, sx)


def test_validation_errors(single_base):
    with pytest.raises(ValueError):
        HermBase(np.array([1.0, -1.0]))
    with pytest.raises(NotPositiveDefinite):
        HermPoint(single_base, np.diag([1.0, -2.0]).astype(complex)[None])
    with pytest.raises(ValueError):
        HermPoint(single_base, np.array([[[0.0, 1.0], [0.0, 0.0]]], dtype=complex))
    with pytest.raises(ShapeMismatch):
        HermTangent(single_base, np.zeros((2, 2, 2), dtype=complex))
    other = HermBase(np.array([1.0, 1.0]))
    H = HermPoint(single_base, np.eye(2, dtype=complex)[None])
    xi = HermTangent(other, np.zeros((2, 2, 2), dtype=complex))
    with pytest.raises(ShapeMismatch):
        herm_inner(H, xi, xi)


def test_degenerate_plane(single_base, identity_point):
    sx = _tangent(single_base, SIGMA_X)
    sx2 = _tangent(single_base, 2.0 * SIGMA_X)
    with pytest.raises(DegeneratePlane):
        herm_sectional(identity_point, sx, sx2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_inputs_are_rejected_by_name(single_base, bad):
    """NaN passes ``w <= 0`` and the Hermitian check, and inf passes the
    latter; each would otherwise reach the metric as a quiet NaN."""
    with pytest.raises(ValueError, match="^weights must be finite$"):
        HermBase(np.array([1.0, bad]))
    for entry in (bad, complex(0.0, bad)):
        mats = np.eye(2, dtype=complex)[None]
        mats[0, 0, 1] = mats[0, 1, 0] = entry
        with pytest.raises(ValueError, match="^tangent matrices must be finite$"):
            HermTangent(single_base, mats)
        with pytest.raises(ValueError, match="^point matrices must be finite$"):
            HermPoint(single_base, mats)


def test_fd_oracle_on_an_ill_conditioned_point_names_the_gram(single_base):
    """diag(1e200, 1) is positive definite, but the squares of its inverse's
    entries underflow, so the basis Gram is singular in floating point."""
    H = HermPoint(single_base, np.diag([1e200, 1.0]).astype(complex)[None])
    sx = _tangent(single_base, SIGMA_X)
    sy = _tangent(single_base, SIGMA_Y)
    with pytest.raises(NotPositiveDefinite, match=r"^basis Gram matrix at the shift of size "):
        herm_fd_riemann(H, sx, sy, sy, sx)


@pytest.mark.parametrize("points, m", [(1, 2), (3, 3)])
def test_sectional_inverts_the_point_once(monkeypatch, points, m):
    """One inversion of H serves the quadruple form and the three Gram
    entries, with the bits of ``herm_curvature_quad`` and ``herm_inner``."""
    rng = np.random.default_rng([31, points])
    base = HermBase(rng.uniform(0.5, 2.0, size=points))
    H = random_point(rng, base, m)
    xi, eta = random_tangent(rng, base, m), random_tangent(rng, base, m)
    quad = herm_curvature_quad(H, xi, eta, eta, xi)
    hh, kk, hk = herm_inner(H, xi, xi), herm_inner(H, eta, eta), herm_inner(H, xi, eta)
    calls = []
    original = HermPoint.inverses
    monkeypatch.setattr(HermPoint, "inverses", lambda self: calls.append(1) or original(self))
    assert herm_sectional(H, xi, eta) == quad / (hh * kk - hk * hk)
    assert len(calls) == 1
