"""Spectral calculus for smooth periodic functions on the flat torus (R/PZ)^n.

All fields live on an isotropic grid (same point count and period per axis,
n in {1,2,3}, bounded by ``MAX_GRID_SIZE``).  Differentiation is a
Fourier multiplier, quadrature is the trapezoidal rule (exact for
band-limited integrands), and test inputs are real trigonometric polynomials
with integer wavevectors.  ``sample`` puts a polynomial's coefficients into
its spectrum and takes one inverse FFT, so a field of any number of terms
costs one transform; ``TrigPolynomial.evaluate`` sums the terms at arbitrary
points and is the independent route the synthesis is checked against.

Derivatives take no FFT.  The multiplier i k 2 pi / P, with the Nyquist mode
k = N/2 zeroed (its sample-based derivative is ambiguous; band-limited inputs
never populate it, and a pure Nyquist-mode field differentiates to 0), acts
on one axis's N samples as a real N x N matrix D, the Fourier
differentiation matrix (Trefethen, *Spectral Methods in MATLAB*, ch. 3).
Each grid builds D once, from the FFT of the identity, and makes it exactly
antisymmetric, as the operator is.  d_a of a field, or of a stack of fields,
is one matmul by D along axis a, after the first sample along that axis is
subtracted, so a field constant along the axis gives exactly 0.  The Hessian
applies D along b to the gradient row a (a <= b), one matmul per axis, and
copies the lower triangle, so it is exactly symmetric.  On the 64^2 and 32^3
grids the battery and the CLI jobs use, a gradient by matmuls takes a third
to a fifth of the time of an rfftn/irfftn round trip.  A matmul costs
N^(n+1) per field against N^n log N for the FFT, so the FFT wins on large
planar grids: with one BLAS thread from 512^2 on (1.5x faster there), with
two not up to 1024^2, and at n = 3 not up to 128^3 (timings in the README).
No grid the library runs exceeds 64^2 or 32^3, so there is no size switch.

``gradient_values`` and ``hessian_values`` take a keyword-only ``out``: a
grid-last array of the result's shape, ``grid.shape + (n,)`` or
``grid.shape + (n, n)``, whose index-first view (the index axes moved in
front of the grid axes) is C-contiguous, as the arrays they return are.
The derivatives are written into it with the same bits as the allocating
call, and the result is a view of ``out``.  Any other shape or layout
raises ``ValueError``, before anything is written.  ``out`` must not
overlap the field or gradient it is computed from.

Quadrature is the trapezoidal rule: ``integrate_values`` takes the mean of
one field, and ``integrate_product`` integrates the product of two fields as
one BLAS dot, with no product array; the metric pairing, the tangent-space
normalisation and the curvature weight all integrate through it.
``check_field_shapes`` is the one shape check of raw sample arrays at the
library's entry points, and ``check_finite_values`` the one finiteness
check of field samples.

The pointwise n x n algebra of the graph geometry (n <= 3) uses the
closed-form determinant and adjugate below instead of batched LAPACK calls.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Literal

import numpy as np

from .errors import BandLimitExceeded, ShapeMismatch

Phase = Literal["cos", "sin"]

# Bound on N**n, the samples of one field, and on N**2, the entries of the
# differentiation matrix: 1024^2 and 128^3 fit, and neither a real field nor
# the matrix takes more than 16 MiB.
MAX_GRID_SIZE = 2**21

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def check_torus(n: int, period: float) -> None:
    """The one rule for a torus (R/PZ)^n, of grids and models alike.

    Raises
    ------
    ValueError
        If n is not 1, 2 or 3, or the period is not positive with period^n
        in the float64 range: the quadratures weigh by the torus volume
        period^n, a float.
    """
    if n not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2 or 3, got {n}")
    if not (period > 0 and n * math.log(period) < _LOG_FLOAT_MAX):
        raise ValueError("period must be positive, with period^n in the float64 range")


@dataclass(frozen=True)
class PeriodicGrid:
    """Isotropic sampling grid on (R/PZ)^n.

    Parameters
    ----------
    n : int
        Dimension of the torus, 1 to 3.
    points : int
        Samples per axis; a power of two, at least 8, with
        ``points**max(n, 2)`` at most ``MAX_GRID_SIZE``.
    period : float
        Period P of every axis (default 2*pi), by ``check_torus``.
    """

    n: int
    points: int
    period: float = 2.0 * np.pi

    def __post_init__(self):
        check_torus(self.n, self.period)
        if self.points < 8 or (self.points & (self.points - 1)) != 0:
            raise ValueError(f"points must be a power of two >= 8, got {self.points}")
        power = max(self.n, 2)
        if self.points**power > MAX_GRID_SIZE:
            raise ValueError(
                f"points**max(n, 2) = {self.points}**{power} = {self.points**power} "
                f"exceeds MAX_GRID_SIZE = 2**21"
            )

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points,) * self.n

    @property
    def size(self) -> int:
        return self.points**self.n

    @property
    def spacing(self) -> float:
        return self.period / self.points

    @cached_property
    def axis(self) -> np.ndarray:
        """Sample coordinates along one axis, [0, P) with spacing P/N."""
        return np.arange(self.points) * self.spacing

    @cached_property
    def coords(self) -> np.ndarray:
        """Coordinates of every grid point, shape ``shape + (n,)``."""
        mesh = np.meshgrid(*([self.axis] * self.n), indexing="ij")
        return np.stack(mesh, axis=-1)

    @cached_property
    def _diff_matrix(self) -> np.ndarray:
        # The Fourier multiplier i*k*2*pi/P (Nyquist mode zeroed) as a real
        # N x N matrix on one axis's samples, taken from the FFT of the
        # identity; the operator is antisymmetric, and (D - D^T)/2 makes the
        # matrix so exactly.
        k = np.fft.fftfreq(self.points, d=1.0 / self.points)
        k[self.points // 2] = 0.0
        mult = 1j * (2.0 * np.pi / self.period) * k
        d = np.fft.ifft(mult[:, None] * np.fft.fft(np.eye(self.points), axis=0), axis=0).real
        return 0.5 * (d - d.T)

    @cached_property
    def _diff_matrix_t(self) -> np.ndarray:
        # D^T as a C-contiguous array for the last-axis matmul: on a 64^2
        # field it takes 5.5 us against 8 us on the transposed view; stacks
        # of fields run within 20 % either way, and the battery and a
        # geodesic job both run faster with it.
        return np.ascontiguousarray(self._diff_matrix.T)

    @cached_property
    def _first_samples(self) -> tuple[tuple, ...]:
        return tuple((..., slice(0, 1)) + (slice(None),) * (self.n - 1 - a) for a in range(self.n))

    @cached_property
    def _axis_orders(self) -> tuple[tuple[int, ...], ...]:
        # Entry k > 0 is the ``ndarray.transpose`` order that puts k index axes
        # after the grid axes, entry 0 puts one last index axis first: the
        # views of moving axes, without a move's argument handling (2.4 us).
        n = self.n
        return ((n, *range(n)),) + tuple((*range(k, k + n), *range(k)) for k in (1, 2, 3))

    @cached_property
    def _pair_index(self) -> np.ndarray:
        # Row of the pair (a, b) among the pairs a <= b in ``np.triu_indices``
        # order, for a > b as well.
        index = np.empty((self.n, self.n), dtype=int)
        rows, cols = np.triu_indices(self.n)
        index[rows, cols] = index[cols, rows] = np.arange(rows.size)
        return index


@dataclass(frozen=True)
class ScalarField:
    """Real scalar field sampled on a periodic grid."""

    grid: PeriodicGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            raise ValueError(f"values shape {vals.shape} != grid shape {self.grid.shape}")
        check_finite_values(vals)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class TrigTerm:
    """One term c * cos(2*pi/P * <k, x>) or c * sin(...) of a trig polynomial."""

    coefficient: float
    wavevector: tuple[int, ...]
    phase: Phase = "cos"

    def __post_init__(self):
        if self.phase not in ("cos", "sin"):
            raise ValueError(f"phase must be 'cos' or 'sin', got {self.phase!r}")
        object.__setattr__(self, "wavevector", tuple(int(k) for k in self.wavevector))


@dataclass(frozen=True)
class TrigPolynomial:
    """Finite sum of cosine/sine modes with integer wavevectors."""

    terms: tuple[TrigTerm, ...]

    def __post_init__(self):
        dims = [len(t.wavevector) for t in self.terms]
        for i, t in enumerate(self.terms):
            if dims[i] != dims[0]:
                raise ValueError(f"term {i}: wavevector {t.wavevector} has dimension "
                                 f"{dims[i]}, term 0 has dimension {dims[0]}")

    def evaluate(self, points: np.ndarray, period: float = 2.0 * np.pi) -> np.ndarray:
        """Evaluate at arbitrary points of shape ``(..., n)``."""
        pts = np.asarray(points, dtype=float)
        out = np.zeros(pts.shape[:-1])
        freq = 2.0 * np.pi / period
        for t in self.terms:
            arg = freq * np.tensordot(pts, np.asarray(t.wavevector, dtype=float), axes=([-1], [0]))
            out += t.coefficient * (np.cos(arg) if t.phase == "cos" else np.sin(arg))
        return out


def check_band_limit(poly: TrigPolynomial, grid: PeriodicGrid) -> None:
    """Check that a trig polynomial is resolved on the grid.

    Raises
    ------
    BandLimitExceeded
        If any wavevector component exceeds N/4 in magnitude (products of
        such inputs then stay fully resolved on the grid) or its dimension
        does not match the grid.  The message names the offending term.
    """
    limit = grid.points // 4
    for i, t in enumerate(poly.terms):
        if len(t.wavevector) != grid.n:
            raise BandLimitExceeded(
                f"term {i}: wavevector {t.wavevector} has dimension "
                f"{len(t.wavevector)}, grid has n = {grid.n}"
            )
        if max(abs(k) for k in t.wavevector) > limit:
            raise BandLimitExceeded(
                f"term {i}: wavevector {t.wavevector} exceeds band limit N/4 = {limit}"
            )


def sample(poly: TrigPolynomial, grid: PeriodicGrid) -> ScalarField:
    """Sample a trig polynomial on the grid by one inverse FFT of its spectrum.

    Each term c cos(k.x) or c sin(k.x) puts X = c N^n / 2 or X = -i c N^n / 2
    at k in the rfftn half-spectrum, with k -> -k and X -> conj X when k's last
    component is negative; on the plane where that component is 0 the
    conjugate pair conj X at -k is stored too.  A zero wavevector puts c N^n
    at the origin for ``cos`` and nothing for ``sin``.  The band limit
    |k| <= N/4 keeps every mode below Nyquist, so the samples are exact.  The
    period does not enter: the grid points are x = j P / N, so
    2 pi / P * k.x = 2 pi k.j / N for every P.

    Raises
    ------
    BandLimitExceeded
        If the polynomial fails ``check_band_limit``.
    """
    check_band_limit(poly, grid)
    points = grid.points
    spec = np.zeros(grid.shape[:-1] + (points // 2 + 1,), dtype=complex)
    half = 0.5 * grid.size
    for t in poly.terms:
        k = t.wavevector
        if not any(k):
            if t.phase == "cos":
                spec[(0,) * grid.n] += t.coefficient * grid.size
            continue
        x = t.coefficient * half if t.phase == "cos" else -1j * t.coefficient * half
        if k[-1] < 0:
            k, x = tuple(-c for c in k), np.conj(x)
        spec[tuple(c % points for c in k)] += x
        if k[-1] == 0:
            spec[tuple(-c % points for c in k)] += np.conj(x)
    return ScalarField(grid, _from_spectrum(grid, spec))


def _from_spectrum(grid: PeriodicGrid, spec: np.ndarray) -> np.ndarray:
    return np.fft.irfftn(spec, s=grid.shape, axes=tuple(range(-grid.n, 0)))


def _differentiate(grid: PeriodicGrid, values: np.ndarray, axis: int, out: np.ndarray) -> None:
    """Write d/dx_axis of one field or a stack of fields (grid axes last) into
    the C-contiguous ``out``: one matmul by the grid's differentiation matrix.

    The first sample along the axis is subtracted first, so a field that is
    constant along the axis differentiates to exactly 0."""
    points, n = grid.points, grid.n
    shifted = values - values[grid._first_samples[axis]]
    if axis == n - 1:
        np.matmul(shifted.reshape(-1, points), grid._diff_matrix_t, out=out.reshape(-1, points))
    elif axis == n - 2:
        np.matmul(grid._diff_matrix, shifted, out=out)
    else:
        flat = values.shape[:-3] + (points, points * points)
        np.matmul(grid._diff_matrix, shifted.reshape(flat), out=out.reshape(flat))


def _gradient_stack(
    grid: PeriodicGrid, values: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """d_a of one field or a stack of fields, the axis index a first, in
    ``out`` when it is given."""
    if out is None:
        out = np.empty((grid.n,) + values.shape)
    for axis in range(grid.n):
        _differentiate(grid, values, axis, out[axis])
    return out


def _hessian_stack(
    grid: PeriodicGrid, grad: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """d_a d_b of one field from its gradient stack, the matrix indices first,
    in ``out`` when it is given: the entries (b, a), a <= b, are d_b of the
    gradient rows a <= b, one matmul per axis, and the entries above the
    diagonal copy them."""
    n = grid.n
    if out is None:
        out = np.empty((n, n) + grad.shape[1:])
    for b in range(n):
        _differentiate(grid, grad[: b + 1], b, out[b, : b + 1])
        for a in range(b):
            out[a, b] = out[b, a]
    return out


def partial_values(grid: PeriodicGrid, values: np.ndarray, axis: int) -> np.ndarray:
    """Spectral partial derivative of a raw sample array along one axis."""
    if not 0 <= axis < grid.n:
        raise ValueError(f"axis {axis} out of range for dimension {grid.n}")
    out = np.empty(grid.shape)
    _differentiate(grid, values, axis, out)
    return out


def _out_stack(grid: PeriodicGrid, out: np.ndarray | None, indices: int) -> np.ndarray | None:
    """The index-first view of a grid-last ``out`` with ``indices`` index
    axes, which must be C-contiguous; None for None.

    Raises
    ------
    ValueError
        If ``out`` does not have the shape ``grid.shape + (n,) * indices``
        or its index-first view is not C-contiguous."""
    if out is None:
        return None
    n = grid.n
    expected = grid.shape + (n,) * indices
    if out.shape != expected:
        raise ValueError(f"out shape {out.shape} != expected {expected}")
    stack = out.transpose((*range(n, n + indices), *range(n)))
    if not stack.flags.c_contiguous:
        raise ValueError("out must be the grid-last view of a C-contiguous index-first stack")
    return stack


def gradient_values(
    grid: PeriodicGrid, values: np.ndarray, *, out: np.ndarray | None = None
) -> np.ndarray:
    """All first derivatives, shape ``grid.shape + (n,)``, written into
    ``out`` when it is given (see the module docstring)."""
    stack = _gradient_stack(grid, values, _out_stack(grid, out, 1))
    return stack.transpose(grid._axis_orders[1])


def hessian_values(
    grid: PeriodicGrid,
    values: np.ndarray,
    *,
    grad: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """All second derivatives, shape ``grid.shape + (n, n)``, exactly
    symmetric, written into ``out`` when it is given (see the module
    docstring).

    ``grad`` is ``gradient_values(grid, values)`` when the caller already has
    it; the Hessian is then taken from it without differentiating ``values``
    again, with the same result."""
    if grad is None:
        stack = _gradient_stack(grid, values)
    elif grad.shape != grid.shape + (grid.n,):
        raise ValueError(f"gradient shape {grad.shape} != expected {grid.shape + (grid.n,)}")
    else:
        stack = grad.transpose(grid._axis_orders[0])
    hess = _hessian_stack(grid, stack, _out_stack(grid, out, 2))
    return hess.transpose(grid._axis_orders[2])


def symmetric_gradient_values(grid: PeriodicGrid, matrix: np.ndarray) -> np.ndarray:
    """d_c m_{ab} of a symmetric matrix field ``grid.shape + (n, n)``, shape
    ``grid.shape + (n, n, n)`` with the derivative index c first; only the
    components a <= b are differentiated."""
    upper = np.stack([matrix[..., a, b] for a, b in zip(*np.triu_indices(grid.n))])
    stack = _gradient_stack(grid, upper)[:, grid._pair_index]
    return stack.transpose(grid._axis_orders[3])


def divergence_values(grid: PeriodicGrid, vector: np.ndarray) -> np.ndarray:
    """sum_a d_a v_a of a vector field ``grid.shape + (n,)``."""
    terms = np.empty((grid.n,) + grid.shape)
    for axis in range(grid.n):
        _differentiate(grid, vector[..., axis], axis, terms[axis])
    return terms.sum(axis=0)


def check_field_shapes(grid: PeriodicGrid, *values: np.ndarray) -> None:
    """Check that every raw sample array has the grid's shape; compares the
    shapes only, with no pass over the data.

    Raises
    ------
    ShapeMismatch
        Naming the position of the first offending array among ``values``
        and both shapes.
    """
    for position, array in enumerate(values):
        if np.shape(array) != grid.shape:
            raise ShapeMismatch(
                f"value array {position} has shape {np.shape(array)}, "
                f"the grid's is {grid.shape}"
            )


def check_finite_values(*values: np.ndarray) -> None:
    """Raise ``ValueError("field values must be finite")`` if a sample of
    any of ``values`` is NaN or infinite: the check ``ScalarField`` makes."""
    for array in values:
        if not np.isfinite(array).all():
            raise ValueError("field values must be finite")


def integrate_values(grid: PeriodicGrid, values: np.ndarray) -> float:
    """Integral over the torus: mean of samples times P^n."""
    return float(values.mean()) * grid.period**grid.n


def integrate_product(grid: PeriodicGrid, a: np.ndarray, b: np.ndarray) -> float:
    """Integral of a*b over the torus: P^n / N^n times one BLAS dot of the
    samples, with no product array.  It is bit-symmetric in a and b, and
    agrees with ``integrate_values(grid, a * b)`` to roundoff."""
    dot = np.dot(a.reshape(-1), b.reshape(-1))
    return float(dot) * (grid.period**grid.n / grid.size)


def constant_field(grid: PeriodicGrid, value: float = 0.0) -> ScalarField:
    return ScalarField(grid, np.full(grid.shape, float(value)))


def field_from_function(grid: PeriodicGrid, fn: Callable[[np.ndarray], np.ndarray]) -> ScalarField:
    """Sample ``fn(coords)`` where coords has shape ``shape + (n,)``."""
    return ScalarField(grid, np.asarray(fn(grid.coords), dtype=float))


# ---------------------------------------------------------------------------
# Closed-form pointwise linear algebra for batches of n x n matrices, n <= 3
# ---------------------------------------------------------------------------


def _check_square(m: np.ndarray) -> int:
    if m.ndim < 2 or m.shape[-2] != m.shape[-1] or m.shape[-1] not in (1, 2, 3):
        raise ValueError(f"expected a batch of n x n matrices with n <= 3, got shape {m.shape}")
    return m.shape[-1]


def det(m: np.ndarray) -> np.ndarray:
    """Determinant of every matrix in a real or complex batch ``(..., n, n)``."""
    n = _check_square(m)
    if n == 1:
        return m[..., 0, 0].copy()
    if n == 2:
        return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    # Laplace expansion along the first row.
    return (
        m[..., 0, 0] * (m[..., 1, 1] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 1])
        + m[..., 0, 1] * (m[..., 1, 2] * m[..., 2, 0] - m[..., 1, 0] * m[..., 2, 2])
        + m[..., 0, 2] * (m[..., 1, 0] * m[..., 2, 1] - m[..., 1, 1] * m[..., 2, 0])
    )


def adjugate(m: np.ndarray) -> np.ndarray:
    """Adjugate (transposed cofactor matrix) of every matrix in a batch, so
    that ``m @ adjugate(m) = det(m) * I``."""
    n = _check_square(m)
    adj = np.empty_like(m)
    if n == 1:
        adj[...] = 1.0
        return adj
    if n == 2:
        adj[..., 0, 0] = m[..., 1, 1]
        adj[..., 0, 1] = -m[..., 0, 1]
        adj[..., 1, 0] = -m[..., 1, 0]
        adj[..., 1, 1] = m[..., 0, 0]
        return adj
    for i in range(3):
        for j in range(3):
            adj[..., j, i] = cofactor3(m, i, j)
    return adj


def cofactor3(m: np.ndarray, i: int, j: int) -> np.ndarray:
    """The signed (i, j) cofactor of every 3 x 3 matrix in a batch, which
    ``adjugate`` places at (j, i)."""
    i1, i2 = (i + 1) % 3, (i + 2) % 3
    j1, j2 = (j + 1) % 3, (j + 2) % 3
    # Cyclic index order makes the cofactor sign implicit.
    return m[..., i1, j1] * m[..., i2, j2] - m[..., i1, j2] * m[..., i2, j1]


def vector_dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pointwise u . v of two vector fields ``(..., n)``, written out over the
    n <= 3 components (bit-identical to the einsum, and twice as fast)."""
    out = u[..., 0] * v[..., 0]
    for a in range(1, u.shape[-1]):
        out += u[..., a] * v[..., a]
    return out
