"""Spectral calculus for smooth periodic functions on the flat torus (R/PZ)^n.

All fields live on an isotropic grid (same point count and period per axis,
n in {1,2,3}).  Differentiation is a Fourier multiplier, quadrature is the
trapezoidal rule (exact for band-limited integrands), and test inputs are
real trigonometric polynomials with integer wavevectors.

Fields are real, so derivatives use the real FFT: one ``rfftn`` of a field
gives its spectrum, and every derivative of it is one ``irfftn`` of that
spectrum times the multipliers i*k.  The Nyquist mode k = N/2 is zeroed on
every axis, since its sample-based derivative is ambiguous; band-limited
inputs never populate it, and a pure Nyquist-mode field differentiates to 0.

The pointwise n x n algebra of the graph geometry (n <= 3) uses the
closed-form determinant and adjugate below instead of batched LAPACK calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Literal

import numpy as np

from .errors import BandLimitExceeded

Phase = Literal["cos", "sin"]


@dataclass(frozen=True)
class PeriodicGrid:
    """Isotropic sampling grid on (R/PZ)^n.

    Parameters
    ----------
    n : int
        Dimension of the torus, 1 to 3.
    points : int
        Samples per axis; a power of two, at least 8.
    period : float
        Period P of every axis (default 2*pi).
    """

    n: int
    points: int
    period: float = 2.0 * np.pi

    def __post_init__(self):
        if self.n not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.n}")
        if self.points < 8 or (self.points & (self.points - 1)) != 0:
            raise ValueError(f"points must be a power of two >= 8, got {self.points}")
        if not (self.period > 0):
            raise ValueError(f"period must be positive, got {self.period}")

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
    def _derivative_multipliers(self) -> list[np.ndarray]:
        # i*k Fourier multiplier per axis, broadcastable over the rfftn
        # spectrum (the last axis keeps only k >= 0).  The Nyquist mode is
        # zeroed on every axis.
        scale = 2.0 * np.pi / self.period
        k_full = np.fft.fftfreq(self.points, d=1.0 / self.points)
        k_full[self.points // 2] = 0.0
        k_half = np.fft.rfftfreq(self.points, d=1.0 / self.points)
        k_half[-1] = 0.0
        mult = []
        for axis in range(self.n):
            k = k_half if axis == self.n - 1 else k_full
            shape = [1] * self.n
            shape[axis] = k.size
            mult.append((1j * scale * k).reshape(shape))
        return mult


@dataclass(frozen=True)
class ScalarField:
    """Real scalar field sampled on a periodic grid."""

    grid: PeriodicGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            raise ValueError(f"values shape {vals.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", vals)

    # Pointwise algebra, used heavily when assembling curvature integrands.
    def __add__(self, other):
        return ScalarField(self.grid, self.values + self._coerce(other))

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        return ScalarField(self.grid, self.values - self._coerce(other))

    def __rsub__(self, other):
        return ScalarField(self.grid, self._coerce(other) - self.values)

    def __mul__(self, other):
        return ScalarField(self.grid, self.values * self._coerce(other))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        return ScalarField(self.grid, self.values / self._coerce(other))

    def __neg__(self):
        return ScalarField(self.grid, -self.values)

    def _coerce(self, other) -> np.ndarray | float:
        if isinstance(other, ScalarField):
            if other.grid != self.grid:
                raise ValueError("fields live on different grids")
            return other.values
        return float(other)

    def mean(self) -> float:
        return float(self.values.mean())

    def sup_norm(self) -> float:
        return float(np.abs(self.values).max())


@dataclass(frozen=True)
class TensorField:
    """Tensor field of rank 0..2 on a periodic grid.

    ``values`` has shape ``grid.shape + (n,) * rank``.  When ``symmetric`` is
    set the two tensor indices must agree at every grid point.
    """

    grid: PeriodicGrid
    rank: int
    values: np.ndarray
    symmetric: bool = False

    def __post_init__(self):
        if self.rank not in (0, 1, 2):
            raise ValueError(f"rank must be 0, 1 or 2, got {self.rank}")
        vals = np.asarray(self.values, dtype=float)
        expect = self.grid.shape + (self.grid.n,) * self.rank
        if vals.shape != expect:
            raise ValueError(f"values shape {vals.shape} != expected {expect}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("tensor values must be finite")
        if self.symmetric:
            if self.rank != 2:
                raise ValueError("symmetric flag only applies to rank 2")
            scale = max(np.abs(vals).max(), 1.0)
            if np.abs(vals - np.swapaxes(vals, -1, -2)).max() > 1e-12 * scale:
                raise ValueError("tensor marked symmetric is not symmetric")
        object.__setattr__(self, "values", vals)

    def component(self, *indices: int) -> ScalarField:
        return ScalarField(self.grid, self.values[(..., *indices)])


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
        terms = tuple(
            t if isinstance(t, TrigTerm) else TrigTerm(*t) for t in self.terms
        )
        if terms:
            dims = {len(t.wavevector) for t in terms}
            if len(dims) != 1:
                raise ValueError("all wavevectors must share a dimension")
        object.__setattr__(self, "terms", terms)

    def max_mode(self) -> int:
        if not self.terms:
            return 0
        return max(max(abs(k) for k in t.wavevector) for t in self.terms)

    def evaluate(self, points: np.ndarray, period: float = 2.0 * np.pi) -> np.ndarray:
        """Evaluate at arbitrary points of shape ``(..., n)``."""
        pts = np.asarray(points, dtype=float)
        out = np.zeros(pts.shape[:-1])
        freq = 2.0 * np.pi / period
        for t in self.terms:
            arg = freq * np.tensordot(pts, np.asarray(t.wavevector, dtype=float), axes=([-1], [0]))
            out += t.coefficient * (np.cos(arg) if t.phase == "cos" else np.sin(arg))
        return out

    def scaled(self, factor: float) -> "TrigPolynomial":
        return TrigPolynomial(
            tuple(TrigTerm(t.coefficient * factor, t.wavevector, t.phase) for t in self.terms)
        )


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
    """Evaluate a trig polynomial on the grid.

    Raises
    ------
    BandLimitExceeded
        If the polynomial fails ``check_band_limit``.
    """
    check_band_limit(poly, grid)
    if not poly.terms:
        return ScalarField(grid, np.zeros(grid.shape))
    return ScalarField(grid, poly.evaluate(grid.coords, grid.period))


def _spectrum(grid: PeriodicGrid, values: np.ndarray) -> np.ndarray:
    return np.fft.rfftn(values, axes=tuple(range(grid.n)))


def _from_spectrum(grid: PeriodicGrid, spec: np.ndarray) -> np.ndarray:
    return np.fft.irfftn(spec, s=grid.shape, axes=tuple(range(grid.n)))


def partial_values(grid: PeriodicGrid, values: np.ndarray, axis: int) -> np.ndarray:
    """Spectral partial derivative of a raw sample array along one axis."""
    if not 0 <= axis < grid.n:
        raise ValueError(f"axis {axis} out of range for dimension {grid.n}")
    return _from_spectrum(grid, _spectrum(grid, values) * grid._derivative_multipliers[axis])


def partial(f: ScalarField, axis: int) -> ScalarField:
    """Spectral partial derivative; exact for band-limited fields."""
    return ScalarField(f.grid, partial_values(f.grid, f.values, axis))


def _gradient_of_spectrum(grid: PeriodicGrid, spec: np.ndarray) -> np.ndarray:
    mult = grid._derivative_multipliers
    grad = np.empty(grid.shape + (grid.n,))
    for a in range(grid.n):
        grad[..., a] = _from_spectrum(grid, spec * mult[a])
    return grad


def _hessian_of_spectrum(grid: PeriodicGrid, spec: np.ndarray) -> np.ndarray:
    n, mult = grid.n, grid._derivative_multipliers
    hess = np.empty(grid.shape + (n, n))
    for a in range(n):
        for b in range(a, n):
            hess[..., a, b] = _from_spectrum(grid, spec * (mult[a] * mult[b]))
            hess[..., b, a] = hess[..., a, b]
    return hess


def gradient_values(grid: PeriodicGrid, values: np.ndarray) -> np.ndarray:
    """All first derivatives, shape ``grid.shape + (n,)``."""
    return _gradient_of_spectrum(grid, _spectrum(grid, values))


def hessian_values(grid: PeriodicGrid, values: np.ndarray) -> np.ndarray:
    """All second derivatives, shape ``grid.shape + (n, n)``, exactly symmetric."""
    return _hessian_of_spectrum(grid, _spectrum(grid, values))


def grad_hess(grid: PeriodicGrid, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of one field from a single forward transform."""
    spec = _spectrum(grid, values)
    return _gradient_of_spectrum(grid, spec), _hessian_of_spectrum(grid, spec)


def integrate(f: ScalarField) -> float:
    """Integral over the torus: mean of samples times P^n."""
    return integrate_values(f.grid, f.values)


def integrate_values(grid: PeriodicGrid, values: np.ndarray) -> float:
    return float(values.mean()) * grid.period**grid.n


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
        i1, i2 = (i + 1) % 3, (i + 2) % 3
        for j in range(3):
            j1, j2 = (j + 1) % 3, (j + 2) % 3
            # Cyclic index order makes the cofactor sign implicit.
            adj[..., j, i] = m[..., i1, j1] * m[..., i2, j2] - m[..., i1, j2] * m[..., i2, j1]
    return adj
