"""Flat ambient model X = T*T^n with a holomorphic volume form.

Coordinates are (x, y) with x on the torus base and y the fiber.  The
structure is flat: symplectic form sum_j dy_j ^ dx_j, complex structure
J dx_j = -dy_j (holomorphic coordinate z_j = x_j - i y_j), Euclidean
metric.  The volume form is Omega = e^{g(z)} dz_1 ^ ... ^ dz_n with the
twist g(z) = eps * e^{i kappa z_1}, which is holomorphic, x_1-periodic and
nowhere zero, so positivity data (rho, theta) become nonconstant while the
symplectic and metric structure stay flat.

The conformal factor rho is evaluated from its defining relation

    rho^n * omega^n / n! = (-1)^{n(n-1)/2} * (i/2)^n * Omega ^ conj(Omega)

by explicit exterior algebra on the coordinate frame; the closed form
exp(2 Re g / n) is kept separate as an independent cross-check.

The density e^{g} is evaluated in real arithmetic: writing
g = a + ib = eps e^{kappa y_1} (cos kappa x_1 + i sin kappa x_1), it is
e^a e^{ib} with e^{ib} in the half-angle form

    e^{ib} = ((1 - t^2) + 2it) / (1 + t^2),      t = tan(b/2),

and the factor 1/(1 + t^2) folded into e^a.  numpy's float64 sin and cos
are scalar loops, while tan and exp are vectorised (about 20 us each for
sin and cos against 5 us for tan and 2.5 us for exp on a 64^2 field), so one
tan and a few multiplications replace the sine and cosine of b.  The
flat model (eps = 0) returns exact ones without any trig.  The density
reads only x_1 = x[..., 0], and x broadcasts to the points of y, whose
shape the output takes.  On a grid, x_1 is constant along the other axes,
so the graph build passes its N axis samples shaped (N,) + (1,) * n: cos
kappa x_1 and sin kappa x_1 are evaluated there and broadcast, not at all
N^n points, with the same products, so bit-identical.
``holomorphic_density_parts``
returns Re e^{g} and Im e^{g} as two contiguous real arrays, which the graph
build reads; ``holomorphic_density`` assembles the complex density from
them.  ``twist`` keeps the complex formula eps e^{i kappa z_1} as the oracle
it is checked against, so ``rho`` and ``rho_closed_form`` compare two
independent routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonPositiveDensity
from .torus import check_torus

# Convention record embedded in every report; the whole set stands or falls
# together (a single global sign cannot be patched in isolation).
CONVENTIONS = {
    "symplectic_form": "omega = sum_j dy_j ^ dx_j",
    "complex_structure": "J dx_j = -dy_j, J dy_j = dx_j  (z_j = x_j - i y_j)",
    "volume_form": "Omega = e^{g(z)} dz_1 ^ ... ^ dz_n, g(z) = eps e^{i kappa z_1}",
    "hamiltonian_sign": "i_xi omega = dH",
    "base_orientation": "dx_1 ^ ... ^ dx_n",
    "laplacian_sign": "nonnegative (Hodge): Lap h = -div grad h",
}


# ---------------------------------------------------------------------------
# Minimal exterior algebra over the coordinate frame (dx_1..dx_n, dy_1..dy_n).
# A k-form is a dict mapping a strictly increasing index tuple to a complex
# coefficient.  Only used for the volume-form defining relation, where n <= 3.
# ---------------------------------------------------------------------------


def _merge_indices(a: tuple[int, ...], b: tuple[int, ...]):
    """Sort the concatenation of two increasing tuples; return (tuple, sign).

    Returns None when an index repeats (the wedge vanishes).
    """
    if set(a) & set(b):
        return None
    merged = a + b
    # Count inversions of the concatenation; parity gives the wedge sign.
    inversions = 0
    items = list(merged)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[i] > items[j]:
                inversions += 1
    return tuple(sorted(merged)), (-1) ** inversions


def _wedge(a: dict, b: dict) -> dict:
    out: dict = {}
    for ia, ca in a.items():
        for ib, cb in b.items():
            merged = _merge_indices(ia, ib)
            if merged is None:
                continue
            idx, sign = merged
            out[idx] = out.get(idx, 0.0) + sign * ca * cb
    return {k: v for k, v in out.items() if v != 0}


def _conj(a: dict) -> dict:
    return {k: np.conj(v) for k, v in a.items()}


@lru_cache(maxsize=8)
def _frame_ratio(n: int) -> complex:
    """Evaluate the constant part of the defining relation on the frame.

    Computes [(-1)^{n(n-1)/2} (i/2)^n (dz^n ^ conj(dz^n))] / [omega^n / n!]
    as top-form coefficients; the twist only rescales Omega pointwise, so
    rho^n equals this ratio times |e^{g}|^2.
    """
    # omega = sum_j dy_j ^ dx_j = sum_j (-1) dx_j ^ dy_j with x_j -> j, y_j -> n+j.
    omega = {(j, n + j): -1.0 + 0.0j for j in range(n)}
    omega_n: dict = {(): 1.0 + 0.0j}
    for _ in range(n):
        omega_n = _wedge(omega_n, omega)
    top = tuple(range(2 * n))
    omega_top = omega_n[top] / math.factorial(n)

    dz = [{(j,): 1.0 + 0.0j, (n + j,): -1.0j} for j in range(n)]
    dz_n: dict = {(): 1.0 + 0.0j}
    for j in range(n):
        dz_n = _wedge(dz_n, dz[j])
    zz_top = _wedge(dz_n, _conj(dz_n))[top]

    prefactor = (-1.0) ** (n * (n - 1) // 2) * (0.5j) ** n
    return complex(prefactor * zz_top / omega_top)


@dataclass(frozen=True)
class AlmostCYModel:
    """The flat twisted model on T*T^n.

    Parameters
    ----------
    n : int
        Dimension of the base torus, 1 to 3.
    period : float
        Period P of the base (default 2*pi), by ``torus.check_torus``.
    twist_amplitude : float
        eps >= 0; eps = 0 is the flat Calabi-Yau model.  eps < 1 keeps a
        positivity margin for moderate potentials.
    twist_mode : int
        Positive integer m; the twist wavenumber is kappa = 2*pi*m/P.
    """

    n: int
    period: float = 2.0 * np.pi
    twist_amplitude: float = 0.0
    twist_mode: int = 1

    def __post_init__(self):
        check_torus(self.n, self.period)
        if not (0.0 <= self.twist_amplitude < 1.0):
            raise ValueError("twist amplitude must satisfy 0 <= eps < 1")
        if self.twist_mode < 1:
            raise ValueError("twist mode must be a positive integer")

    @property
    def kappa(self) -> float:
        return 2.0 * np.pi * self.twist_mode / self.period

    # -- pointwise evaluators: x, y of shape (..., n), one point as (1, n);
    # -- the density's x broadcasts to y's points (module docstring) ---------

    def twist(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """g(z) = eps * e^{i kappa z_1} with z_1 = x_1 - i y_1, in complex
        arithmetic: the oracle formula, independent of the real form in
        ``holomorphic_density``."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        z1 = x[..., 0] - 1j * y[..., 0]
        return self.twist_amplitude * np.exp(1j * self.kappa * z1)

    def holomorphic_density(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Scalar c with Omega = c * dz_1 ^ ... ^ dz_n, i.e. c = e^{g(z)}, as
        a complex array assembled from ``holomorphic_density_parts``;
        exactly 1 in the flat model."""
        re, im = self.holomorphic_density_parts(x, y)
        c = np.empty(re.shape, dtype=complex)
        c.real, c.imag = re, im
        return c

    def holomorphic_density_parts(
        self, x: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(Re e^{g}, Im e^{g}) as two contiguous real arrays: with g = a + ib
        and t = tan(b/2), e^a (1 - t^2) / (1 + t^2) and e^a 2t / (1 + t^2)
        (module docstring); (1, 0) in the flat model.  x_1 = x[..., 0]
        broadcasts to the shape of y[..., 0], the output's (module
        docstring)."""
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        if self.twist_amplitude == 0.0:
            return np.ones(y.shape[:-1]), np.zeros(y.shape[:-1])
        phase = self.kappa * x[..., 0]
        # Half the radius eps e^{kappa y_1}, in buffers formed once: scaling by
        # 1/2 is exact, so b/2 and a = 2 (radius/2) cos(phase) carry the bits.
        half_radius = np.multiply(self.kappa, y[..., 0])
        np.exp(half_radius, out=half_radius)
        half_radius *= 0.5 * self.twist_amplitude
        t = half_radius * np.sin(phase)
        np.tan(t, out=t)
        scale = np.multiply(half_radius, np.cos(phase), out=half_radius)
        scale *= 2.0
        np.exp(scale, out=scale)
        t_squared = t * t
        re = 1.0 - t_squared
        t_squared += 1.0
        scale /= t_squared
        re *= scale
        im = np.multiply(t, 2.0, out=t)
        im *= scale
        return re, im

    def rho(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Conformal factor from the volume-form defining relation.

        Raises
        ------
        NonPositiveDensity
            If the frame evaluation of the defining relation comes out
            non-positive (or non-real), which signals a convention bug.
            The check is on the frame ratio alone: rho^n is that ratio times
            |e^{g}|^2, so a wrong sign shows at every point, while a density
            that underflows to 0 (Re g below about -745) is a valid point
            with rho = 0, as the closed form gives.
        """
        return self.rho_from_density(self.holomorphic_density(x, y))

    def rho_from_density(self, c: np.ndarray) -> np.ndarray:
        """``rho`` given the holomorphic density c = e^{g(z)} at the same points,
        for callers that already hold it; raises as ``rho`` does."""
        ratio = _frame_ratio(self.n)
        if abs(ratio.imag) > 1e-14 * max(abs(ratio.real), 1.0):
            raise NonPositiveDensity(
                f"defining relation evaluated to non-real ratio {ratio}"
            )
        if not ratio.real > 0:
            raise NonPositiveDensity(
                f"defining relation gave non-positive frame ratio {ratio.real:.3e}"
            )
        return (ratio.real * np.abs(c) ** 2) ** (1.0 / self.n)

    def rho_closed_form(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Independent closed form exp(2 Re g / n); used only as an oracle."""
        return np.exp(2.0 * np.real(self.twist(x, y)) / self.n)

    # -- constant structure tensors -----------------------------------------

    def omega_matrix(self) -> np.ndarray:
        """Coefficients W[a, b] = omega(e_a, e_b) on the frame (dx_*, dy_*)."""
        n = self.n
        W = np.zeros((2 * n, 2 * n))
        for j in range(n):
            W[n + j, j] = 1.0
            W[j, n + j] = -1.0
        return W

    def complex_structure_matrix(self) -> np.ndarray:
        """Matrix of J on the frame: J e_{x_j} = -e_{y_j}, J e_{y_j} = e_{x_j}."""
        n = self.n
        J = np.zeros((2 * n, 2 * n))
        for j in range(n):
            J[n + j, j] = -1.0
            J[j, n + j] = 1.0
        return J
