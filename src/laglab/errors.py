"""Exception hierarchy shared by all laglab modules.

An error's base class sets the exit code of the ``laglab`` command: an
``InputError`` exits 2 and a ``PositivityError`` 3; ``StepRejected`` exits
4 and any other ``LaglabError`` 1.
"""

from __future__ import annotations

import math


class LaglabError(Exception):
    """Base class for all errors raised by laglab."""


class InputError(LaglabError):
    """The input is malformed or inconsistent (exit 2)."""


class PositivityError(LaglabError):
    """A positive object is not, or not by enough margin (exit 3)."""


class BandLimitExceeded(InputError):
    """A trigonometric-polynomial term carries a wavevector too large for the grid."""


class NonPositiveDensity(LaglabError):
    """The volume-form defining relation produced a non-positive density (convention bug)."""


class NotPositive(PositivityError):
    """A graph Lagrangian left the positive locus: Re Omega~ <= 0 or not
    finite somewhere.

    Attributes
    ----------
    margin : float
        Worst-case value of cos(theta) over the grid; NaN when Re Omega~ is
        not finite somewhere, where cos(theta) has no value.
    worst_point : tuple
        Base coordinates of the worst grid point, or of the first point
        where Re Omega~ is not finite.
    """

    def __init__(self, margin: float, worst_point: tuple):
        self.margin = margin
        self.worst_point = worst_point
        if math.isnan(margin):
            reading = "Re Omega~ is not finite"
        else:
            reading = f"min cos(theta) = {margin:.6g}"
        super().__init__(f"positivity violated: {reading} at x = {worst_point}")


class GammaMismatch(InputError):
    """Tangent functions attached to different base Lagrangians were combined."""


class SingularDensity(PositivityError):
    """The pulled-back real volume density is below tolerance at some grid point."""


class InsufficientSamples(LaglabError):
    """A time-differencing stencil does not fit inside the sampled path."""


class PositivityLost(PositivityError):
    """Positivity failed during time integration.

    Attributes
    ----------
    time : float
        Integration time at which the failure occurred.
    """

    def __init__(self, time: float, message: str = ""):
        self.time = time
        super().__init__(message or f"positivity lost at t = {time:.6g}")


class StepRejected(LaglabError):
    """A single integrator step produced an energy jump above threshold."""

    def __init__(self, time: float, drift: float, threshold: float):
        self.time = time
        self.drift = drift
        self.threshold = threshold
        super().__init__(
            f"step at t = {time:.6g} rejected: relative energy jump "
            f"{drift:.3e} > {threshold:.3e}"
        )


class MarginTooSmall(PositivityError):
    """Positivity margin too small for a curvature evaluation (sec theta unbounded)."""


class DegeneratePlane(InputError):
    """Sectional curvature requested for a nearly degenerate tangent 2-plane."""


class ShapeMismatch(InputError):
    """Operands with incompatible shapes: a raw sample array that is not on
    the grid, or matrix-family operands with different shapes or base
    weights."""


class NotPositiveDefinite(PositivityError):
    """A Hermitian matrix expected to be positive definite is not."""


class ConfigError(InputError):
    """Experiment configuration is malformed or inconsistent."""


class NonFiniteResult(InputError):
    """A job's result is NaN or infinite: its finite inputs overflowed float64
    arithmetic, which only computing can find."""
