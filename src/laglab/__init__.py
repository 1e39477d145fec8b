"""Riemannian geometry of positive Lagrangian graphs.

Numerical realization of the metric, Levi-Civita connection, curvature
tensor, sectional curvature and geodesics on the exact isotopy class of
positive Lagrangian graphs in flat almost Calabi-Yau models, together with
a finite-dimensional Hermitian-matrix mirror model and a battery of
independent finite-difference and integration-by-parts oracles.
"""

__version__ = "0.1.0"

from .ambient import CONVENTIONS, AlmostCYModel
from .connection import (
    GeodesicPath,
    HamiltonianFamily,
    SampledPath,
    cov_deriv_along_path,
    geodesic_shoot,
)
from .curvature import (
    flat_family_check,
    sectional,
    sectional_matrix,
)
from .hermitian import (
    HermBase,
    HermPoint,
    HermTangent,
    herm_curvature_quad,
    herm_fd_riemann,
    herm_inner,
    herm_sectional,
)
from .lagrangian import GraphLagrangian, build
from .torus import (
    PeriodicGrid,
    ScalarField,
    TrigPolynomial,
    TrigTerm,
    sample,
)
from .validation import CheckResult, SuiteConfig, SuiteReport, run_suite

__all__ = [
    "AlmostCYModel",
    "CONVENTIONS",
    "CheckResult",
    "GeodesicPath",
    "GraphLagrangian",
    "HamiltonianFamily",
    "HermBase",
    "HermPoint",
    "HermTangent",
    "PeriodicGrid",
    "SampledPath",
    "ScalarField",
    "SuiteConfig",
    "SuiteReport",
    "TrigPolynomial",
    "TrigTerm",
    "build",
    "cov_deriv_along_path",
    "flat_family_check",
    "geodesic_shoot",
    "herm_curvature_quad",
    "herm_fd_riemann",
    "herm_inner",
    "herm_sectional",
    "run_suite",
    "sample",
    "sectional",
    "sectional_matrix",
]
