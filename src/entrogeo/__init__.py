"""Entropic regularization of geodesics on metric-space backends.

The package solves and cross-examines the epsilon-regularized action
minimization problem

    inf { A(c) + eps^2 * I(c) :  c joins x to y }

(the dynamical Schrodinger problem) on two concrete instantiations of the
abstract setting "metric space + entropy + EVI gradient flow": a Euclidean
space with a convex potential, and 1D probability densities with the
Wasserstein-2 metric.  Beyond the solver it ships numerical certificates
for the EVI flow properties, the energy estimates of curves regularized by
the tent time ``eps min(t, 1-t)`` (``regularizer.build``), the
Gamma-convergence of the entropic cost to the geodesic cost, and the
second-order Taylor expansion of the cost in eps.
"""

from .core import (
    Curve,
    SpaceBackend,
    fisher_action,
    geodesic_curve,
    kinetic_action,
    schrodinger_action,
)
from .density1d import (
    DENSITY_FLOOR,
    Density1DBackend,
    EntropyKind,
    GridDensity,
    w2_distance,
    w2_geodesic,
)
from .euclidean import (
    EuclideanBackend,
    Potential,
    QuadraticPotential,
    UserPotential,
)
from .fileio import density_from_csv, density_to_csv
from . import errors

__version__ = "0.1.0"

__all__ = [
    "Curve",
    "DENSITY_FLOOR",
    "Density1DBackend",
    "EntropyKind",
    "EuclideanBackend",
    "GridDensity",
    "Potential",
    "QuadraticPotential",
    "SpaceBackend",
    "UserPotential",
    "density_from_csv",
    "density_to_csv",
    "errors",
    "fisher_action",
    "geodesic_curve",
    "kinetic_action",
    "schrodinger_action",
    "w2_distance",
    "w2_geodesic",
]
