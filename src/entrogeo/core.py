"""Discrete curves, space backends, and the three action functionals.

A *backend* bundles the data of a metric space ``(X, d)`` together with an
entropy functional ``E``, its metric slope ``|dE|``, and the EVI_lambda
gradient-flow semigroup ``S_t`` of ``E``.  Curves are finite time grids on
``[0, 1]`` carrying one state per node.  On top of these the module defines

* the kinetic action  ``A(c)  = 1/2 * sum d(c_i, c_{i+1})^2 / dt_i``
  (discrete 2-energy, the Riemann-sum form of ``1/2 int |c'|^2 dt``),
* the Fisher action   ``I(c)  = trapezoid of 1/2 |dE|^2(c_t)``,
* the entropic action ``A_eps = A + eps^2 * I``,

whose minimization over curves with fixed endpoints is the dynamical
Schrodinger problem solved in :mod:`entrogeo.solver`.

All values here are immutable after construction and every operation is a
pure function, so everything is safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, InvalidCurve, SlopeUndefined

__all__ = [
    "Curve",
    "SpaceBackend",
    "fisher_action",
    "kinetic_action",
    "kinetic_actions",
    "schrodinger_action",
]


class SpaceBackend:
    """Contract every concrete state space implements.

    ``lam`` is the contraction parameter of the EVI flow: the semigroup
    satisfies ``d(S_t x, S_t y) <= exp(-lam * t) * d(x, y)``.  Subclasses
    provide the five geometric operations below; all must be pure and
    ``flow(x, 0)`` must return ``x`` unchanged.  Five batched hooks,
    ``distances``, ``geodesic_points``, ``entropies``, ``slopes`` and
    ``flows``, loop over ``distance``, ``geodesic``, ``entropy``, ``slope``
    and ``flow`` by default; a backend overrides them when many calls can
    share one pass.  The certificates and the Fisher action call the plural
    forms, so a backend that overrides ``slope`` or ``entropy`` must
    override ``slopes`` or ``entropies`` too unless they are these loops.
    """

    lam: float = 0.0

    def distance(self, a, b) -> float:
        raise NotImplementedError

    def distances(self, xs, ys) -> np.ndarray:
        """``[distance(x, y) for x, y in zip(xs, ys)]`` as an array; a
        backend overrides it when many pairs can share one batched pass."""
        xs, ys = list(xs), list(ys)
        if len(xs) != len(ys):
            raise DomainError(f"{len(xs)} first points for {len(ys)} second points")
        return np.array([self.distance(x, y) for x, y in zip(xs, ys)], dtype=float)

    def geodesic(self, a, b, theta: float):
        raise NotImplementedError

    def geodesic_points(self, a, b, thetas) -> list:
        """``[geodesic(a, b, th) for th in thetas]``; a backend overrides it
        when the times can share work that depends only on the endpoints."""
        return [self.geodesic(a, b, th) for th in thetas]

    def entropy(self, x) -> float:
        raise NotImplementedError

    def entropies(self, xs) -> np.ndarray:
        """``[entropy(x) for x in xs]`` as an array."""
        return np.array([self.entropy(x) for x in xs], dtype=float)

    def slope(self, x) -> float:
        raise NotImplementedError

    def slopes(self, xs) -> np.ndarray:
        """``[slope(x) for x in xs]`` as an array."""
        return np.array([self.slope(x) for x in xs], dtype=float)

    def flow(self, x, s: float):
        raise NotImplementedError

    def flows(self, xs, ss) -> list:
        """``[flow(x, s) for x, s in zip(xs, ss)]``; a backend overrides it
        when many points can step their flows in lockstep."""
        xs, ss = list(xs), list(ss)
        if len(xs) != len(ss):
            raise DomainError(f"{len(xs)} points for {len(ss)} flow times")
        return [self.flow(x, s) for x, s in zip(xs, ss)]

    def check_point(self, x) -> None:
        """Raise InvalidCurve if ``x`` is not a state of this space."""
        raise NotImplementedError

    def same_space(self, a, b) -> bool:
        """Whether two points share payload kind and shape."""
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class Curve:
    """A time grid ``0 = t_0 < ... < t_N = 1`` with one point per node.

    It holds arrays, so ``==`` and ``hash`` go by identity."""

    times: np.ndarray
    points: tuple

    def __init__(self, times, points):
        times = np.asarray(times, dtype=float)
        points = tuple(points)
        if times.ndim != 1 or times.size < 2:
            raise InvalidCurve("need at least two time nodes")
        if times[0] != 0.0 or times[-1] != 1.0:
            raise InvalidCurve("time grid must start at 0 and end at 1 exactly")
        if not np.all(np.diff(times) > 0):  # false for a NaN node as well
            raise InvalidCurve("time grid must be finite and strictly increasing")
        if len(points) != times.size:
            raise InvalidCurve(
                f"{len(points)} points for {times.size} time nodes"
            )
        times.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "points", points)

    @staticmethod
    def uniform(points: Sequence) -> "Curve":
        """Curve on the uniform grid with ``len(points)`` nodes."""
        pts = tuple(points)
        return Curve(np.linspace(0.0, 1.0, len(pts)), pts)

    @property
    def n_intervals(self) -> int:
        return self.times.size - 1

    def node_nearest(self, t: float) -> int:
        return int(np.argmin(np.abs(self.times - t)))


def geodesic_curve(backend: SpaceBackend, x, y, n_intervals: int) -> Curve:
    """Constant-speed backend geodesic sampled on a uniform grid."""
    ts = np.linspace(0.0, 1.0, n_intervals + 1)
    pts = [x] + backend.geodesic_points(x, y, ts[1:-1]) + [y]
    return Curve(ts, pts)


def _check_curve(backend: SpaceBackend, curve: Curve) -> None:
    first = curve.points[0]
    for p in curve.points:
        backend.check_point(p)
        if not backend.same_space(first, p):
            raise InvalidCurve("curve mixes points from different state spaces")


def kinetic_action(backend: SpaceBackend, curve: Curve) -> float:
    """Discrete 2-energy ``1/2 sum_i d(c_i, c_{i+1})^2 / dt_i``.

    For a constant-speed geodesic this equals ``1/2 d(c_0, c_1)^2`` on any
    grid; for arbitrary curves it dominates that value (Cauchy-Schwarz).
    """
    return kinetic_actions(backend, [curve])[0]


def kinetic_actions(backend: SpaceBackend, curves: Sequence[Curve]) -> list:
    """``kinetic_action`` of each curve, the chords of all of them from one
    ``backend.distances`` call."""
    curves = list(curves)
    for curve in curves:
        _check_curve(backend, curve)
    chords = backend.distances([p for c in curves for p in c.points[:-1]],
                               [p for c in curves for p in c.points[1:]]).tolist()
    out, start = [], 0
    for curve in curves:
        total = 0.0
        for chord, dt in zip(chords[start:], np.diff(curve.times)):
            total += chord * chord / dt
        start += curve.n_intervals
        out.append(0.5 * total)
    return out


def _trapezoid_weights(times: np.ndarray) -> np.ndarray:
    """Trapezoid-rule weight of each node of the time grid ``times``."""
    half = 0.5 * np.diff(times)
    return np.append(half, 0.0) + np.append(0.0, half)


def fisher_quadrature(backend: SpaceBackend, curve: Curve) -> float:
    """Trapezoid quadrature of ``1/2 |dE|^2`` along the curve; see
    ``fisher_action``."""
    _check_curve(backend, curve)
    ts = curve.times
    # a copy: the infinite end slopes are zeroed below
    slopes = np.array(backend.slopes(curve.points), dtype=float)
    bad = np.isnan(slopes) | (slopes < 0)
    if bad.any():
        raise SlopeUndefined(f"slope undefined at node {int(np.argmax(bad))}")
    weights = _trapezoid_weights(ts)
    for i in (0, ts.size - 1):
        if math.isinf(slopes[i]):
            weights[i] = 0.0
            slopes[i] = 0.0
    if np.any(np.isinf(slopes[1:-1])):
        return math.inf
    return 0.5 * float(np.sum(weights * slopes**2))


def fisher_action(backend: SpaceBackend, curve: Curve) -> float:
    """Halved Fisher information ``1/2 int |dE|^2(c_t) dt`` (trapezoid).

    Endpoint slopes may legitimately be infinite (the differential estimate
    behind this functional only controls the open interval); such an
    endpoint's trapezoid weight is dropped.  An infinite slope at an
    interior node makes the action infinite.
    """
    return fisher_quadrature(backend, curve)


def _check_eps(eps, square: bool = True):
    """``DomainError`` unless eps is finite and nonnegative and, with
    ``square``, eps^2 is finite and not 0 unless eps is: the solver divides
    by eps^2, and Python's ``eps**2`` raises where it overflows.  The
    action alone (``schrodinger_action``) is defined for any finite eps."""
    if not (math.isfinite(eps) and eps >= 0):
        raise DomainError(f"eps must be finite and nonnegative, got {eps}")
    if square and eps > 0 and eps * eps == 0.0:
        raise DomainError(f"eps = {eps} is too small: eps^2 underflows to 0")
    if square and eps * eps == math.inf:
        raise DomainError(f"eps = {eps} is too large: eps^2 overflows")


def _check_flow_time(s):
    if not (math.isfinite(s) and s >= 0):
        raise DomainError("flow time must be finite and nonnegative")


def schrodinger_action(backend: SpaceBackend, curve: Curve, eps: float) -> float:
    """Entropic action ``A + eps^2 * I`` of the dynamical Schrodinger problem."""
    _check_eps(eps, square=False)
    kin = kinetic_action(backend, curve)
    if eps == 0.0:
        return kin
    return kin + eps * eps * fisher_action(backend, curve)

