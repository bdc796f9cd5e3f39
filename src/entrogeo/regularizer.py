"""Entropic regularization of curves and its energy certificates.

Given a curve ``c`` and a vertical-time profile ``h >= 0`` vanishing at the
endpoints, the regularized copy runs the entropy flow for time ``h(t)`` at
every node:

    c~_t = S_{h(t)} c_t .

Smoothing each node separately costs kinetic energy in a precisely
quantified way.  This module evaluates the defect of those estimates on a
backend, three energy certificates plus the convexity extraction:

* ``discrete_estimate_residual``  the exact two-point inequality relating
  the chord of ``c~`` between any two times to the chord of ``c``, the
  slope at the more-smoothed node, and the entropy increment,
* ``pointwise_estimate_residual`` its differential (central-difference)
  version ``1/2|c~'|^2 + 1/2 h'^2 |dE|^2(c~) + h' dE(c~)/dt
  <= 1/2 e^{-2 lam h} |c'|^2``,
* ``recovery_gap``  the integrated bound for the tent profile
  ``h_eps(t) = eps min(t, 1-t)``:
  ``A(c~) + eps^2 I(c~) <= e^{lam^- eps} A(c) - 2 eps E(c~_{1/2})
  + eps (E(c_0) + E(c_1))``, which also shows the regularized geodesic is an
  eps-good competitor for the Schrodinger problem (Gamma-limsup bound),
* ``convexity_certificate``  lambda-convexity of the entropy along
  backend geodesics, the property the regularization machinery extracts
  from contractivity of the flow.

``discrete_estimate_residuals`` and ``pointwise_estimate_residuals`` cover
many node pairs or nodes at once, with one ``backend.distances`` call per
curve; the single-pair functions wrap them.

Residuals are ``LHS - RHS`` for the inequalities (so defects are positive)
and ``RHS - LHS`` for the recovery bound (gap should be nonnegative).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .core import (
    Curve,
    HatFunction,
    SpaceBackend,
    fisher_action,
    kinetic_action,
)
from .errors import DomainError, EndpointEntropyInfinite

__all__ = [
    "RegularizedCurve",
    "build",
    "convexity_certificate",
    "discrete_estimate_residual",
    "discrete_estimate_residuals",
    "pointwise_estimate_residual",
    "pointwise_estimate_residuals",
    "recovery_gap",
]

HProfile = Union[HatFunction, Sequence[float], np.ndarray]


@dataclass(frozen=True)
class RegularizedCurve:
    """A base curve, its vertical-time profile, and the smoothed copy."""

    base: Curve
    h: np.ndarray
    tilde: Curve

    @property
    def times(self) -> np.ndarray:
        return self.base.times


def _h_values(h: HProfile, times: np.ndarray) -> np.ndarray:
    if isinstance(h, HatFunction):
        vals = h(times)
    else:
        vals = np.asarray(h, dtype=float).copy()
        if vals.shape != times.shape:
            raise DomainError("per-node h values must match the time grid")
    if np.any(vals < 0):
        raise DomainError("vertical times h must be nonnegative")
    return vals


def build(backend: SpaceBackend, base: Curve, h: HProfile) -> RegularizedCurve:
    """Flow every node of ``base`` for its vertical time ``h(t_i)``, all
    nodes in one ``backend.flows`` call.

    Nodes with ``h = 0`` are reused as-is, so vanishing endpoint profiles
    preserve the endpoints bitwise.
    """
    hv = _h_values(h, base.times)
    pts = list(base.points)
    moved = np.flatnonzero(hv).tolist()
    for i, p in zip(moved, backend.flows([pts[i] for i in moved], hv[moved].tolist())):
        pts[i] = p
    hv.setflags(write=False)
    return RegularizedCurve(base, hv, Curve(base.times, pts))


def _cosh_coef(lam: float, dh: float) -> float:
    """(e^{lam dh} + e^{-lam dh} - 2) / (2 lam^2), with its lam -> 0 limit."""
    if abs(lam) < 1e-8:
        return 0.5 * dh * dh
    return (math.exp(lam * dh) + math.exp(-lam * dh) - 2.0) / (2.0 * lam * lam)


def _exp_coef(lam: float, dh_plus: float, dt_plus: float) -> float:
    """(1 - e^{-lam (h+ - h-)}) / (lam (t+ - t-)), with its lam -> 0 limit."""
    if abs(lam) < 1e-8:
        return dh_plus / dt_plus
    return (1.0 - math.exp(-lam * dh_plus)) / (lam * dt_plus)


def discrete_estimate_residual(backend: SpaceBackend, reg: RegularizedCurve,
                               i: int, j: int) -> Optional[float]:
    """LHS - RHS of the exact two-point smoothing estimate for nodes i < j.

    Returns ``None`` (not applicable) when the slope at the more-smoothed
    node is infinite while the vertical times differ, the one case the
    estimate's ``inf * 0 = 0`` convention does not cover.  When both
    vertical times vanish the inequality degenerates to the trivial
    equality ``d(c_1, c_0)^2 <= d(c_1, c_0)^2`` and the residual is zero.
    """
    N = reg.times.size - 1
    if not 0 <= i < j <= N:
        raise DomainError(f"need 0 <= i < j <= {N}, got ({i}, {j})")
    return _estimate_residuals(backend, reg, [(i, j)])[(i, j)]


def discrete_estimate_residuals(backend: SpaceBackend,
                                reg: RegularizedCurve) -> dict:
    """``discrete_estimate_residual`` of every node pair ``i < j``, keyed by
    ``(i, j)`` in lexicographic order.

    The chords of each curve come from one ``backend.distances`` call, and
    the entropy and slope of each node are evaluated once.
    """
    N = reg.times.size - 1
    return _estimate_residuals(
        backend, reg, [(i, j) for i in range(N + 1) for j in range(i + 1, N + 1)])


def _estimate_residuals(backend: SpaceBackend, reg: RegularizedCurve,
                        pairs: list) -> dict:
    """Two-point estimate residual of each ``(i, j)`` in ``pairs``; the
    entropy and slope of a node are evaluated at most once."""
    lam = backend.lam
    times = reg.times.tolist()
    h = reg.h.tolist()
    tilde, base = reg.tilde.points, reg.base.points
    slopes, entropies = {}, {}

    def node_slope(k):
        if k not in slopes:
            slopes[k] = backend.slope(tilde[k])
        return slopes[k]

    def node_entropy(k):
        if k not in entropies:
            entropies[k] = backend.entropy(tilde[k])
        return entropies[k]

    def smoother(i, j):
        """The more-smoothed node of the pair and the other one."""
        return (j, i) if h[j] >= h[i] else (i, j)

    out = dict.fromkeys(pairs)  # None: not applicable
    live = [(i, j) for i, j in pairs
            if h[i] == h[j] or not math.isinf(node_slope(smoother(i, j)[0]))]
    if not live:
        return out
    d_tilde = backend.distances([tilde[i] for i, _ in live], [tilde[j] for _, j in live])
    d_base = backend.distances([base[i] for i, _ in live], [base[j] for _, j in live])
    for (i, j), dtil, dbase in zip(live, map(float, d_tilde), map(float, d_base)):
        h0, h1 = h[i], h[j]
        dt = times[j] - times[i]
        ip, im = smoother(i, j)
        slope_p = node_slope(ip)
        if math.isinf(slope_p):
            slope_term = 0.0  # the inf * 0 = 0 convention, as h0 == h1
        else:
            slope_term = slope_p**2 * _cosh_coef(lam, h1 - h0) / (dt * dt)
        if h0 == h1:
            energy_term = 0.0  # exponential factor vanishes with h+ = h-
        else:
            energy_term = (_exp_coef(lam, h[ip] - h[im], times[ip] - times[im])
                           * (node_entropy(j) - node_entropy(i)) / dt)
        lhs = 0.5 * (dtil / dt) ** 2 + slope_term + energy_term
        rhs = 0.5 * math.exp(-lam * (h0 + h1)) * (dbase / dt) ** 2
        out[i, j] = lhs - rhs
    return out


def pointwise_estimate_residual(backend: SpaceBackend, reg: RegularizedCurve,
                                i: int) -> float:
    """Central-difference residual of the differential smoothing estimate
    at interior node ``i`` (speed, entropy derivative, and h' all over the
    span ``[t_{i-1}, t_{i+1}]``)."""
    return pointwise_estimate_residuals(backend, reg, [i])[i]


def pointwise_estimate_residuals(backend: SpaceBackend, reg: RegularizedCurve,
                                 nodes: Sequence[int]) -> dict:
    """``pointwise_estimate_residual`` of each interior node in ``nodes``,
    keyed by node; the chords of each curve come from one
    ``backend.distances`` call."""
    N = reg.times.size - 1
    nodes = [int(i) for i in nodes]
    for i in nodes:
        if not 0 < i < N:
            raise DomainError(f"need an interior node, got {i} of 0..{N}")
    lam = backend.lam
    tilde, base = reg.tilde.points, reg.base.points
    d_tilde = backend.distances([tilde[i - 1] for i in nodes], [tilde[i + 1] for i in nodes])
    d_base = backend.distances([base[i - 1] for i in nodes], [base[i + 1] for i in nodes])
    out = {}
    for i, dtil, dbase in zip(nodes, d_tilde.tolist(), d_base.tolist()):
        span = float(reg.times[i + 1] - reg.times[i - 1])
        speed_tilde = dtil / span
        hprime = (reg.h[i + 1] - reg.h[i - 1]) / span
        dedt = (backend.entropy(tilde[i + 1]) - backend.entropy(tilde[i - 1])) / span
        lhs = (
            0.5 * speed_tilde**2
            + 0.5 * hprime**2 * backend.slope(tilde[i]) ** 2
            + hprime * dedt
        )
        speed_base = dbase / span
        rhs = 0.5 * math.exp(-2.0 * lam * float(reg.h[i])) * speed_base**2
        out[i] = lhs - rhs
    return out


def recovery_gap(backend: SpaceBackend, base: Curve, eps: float) -> float:
    """RHS - LHS of the integrated recovery bound for ``h(t) = eps min(t, 1-t)``.

    LHS is the entropic action of the regularized curve, RHS the bound
    ``e^{lam^- eps} A(c) - 2 eps E(c~_{1/2}) + eps (E(c_0) + E(c_1))``.
    A nonnegative gap certifies the recovery sequence used both in the
    Gamma-limsup argument and as the solver warm start.
    """
    if eps < 0:
        raise DomainError("eps must be nonnegative")
    e_ends = [backend.entropy(base.points[0]), backend.entropy(base.points[-1])]
    if not all(map(math.isfinite, e_ends)):
        raise EndpointEntropyInfinite(
            "recovery bound needs finite endpoint entropies; mollify first"
        )
    kin_base = kinetic_action(backend, base)
    if eps == 0.0:
        return 0.0
    reg = build(backend, base, HatFunction.with_slope(eps))
    lhs = kinetic_action(backend, reg.tilde) + eps**2 * fisher_action(backend, reg.tilde)
    lam_minus = max(-backend.lam, 0.0)
    mid = reg.tilde.points[base.node_nearest(0.5)]
    rhs = (
        math.exp(lam_minus * eps) * kin_base
        - 2.0 * eps * backend.entropy(mid)
        + eps * (e_ends[0] + e_ends[1])
    )
    return rhs - lhs


def convexity_certificate(backend: SpaceBackend, x, y, theta_grid) -> float:
    """Worst violation of lambda-convexity of E along the backend geodesic:

        E(g_theta) <= (1-theta) E(x) + theta E(y)
                      - lam/2 theta (1-theta) d(x, y)^2 .
    """
    theta_grid = np.asarray(theta_grid, dtype=float)
    if np.any((theta_grid < 0) | (theta_grid > 1)):
        raise DomainError("theta grid must lie in [0, 1]")
    lam = backend.lam
    ex, ey = backend.entropy(x), backend.entropy(y)
    d2 = backend.distance(x, y) ** 2
    inner = [float(th) for th in theta_grid if 0.0 < th < 1.0]
    # the endpoints satisfy the inequality with equality
    worst = 0.0 if len(inner) < theta_grid.size else -math.inf
    for th, g in zip(inner, backend.geodesic_points(x, y, inner)):
        e_mid = backend.entropy(g)
        bound = (1 - th) * ex + th * ey - 0.5 * lam * th * (1 - th) * d2
        worst = max(worst, e_mid - bound)
    return worst
