"""Entropic regularization of curves and its energy certificates.

Given a curve ``c`` and a slope ``eps >= 0``, the regularized copy runs the
entropy flow for the tent time ``h_eps(t) = eps min(t, 1-t)`` at every node:

    c~_t = S_{h_eps(t)} c_t .

The tent vanishes at the endpoints and has side slopes ``+-eps``.  With a
geodesic ``c`` this is the recovery curve of the Gamma-limsup bound and the
solver's cold start.

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

The plural forms cover many node pairs, nodes or eps at once and the
single forms wrap them: ``discrete_estimate_residuals`` and
``pointwise_estimate_residuals`` take the chords of the regularized and the
base curve from one ``backend.distances`` call, ``recovery_gaps`` flows the
nodes of every eps in one ``builds`` call (``backend.flows``) and takes all
their chords from one ``kinetic_actions`` call.

Residuals are ``LHS - RHS`` for the inequalities (so defects are positive)
and ``RHS - LHS`` for the recovery bound (gap should be nonnegative).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    Curve,
    SpaceBackend,
    _check_eps,
    fisher_action,
    kinetic_action,
    kinetic_actions,
)
from .errors import DomainError, EndpointEntropyInfinite

__all__ = [
    "RegularizedCurve",
    "build",
    "builds",
    "convexity_certificate",
    "discrete_estimate_residual",
    "discrete_estimate_residuals",
    "pointwise_estimate_residual",
    "pointwise_estimate_residuals",
    "recovery_gap",
    "recovery_gaps",
]

@dataclass(frozen=True, eq=False)
class RegularizedCurve:
    """A base curve, its vertical times ``h`` at the nodes, and the
    smoothed copy.

    It holds curves, so ``==`` and ``hash`` go by identity."""

    base: Curve
    h: np.ndarray
    tilde: Curve

    @property
    def times(self) -> np.ndarray:
        return self.base.times


def build(backend: SpaceBackend, base: Curve, eps: float) -> RegularizedCurve:
    """Flow every node of ``base`` for its tent time
    ``h_eps(t_i) = eps min(t_i, 1 - t_i)``, all nodes in one
    ``backend.flows`` call.

    ``eps`` is the tent's side slope, so its peak is ``eps / 2``.  A
    negative or non-finite ``eps`` raises ``DomainError``.  The tent
    vanishes at t = 0 and t = 1, and nodes with ``h = 0`` are reused
    as-is, so the endpoints are preserved bitwise.
    """
    return builds(backend, base, [eps])[0]


def builds(backend: SpaceBackend, base: Curve, eps_list: Sequence[float]) -> list:
    """``build`` of ``base`` for each tent slope of ``eps_list``, the nodes
    of every profile flowed in one ``backend.flows`` call."""
    tent = np.minimum(base.times, 1.0 - base.times)
    hvs = []
    for eps in eps_list:
        _check_eps(eps)
        hvs.append(eps * tent)
    moved = [np.flatnonzero(hv).tolist() for hv in hvs]
    flowed = iter(backend.flows([base.points[i] for m in moved for i in m],
                                [s for hv, m in zip(hvs, moved) for s in hv[m].tolist()]))
    out = []
    for hv, m in zip(hvs, moved):
        pts = list(base.points)
        for i in m:
            pts[i] = next(flowed)
        hv.setflags(write=False)
        out.append(RegularizedCurve(base, hv, Curve(base.times, pts)))
    return out


def _libm(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` of each element of ``x`` on Python floats.

    Python's ``math.exp`` and ``v ** 2`` call libm's ``exp`` and ``pow``,
    which can round an ulp away from numpy's vectorized ``exp`` and
    ``x * x``; mapping the scalar function keeps the scalar formula's
    bytes.
    """
    return np.fromiter(map(fn, x.tolist()), float, x.size)


def _square(x: np.ndarray) -> np.ndarray:
    return _libm(lambda v: v ** 2, x)


def _cosh_coef(lam: float, dh: np.ndarray) -> np.ndarray:
    """(e^{lam dh} + e^{-lam dh} - 2) / (2 lam^2) of each ``dh``, with its
    lam -> 0 limit."""
    if abs(lam) < 1e-8:
        return 0.5 * dh * dh
    return (_libm(math.exp, lam * dh) + _libm(math.exp, -lam * dh) - 2.0) / (2.0 * lam * lam)


def _exp_coef(lam: float, dh_plus: np.ndarray, dt_plus: np.ndarray) -> np.ndarray:
    """(1 - e^{-lam (h+ - h-)}) / (lam (t+ - t-)) of each pair, with its
    lam -> 0 limit."""
    if abs(lam) < 1e-8:
        return dh_plus / dt_plus
    return (1.0 - _libm(math.exp, -lam * dh_plus)) / (lam * dt_plus)


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
    """Two-point estimate residual of each ``(i, j)`` in ``pairs``.

    The entropy and slope of a node are evaluated at most once, the chords
    of both curves come from one ``backend.distances`` call, and the
    formula runs in numpy over the applicable pairs in the order of its
    scalar form, with libm's ``exp`` and ``pow`` where that form calls them.
    """
    out = dict.fromkeys(pairs)  # None: not applicable
    lam, t, h = backend.lam, reg.times, reg.h
    tilde, base = reg.tilde.points, reg.base.points
    i, j = np.array(pairs).T
    # the more-smoothed node of each pair and the other one
    ip = np.where(h[j] >= h[i], j, i)
    im = i + j - ip
    slope = {k: backend.slope(tilde[k]) for k in dict.fromkeys(ip.tolist())}
    slope_p = np.array([slope[k] for k in ip.tolist()])
    live = (h[i] == h[j]) | ~np.isinf(slope_p)
    if not live.any():
        return out
    i, j, ip, im, slope_p = i[live], j[live], ip[live], im[live], slope_p[live]
    L = i.size
    chords = backend.distances([tilde[k] for k in i.tolist()] + [base[k] for k in i.tolist()],
                               [tilde[k] for k in j.tolist()] + [base[k] for k in j.tolist()])
    h0, h1 = h[i], h[j]
    dt = t[j] - t[i]
    slope_term = np.zeros(L)  # the inf * 0 = 0 convention, as h0 == h1
    fin = ~np.isinf(slope_p)
    slope_term[fin] = (_square(slope_p[fin]) * _cosh_coef(lam, h1[fin] - h0[fin])
                       / (dt[fin] * dt[fin]))
    energy_term = np.zeros(L)  # exponential factor vanishes with h+ = h-
    moves = h0 != h1
    if moves.any():
        i, j, ip, im = i[moves], j[moves], ip[moves], im[moves]
        nodes = dict.fromkeys(np.concatenate([i, j]).tolist())
        entropy = np.zeros(len(h))
        entropy[list(nodes)] = [backend.entropy(tilde[k]) for k in nodes]
        energy_term[moves] = (_exp_coef(lam, h[ip] - h[im], t[ip] - t[im])
                              * (entropy[j] - entropy[i]) / dt[moves])
    lhs = 0.5 * _square(chords[:L] / dt) + slope_term + energy_term
    rhs = 0.5 * _libm(math.exp, -lam * (h0 + h1)) * _square(chords[L:] / dt)
    for pair, res in zip(itertools.compress(pairs, live.tolist()), (lhs - rhs).tolist()):
        out[pair] = res
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
    keyed by node; the chords of both curves come from one
    ``backend.distances`` call."""
    N = reg.times.size - 1
    nodes = [int(i) for i in nodes]
    for i in nodes:
        if not 0 < i < N:
            raise DomainError(f"need an interior node, got {i} of 0..{N}")
    lam = backend.lam
    tilde, base = reg.tilde.points, reg.base.points
    chords = backend.distances(
        [tilde[i - 1] for i in nodes] + [base[i - 1] for i in nodes],
        [tilde[i + 1] for i in nodes] + [base[i + 1] for i in nodes]).tolist()
    out = {}
    for i, dtil, dbase in zip(nodes, chords, chords[len(nodes):]):
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
    Gamma-limsup argument and as the solver's cold start.
    """
    return recovery_gaps(backend, base, [eps])[0]


def recovery_gaps(backend: SpaceBackend, base: Curve, eps_list: Sequence[float]) -> list:
    """``recovery_gap`` of each eps of ``eps_list``.

    ``A(c)`` is evaluated once, the nodes of every regularized curve are
    flowed in one ``backend.flows`` call and their chords come from one
    ``backend.distances`` call.
    """
    eps_list = list(eps_list)
    for eps in eps_list:
        _check_eps(eps)
    e_ends = [backend.entropy(base.points[0]), backend.entropy(base.points[-1])]
    if not all(map(math.isfinite, e_ends)):
        raise EndpointEntropyInfinite(
            "recovery bound needs finite endpoint entropies; mollify first"
        )
    kin_base = kinetic_action(backend, base)
    live = [eps for eps in eps_list if eps != 0.0]
    regs = builds(backend, base, live)
    kins = kinetic_actions(backend, [reg.tilde for reg in regs])
    lam_minus = max(-backend.lam, 0.0)
    gaps = {}
    for eps, reg, kin in zip(live, regs, kins):
        lhs = kin + eps**2 * fisher_action(backend, reg.tilde)
        mid = reg.tilde.points[base.node_nearest(0.5)]
        rhs = (
            math.exp(lam_minus * eps) * kin_base
            - 2.0 * eps * backend.entropy(mid)
            + eps * (e_ends[0] + e_ends[1])
        )
        gaps[eps] = rhs - lhs
    return [gaps.get(eps, 0.0) for eps in eps_list]


def convexity_certificate(backend: SpaceBackend, x, y, theta_grid) -> float:
    """Worst violation of lambda-convexity of E along the backend geodesic:

        E(g_theta) <= (1-theta) E(x) + theta E(y)
                      - lam/2 theta (1-theta) d(x, y)^2 .
    """
    theta_grid = np.asarray(theta_grid, dtype=float)
    if not np.all((theta_grid >= 0) & (theta_grid <= 1)):
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
