"""Temperature sweeps of the entropic cost and their diagnostics.

``sweep`` solves the Schrodinger problem for a list of eps values (in
descending order, warm-starting each solve from the previous minimizer)
and assembles a :class:`CostProfile` together with the eps = 0 reference
(the geodesic cost and the Fisher action of the geodesic).  On top of a
profile the module checks everything the theory predicts for
``eps -> cost_eps``:

* cost is non-decreasing and continuous in eps, Fisher is non-increasing
  (``fisher_monotonicity``),
* the derivative identity ``d/d eps cost = 2 eps I(omega_eps)``
  (``derivative_check``),
* the second-order expansion ``cost_eps = cost_0 + eps^2 I_0 + o(eps^2)``
  with its pointwise upper bound ``cost_eps - cost_0 <= eps^2 I_0``
  (``taylor_check``),
* Gamma-convergence diagnostics: costs converge to the geodesic cost,
  minimizers converge uniformly to the geodesic, and the recovery
  sequence's action gap closes (``gamma_diagnostics``),
* the endpoint-mollified variant for endpoints with huge entropy
  (``mollified_sweep``), which accepts a schedule ``eta(eps)`` only while
  the measured terms ``eps * (E(S_eta x) + E(S_eta y))`` keep decreasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .core import HatFunction, SpaceBackend, geodesic_curve
from .errors import DomainError, ProfileIncomplete, ScheduleRejected
from .regularizer import build as build_regularized
from .solver import (
    SchrodingerResult,
    SolverOptions,
    discrete_action,
    geodesic_cost,
    solve,
)

__all__ = [
    "CostProfile",
    "GammaReport",
    "TaylorReport",
    "derivative_check",
    "fisher_monotonicity",
    "gamma_diagnostics",
    "mollified_sweep",
    "sweep",
    "taylor_check",
]


@dataclass(frozen=True)
class ProfileRow:
    eps: float
    cost: float
    kinetic: float
    fisher: float
    converged: bool
    minimizer: object  # Curve handle

    def to_record(self) -> dict:
        return {
            "eps": self.eps,
            "cost": self.cost,
            "kinetic": self.kinetic,
            "fisher": self.fisher,
            "converged": self.converged,
        }


@dataclass(frozen=True)
class CostProfile:
    """Rows sorted by increasing eps plus the eps = 0 reference quantities."""

    rows: tuple
    cost_0: float
    fisher_0: float
    geodesic: object  # Curve handle of the eps = 0 minimizer

    def __post_init__(self):
        eps = [r.eps for r in self.rows]
        if any(e < 0 for e in eps):
            raise DomainError("profile eps values must be nonnegative")
        if any(e2 <= e1 for e1, e2 in zip(eps, eps[1:])):
            raise DomainError("profile rows must be strictly increasing in eps")

    @property
    def eps_values(self) -> np.ndarray:
        return np.array([r.eps for r in self.rows])

    def to_records(self) -> list:
        return [r.to_record() for r in self.rows]


def _result_row(res: SchrodingerResult) -> ProfileRow:
    return ProfileRow(res.eps, res.cost, res.kinetic, res.fisher,
                      res.converged, res.minimizer)


def sweep(backend: SpaceBackend, x, y, eps_list: Sequence[float],
          opts: Optional[SolverOptions] = None) -> CostProfile:
    """Solve for every eps (descending, warm-start chained) and collect rows.

    The eps = 0 reference is always computed; a 0 in ``eps_list`` simply
    also appears as a row.
    """
    eps_in = [float(e) for e in eps_list]
    eps_arr = sorted(set(eps_in))
    if not eps_arr:
        raise DomainError("eps_list must be nonempty")
    if eps_arr[0] < 0:
        raise DomainError("eps values must be nonnegative")
    if len(eps_arr) != len(eps_in):
        raise DomainError("eps values must be distinct")
    opts = opts or SolverOptions()

    ref = solve(backend, x, y, 0.0, opts)
    rows = []
    warm = opts
    for e in sorted(eps_arr, reverse=True):
        if e == 0.0:
            rows.append(_result_row(ref))
            continue
        res = solve(backend, x, y, e, warm)
        rows.append(_result_row(res))
        warm = replace(opts, warm_start=res)
    rows.sort(key=lambda r: r.eps)
    return CostProfile(tuple(rows), ref.cost, ref.fisher, ref.minimizer)


def fisher_monotonicity(profile: CostProfile) -> float:
    """Worst violation of the Fisher action being non-increasing in eps.

    Returns ``max fisher(eps2) - fisher(eps1)`` over consecutive converged
    rows with ``eps1 < eps2`` (nonpositive when the monotonicity holds).
    """
    rows = [r for r in profile.rows if r.converged]
    if len(rows) < 2:
        raise ProfileIncomplete("need at least two converged rows")
    return max(r2.fisher - r1.fisher for r1, r2 in zip(rows, rows[1:]))


def derivative_check(profile: CostProfile) -> list:
    """Residuals of the envelope identity at every interior eps row:
    ``|(cost(eps+) - cost(eps-)) / (eps+ - eps-) - 2 eps fisher(eps)|``."""
    rows = profile.rows
    if len(rows) < 3:
        raise ProfileIncomplete("need at least three rows")
    out = []
    for prev, cur, nxt in zip(rows, rows[1:], rows[2:]):
        quotient = (nxt.cost - prev.cost) / (nxt.eps - prev.eps)
        out.append(abs(quotient - 2.0 * cur.eps * cur.fisher))
    return out


@dataclass(frozen=True)
class TaylorReport:
    ratios: tuple          # (eps, (cost_eps - cost_0) / eps^2), increasing eps
    limit_estimate: float  # ratio at the smallest positive eps
    fisher_0: float
    rel_error: float       # |limit_estimate - fisher_0| / fisher_0
    monotone_approach: bool
    pointwise_bound_ok: bool
    passed: bool


def taylor_check(profile: CostProfile, rel_tol: float = 0.05,
                 bound_slack: float = 1e-3) -> TaylorReport:
    """Second-order expansion check: ``(cost_eps - cost_0)/eps^2 -> I_0``.

    Passes when the ratio at the smallest eps is within ``rel_tol`` of the
    geodesic Fisher action, the approach is monotone along the sweep, and
    the pointwise bound ``cost_eps - cost_0 <= eps^2 I_0 + slack`` holds on
    every row.
    """
    if not math.isfinite(profile.fisher_0):
        raise ProfileIncomplete("reference Fisher action is not finite")
    pos = [r for r in profile.rows if r.eps > 0]
    if not pos:
        raise ProfileIncomplete("profile has no positive-eps rows")
    i0 = profile.fisher_0
    ratios = tuple((r.eps, (r.cost - profile.cost_0) / r.eps**2) for r in pos)
    gaps = [abs(rat - i0) for _, rat in ratios]
    monotone = all(g1 <= g2 + 1e-12 for g1, g2 in zip(gaps, gaps[1:]))
    bound_ok = all(
        r.cost - profile.cost_0 <= r.eps**2 * i0 + bound_slack for r in pos
    )
    limit = ratios[0][1]
    rel = abs(limit - i0) / abs(i0) if i0 != 0 else abs(limit)
    passed = rel <= rel_tol and monotone and bound_ok
    return TaylorReport(ratios, limit, i0, rel, monotone, bound_ok, passed)


@dataclass(frozen=True)
class GammaReport:
    eps: tuple
    cost_gaps: tuple          # cost_eps - cost_0, should shrink to 0
    minimizer_deviation: tuple  # max_t d(omega^eps_t, geodesic_t)
    recovery_gaps: tuple      # A_eps(recovery curve) - cost_eps >= 0, -> 0
    cost_gap_decreasing: bool
    deviation_decreasing: bool
    recovery_nonnegative: bool
    passed: bool


def gamma_diagnostics(backend: SpaceBackend, x, y, eps_list: Sequence[float],
                      opts: Optional[SolverOptions] = None,
                      profile: Optional[CostProfile] = None,
                      slack: float = 1e-9) -> GammaReport:
    """Quantitative Gamma-convergence record over a descending eps sweep.

    Uses ``profile`` when given (so sweeps are not re-run), otherwise runs
    one.  The recovery curve at each eps is built from the eps = 0
    minimizer with the tent profile and evaluated by the same discrete
    action the solver minimizes, so its gap to ``cost_eps`` is nonnegative
    by construction and must close as eps drops.
    """
    opts = opts or SolverOptions()
    if profile is None:
        profile = sweep(backend, x, y, eps_list, opts)
    pos = [r for r in profile.rows if r.eps > 0]
    pos_desc = list(reversed(pos))  # descending eps, the sweep direction

    geo = profile.geodesic
    eps_out, gaps, devs, rec = [], [], [], []
    for row in pos_desc:
        eps_out.append(row.eps)
        gaps.append(row.cost - profile.cost_0)
        devs.append(float(np.max(backend.distances(row.minimizer.points, geo.points))))
        reg = build_regularized(backend, geo, HatFunction.with_slope(row.eps))
        rec.append(discrete_action(backend, reg.tilde, row.eps, opts) - row.cost)

    gap_dec = all(g2 < g1 + slack for g1, g2 in zip(gaps, gaps[1:]))
    dev_dec = all(d2 < d1 + slack for d1, d2 in zip(devs, devs[1:]))
    rec_ok = all(g >= -max(slack, 1e-6) for g in rec)
    positive = all(g > 0 for g in gaps)
    passed = gap_dec and dev_dec and rec_ok and positive
    return GammaReport(
        tuple(eps_out), tuple(gaps), tuple(devs), tuple(rec),
        gap_dec, dev_dec, rec_ok, passed,
    )


def mollified_sweep(backend: SpaceBackend, x, y, eps_list: Sequence[float],
                    schedule: Callable[[float], float],
                    opts: Optional[SolverOptions] = None,
                    term_tol: float = 1e-3) -> CostProfile:
    """Sweep with endpoints mollified by the flow: ``x_n = S_{eta_n} x``.

    ``schedule`` maps eps to the mollification time eta >= 0.  The sweep
    verifies the measured condition terms ``eps * (E(x_n) + E(y_n))`` keep
    decreasing toward zero along descending eps: a term that both exceeds
    ``term_tol`` and its predecessor signals a schedule shrinking too fast
    (the endpoints sharpen faster than eps decays) and raises
    :class:`ScheduleRejected`.  Cost rows then track the solves between
    the mollified endpoints; the reference ``cost_0`` is the geodesic cost
    between the *original* endpoints, the value the mollified costs must
    approach.
    """
    eps_desc = sorted(set(float(e) for e in eps_list), reverse=True)
    if not eps_desc or eps_desc[-1] < 0:
        raise DomainError("eps_list must be nonempty and nonnegative")
    opts = opts or SolverOptions()

    prev_term = math.inf
    mollified = []
    for e in eps_desc:
        if e == 0.0:
            continue
        eta = float(schedule(e))
        if eta < 0:
            raise DomainError("mollification times must be nonnegative")
        xe = backend.flow(x, eta) if eta > 0 else x
        ye = backend.flow(y, eta) if eta > 0 else y
        term = e * (backend.entropy(xe) + backend.entropy(ye))
        if term > term_tol and term > prev_term + 1e-12:
            raise ScheduleRejected(
                f"condition term grew from {prev_term:.6g} to {term:.6g} "
                f"at eps={e:.6g} (eta={eta:.6g}); slow the schedule down"
            )
        prev_term = term
        mollified.append((e, xe, ye))

    # reference between the original endpoints
    geo = geodesic_curve(backend, x, y, opts.n_time + 1)
    cost0 = geodesic_cost(backend, x, y)

    rows = []
    for e, xe, ye in mollified:
        res = solve(backend, xe, ye, e, opts)
        rows.append(_result_row(res))
    rows.sort(key=lambda r: r.eps)
    return CostProfile(tuple(rows), cost0, math.inf, geo)
