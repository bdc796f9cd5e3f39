"""Temperature sweeps of the entropic cost and their diagnostics.

``sweep`` solves the Schrodinger problem for a list of eps values (in
descending order, each solve starting from the decision vector of the one
before) and assembles a :class:`CostProfile`: the solver's own
:class:`~entrogeo.solver.SchrodingerResult` for every eps (less its
decision vector, which only the chained warm start reads), together with
the eps = 0 reference (the geodesic cost and the Fisher action of the
geodesic).  The sweep always solves eps = 0 itself, so no diagnostic needs
a 0 in the eps list.  On top of a profile the module checks everything the
theory predicts for ``eps -> cost_eps``:

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

from .core import SpaceBackend, geodesic_curve
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


# a mollified sweep rejects a schedule whose condition term grows above this
_TERM_TOL = 1e-3
# taylor_check: relative tolerance of the limit ratio to I_0, and slack of
# the pointwise bound cost_eps - cost_0 <= eps^2 I_0
_TAYLOR_REL_TOL = 0.05
_TAYLOR_SLACK = 1e-3


def _descending_eps(eps_list: Sequence[float]) -> list:
    """``eps_list`` in descending order, the order a sweep solves it in;
    ``DomainError`` unless it is nonempty, finite, nonnegative and distinct."""
    eps = sorted((float(e) for e in eps_list), reverse=True)
    if not eps:
        raise DomainError("eps_list must be nonempty")
    if not all(math.isfinite(e) and e >= 0 for e in eps):
        raise DomainError("eps values must be finite and nonnegative")
    if len(set(eps)) != len(eps):
        raise DomainError("eps values must be distinct")
    return eps


@dataclass(frozen=True)
class CostProfile:
    """The solver's results sorted by increasing eps, plus the eps = 0
    reference quantities.

    ``rows`` holds the :class:`~entrogeo.solver.SchrodingerResult` of every
    solve as returned, and ``to_records`` gives each its own ``to_record()``,
    the record a single solve writes.  ``opts`` are the solver options the
    rows were solved with: ``gamma_diagnostics`` scores its recovery curves
    with the discrete action they define.
    """

    rows: tuple  # of SchrodingerResult
    cost_0: float
    fisher_0: float
    geodesic: object  # Curve handle of the eps = 0 minimizer
    opts: SolverOptions

    def __post_init__(self):
        eps = [r.eps for r in self.rows]
        if any(e < 0 for e in eps):
            raise DomainError("profile eps values must be nonnegative")
        if any(e2 <= e1 for e1, e2 in zip(eps, eps[1:])):
            raise DomainError("profile rows must be strictly increasing in eps")

    def to_records(self) -> list:
        return [r.to_record() for r in self.rows]


def _row(res: SchrodingerResult) -> SchrodingerResult:
    """A profile row: the result without its decision vector, which only
    the next solve's warm start reads (a row cannot warm-start a solve)."""
    return replace(res, decision=None)


def sweep(backend: SpaceBackend, x, y, eps_list: Sequence[float],
          opts: Optional[SolverOptions] = None) -> CostProfile:
    """Solve for every eps (descending) and collect the results.

    The largest eps starts from ``opts.warm_start``, by default cold from
    its recovery curve; each smaller one
    starts from the decision vector of the solve before it
    (``SolverOptions(warm_start=<previous result>)``).

    ``eps_list`` must be nonempty, nonnegative and without repeats
    (``DomainError`` otherwise).  The eps = 0 reference is always computed;
    a 0 in ``eps_list`` simply also appears as a row.
    """
    eps_desc = _descending_eps(eps_list)
    opts = opts or SolverOptions()

    ref = solve(backend, x, y, 0.0, opts)
    rows = []
    warm = opts
    for e in eps_desc:
        if e == 0.0:
            rows.append(_row(ref))
            continue
        res = solve(backend, x, y, e, warm)
        rows.append(_row(res))
        warm = replace(opts, warm_start=res)
    rows.sort(key=lambda r: r.eps)
    return CostProfile(tuple(rows), ref.cost, ref.fisher, ref.minimizer, opts)


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


def taylor_check(profile: CostProfile) -> TaylorReport:
    """Second-order expansion check: ``(cost_eps - cost_0)/eps^2 -> I_0``.

    Passes when the ratio at the smallest eps is within ``_TAYLOR_REL_TOL``
    of the geodesic Fisher action, the approach is monotone along the
    sweep, and the pointwise bound ``cost_eps - cost_0 <= eps^2 I_0 +
    _TAYLOR_SLACK`` holds on every row.
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
        r.cost - profile.cost_0 <= r.eps**2 * i0 + _TAYLOR_SLACK for r in pos
    )
    limit = ratios[0][1]
    rel = abs(limit - i0) / abs(i0) if i0 != 0 else abs(limit)
    passed = rel <= _TAYLOR_REL_TOL and monotone and bound_ok
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


def gamma_diagnostics(backend: SpaceBackend, profile: CostProfile) -> GammaReport:
    """Quantitative Gamma-convergence record over the positive-eps rows of
    ``profile``, in descending eps.

    The recovery curve at each eps is built from the eps = 0 minimizer with
    the tent profile and evaluated by the discrete action of
    ``profile.opts``, the one the rows' solves minimized, so its gap to
    ``cost_eps`` is nonnegative by construction and must close as eps
    drops.  Cost gaps and deviations may grow by 1e-9 from row to row and
    recovery gaps dip to -1e-6, for roundoff.  A profile without a
    positive-eps row raises ``ProfileIncomplete``.
    """
    pos = [r for r in profile.rows if r.eps > 0]
    if not pos:
        raise ProfileIncomplete("profile has no positive-eps rows")
    pos_desc = list(reversed(pos))  # descending eps, the sweep direction

    geo = profile.geodesic
    eps_out, gaps, devs, rec = [], [], [], []
    for row in pos_desc:
        eps_out.append(row.eps)
        gaps.append(row.cost - profile.cost_0)
        devs.append(float(np.max(backend.distances(row.minimizer.points, geo.points))))
        reg = build_regularized(backend, geo, row.eps)
        rec.append(discrete_action(backend, reg.tilde, row.eps, profile.opts) - row.cost)

    gap_dec = all(g2 < g1 + 1e-9 for g1, g2 in zip(gaps, gaps[1:]))
    dev_dec = all(d2 < d1 + 1e-9 for d1, d2 in zip(devs, devs[1:]))
    rec_ok = all(g >= -1e-6 for g in rec)
    positive = all(g > 0 for g in gaps)
    passed = gap_dec and dev_dec and rec_ok and positive
    return GammaReport(
        tuple(eps_out), tuple(gaps), tuple(devs), tuple(rec),
        gap_dec, dev_dec, rec_ok, passed,
    )


def mollified_sweep(backend: SpaceBackend, x, y, eps_list: Sequence[float],
                    schedule: Callable[[float], float],
                    opts: Optional[SolverOptions] = None) -> CostProfile:
    """Sweep with endpoints mollified by the flow: ``x_n = S_{eta_n} x``.

    ``eps_list`` follows the rule of ``sweep`` (nonempty, nonnegative, no
    repeats) and must hold a positive eps; an eps = 0 in it gets no row,
    since the reference below stands for it.  ``schedule`` maps eps to the
    mollification time eta, finite and >= 0.  The sweep verifies the
    measured condition terms ``eps * (E(x_n) + E(y_n))`` keep decreasing
    toward zero along descending eps: a term that both exceeds ``_TERM_TOL`` = 1e-3 and its
    predecessor signals a schedule shrinking too fast (the endpoints
    sharpen faster than eps decays) and raises :class:`ScheduleRejected`.
    Cost rows then track the solves between the mollified endpoints; the
    reference ``cost_0`` is the geodesic cost between the *original*
    endpoints, the value the mollified costs must approach.
    """
    eps_desc = _descending_eps(eps_list)
    opts = opts or SolverOptions()

    eps_pos = [e for e in eps_desc if e != 0.0]
    if not eps_pos:
        raise DomainError("eps_list needs a positive eps")
    etas = [float(schedule(e)) for e in eps_pos]
    if not all(math.isfinite(eta) and eta >= 0 for eta in etas):
        raise DomainError("mollification times must be finite and nonnegative")
    # both endpoints at every time in one flows call
    flowed = backend.flows([x] * len(etas) + [y] * len(etas), etas + etas)
    prev_term = math.inf
    mollified = []
    for e, eta, xe, ye in zip(eps_pos, etas, flowed, flowed[len(etas):]):
        term = e * (backend.entropy(xe) + backend.entropy(ye))
        if term > _TERM_TOL and term > prev_term + 1e-12:
            raise ScheduleRejected(
                f"condition term grew from {prev_term:.6g} to {term:.6g} "
                f"at eps={e:.6g} (eta={eta:.6g}); slow the schedule down"
            )
        prev_term = term
        mollified.append((e, xe, ye))

    # reference between the original endpoints
    geo = geodesic_curve(backend, x, y, opts.n_time + 1)
    cost0 = geodesic_cost(backend, x, y)

    rows = [_row(solve(backend, xe, ye, e, opts)) for e, xe, ye in mollified]
    rows.sort(key=lambda r: r.eps)
    return CostProfile(tuple(rows), cost0, math.inf, geo, opts)
