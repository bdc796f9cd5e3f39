"""Temperature sweeps of the entropic cost and their diagnostics.

``sweep`` solves the Schrodinger problem for a list of eps values as one
chain of :func:`~entrogeo.solver.solves` (in descending order, each solve
starting from the minimizer and the factored Hessian model of the one
before) and assembles a :class:`CostProfile`: the solver's own
:class:`~entrogeo.solver.SchrodingerResult` for every eps, together with
the eps = 0 reference (the solver's closed-form geodesic, its cost and
its Fisher action).  The sweep always solves eps = 0 itself, so no
diagnostic needs a 0 in the eps list.  On top of a profile the module
checks everything the theory predicts for ``eps -> cost_eps``:

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
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import SpaceBackend, _check_eps
from .errors import DomainError, ProfileIncomplete, ScheduleRejected
from .density1d import GridDensity
from .regularizer import builds
from .solver import SolverOptions, discrete_action, solve, solves

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
    ``DomainError`` unless it is nonempty and distinct and every eps passes
    ``_check_eps``."""
    eps = sorted((float(e) for e in eps_list), reverse=True)
    if not eps:
        raise DomainError("eps_list must be nonempty")
    for e in eps:
        _check_eps(e)
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


def sweep(backend: SpaceBackend, x, y, eps_list: Sequence[float],
          opts: Optional[SolverOptions] = None) -> CostProfile:
    """Solve for every eps (descending) and collect the results.

    The eps, then the eps = 0 reference, are one chain of ``solves``: the
    largest eps starts cold from its recovery curve, and each smaller one
    starts from the minimizer of the solve before it and runs its first
    descent stage on the factored model that solve ended with, while the
    eps the model was built at is within a factor 4 of its own.  A chain
    from 0.2 down to 0.025 thus factors at 0.2 and 0.025 only; each row's
    ``model_builds`` counts its own.  Each row keeps its ``decision``,
    the quantile rows of a density minimizer, and renders its
    ``minimizer`` only if it is read: of a sweep's rows, only the eps = 0
    reference, the profile's ``geodesic``, is rendered.

    ``eps_list`` must be nonempty, nonnegative and without repeats, with
    no eps whose square underflows or overflows (``DomainError``
    otherwise, before any solve).  The eps = 0 reference is always computed;
    a 0 in ``eps_list`` simply also appears as a row.
    """
    eps_desc = _descending_eps(eps_list)
    opts = opts or SolverOptions()

    has_zero = eps_desc[-1] == 0.0
    chain = eps_desc if has_zero else eps_desc + [0.0]
    rows = list(solves(backend, x, y, chain, opts))
    ref = rows[-1] if has_zero else rows.pop()
    rows.reverse()  # increasing eps
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
    """The record of ``gamma_diagnostics``, one entry per positive eps in
    descending order.  ``minimizer_deviation`` is each row's own
    ``deviation``, ``max_t d(omega^eps_t, geodesic_t)`` as the solver
    measured it in its decision coordinates: for densities the exact W2 of
    the quantile rows, before they are binned onto the grid."""

    eps: tuple
    cost_gaps: tuple          # cost_eps - cost_0, should shrink to 0
    minimizer_deviation: tuple  # max_t d(omega^eps_t, geodesic_t)
    recovery_gaps: tuple      # A_eps(recovery curve) - cost_eps >= 0, -> 0
    cost_gap_decreasing: bool
    deviation_decreasing: bool
    recovery_nonnegative: bool
    passed: bool


def _same_point(a, b) -> bool:
    """Whether two curve ends are one point by value: densities with equal
    cells on one grid, or equal arrays."""
    if isinstance(a, GridDensity):
        return a.same_grid(b) and np.array_equal(a.rho, b.rho)
    return np.array_equal(a, b)


def gamma_diagnostics(backend: SpaceBackend, profile: CostProfile) -> GammaReport:
    """Quantitative Gamma-convergence record over the positive-eps rows of
    ``profile``, in descending eps.

    The recovery curve at each eps is built from the eps = 0 minimizer with
    the tent profile and evaluated by the discrete action of
    ``profile.opts``, the one the rows' solves minimized, so its gap to
    ``cost_eps`` is nonnegative by construction and must close as eps
    drops.  That holds only for rows between the geodesic's own endpoints:
    a row whose minimizer starts or ends elsewhere (a ``mollified_sweep``
    row), compared by value, raises ``DomainError``.  Cost gaps and
    deviations may grow by 1e-9 from row to row and recovery gaps dip to
    -1e-6, for roundoff.  A profile without a positive-eps row raises
    ``ProfileIncomplete``.  The recovery curves of every eps come from one
    ``builds`` call.  The deviations are the rows' own ``deviation``: the
    solver measured each against the geodesic between the row's end
    points, which the end check makes the profile's, in its decision
    coordinates (for densities the exact W2 of the quantile rows, before
    they are binned onto the grid), so no row's curve is rendered; the end
    check reads only each row's two ends.
    """
    pos = [r for r in profile.rows if r.eps > 0]
    if not pos:
        raise ProfileIncomplete("profile has no positive-eps rows")
    pos_desc = list(reversed(pos))  # descending eps, the sweep direction

    geo = profile.geodesic
    for row in pos_desc:
        for end, p, q in zip(("start", "end"), row.ends(), (geo.points[0], geo.points[-1])):
            if not _same_point(p, q):
                raise DomainError(
                    f"the eps={row.eps:g} row {end}s at another point than the profile's "
                    "geodesic, as the rows of a mollified sweep do; the recovery gap has "
                    "a sign only between the geodesic's own endpoints")
    eps_out = [row.eps for row in pos_desc]
    gaps = [row.cost - profile.cost_0 for row in pos_desc]
    devs = [row.deviation for row in pos_desc]
    regs = builds(backend, geo, eps_out)
    rec = [discrete_action(backend, reg.tilde, row.eps, profile.opts) - row.cost
           for row, reg in zip(pos_desc, regs)]

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
    reference is the eps = 0 solve between the *original* endpoints, as in
    ``sweep``: its cost ``cost_0`` is the value the mollified costs must
    approach, and its minimizer the geodesic.  ``fisher_0`` is ``inf``.
    Rows whose endpoints moved have no recovery gap with a sign, so
    ``gamma_diagnostics`` rejects such a profile.
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
    ents = backend.entropies(flowed).tolist()
    prev_term = math.inf
    mollified = []
    for e, eta, xe, ye, ex, ey in zip(eps_pos, etas, flowed, flowed[len(etas):],
                                      ents, ents[len(etas):]):
        term = e * (ex + ey)
        if term > _TERM_TOL and term > prev_term + 1e-12:
            raise ScheduleRejected(
                f"condition term grew from {prev_term:.6g} to {term:.6g} "
                f"at eps={e:.6g} (eta={eta:.6g}); slow the schedule down"
            )
        prev_term = term
        mollified.append((e, xe, ye))

    ref = solve(backend, x, y, 0.0, opts)  # between the original endpoints
    rows = [solve(backend, xe, ye, e, opts) for e, xe, ye in mollified]
    rows.sort(key=lambda r: r.eps)
    return CostProfile(tuple(rows), ref.cost, math.inf, ref.minimizer, opts)
