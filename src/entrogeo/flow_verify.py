"""Numerical certificates for the EVI_lambda properties of a backend flow.

Each report evaluates one inequality satisfied by every EVI_lambda gradient
flow and returns its worst signed defect over a sample set, normalized so
that ``pass  <=>  worst_residual <= tolerance``:

* ``evi_defect``            the evolution variational inequality itself,
* ``contraction_report``    d(S_s x, S_s y) <= exp(-lam s) d(x, y),
* ``ede_report``            energy dissipation equality
                            E(x) - E(S_T x) = int_0^T |dE|^2(S_s x) ds,
* ``slope_monotonicity_report``   s -> exp(lam s) |dE|(S_s x) non-increasing,
* ``regularization_report`` |dE|^2(S_t x) <= |dE|^2(y)/(2 e^{lam t} - 1)
                            + d^2(x, y)/I_lam(t)^2   while -lam t < log 2,
* ``local_global_report``   sampled global representation of the slope
                            never exceeds the local slope.

Closed-form backends (quadratic potentials) satisfy several of these with
equality, which pins the harness itself to ~1e-6; PDE-backed densities pass
with the documented discretization slack.  Time derivatives use central
differences with step ``min(1e-3, s/10) / max(1, lam)``: every flow here
is locally Lipschitz in (0, inf), so this balances truncation against
cancellation, and the step shrinks with the flow's time scale ``1/lam``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import SpaceBackend
from .errors import DomainError

__all__ = [
    "EviReport",
    "contraction_report",
    "ede_report",
    "evi_defect",
    "local_global_report",
    "regularization_report",
    "slope_monotonicity_report",
]


@dataclass(frozen=True)
class EviReport:
    """Worst residual of one flow property over a sample set."""

    name: str
    worst_residual: float
    samples: int
    passed: bool
    tolerance: float

    def to_record(self) -> dict:
        return {
            "property": self.name,
            "worst_residual": self.worst_residual,
            "samples": self.samples,
            "pass": self.passed,
        }


def _report(name, worst, samples, tol) -> EviReport:
    return EviReport(name, float(worst), int(samples), bool(worst <= tol), float(tol))


def _dt_step(s: float, lam: float) -> float:
    return min(1e-3, s / 10.0) / max(1.0, lam)


def evi_defect(backend: SpaceBackend, x, y, s_grid, tolerance: float = 1e-6) -> EviReport:
    """Worst positive defect of
    ``1/2 d/ds d^2(S_s x, y) + lam/2 d^2(S_s x, y) + E(S_s x) - E(y)``.
    """
    s_grid = np.asarray(s_grid, dtype=float)
    if not (np.all(np.isfinite(s_grid)) and np.all(s_grid > 0) and np.all(np.diff(s_grid) > 0)):
        raise DomainError("s_grid must be finite, positive and increasing")
    lam = backend.lam
    ey = backend.entropy(y)
    steps = [_dt_step(float(s), lam) for s in s_grid]
    # per time: the flow at s + h, s - h and s, all measured to y at once
    times = [t for s, h in zip(s_grid.tolist(), steps) for t in (s + h, s - h, s)]
    flows = backend.flows([x] * len(times), times)
    dists = backend.distances(flows, [y] * len(flows)).reshape(-1, 3).tolist()
    worst = -math.inf
    for h, (d_plus, d_minus, d), xs in zip(steps, dists, flows[2::3]):
        ddt_d2 = (d_plus**2 - d_minus**2) / (2 * h)
        defect = 0.5 * ddt_d2 + 0.5 * lam * d**2 + backend.entropy(xs) - ey
        worst = max(worst, defect)
    return _report("evi", worst, s_grid.size, tolerance)


def contraction_report(backend: SpaceBackend, pairs, s_grid,
                       tolerance: float = 1e-8) -> EviReport:
    """Worst of ``d(S_s x, S_s y) - exp(-lam s) d(x, y)`` over pairs and times."""
    s_grid = np.asarray(s_grid, dtype=float)
    lam = backend.lam
    pairs = list(pairs)
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    times = s_grid.tolist()
    # one flows call for both sides of every pair at every time, then one
    # distances call: the pairs themselves, then their flows per time
    flowed = backend.flows([p for p in xs + ys for _ in times], times * (2 * len(pairs)))
    half = len(flowed) // 2
    dists = backend.distances(xs + flowed[:half], ys + flowed[half:]).tolist()
    d0s, ds = dists[:len(pairs)], dists[len(pairs):]
    worst = -math.inf
    count = 0
    for d0 in d0s:
        for s in s_grid:
            worst = max(worst, ds[count] - math.exp(-lam * s) * d0)
            count += 1
    return _report("contraction", worst, count, tolerance)


def ede_report(backend: SpaceBackend, x, T: float, n_quad: int = 64,
               tolerance: float = 1e-6) -> EviReport:
    """Relative defect of the energy dissipation equality over ``[0, T]``.

    The trajectory is advanced incrementally through the quadrature nodes so
    the dissipation integral and the entropy drop see the same discrete flow.
    """
    if not (math.isfinite(T) and T > 0):
        raise DomainError(f"need a finite T > 0, got {T!r}")
    if not (isinstance(n_quad, numbers.Integral) and n_quad >= 2):
        raise DomainError(f"need an integer n_quad >= 2, got {n_quad!r}")
    s_nodes = np.linspace(0.0, T, n_quad + 1)
    cur = x
    slopes = np.empty(n_quad + 1)
    slopes[0] = backend.slope(x)
    for i in range(1, n_quad + 1):
        cur = backend.flow(cur, float(s_nodes[i] - s_nodes[i - 1]))
        slopes[i] = backend.slope(cur)
    drop = backend.entropy(x) - backend.entropy(cur)
    dissipated = float(np.trapezoid(slopes**2, s_nodes))
    residual = abs(drop - dissipated) / max(1.0, abs(drop))
    return _report("ede", residual, n_quad + 1, tolerance)


def slope_monotonicity_report(backend: SpaceBackend, x, s_grid,
                              tolerance: float = 1e-9) -> EviReport:
    """Worst increase of ``s -> exp(lam s) |dE|(S_s x)`` between grid points."""
    s_grid = np.asarray(s_grid, dtype=float)
    lam = backend.lam
    vals = [math.exp(lam * s) * backend.slope(p)
            for s, p in zip(s_grid, backend.flows([x] * s_grid.size, s_grid.tolist()))]
    worst = max(
        (vals[i + 1] - vals[i] for i in range(len(vals) - 1)),
        default=-math.inf,
    )
    return _report("slope_monotonicity", worst, s_grid.size, tolerance)


def _i_lam(lam: float, t: float) -> float:
    if abs(lam) < 1e-12:
        return t
    return (math.exp(lam * t) - 1.0) / lam


def regularization_report(backend: SpaceBackend, x, y, t_grid,
                          tolerance: float = 1e-6) -> EviReport:
    """Worst defect of the slope regularization bound along ``S_t x``.

    Times with ``-lam t >= log 2`` fall outside the bound's domain and are
    skipped; if every time is skipped the report passes vacuously with
    residual ``-inf``.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    lam = backend.lam
    sy2 = backend.slope(y) ** 2
    d2 = backend.distance(x, y) ** 2
    times = [t for t in t_grid.tolist() if 0 < t and -lam * t < math.log(2.0)]
    worst = -math.inf
    for t, p in zip(times, backend.flows([x] * len(times), times)):
        lhs = backend.slope(p) ** 2
        rhs = sy2 / (2.0 * math.exp(lam * t) - 1.0) + d2 / _i_lam(lam, t) ** 2
        worst = max(worst, lhs - rhs)
    return _report("regularization", worst, len(times), tolerance)


def local_global_report(backend: SpaceBackend, x, samples,
                        tolerance: float = 1e-9) -> EviReport:
    """Sampled global slope representation must stay below the local slope:
    ``sup_y ((E(x)-E(y))/d(x,y) + lam/2 d(x,y))^+ <= |dE|(x)``.
    """
    lam = backend.lam
    ex = backend.entropy(x)
    samples = list(samples)
    sup = 0.0
    count = 0
    for y, d in zip(samples, backend.distances([x] * len(samples), samples).tolist()):
        if d == 0.0:
            continue
        sup = max(sup, (ex - backend.entropy(y)) / d + 0.5 * lam * d)
        count += 1
    residual = sup - backend.slope(x)
    return _report("local_global", residual, count, tolerance)
