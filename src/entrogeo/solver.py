"""Minimization of the entropic action between fixed endpoints.

The discretized Schrodinger problem

    minimize  1/2 sum_i d(c_i, c_{i+1})^2 / dt_i
              + eps^2 * trapz( 1/2 |dE|^2(c_i) )
    over curves with c_0 = x and c_N = y fixed

is solved by limited-memory quasi-Newton descent with a backtracking line
search (steepest descent as the per-step fallback).  A problem holds what
eps does not change: the time grid, the unknowns and the two end rows,
packed once; eps enters each evaluation and each model as the Fisher weight
``sigma = eps^2``.  Each backend problem supplies ``_slope_sq``, the
squared slope of every node and its gradient, and ``make_preconditioner``:
the inverse of a positive-definite quadratic model, factored by banded
Cholesky, seeds the two-loop recursion and is rebuilt between descent
stages.  ``solves`` builds one problem and chains the solves of a list of
eps on it: each starts from the minimizer of the one before and first runs
on the model that solve ended with, if that model's eps is within a factor
4 of its own (the rule is in ``solves``), so a sweep chain factors a model
only every few rows.  A problem keeps the eps-free parts of its last
evaluation, so the start of a chained solve and the cost split after a
descent, both at the iterate evaluated last, evaluate nothing afresh.  A
model reads its Jacobian from the problem's evaluation at its point, made
there first when the last one was elsewhere, and the stage's first
evaluation then reuses it; a rebuilt density model refills the band of the
problem's last model of its precision once nothing holds that model, rather
than mapping a new one.  A result keeps
its minimizer in decision coordinates and renders the curve only when it
is read.  A step is accepted on the Armijo test, or
else on the approximate-Wolfe slope test of Hager & Zhang with the value
allowed to rise by at most 1e-14 relative, so that iterates at the
roundoff floor of the action are not rejected.  Every solve stops when the decrease the
model predicts for the next step, ``-g.d``, is at most ``grad_tol eps^2``
times the action (less under a model inherited from a larger eps, so that
the bound holds for the solve's own model); the eps^2 matches the sweep
diagnostics, which divide the solver's slack by eps^2.  Values,
gradients, the line search and that test are float64; only the density
model is factored in single precision (below), so for densities ``d``,
hence ``-g.d``, carries the relative error of a float32 solve.  The
decision variables depend on the backend:

* Euclidean: the interior node coordinates themselves.  The model is the
  block-tridiagonal Gauss-Newton Hessian (kinetic Laplacian plus
  ``eps^2 w_i H_i^2``), exact for the quadratic well.
* Densities: interior *quantile functions* sampled on a u-grid graded
  toward u = 0 and u = 1 (a Lagrangian mass-coordinate grid).  In
  quantile coordinates the kinetic term is exactly quadratic and geodesics
  are linear, pushing all nonlinearity into the Fisher term, which becomes
  a local functional of the quantile slopes: with rho(Q(u)) = 1/Q'(u),

      |dE|^2 = int_0^1 | d/du U'(1/Q') |^2 / Q'(u)^2 du .

  Monotonicity of the quantiles is kept by rejecting non-monotone line
  search trials (their action is +inf); for the Boltzmann entropy the
  Fisher term is itself a log barrier at zero increments, so accepted
  iterates stay strictly interior.  The model is the kinetic term plus the
  Gauss-Newton Hessian of the Fisher term, a band of half-width
  ``2 n_interior`` when the unknowns are ordered u-major.  Its rows are
  computed in float64 and factored in float32 (``spbtrf``), which halves
  the band and takes about 70% of the float64 time; where rounding to
  float32 makes the model indefinite, the float64 rows are factored with
  ``dpbtrf`` instead.

For eps = 0 both backends are solved in closed form, with no descent: the
action is then the kinetic term alone, whose exact discrete minimizer is
the straight line between the fixed end rows in the decision coordinates
(point coordinates, quantiles).  Non-convergence within the iteration
budget is reported in the result, not raised: the minimizer set may
contain flat valleys and non-unique solutions.
"""

from __future__ import annotations

import math
import mmap
import operator
import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

import numpy as np

from .core import (
    Curve,
    SpaceBackend,
    _check_curve,
    _check_eps,
    _trapezoid_weights,
    fisher_action,
    geodesic_curve,
    kinetic_action,
)
from .density1d import (
    Density1DBackend,
    EntropyKind,
    GridDensity,
    _cdf_nodes,
    _derived,
    _id_table,
    _lapack,
)
from .errors import DomainError, EndpointEntropyInfinite, EntrogeoError, GridMismatch
from .euclidean import EuclideanBackend
from .regularizer import build as build_regularized

__all__ = [
    "SchrodingerResult",
    "SolverOptions",
    "bridge_from_flow",
    "discrete_action",
    "discrete_actions",
    "solve",
    "solves",
]


@dataclass(frozen=True)
class SolverOptions:
    """Knobs of the descent loop.

    ``grad_tol`` is the stopping target of every eps > 0 solve, on both
    backends: the descent stops when the decrease its quadratic model
    predicts for the next step, ``-g.d``, is at most ``grad_tol eps^2 |v|``
    (``v`` the action).  ``quantile_points`` is the number m >= 3 of
    graded u-nodes of the density decision variables (default n, the
    number of grid cells, and at least 3).
    """

    n_time: int = 63
    max_iter: int = 2000
    grad_tol: float = 1e-6
    quantile_points: Optional[int] = None

    def __post_init__(self):
        for name, least in (("n_time", 3), ("max_iter", 1), ("quantile_points", 3)):
            value = getattr(self, name)
            if value is None and name == "quantile_points":
                continue  # m follows the grid
            try:
                if isinstance(value, (bool, np.bool_)):
                    raise TypeError  # True would count as 1
                operator.index(value)
            except TypeError:
                raise DomainError(f"{name} must be an integer, got {value!r}") from None
            if value < least:
                raise DomainError(f"{name} must be at least {least}, got {value}")
        if not 0 < self.grad_tol < math.inf:
            raise DomainError(f"grad_tol must be positive and finite, got {self.grad_tol}")


@dataclass(frozen=True, eq=False)
class _Chart:
    """The curves of one problem's decision vectors: its time grid, its two
    end points and, for densities, the u-nodes of the quantile rows (``u``
    None: the rows are the node coordinates).  It holds no model, so a
    result that renders its minimizer with it keeps no band alive."""

    times: np.ndarray
    first: object
    last: object
    u: Optional[np.ndarray] = None

    def curve(self, z: np.ndarray) -> Curve:
        inner = z.reshape(self.times.size - 2, -1)
        if self.u is not None:
            inner = _density_from_quantiles(self.first, inner, self.u)
        return Curve(self.times, [self.first, *inner, self.last])


class _RenderedOnRead:
    """The ``minimizer`` field of ``SchrodingerResult``: a ``Curve``, or a
    ``_Chart`` that renders the result's ``decision`` as one when the field
    is first read.  It has no default, so the field stays required."""

    def __get__(self, res, owner=None):
        if res is None:
            raise AttributeError("minimizer")  # no class-level default
        curve = res.__dict__["minimizer"]
        if isinstance(curve, _Chart):
            curve = curve.curve(res.decision)
            res.__dict__["minimizer"] = curve
        return curve

    def __set__(self, res, curve):
        res.__dict__["minimizer"] = curve


@dataclass(frozen=True)
class SchrodingerResult:
    """Minimizer curve plus the decomposed value of the entropic action.

    ``stationarity`` is the stopping rule's ``-g.d / (eps^2 |v|)`` at the
    last iterate tested (at most ``grad_tol`` when converged), and at eps = 0
    (and at an eps whose solve returns the geodesic, see ``solves``) the
    max-norm of the closed form's gradient, which is roundoff.  Under a
    model inherited from a larger eps it is an upper bound of that ratio
    for the solve's own model (see ``solves``).  ``decision`` is
    the minimizer in decision coordinates; a solve's result renders
    ``minimizer`` from it on first read and keeps the curve, so a result
    whose curve nobody reads never renders it.
    ``model_builds`` counts the Hessian models the solve factored: 0 at
    eps = 0 and for a chained solve that converged on the model of the one
    before.  ``deviation`` is the largest distance, node by node, of the
    minimizer from the geodesic between the same end points, measured in
    decision coordinates (see ``solves``): 0 at eps = 0, and nan for a
    result that solved nothing (``bridge_from_flow``).
    """

    minimizer: Curve = _RenderedOnRead()
    cost: float
    kinetic: float
    fisher: float
    iterations: int
    converged: bool
    stationarity: float
    eps: float
    cost_history: tuple = field(default=(), repr=False)
    decision: object = field(default=None, repr=False, compare=False)
    model_builds: int = 0
    deviation: float = math.nan

    def ends(self) -> tuple:
        """The first and last points of ``minimizer``, read without
        rendering it."""
        curve = self.__dict__["minimizer"]
        if isinstance(curve, _Chart):
            return curve.first, curve.last
        return curve.points[0], curve.points[-1]

    def to_record(self) -> dict:
        return {name: getattr(self, name) for name in (
            "eps", "cost", "kinetic", "fisher", "iterations", "converged",
            "stationarity", "model_builds")}


def _uniform_times(n_time: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, n_time + 2)


# Armijo constant, backtracking factor and L-BFGS memory of _lbfgs_armijo;
# iterations per descent stage of solves, and the largest ratio of the
# eps^2 of an inherited model to the solve's own, either way
_ARMIJO_C = 1e-4
_ARMIJO_SHRINK = 0.5
_LBFGS_MEMORY = 12
_STAGE_BUDGET = 120
_INHERIT_RATIO = 16.0
# approximate-Wolfe acceptance at the roundoff floor (Hager & Zhang, SIAM J.
# Optim. 16, 2005), see _lbfgs_armijo
_VALUE_FLOOR = 1e-14
_WOLFE_DELTA = 0.1
_WOLFE_SIGMA = 0.9


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """``sum(a * b)`` by numpy's pairwise sum, never by BLAS.

    A threaded BLAS ``ddot`` splits long vectors among its threads, so its
    rounding, and every output downstream of it, would depend on the thread
    count.  Every reduction of the descent and of the action goes through
    here; BLAS and LAPACK serve only the banded Cholesky factorization and
    solve of the model and the Euclidean model's small matrix products.
    """
    return float(np.sum(a * b))


def _lbfgs_armijo(value_grad, z0, tol: float, precond, budget: int):
    """Limited-memory BFGS with a backtracking line search.

    Each iteration first computes the quasi-Newton direction ``d`` and stops
    at ``decrement = -g.d / |v| <= tol``.  At a stage's first iteration
    ``-g.d`` is the squared Newton decrement of the model behind ``precond``
    (Boyd & Vandenberghe, Convex Optimization, sec. 9.5.1); the ratio is
    unchanged by an affine change of coordinates or a rescaling of the
    action.  A non-descent direction falls back to steepest descent for
    that step, which never stops the iteration.

    A trial step is accepted on the Armijo test ``v_try <= v + c step g.d``.
    Near a minimizer the decrease that test asks for falls below the
    roundoff of the action value while the gradient is still accurate, so a
    trial failing Armijo is also accepted when its value exceeds ``v`` by at
    most ``_VALUE_FLOOR * |v|`` (a roundoff-scale allowance) and its slope
    satisfies the approximate-Wolfe bracket
    ``sigma g.d <= g_try.d <= (2 delta - 1) g.d``.  Accepted values
    therefore never rise by more than that relative allowance per step.

    ``value_grad`` may return ``(inf, None)`` to mark an infeasible trial
    point; the line search simply backtracks past it.  The search stalls
    when 60 trials fail or the step gets too short to change ``z`` (such a
    trial would pass the Armijo test on an unchanged value and repeat
    itself to the end of the budget).  Curvature pairs that
    would break positive definiteness are skipped.  ``precond`` seeds the
    two-loop recursion with a fixed symmetric positive-definite
    approximation of the inverse Hessian.  It takes at most ``budget`` steps
    (spending them all is not converging); returns ``(z, iterations,
    history, converged, stalled, decrement)``, the last at the last test.
    """
    z = np.asarray(z0, dtype=float).copy()
    v, g = value_grad(z)
    if not math.isfinite(v):
        raise DomainError("optimization started at an infeasible point")
    history = [v]
    pairs = deque(maxlen=_LBFGS_MEMORY)  # curvature pairs (s, y, 1 / s.y)
    decrement = math.inf

    for it in range(budget):
        # two-loop recursion
        d = -g.copy()
        alphas = []
        for s, y, rho in reversed(pairs):
            a = rho * _dot(s, d)
            d -= a * y
            alphas.append(a)
        d = precond(d)
        for (s, y, rho), a in zip(pairs, reversed(alphas)):
            b = rho * _dot(y, d)
            d += (a - b) * s
        gd = _dot(g, d)
        if gd > 0:
            d = -g
            gd = -_dot(g, g)
        else:
            decrement = -gd / abs(v) if v else 0.0  # v = 0 only at rest, where g = 0
            if decrement <= tol:
                return z, it, history, True, False, decrement

        step = 1.0
        accepted = False
        floor = _VALUE_FLOOR * abs(v)
        for _ in range(60):
            z_try = z + step * d
            if np.array_equal(z_try, z):
                break  # a step that leaves z as it is cannot make progress
            v_try, g_try = value_grad(z_try)
            if math.isfinite(v_try) and (
                v_try <= v + _ARMIJO_C * step * gd
                or (v_try <= v + floor
                    and _WOLFE_SIGMA * gd <= _dot(g_try, d)
                    <= (2.0 * _WOLFE_DELTA - 1.0) * gd)
            ):
                accepted = True
                break
            step *= _ARMIJO_SHRINK
        if not accepted:
            return z, it, history, False, True, decrement

        s_vec = z_try - z
        y_vec = g_try - g
        sy = _dot(s_vec, y_vec)
        if sy > 1e-10 * math.sqrt(_dot(s_vec, s_vec)) * math.sqrt(_dot(y_vec, y_vec)):
            pairs.append((s_vec, y_vec, 1.0 / sy))
        z, v, g = z_try, v_try, g_try
        history.append(v)

    return z, budget, history, False, False, decrement


# the 2 MiB huge page of x86-64 and arm64 Linux, see _fresh_band
_HUGE_PAGE = 1 << 21


def _fresh_band(shape, dtype: np.dtype) -> np.ndarray:
    """A zeroed band of ``shape`` in Fortran order (the factorization
    works in place) on a memory mapping of its own, unmapped when the last
    array on it is dropped: from the C heap, np.zeros let the peak resident
    memory of a run vary by up to 6 MB.  The mapping is private and advised
    ``MADV_HUGEPAGE`` (a shared one lives in shmem, which takes no huge
    pages under the common ``shmem_enabled = never``), and it spans the
    band rounded up to whole huge pages plus one, so that the band starts
    on a huge-page boundary and faults in as a few huge pages.  Without the
    advice, or without ``MAP_PRIVATE``, small pages serve.
    """
    nbytes = math.prod(shape) * dtype.itemsize
    if not hasattr(mmap, "MAP_PRIVATE"):
        return np.frombuffer(mmap.mmap(-1, nbytes), dtype).reshape(shape, order="F")
    pages = mmap.mmap(-1, -(-nbytes // _HUGE_PAGE) * _HUGE_PAGE + _HUGE_PAGE,
                      flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    advice = getattr(mmap, "MADV_HUGEPAGE", None)
    if advice is not None:
        try:
            pages.madvise(advice)
        except OSError:
            pass  # small pages serve
    whole = np.frombuffer(pages, np.uint8)
    start = -whole.ctypes.data % _HUGE_PAGE
    return whole[start:start + nbytes].view(dtype).reshape(shape, order="F")


def _banded_cholesky_solver(ab: np.ndarray, model: str):
    """``v -> A^{-1} v`` for the SPD matrix ``A`` in lower band storage
    ``ab[j, p] = A[p + j, p]``; ``ab`` is overwritten by its factor.  A
    factorization that breaks down raises ``EntrogeoError`` naming
    ``model`` and the first leading minor that is not positive.  The
    routines follow the band's precision: ``spbtrf``/``spbtrs`` for a
    float32 band, which solve in float32, and ``dpbtrf``/``dpbtrs`` (the
    calls ``cho_solve_banded`` makes) otherwise; ``v`` and the solution
    are float64 either way."""
    p = "s" if ab.dtype == np.float32 else "d"
    trf, trs = getattr(_lapack, p + "pbtrf"), getattr(_lapack, p + "pbtrs")
    cb, info = trf(ab, lower=1, overwrite_ab=1)
    if info != 0:
        raise EntrogeoError(
            f"{model}: the Hessian model is not positive definite "
            f"(leading minor {info} of {ab.shape[1]})")

    def solve(v: np.ndarray) -> np.ndarray:
        x, info = trs(cb, v.astype(cb.dtype, copy=False), lower=1)
        if info != 0:
            raise EntrogeoError(f"{model}: the banded solve failed ({p}pbtrs info {info})")
        return x.astype(float, copy=False)

    return solve


# -- the problem interface ---------------------------------------------------


class _Problem:
    """The discretized action of one backend on a time grid, for every eps.

    The decision vector stacks the interior rows of a curve between the
    fixed end rows ``first`` and ``last``, packed once; ``row_mass`` weighs
    each row coordinate in the kinetic term (a scalar, or one weight per
    coordinate).  None of it depends on eps, which enters ``action``,
    ``value_grad`` and ``make_preconditioner`` as the Fisher weight
    ``sigma = eps^2``.  Subclasses supply ``_slope_sq``, the squared slope
    of every row, its gradient at the interior rows (a fresh array) and the
    Jacobian the model reads at the interior rows, all of which
    ``_evaluation`` keeps; ``_squared_slopes``, the first of these alone,
    which ``value`` reads; and ``make_preconditioner``, which reads that
    Jacobian from ``_evaluation`` and whose models a caller simply drops: a
    problem may reuse a model's memory only once nothing holds the model.
    They also add ``chart`` (the ``_Chart`` of their decision vectors),
    ``pack``, ``row_distances`` and ``value_grad``.  A problem with no
    interior node has an empty decision vector.
    """

    def __init__(self, times, first: np.ndarray, last: np.ndarray, row_mass):
        self.times = np.asarray(times, dtype=float)
        self.dts = np.diff(self.times)
        self.weights = _trapezoid_weights(self.times)
        self.n_interior = self.times.size - 2
        self.first, self.last = first, last
        self.row_mass = row_mass
        # the sigma-free parts of the last evaluation, keyed by the bytes of
        # its z: (key, kin, fis, scaled momenta, Fisher gradient, model
        # Jacobian)
        self._kept = None

    def geodesic_z(self) -> np.ndarray:
        """The straight line between the end rows: the exact minimizer of
        the kinetic term, hence of the action at eps = 0."""
        ts = self.times[1:-1, None]
        return ((1.0 - ts) * self.first[None, :] + ts * self.last[None, :]).ravel()

    def _stack(self, z: np.ndarray) -> np.ndarray:
        """All rows of the curve, end rows included."""
        return np.vstack([self.first, z.reshape(-1, self.first.size), self.last])

    def _kinetic(self, rows: np.ndarray):
        """The kinetic term of the curve through ``rows`` and its
        increments ``np.diff(rows, axis=0)``."""
        mom = np.diff(rows, axis=0)
        return 0.5 * float(np.sum(self.row_mass * mom**2 / self.dts[:, None])), mom

    def _evaluation(self, z: np.ndarray):
        """The sigma-free parts of the action at ``z``: ``(key, kin, fis,
        scaled momenta, Fisher gradient, model Jacobian)``, keyed by the
        bytes of ``z``.  They are kept from the last evaluation when it was
        at ``z``, else computed and kept in its place."""
        key = z.tobytes()
        if self._kept is None or self._kept[0] != key:
            self._kept = None  # freed before the new evaluation allocates its own
            rows = self._stack(z)
            kin, mom = self._kinetic(rows)
            mom *= self.row_mass / self.dts[:, None]
            S, dS, jac = self._slope_sq(rows)
            self._kept = key, kin, 0.5 * _dot(self.weights, S), mom, dS, jac
        return self._kept

    def value(self, z: np.ndarray, sigma: float) -> float:
        """``kin + sigma fis`` at ``z`` by the operations of ``_evaluation``,
        bit for bit ``action``'s parts, but with no gradient or Jacobian and
        without reading or replacing the kept evaluation."""
        rows = self._stack(z)
        fis = 0.5 * _dot(self.weights, self._squared_slopes(rows))
        return self._kinetic(rows)[0] + sigma * fis

    def action(self, z: np.ndarray, sigma: float):
        """Kinetic part ``1/2 sum_i row_mass . (Z_{i+1} - Z_i)^2 / dt_i`` and
        Fisher part ``1/2 sum_i w_i S_i`` of the action at ``z``, and the
        gradient of ``kin + sigma fis``.

        None of ``kin``, ``fis``, the momenta and the Fisher gradient depends
        on sigma; they are kept from the last evaluation, so an action at
        the same ``z`` (the start of a chained solve, the cost split after a
        descent) only recombines them, bit for bit as a fresh evaluation
        would."""
        _, kin, fis, mom, dS, _ = self._evaluation(z)
        grad = dS * (0.5 * sigma * self.weights[1:-1, None])
        grad += mom[:-1]
        grad -= mom[1:]
        return kin, fis, grad.ravel()

    def _kinetic_bands(self):
        """Diagonal and off-diagonal of the kinetic Hessian in time, one
        row per interior node and one column per row coordinate (a single
        column when ``row_mass`` is a scalar)."""
        inv = 1.0 / self.dts[:, None]
        return self.row_mass * (inv[:-1] + inv[1:]), -self.row_mass * inv[1:-1]


# -- Euclidean problem -------------------------------------------------------


class _EuclideanProblem(_Problem):
    """Decision rows are the node coordinates themselves."""

    def __init__(self, backend: EuclideanBackend, x, y, times):
        super().__init__(times, np.asarray(x, dtype=float),
                         np.asarray(y, dtype=float), row_mass=1.0)
        self.pot = backend.potential
        self.distance = backend.distance
        self.chart = _Chart(self.times, self.first, self.last)

    def pack(self, curve: Curve) -> np.ndarray:
        return np.asarray(curve.points[1:-1], dtype=float).ravel()

    def row_distances(self, za: np.ndarray, zb: np.ndarray) -> np.ndarray:
        """The distance of each interior row of ``za`` from the same row of
        ``zb``, by the backend's own ``distance``."""
        nI = self.n_interior
        return np.array([self.distance(a, b)
                         for a, b in zip(za.reshape(nI, -1), zb.reshape(nI, -1))])

    def _slope_sq(self, rows: np.ndarray):
        """``|grad V|^2`` at every row, its gradient ``2 Hess V grad V`` at
        the interior rows and the Hessians there."""
        g = self.pot.grads(rows)
        H = self.pot.hessians(rows[1:-1])
        return np.sum(g * g, axis=1), 2.0 * np.einsum("ikj,ik->ij", H, g[1:-1]), H

    def _squared_slopes(self, rows: np.ndarray) -> np.ndarray:
        g = self.pot.grads(rows)
        return np.sum(g * g, axis=1)

    def value_grad(self, z: np.ndarray, sigma: float):
        kin, fis, grad = self.action(z, sigma)
        return kin + sigma * fis, grad

    def make_preconditioner(self, z0: np.ndarray, sigma: float):
        """Inverse of the Gauss-Newton model at ``z0``, by banded Cholesky.

        In the node-major decision vector the model is block tridiagonal
        with band half-width ``dim``: diagonal blocks
        ``(1/dt_i + 1/dt_{i+1}) I + sigma w_i H_i^T H_i`` (``H_i`` the
        Hessian of V at node i) and off-diagonal blocks ``-(1/dt) I``.
        Dropping the third-derivative term of ``Hess 1/2 |grad V|^2`` keeps
        the model positive definite for any lam; for the quadratic well it
        is the exact Hessian, so one Newton step solves the problem.
        """
        nI, dim = self.n_interior, self.first.size
        H = self._evaluation(z0)[5]
        D = sigma * self.weights[1:-1, None, None] * (H.transpose(0, 2, 1) @ H)
        # lower band storage: band[j, i, c] = A[(i, c + j), (i, c)]
        band = np.zeros((dim + 1, nI, dim))
        for j in range(dim):
            band[j, :, :dim - j] = np.diagonal(D, offset=-j, axis1=1, axis2=2)
        kin_diag, kin_off = self._kinetic_bands()
        band[0] += kin_diag
        band[dim, :-1] = kin_off
        return _banded_cholesky_solver(band.reshape(dim + 1, nI * dim),
                                       f"Euclidean model (dim = {dim}, {nI} time nodes)")


# -- density problem in quantile coordinates ---------------------------------


def _uprime_of_inv(kind: EntropyKind, G: np.ndarray):
    """U'(1/G) as a function of the quantile slope G = 1/rho, and its
    derivative in G."""
    if kind.name == "boltzmann":
        return 1.0 - np.log(G), -1.0 / G
    m = kind.m
    return (m / (m - 1.0)) * G ** (1.0 - m), -m * G ** (-m)


def _fisher_residuals(kind: EntropyKind, Q: np.ndarray, h: np.ndarray, H: np.ndarray):
    """The quantile-space Fisher residuals along the last axis of ``Q``.

    With the node spacings ``h``, the quantile slopes ``G = dQ / h`` and
    their pair means ``qp``, the residuals ``R_k = dU'(1/G) / H_k / qp_k``
    of the interior nodes have an ``H``-weighted sum of squares equal to
    the squared metric slope, ``H_k = (u_{k+1} - u_{k-1}) / 2`` the dual
    cell widths.  Returns ``R`` and the parts of it that
    ``_fisher_jacobian`` reads: ``d U'(1/G) / dG``, ``qp`` and ``H qp``.
    """
    G = np.diff(Q, axis=-1) / h
    A, ap = _uprime_of_inv(kind, G)
    qp = 0.5 * (G[..., 1:] + G[..., :-1])
    Hqp = H * qp
    return (A[..., 1:] - A[..., :-1]) / Hqp, ap, qp, Hqp


def _fisher_jacobian(kind: EntropyKind, Q: np.ndarray, h: np.ndarray, H: np.ndarray, out):
    """The residuals ``R`` of ``_fisher_residuals`` and their Jacobian:
    returns ``R``, ``a = dR_k/dQ_{k-1}`` and ``c = dR_k/dQ_{k+1}``, the last
    two written into the two arrays of ``out``; ``R`` is invariant under
    shifts of ``Q``, so ``dR_k/dQ_k = -(a + c)``.
    """
    R, ap, qp, Hqp = _fisher_residuals(kind, Q, h, H)
    half_R = 0.5 * R / qp
    a = np.divide(ap[..., :-1] / Hqp + half_R, h[:-1], out=out[0])
    c = np.divide(ap[..., 1:] / Hqp - half_R, h[1:], out=out[1])
    return R, a, c


# grading exponent of the quantile nodes, see _graded_nodes
_GRADING = 2


def _graded_nodes(m: int):
    """The m u-nodes of the density problem and the widths of their cells.

    ``u_k = g(t_k)`` at the uniform midpoints ``t_k = (k + 1/2) / m``, with
    ``g(t) = t^p / (t^p + (1 - t)^p)`` and ``p = _GRADING``; node k owns the
    cell ``[g(k/m), g((k+1)/m)]``, and the widths sum to 1.  The nodes
    crowd toward u = 0 and u = 1, where the quantile-space Fisher integrand
    of a density with tails lives, and the end spacing is about
    ``h_min = 2 / m^2``.  That spacing is the limit of the grid: the
    Gauss-Newton block of the Fisher term annihilates constants in u and
    carries rounding of order ``eps_mach / h_min^3``, which only the
    kinetic diagonal (about ``2 w_k / dt``) holds off, and the quantile
    increments at the end nodes carry relative rounding that the stencil
    amplifies.  On a near-Dirac pair on [0, 1], p = 3 at m = 4n already
    makes the model lose positive definiteness.
    """
    t = np.arange(2 * m + 1) / (2 * m)
    g = t**_GRADING / (t**_GRADING + (1.0 - t) ** _GRADING)
    return g[1::2], np.diff(g[::2])


def _pchip_end_slope(h0, h1, m0, m1):
    """PCHIP's one-sided three-point end derivative, for positive slopes."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    return np.where(d > 0.0, d, 0.0)


def _quantile_samples(ds, u: np.ndarray) -> np.ndarray:
    """PCHIP quantiles at ``u`` of densities on one grid, one row each.

    The inversion of the CDF is monotone-cubic rather than piecewise-linear:
    the raw grid quantile has kinks at every cell boundary, whose
    quantile-space Fisher diverges as the u-grid refines below the
    cell-mass scale.  The arithmetic is scipy's ``PchipInterpolator``
    step for step, in numpy over all rows at once: Fritsch-Butland
    weighted-harmonic-mean interior derivatives, the one-sided three-point
    end rule, ``CubicHermiteSpline`` coefficients and ``PPoly``'s summation
    order.  The CDF slopes are positive, so PCHIP's sign tests never fire
    in the interior.  The interval of ``u_k`` in row ``r`` is the count of
    that row's knots at or below it, less one, exact in every row: each
    knot's first node at or above it comes from one ``searchsorted`` into
    ``u``, one ``bincount`` tallies them per row and node, and a running
    sum along the row counts the knots at or below each node.
    """
    d0 = ds[0]
    _id_table(ds)  # raises GridMismatch off the grid of ds[0]
    rows, n = len(ds), d0.n
    F, x = _cdf_nodes(d0, np.stack([d.rho for d in ds]))
    h = np.diff(F, axis=1)
    mk = np.diff(x) / h
    w1 = 2.0 * h[:, 1:] + h[:, :-1]
    w2 = h[:, 1:] + 2.0 * h[:, :-1]
    dk = np.empty((rows, n + 1))
    dk[:, 1:-1] = 1.0 / ((w1 / mk[:, :-1] + w2 / mk[:, 1:]) / (w1 + w2))
    dk[:, 0] = _pchip_end_slope(h[:, 0], h[:, 1], mk[:, 0], mk[:, 1])
    dk[:, -1] = _pchip_end_slope(h[:, -1], h[:, -2], mk[:, -1], mk[:, -2])
    t = (dk[:, :-1] + dk[:, 1:] - 2.0 * mk) / h
    c0 = t / h
    c1 = (mk - dk[:, :-1]) / h - t

    r = np.arange(rows)[:, None]
    m = u.size
    first = np.searchsorted(u, F, side="left") + (m + 1) * r
    i = np.bincount(first.ravel(), minlength=rows * (m + 1)).reshape(rows, m + 1)
    i = np.cumsum(i[:, :m], axis=1) - 1
    np.clip(i, 0, n - 1, out=i)
    # each gather takes one flat index: into rows of n + 1 knots (F, dk)
    # and of n cells (c1, c0)
    knot = i + (n + 1) * r
    cell = i + n * r
    s = u - F.take(knot)
    s2 = s * s
    return ((x[i] + dk.take(knot) * s) + c1.take(cell) * s2) + c0.take(cell) * (s2 * s)


def _extended_quantiles(Qs: np.ndarray, u: np.ndarray):
    """The nodes ``[0, *u, 1]`` and the rows of ``Qs``, quantiles sampled at
    ``u``, extended linearly over the end cells ``[0, u_0]`` and
    ``[u_{m-1}, 1]``."""
    G0 = (Qs[:, 1] - Qs[:, 0]) / (u[1] - u[0])
    G1 = (Qs[:, -1] - Qs[:, -2]) / (u[-1] - u[-2])
    u_full = np.concatenate([[0.0], u, [1.0]])
    q_full = np.concatenate([(Qs[:, 0] - u[0] * G0)[:, None], Qs,
                             (Qs[:, -1] + (1.0 - u[-1]) * G1)[:, None]], axis=1)
    return u_full, q_full


def _quantile_distances(Qa: np.ndarray, Qb: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``sqrt(int_0^1 (Qa - Qb)^2 du)`` row by row, for the piecewise-linear
    quantiles through the rows of ``Qa`` and ``Qb`` at ``u``, extended by
    ``_extended_quantiles``.  It is exact, since the difference is linear
    on each cell: the W2 distance of the measures with these quantiles,
    before ``_density_from_quantiles`` bins them onto a grid.  The
    extension is linear, so the difference is extended rather than each
    row."""
    u_full, d = _extended_quantiles(Qa - Qb, u)
    d0, d1 = d[:, :-1], d[:, 1:]
    return np.sqrt(np.sum(np.diff(u_full) * (d0 * (d0 + d1) + d1 * d1), axis=1) / 3.0)


def _density_from_quantiles(template: GridDensity, Qs: np.ndarray,
                            u: np.ndarray) -> list:
    """The densities on ``template``'s grid whose quantiles are sampled at
    ``u`` in the rows of ``Qs``, extended by ``_extended_quantiles``,
    derived as one stack."""
    u_full, q_full = _extended_quantiles(Qs, u)
    edges = template.edges
    F_edges = np.array([np.interp(edges, q, u_full, left=0.0, right=1.0) for q in q_full])
    return _derived([template] * len(Qs), np.diff(F_edges, axis=1) / template.dx)


class _DensityProblem(_Problem):
    """Decision rows are quantile functions sampled on graded u-nodes.

    The nodes ``u`` come from ``_graded_nodes``.  ``row_mass`` holds their
    cell widths, so the kinetic term is the quadrature
    ``1/2 sum_i sum_k w_k (Q_{i+1,k} - Q_{i,k})^2 / dt_i`` of the exact
    quantile-space kinetic energy.  ``h`` are the node spacings and ``H``
    the dual widths of the interior nodes, the quadrature weights of the
    Fisher residuals.
    """

    def __init__(self, backend: Density1DBackend, x: GridDensity, y: GridDensity,
                 times, m_points):
        if x.boundary != "no-flux":
            raise DomainError(
                "the action solver needs interval (no-flux) densities; "
                "quantile coordinates have no global chart on the circle"
            )
        self.kind = backend.kind
        self.m = m_points
        self.u, cell_widths = _graded_nodes(m_points)
        self.h = np.diff(self.u)
        self.H = 0.5 * (self.h[1:] + self.h[:-1])
        super().__init__(times, *_quantile_samples([x, y], self.u), row_mass=cell_widths)
        self.chart = _Chart(self.times, x, y, self.u)
        # a and c of every evaluation's _fisher_jacobian, which _kept holds,
        # written in place: a fresh pair kept from each evaluation to the
        # next raised the peak resident memory of 20 s density_sweep bench
        # runs by about 0.4 MB (2-vCPU host)
        self._jac = np.empty((2, self.n_interior + 2, m_points - 2))
        # per band dtype: the band of the last model of that precision and
        # a weak reference to that model, see make_preconditioner
        self._bands = {}

    def pack(self, curve: Curve) -> np.ndarray:
        inner = curve.points[1:-1]
        return _quantile_samples(inner, self.u).ravel() if inner else np.empty(0)

    def row_distances(self, za: np.ndarray, zb: np.ndarray) -> np.ndarray:
        """The W2 distance of each interior quantile row of ``za`` from the
        same row of ``zb`` (``_quantile_distances``)."""
        nI, m = self.n_interior, self.m
        return _quantile_distances(za.reshape(nI, m), zb.reshape(nI, m), self.u)

    def _slope_sq(self, rows: np.ndarray):
        """``sum_k H_k R_k^2`` at every row, its gradient ``2 J^T H R`` at
        the interior rows and ``a``, ``c`` of ``_fisher_jacobian`` there,
        for increasing quantiles.  ``a`` and ``c`` are views of ``_jac``,
        which each call overwrites, so only ``_evaluation`` calls it, once
        it has dropped the kept evaluation."""
        R, a, c = _fisher_jacobian(self.kind, rows, self.h, self.H, self._jac)
        HR = self.H * R
        aR = 2.0 * a[1:-1] * HR[1:-1]
        cR = 2.0 * c[1:-1] * HR[1:-1]
        dS = np.zeros((rows.shape[0] - 2, rows.shape[1]))
        dS[:, :-2] += aR
        dS[:, 1:-1] -= aR + cR
        dS[:, 2:] += cR
        return np.sum(HR * R, axis=1), dS, (a[1:-1], c[1:-1])

    def _squared_slopes(self, rows: np.ndarray) -> np.ndarray:
        R = _fisher_residuals(self.kind, rows, self.h, self.H)[0]
        return np.sum(self.H * R * R, axis=1)

    def value_grad(self, z: np.ndarray, sigma: float):
        if np.any(np.diff(z.reshape(self.n_interior, self.m), axis=1) <= 0.0):
            return math.inf, None  # non-monotone trial: reject in line search
        kin, fis, grad = self.action(z, sigma)
        val = kin + sigma * fis
        if not math.isfinite(val):
            return math.inf, None
        return val, grad

    def _fisher_gn_bands(self, Qs: np.ndarray):
        """Gauss-Newton bands of the quantile-space Fisher at every node.

        The squared slope is a sum of squared residuals R_k(Q) with a
        3-point stencil, so its Gauss-Newton Hessian is pentadiagonal;
        returns (diag, first, second off-diagonals) of ``J^T diag(H) J``,
        one row per node of ``Qs``, the interior rows of a decision vector.
        ``a`` and ``c`` are those of the problem's evaluation at ``Qs``,
        which ``_jac`` holds until the next evaluation elsewhere.
        """
        a, c = self._evaluation(Qs)[5]
        b = -(a + c)
        Ha, Hb = self.H * a, self.H * b
        d0 = np.zeros(Qs.shape)
        d0[:, :-2] += Ha * a
        d0[:, 1:-1] += Hb * b
        d0[:, 2:] += self.H * c * c
        d1 = np.zeros((Qs.shape[0], Qs.shape[1] - 1))
        d1[:, :-1] += Ha * b
        d1[:, 1:] += Hb * c
        return d0, d1, Ha * c

    def make_preconditioner(self, z0: np.ndarray, sigma: float):
        """Inverse of the quadratic model at ``z0``, by banded Cholesky.

        The model couples time neighbors through the (exactly quadratic)
        kinetic term and u neighbors through the Gauss-Newton bands of the
        Fisher term; without it, descent directions are dominated by the
        stiff fourth-order-in-u Fisher curvature (~1/h^3 vs ~w/dt for
        the kinetic block) and first-order methods stall.  Ordered u-major
        (time index fastest) the model is a band of half-width
        ``2 n_interior`` whose only nonzero diagonals are the main one, the
        kinetic coupling at offset 1 and the Fisher couplings at offsets
        ``n_interior`` and ``2 n_interior``; it is assembled directly in
        lower band storage and factored once.

        The four band rows are computed in float64 and written into a
        float32 band, factored by ``spbtrf`` and applied by ``spbtrs``: the
        model only seeds L-BFGS, whose values, gradients and stopping test
        stay float64.  Near the graded grid's end nodes the Fisher curvature
        (~1/h^3) nearly cancels against itself, and its rounding to float32
        can make the model indefinite.  When ``spbtrf`` meets a pivot that is
        not positive, the same float64 rows go into a float64 band for
        ``dpbtrf``/``dpbtrs``, and a breakdown there raises.  The retry
        starts from the float64 rows because the float32-rounded band is
        indefinite in float64 as well.  Only the band a model reads is
        recorded with it: the float32 band a retry broke down on is free
        to be refilled by the next build at once.

        The band of the problem's last model of a precision is zeroed and
        refilled once nothing holds that model; any other build maps a
        fresh band on huge pages (``_fresh_band``).
        """
        nI, m = self.n_interior, self.m
        d0, d1, d2 = self._fisher_gn_bands(z0.reshape(nI, m))
        wf = sigma * self.weights[1:-1, None]
        kin_diag, kin_off = self._kinetic_bands()
        # ab[j, k nI + i] = A[(k, i) + j, (k, i)]
        rows = {0: (kin_diag + wf * d0 + 1e-12).T.ravel(),
                1: np.vstack([kin_off, np.zeros(m)]).T.ravel(),
                nI: (wf * d1).T.ravel(),
                2 * nI: (wf * d2).T.ravel()}

        def band(dtype):
            # once the last model of this precision is gone, nothing reads
            # its band, which is zeroed and refilled instead of mapping a
            # fresh one (_fresh_band)
            shape = (2 * nI + 1, nI * m)
            dtype = np.dtype(dtype)  # the key: np.float32 hashes apart from its dtype
            ab, owner = self._bands.get(dtype, (None, None))
            if ab is not None and owner() is None:
                ab.fill(0.0)
            else:
                ab = _fresh_band(shape, dtype)
            for j, row in rows.items():
                ab[j, :row.size] = row
            return ab

        model = f"density model (m = {m} quantile nodes, {nI} time nodes)"
        try:
            ab = band(np.float32)
            solve_band = _banded_cholesky_solver(ab, model)
        except EntrogeoError:
            # rounding the rows to float32 made the model indefinite
            ab = band(np.float64)
            solve_band = _banded_cholesky_solver(ab, model)

        def apply(v):
            return solve_band(v.reshape(nI, m).T.ravel()).reshape(m, nI).T.ravel()

        self._bands[ab.dtype] = ab, weakref.ref(apply)
        return apply


# -- public entry points ------------------------------------------------------


def _problem(backend: SpaceBackend, x, y, times, opts: SolverOptions) -> _Problem:
    """The solver problem of ``backend`` between ``x`` and ``y``."""
    if isinstance(backend, Density1DBackend):
        return _DensityProblem(backend, x, y, times, opts.quantile_points or max(x.n, 3))
    if isinstance(backend, EuclideanBackend):
        return _EuclideanProblem(backend, x, y, times)
    raise DomainError(f"no solver strategy for backend {type(backend).__name__}")


def _check_endpoints(backend: SpaceBackend, x, y):
    backend.check_point(x)
    backend.check_point(y)
    if not backend.same_space(x, y):
        raise GridMismatch("endpoints x and y do not lie in the same state space")


def _check_finite_entropy(backend, x, y):
    for p, tag in ((x, "x"), (y, "y")):
        if not math.isfinite(backend.entropy(p)):
            raise EndpointEntropyInfinite(
                f"endpoint {tag} has non-finite entropy; mollify the endpoints "
                "with entrogeo.cost_analysis.mollified_sweep"
            )


def solves(backend: SpaceBackend, x, y, eps_list: Iterable[float],
           opts: Optional[SolverOptions] = None) -> Iterator[SchrodingerResult]:
    """Minimize the discretized entropic action between ``x`` and ``y`` for
    every eps of ``eps_list`` in its order, as one chain on one problem: a
    generator that yields the ``SchrodingerResult`` of each eps as it is
    solved.

    At eps = 0 the closed form needs no start, and it leaves the chain as
    it is.  So does an eps with ``sigma = eps^2 < _VALUE_FLOOR`` and
    ``sigma F(geo) <= _VALUE_FLOOR K(geo)``: as ``K(geo) <= C_eps <= K(geo)
    + sigma F(geo)``, the geodesic is then optimal within the line search's
    allowance, and a descent would spend its budget below the roundoff of
    the action.  The first other eps > 0 starts cold, from the recovery curve
    ``S_{h_eps(t)} g_t``, the geodesic regularized by the tent profile
    (provably an eps-good competitor); each later one starts from the
    minimizer of the eps > 0 solve before it.

    An eps > 0 solve runs ``_lbfgs_armijo`` in stages of at most
    ``_STAGE_BUDGET`` iterations, each on one factored quadratic model of
    ``prob.make_preconditioner``.  That model is only trustworthy near the
    point it was assembled at: when a stage ends without reaching
    stationarity, the model is dropped, re-assembled at the current
    iterate and the memory restarted.  Two stages in a row whose line
    search stalls end the solve (it cannot make progress).

    A converged solve hands its model, factored at ``eps_model``, on to the
    next eps of the chain, whose first stage runs on it when its
    ``r = (eps_model / eps)^2`` has ``max(r, 1/r) <= _INHERIT_RATIO``;
    otherwise it is dropped before the first build.  At a fixed point the
    model of an eps below ``eps_model`` is ``K + eps^2 F >= (eps /
    eps_model)^2 (K + eps_model^2 F)`` (``K`` kinetic, ``F`` Fisher), so
    the decrement under the inherited model, scaled by ``max(1, r)``,
    bounds the one under the solve's own model: the stopping target is
    divided by that factor and the reported stationarity, the final
    stage's decrement over eps^2, multiplied by it.  The model lives in the
    generator, not in any result, so a chain holds one band at a time and a
    kept result holds none: it holds its decision vector and the problem's
    ``_Chart``, which renders ``minimizer`` from that vector when it is
    first read, so a caller that keeps every result holds one decision
    vector per eps and no curve it has not read.  Once the chain drops a
    model, nothing reads its band, and the next build refills it (see
    ``_DensityProblem.make_preconditioner``).

    Each result's ``deviation`` is the largest ``row_distances`` of its
    decision vector from ``geodesic_z()``, the exact minimizer at eps = 0,
    where it is 0: the distance of each interior node from the geodesic's,
    exact in decision coordinates (point coordinates; for densities the
    W2 of the quantile rows), so no curve is rendered to measure it.

    Each descent ends at the iterate it evaluated last, unless its line
    search stalled, and the next eps starts there: the cost split into
    kinetic and Fisher parts after the descent, and the first evaluation
    of the next solve, reuse the problem's kept evaluation of that iterate
    (see ``_Problem._evaluation``) and change no bit of any result.  Every
    model takes its Jacobian from the evaluation at its point: a build at
    that iterate reads the kept one, and a cold-start build evaluates its
    start, which the stage's first evaluation then reuses.
    """
    opts = opts or SolverOptions()
    eps_list = list(eps_list)  # checked, then solved: a one-shot iterable runs out
    for eps in eps_list:
        _check_eps(eps)
    _check_endpoints(backend, x, y)
    if any(eps > 0 for eps in eps_list):
        _check_finite_entropy(backend, x, y)
    prob = _problem(backend, x, y, _uniform_times(opts.n_time), opts)
    z_geo = prob.geodesic_z()  # the deviations are measured from it
    z, precond, eps_model = None, None, None
    for eps in eps_list:
        sigma = eps**2
        if sigma < _VALUE_FLOOR:
            # the geodesic is optimal to the line search's allowance (above)
            kin, fis, g = prob.action(z_geo, sigma)
            if eps == 0.0 or sigma * fis <= _VALUE_FLOOR * kin:
                cost = kin + sigma * fis if eps else kin
                yield SchrodingerResult(prob.chart, cost, kin, fis, 0, True,
                                        float(np.max(np.abs(g))), eps or 0.0, (cost,),
                                        z_geo, 0, 0.0)
                continue
        if z is None:
            geo = geodesic_curve(backend, x, y, opts.n_time + 1)
            z = prob.pack(build_regularized(backend, geo, eps).tilde)
        if precond is not None and not (
                1.0 / _INHERIT_RATIO <= (eps_model / eps) ** 2 <= _INHERIT_RATIO):
            precond = None
        iters, builds, history = 0, 0, []
        stalled_before, converged = False, False
        while iters < opts.max_iter and not converged:
            if precond is None:
                precond, eps_model = prob.make_preconditioner(z, sigma), eps
                builds += 1
            scale = max(1.0, (eps_model / eps) ** 2)
            z, it, hist, converged, stalled, decrement = _lbfgs_armijo(
                lambda z: prob.value_grad(z, sigma), z, opts.grad_tol * sigma / scale,
                precond, min(_STAGE_BUDGET, opts.max_iter - iters))
            history.extend(hist if not history else hist[1:])
            iters += it
            if not converged:
                precond = None  # dropped before the next build, which may refill its band
            if stalled and stalled_before:
                break
            stalled_before = stalled
        kin, fis, _ = prob.action(z, sigma)
        yield SchrodingerResult(prob.chart, kin + sigma * fis, kin, fis, iters, converged,
                                decrement * scale / sigma, eps, tuple(history), z, builds,
                                float(np.max(prob.row_distances(z, z_geo))))


def solve(backend: SpaceBackend, x, y, eps: float,
          opts: Optional[SolverOptions] = None) -> SchrodingerResult:
    """Minimize the discretized entropic action between ``x`` and ``y``:
    the chain of ``solves`` of the one eps, which starts cold."""
    return next(solves(backend, x, y, [eps], opts))


def _same_point(a, b) -> bool:
    """Whether two curve ends are one point by value: densities with equal
    cells on one grid, or equal arrays."""
    if isinstance(a, GridDensity):
        return a.same_grid(b) and np.array_equal(a.rho, b.rho)
    return np.array_equal(a, b)


def discrete_action(backend: SpaceBackend, curve: Curve, eps: float,
                    opts: Optional[SolverOptions] = None) -> float:
    """Entropic action of a curve under the solver's own discretization:
    the one-curve case of ``discrete_actions``.

    Scoring competitor curves with exactly the functional ``solve``
    minimizes makes comparisons against solver costs sign-exact: any
    admissible curve evaluates at or above the solved minimum.
    """
    return discrete_actions(backend, [curve], [eps], opts)[0]


def discrete_actions(backend: SpaceBackend, curves, eps_list,
                     opts: Optional[SolverOptions] = None) -> list:
    """``discrete_action`` of each curve of ``curves`` at the eps of
    ``eps_list`` in the same place, scored on one problem.

    The curves must share their time grid and, by value, their end points
    (``DomainError`` otherwise), so the end rows are packed once; each
    curve's interior rows are packed on their own (one stack of all of
    them packed slower) and valued by ``_Problem.value``, with no gradient
    or model Jacobian, bit for bit the action a solve computes there.
    """
    curves, eps_list = list(curves), list(eps_list)
    if len(curves) != len(eps_list):
        raise DomainError(f"{len(curves)} curves for {len(eps_list)} eps")
    for eps in eps_list:
        _check_eps(eps)
    if not curves:
        return []
    opts = opts or SolverOptions()
    times, x, y = curves[0].times, curves[0].points[0], curves[0].points[-1]
    _check_endpoints(backend, x, y)
    for curve in curves:
        _check_curve(backend, curve)
        if not (np.array_equal(curve.times, times) and _same_point(curve.points[0], x)
                and _same_point(curve.points[-1], y)):
            raise DomainError("the curves of one discrete_actions call must share their "
                              "time grid and end points")
    prob = _problem(backend, x, y, times, opts)
    return [prob.value(prob.pack(curve), eps**2) for curve, eps in zip(curves, eps_list)]


def bridge_from_flow(backend: SpaceBackend, x, eps: float,
                     opts: Optional[SolverOptions] = None) -> SchrodingerResult:
    """Evaluate the gradient-flow trajectory ``t -> S_{eps t} x`` as a bridge.

    The trajectory joins ``x`` to ``S_eps x`` and its entropic action equals
    ``eps (E(x) - E(S_eps x))``, the optimal value between those endpoints;
    the returned result reports the curve's action, no optimization is run.
    """
    _check_eps(eps)
    if eps == 0:
        raise DomainError("bridge construction needs eps > 0")
    opts = opts or SolverOptions()
    times = _uniform_times(opts.n_time)
    pts = [x]
    for dt in np.diff(times):
        pts.append(backend.flow(pts[-1], float(eps * dt)))
    curve = Curve(times, pts)
    kin = kinetic_action(backend, curve)
    fis = fisher_action(backend, curve)
    cost = kin + eps**2 * fis
    return SchrodingerResult(curve, cost, kin, fis, 0, True, 0.0, eps, (cost,))
