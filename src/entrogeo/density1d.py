"""Probability densities on a 1D grid with Wasserstein-2 geometry.

States are piecewise-constant densities on a uniform grid over an interval
(with no-flux walls) or a circle (periodic).  The W2 distance and geodesics
are computed through quantile functions: every cell of a density sits at
or above one positive floor, ``DENSITY_FLOOR`` = 1e-12, so the CDF is
strictly increasing and piecewise linear, its inverse is piecewise linear
as well and

    W2(a, b)^2 = int_0^1 |Qa(u) - Qb(u)|^2 du

is integrated *exactly* segment by segment (the integrand is quadratic
between merged quantile breakpoints).  One cut kernel does this for many
pairs at once; on the interval a pair's distance is its cost at the cut at
the left wall.  On the circle the distance is minimized over the n
cell-edge cuts.  The cost of the cut at edge k is a convex function of the
CDF shift ``F_a(x_k) - F_b(x_k)`` (Delon, Salomon & Sobolevski 2010) whose
slope the cut kernel returns with the cost, so a bisection on the sign of
that slope over the cuts sorted by shift finds the least one.
``Density1DBackend.distances`` batches every pair on one grid: the cell
masses of each distinct density are stacked once, two turns each, and the
kernel gathers each cut's cells as a window of that table.  The searches
run in three waves, each in lockstep over chunks of up to 512 pairs, one
vectorized pass of the cut kernel per round.  A pair follows the earliest
earlier pair with its second point, else the first pair: the first pair
runs unseeded, the pairs that follow it start from its least cut, and the
rest start from their leader's.  A seeded search steps outward to the
bracket, which ends on the same cut as the bisection in fewer probes:
about 2.1 kernel rows a pair on the all-pairs chords of a curve, where 2
is the least.

Two entropy functionals are supported, with their slopes and flows:

* Boltzmann      E = int rho log rho,  slope^2 = int (rho'/rho)^2 rho
  (the Fisher information), flow = heat equation  d_s rho = rho_xx,
* power law m>1  E = int rho^m/(m-1),  slope^2 = int |(U'(rho))'|^2 rho,
  flow = porous medium equation  d_s rho = (rho^m)_xx.

Both flows contract W2 with lambda = 0 on these flat domains.  Heat steps
are backward Euler with substep <= dx^2/2; the porous medium uses a
lagged-coefficient semi-implicit scheme.  Each implicit step solves a
symmetric positive-definite tridiagonal system with LAPACK ``dpttrf`` and
``dpttrs``; on the circle the wrap face is split off by a Sherman-Morrison
correction.  Densities are clamped to ``DENSITY_FLOOR`` and renormalized
after every substep (log rho and 1/rho would blow up otherwise).  ``flows``
steps many densities on one grid in lockstep, and ``flow`` is ``flows`` of
one density: the systems of all rows still stepping are stacked into one
tridiagonal system whose blocks are joined by zero off-diagonals, so one
``dpttrs`` call per substep (heat factors the stack once, the porous
medium refactors it every substep) gives every row bit for bit what it
would get alone.  ``Density1DBackend.flows`` runs the flows of a curve's
nodes or of a certificate's sample times this way.

The LAPACK routines, these two and the solver's banded Cholesky pairs
``spbtrf``/``spbtrs`` (float32) and ``dpbtrf``/``dpbtrs`` (float64), come
from scipy's compiled ``_flapack`` extension, which ``_load_lapack`` loads
without ``import scipy.linalg``: that import would cost every CLI run about
0.3 s.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec
from typing import Callable, Optional

import numpy as np
import scipy
from numpy.lib.stride_tricks import sliding_window_view

from .core import SpaceBackend, _check_flow_time
from .errors import DomainError, FlowDiverged, GridMismatch, InvalidCurve

__all__ = [
    "DENSITY_FLOOR",
    "Density1DBackend",
    "EntropyKind",
    "GridDensity",
    "entropy",
    "flow",
    "flows",
    "slope",
    "w2_distance",
    "w2_geodesic",
]

DENSITY_FLOOR = 1e-12

_BOUNDARIES = ("periodic", "no-flux")


def _load_lapack():
    """scipy's compiled LAPACK wrappers, loaded without ``import scipy.linalg``.

    The package calls six routines: ``dpttrf``/``dpttrs`` here, and in the
    solver's Hessian models ``spbtrf``/``spbtrs``, which factor and apply
    the density model in single precision, and ``dpbtrf``/``dpbtrs``, which
    serve the Euclidean model and a density model that breaks down in
    float32.  ``import
    scipy.linalg`` costs about 0.3 s, most of it scipy's array-API layer
    importing ``numpy.testing``, ``numpy.f2py`` and ``numpy.ma``, while the
    extension ``scipy.linalg._flapack`` that holds the routines loads in
    about 20 ms.  It is loaded from its file in scipy's ``linalg``
    directory; ``import scipy`` above has already run scipy's
    ``_distributor_init``, which on some platforms makes the bundled BLAS
    findable.  The module name is private, so where
    no such file exists the public ``scipy.linalg.lapack`` serves the same
    routines under the same names.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    finder = FileFinder(os.path.join(scipy.__path__[0], "linalg"),
                        (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec(name)
    if spec is None:
        from scipy.linalg import lapack
        return lapack
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    # the load may register the module; a later ``import scipy.linalg``
    # then loads it the usual way, as an attribute of its package
    sys.modules.pop(name, None)
    return module


_lapack = _load_lapack()


def _project(rho: np.ndarray, dx) -> np.ndarray:
    """Clamp to ``DENSITY_FLOOR`` and renormalize each row to unit mass.

    ``dx`` is a scalar or one value per row.  A reduction along contiguous
    rows sums each row in the pairwise order of the 1-D sum, so a stack of
    rows projects bit for bit like each row alone.  The second clamp fixes
    the values the renormalization pushed below the floor; the mass defect
    it reintroduces is O(n * floor * dx * 1e-9), far below the 1e-12 mass
    tolerance.
    """
    out = np.maximum(rho, DENSITY_FLOOR)
    out = out / (out.sum(axis=-1, keepdims=True) * dx)
    return np.maximum(out, DENSITY_FLOOR)


@dataclass(frozen=True, eq=False)
class GridDensity:
    """Unit-mass density on ``n`` cells of width ``dx`` starting at ``x0``,
    with every cell at or above ``DENSITY_FLOOR``.

    ``normalize=True`` projects ``rho`` onto such densities; it raises
    ``DomainError`` when no cell is above the floor (a Gaussian far
    narrower than a cell, or off the grid), which projection would turn
    into the uniform density.

    It holds an array, so ``==`` and ``hash`` go by identity."""

    rho: np.ndarray
    dx: float
    x0: float = 0.0
    boundary: str = "no-flux"

    def __init__(self, rho, dx, x0=0.0, boundary="no-flux", normalize=False):
        rho = np.asarray(rho, dtype=float).copy()
        if rho.ndim != 1 or rho.size < 2:
            raise DomainError("density needs a 1D array with >= 2 cells")
        if not (math.isfinite(dx) and dx > 0):
            raise DomainError(f"dx must be finite and positive, got {dx!r}")
        if not math.isfinite(x0):
            raise DomainError(f"x0 must be finite, got {x0!r}")
        if boundary not in _BOUNDARIES:
            raise DomainError(f"boundary must be one of {_BOUNDARIES}")
        # a nan or +-inf cell makes the sum non-finite (nan passes both the
        # floor and the mass test, and the floor clamp would hide -inf)
        mass = rho.sum() * dx
        if not math.isfinite(mass):
            raise DomainError(f"density has non-finite mass {mass!r}")
        if normalize:
            if rho.max() <= DENSITY_FLOOR:
                raise DomainError("density has no cell above the floor")
            rho = _project(rho, dx)
        else:
            if np.any(rho < DENSITY_FLOOR):
                raise DomainError("density below floor; pass normalize=True")
            if abs(mass - 1.0) > 1e-12:
                raise DomainError(f"density mass {mass!r} != 1")
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "dx", float(dx))
        object.__setattr__(self, "x0", float(x0))
        object.__setattr__(self, "boundary", boundary)

    @property
    def n(self) -> int:
        return self.rho.size

    @property
    def length(self) -> float:
        return self.n * self.dx

    @property
    def centers(self) -> np.ndarray:
        return self.x0 + (np.arange(self.n) + 0.5) * self.dx

    @property
    def edges(self) -> np.ndarray:
        return self.x0 + np.arange(self.n + 1) * self.dx

    def with_rho(self, rho: np.ndarray) -> "GridDensity":
        return GridDensity(rho, self.dx, self.x0, self.boundary, normalize=True)

    def same_grid(self, other: "GridDensity") -> bool:
        return (
            isinstance(other, GridDensity)
            and self.n == other.n
            and self.boundary == other.boundary
            and math.isclose(self.dx, other.dx, rel_tol=1e-12, abs_tol=0.0)
            and math.isclose(self.x0, other.x0, rel_tol=0.0, abs_tol=1e-12 * self.length)
        )

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_function(fn: Callable[[np.ndarray], np.ndarray], n: int, dx: float,
                      x0: float = 0.0, boundary: str = "no-flux") -> "GridDensity":
        centers = x0 + (np.arange(n) + 0.5) * dx
        return GridDensity(fn(centers), dx, x0, boundary, normalize=True)

    @staticmethod
    def gaussian(mean: float, sigma: float, n: int, dx: float, x0: float = 0.0,
                 boundary: str = "no-flux") -> "GridDensity":
        if sigma <= 0:
            raise DomainError("sigma must be positive")
        pdf = lambda x: np.exp(-0.5 * ((x - mean) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
        return GridDensity.from_function(pdf, n, dx, x0, boundary)

    @staticmethod
    def uniform(n: int, dx: float, x0: float = 0.0, boundary: str = "no-flux") -> "GridDensity":
        L = n * dx
        return GridDensity(np.full(n, 1.0 / L), dx, x0, boundary)

    @staticmethod
    def point_mass(cell: int, n: int, dx: float, x0: float = 0.0,
                   boundary: str = "no-flux") -> "GridDensity":
        """All mass in one cell (up to the floor): the sharpest grid state."""
        if not (float(cell).is_integer() and 0 <= cell < n):
            raise DomainError(f"point mass cell must be an integer in [0, {n}), got {cell!r}")
        rho = np.full(n, DENSITY_FLOOR)
        rho[int(cell)] = 1.0 / dx
        return GridDensity(rho, dx, x0, boundary, normalize=True)


@dataclass(frozen=True)
class EntropyKind:
    """Selector for the entropy functional: Boltzmann or power law U_m."""

    name: str
    m: Optional[float] = None

    def __post_init__(self):
        if self.name == "boltzmann":
            if self.m is not None:
                raise DomainError("boltzmann entropy takes no exponent")
        elif self.name == "porous_medium":
            if self.m is None or not (math.isfinite(self.m) and self.m > 1.0):
                raise DomainError(f"porous medium exponent must be finite and > 1, got {self.m!r}")
        else:
            raise DomainError(f"unknown entropy kind {self.name!r}")

    @staticmethod
    def boltzmann() -> "EntropyKind":
        return EntropyKind("boltzmann")

    @staticmethod
    def porous_medium(m: float) -> "EntropyKind":
        return EntropyKind("porous_medium", float(m))


# -- quantile machinery ----------------------------------------------------

def _cdf(m: np.ndarray) -> np.ndarray:
    """CDF at the ``n + 1`` cell edges of each row of cell masses ``m``."""
    F = np.zeros(m.shape[:-1] + (m.shape[-1] + 1,))
    np.cumsum(m, axis=-1, out=F[..., 1:])
    F /= F[..., -1:]
    return F


def _cdf_nodes(d: GridDensity, rho: Optional[np.ndarray] = None):
    """Breakpoints ``(F_edges, x_edges)`` of the piecewise-linear quantile."""
    return _cdf((d.rho if rho is None else rho) * d.dx), d.edges


def _rolled_cdf_nodes(d: GridDensity, cut: int):
    """CDF of the density unrolled onto ``[x0 + cut*dx, x0 + cut*dx + L]``;
    at cut 0 these are the nodes of ``_cdf_nodes`` bit for bit."""
    F, _ = _cdf_nodes(d, np.roll(d.rho, -cut))
    return F, (d.x0 + cut * d.dx) + np.arange(d.n + 1) * d.dx


# merged CDF breakpoints (2n per cut) evaluated at once: bounds the working
# memory of one block of the cut kernel, and of one chunk of the theta sorts
# of a circle search
_CUT_BLOCK = 1 << 13
# circle searches run in lockstep at once: their bookkeeping, about 400
# bytes a pair at n = 64, stays within the memory of one kernel block
_SEARCH_PAIRS = _CUT_BLOCK // 16


def _turns(mass: np.ndarray) -> np.ndarray:
    """Every window of ``n`` cells of two turns of each row of the table
    ``mass``, shape ``(D, n)``: the cells of row ``i`` unrolled from edge
    ``k`` are window ``2 n i + k``."""
    return sliding_window_view(np.concatenate([mass, mass], axis=1).ravel(), mass.shape[1])


def _cut_costs(turns: np.ndarray, starts: np.ndarray, dx: float):
    """``_block_cut_costs`` of the rows ``starts`` in blocks of about
    ``_CUT_BLOCK`` merged breakpoints."""
    rows = max(1, _CUT_BLOCK // (2 * turns.shape[1]))
    costs = np.empty(len(starts))
    slopes = np.empty(len(starts))
    for s in range(0, len(starts), rows):
        costs[s:s + rows], slopes[s:s + rows] = _block_cut_costs(turns, starts[s:s + rows], dx)
    return costs, slopes


def _block_cut_costs(turns: np.ndarray, starts: np.ndarray, dx: float):
    """Squared interval W2 of pairs of circle densities cut open at cell
    edges, and its slope in the CDF shift.

    Row ``r`` unrolls density ``a`` as the cell masses of window
    ``turns[starts[r, 0]]`` and ``b`` as those of ``turns[starts[r, 1]]``
    (see ``_turns``).  Its cost is the exact ``int_0^1 (Qa - Qb)^2 du`` of
    the two and its slope is ``phi'(theta)`` there (see ``_min_cuts``).
    Cut 0 unrolls nothing, so its cost is the squared W2 of the pair on the
    interval.

    Each row merges the CDF values of both densities with a stable
    ``argsort``.  ``a``'s 0 sorts first and ``b``'s 1 last, so only the
    ``2n`` values between them are sorted.  At merged position ``q``, with
    ``ca`` values of ``a`` so far, an ``a`` breakpoint is ``F_a[ca]`` and
    lies in the cell of ``b`` from ``F_b[q - ca]``; a ``b`` breakpoint is
    ``F_b[q - ca]`` and lies in the cell of ``a`` from ``F_a[ca]``.  In the
    row of both CDFs either way the other density's cell starts at
    ``q + n + 1 - pos``, with ``pos`` the breakpoint's own place, and
    ``ca`` is the lesser of the two.  So only the other density is
    interpolated, to the offset ``f`` inside its cell.  Both quantiles
    share the cut's origin, so ``Qa - Qb`` is ``dx (2 ca - q - f)`` at an
    ``a`` breakpoint and ``dx (2 ca - q + f)`` at a ``b`` one: exact to
    roundoff however close the two densities are.  ``Qa / dx`` is ``ca``
    at an ``a`` breakpoint and ``ca + f`` at a ``b`` one, which gives the
    slope ``2 int (Qa - Qb) dQa``.  Below, ``f`` is negated at the ``a``
    breakpoints, so ``Qa - Qb`` is ``dx (2 ca - q + f)`` and ``Qa / dx`` is
    ``ca + max(f, 0)`` at every breakpoint.
    """
    n = turns.shape[1]
    F = _cdf(turns[starts]).reshape(len(starts), 2 * n + 2)
    pos = np.argsort(F[:, 1:-1], axis=1, kind="stable")
    from_a = pos < n
    q = np.arange(2 * n)
    base = np.arange(0, F.size, 2 * n + 2)[:, None]
    # flat indices into F of each breakpoint and of its other cell's left edge
    pos += base + 1
    other = (q + n + 1) + 2 * base
    other -= pos
    F = F.ravel()
    U = F[pos]
    F0 = F[other]
    np.minimum(pos, other, out=pos)
    other += 1
    f = F[other]
    # temporaries go as soon as they are spent, to keep a block's peak
    # memory low
    del F, other
    pos -= base
    ca = pos.astype(float)
    del pos
    f -= F0
    np.divide(np.subtract(U, F0, out=F0), f, out=f)
    del F0
    f *= np.where(from_a, -1.0, 1.0)
    qa = np.maximum(f, 0.0)
    qa += ca
    g = ca
    g += ca
    g -= q
    g += f
    g *= dx
    del f, from_a
    # difference is linear per segment, so its square integrates exactly:
    # g0^2 + g0 g1 + g1^2 = (g0 + g1)^2 - g0 g1.  The rows run on as one
    # flat array, whose shifted views ufuncs need not copy as they do the
    # column slices of a 2-D array; the entry joining two rows is left out
    # of the sums
    shape = (len(starts), 2 * n)
    g = g.ravel()
    g0 = g[:-1]
    g1 = g[1:]
    seg = np.zeros(g.size)
    tmp = np.zeros(g.size)
    qa = qa.ravel()
    np.subtract(qa[1:], qa[:-1], out=tmp[:-1])
    del qa
    np.add(g0, g1, out=seg[:-1])
    tmp *= seg
    slopes = np.sum(tmp.reshape(shape)[:, :-1], axis=1) * dx
    seg *= seg
    np.multiply(g0, g1, out=tmp[:-1])
    seg -= tmp
    U = U.ravel()
    np.subtract(U[1:], U[:-1], out=tmp[:-1])
    seg *= tmp
    return np.sum(seg.reshape(shape)[:, :-1], axis=1) / 3.0, slopes


def _min_cuts(mass: np.ndarray, pairs: np.ndarray, dx: float,
              seeds: Optional[np.ndarray] = None):
    """Least cut cost of each pair of circle densities and a cut attaining it.

    ``mass`` is a table of cell masses ``rho dx``, shape ``(D, n)``, and
    pair ``p`` is ``(mass[pairs[p, 0]], mass[pairs[p, 1]])``.  Cutting at
    edge ``k`` costs ``phi(theta_k)`` with ``theta_k = F_a(x_k) - F_b(x_k)``,
    where ``phi(theta) = int_0^1 (Qa(u) - Qb(u - theta))^2 du`` over the
    quantiles extended around the circle.  ``phi`` is convex and C^1, and
    with ``g = Qa - Qb`` of the cut its slope is
    ``phi'(theta_k) = 2 int g dQb = 2 int g dQa``: the two agree because
    ``g`` vanishes at ``u = 0`` and ``u = 1``.  The kernel returns it with
    each cost.  Over the cuts sorted by ``theta`` the least one lies in
    ``[lo, hi]``, at first ``[0, n - 1]``.  Each round probes one rank for
    every pair still open, all pairs in lockstep in one kernel pass: a
    slope below 0 sets ``lo`` to it, else ``hi``.  Without ``seeds`` the
    probe is ``mid = (lo + hi) // 2``.  With ``seeds``, one cut per pair
    (the cut of a nearby pair), the first probe is that cut's rank in the
    pair's own ``theta`` order clipped to ``[1, n - 2]``, the ranks
    bisection can probe; then the probes step outward from it by 1, 2,
    4, ... (never past ``mid``) until the slope's sign flips, and bisect
    from there.  Once ``hi - lo <= 1`` the cheaper end wins, ``lo`` on a
    tie.  No decision compares two costs, so repeated or near-equal thetas
    need no tie rule: a sign comes out wrong only where ``|phi'|`` is at
    roundoff, and then the bracket still holds a cut within roundoff of the
    least.  Where the signs are monotone in rank, both searches end on the
    bracket just below and at the first rank in ``[1, n - 2]`` with slope
    ``>= 0`` (``[n - 2, n - 1]`` if none), so a seed changes neither cost
    nor cut, only the number of probes.
    """
    P, n = len(pairs), mass.shape[1]
    turns = _turns(mass)
    F = _cdf(mass)[:, :-1]
    # each pair's cuts by rank, in the least integer type that holds them,
    # sorted about _CUT_BLOCK thetas at a time
    order = np.empty((P, n), dtype=np.min_scalar_type(n - 1))
    probe = None if seeds is None else np.empty(P, dtype=int)
    chunk = max(1, _CUT_BLOCK // n)
    for s in range(0, P, chunk):
        a, b = pairs[s:s + chunk].T
        order[s:s + chunk] = np.argsort(F[a] - F[b], axis=1, kind="stable")
        if probe is not None:
            probe[s:s + chunk] = np.argmax(order[s:s + chunk] == seeds[s:s + chunk, None], axis=1)
    del F
    origin = pairs * (2 * n)  # the windows of each pair's cut 0
    lo = np.zeros(P, dtype=int)
    hi = np.full(P, n - 1)
    # cost of each bracket end, nan until that end is probed
    ends = np.full((P, 2), np.nan)
    # the next probe steps this far right of lo (> 0) or left of hi (< 0),
    # never past mid; -n bisects
    step = np.full(P, -n)
    while True:
        act = np.flatnonzero(hi - lo > 1)
        if act.size == 0:
            break
        lo_a, hi_a, d = lo[act], hi[act], step[act]
        if probe is None:
            mid = (lo_a + hi_a) // 2
            at = np.where(d > 0, np.minimum(lo_a + d, mid), np.maximum(hi_a + d, mid))
        else:
            at = np.clip(probe[act], 1, n - 2)
        c, s = _cut_costs(turns, origin[act] + order[act, at, None], dx)
        right = s < 0
        lo[act] = np.where(right, at, lo_a)
        hi[act] = np.where(right, hi_a, at)
        ends[act, np.where(right, 0, 1)] = c
        if probe is None:
            step[act] = np.where((d > 0) == right, 2 * d, -n)
        else:
            step[act] = np.where(right, 1, -1)
            probe = None
    cuts = np.take_along_axis(order, np.stack([lo, hi], axis=1), axis=1)
    todo = np.isnan(ends)
    p, side = np.nonzero(todo)
    if p.size:
        ends[todo] = _cut_costs(turns, origin[p] + cuts[p, side, None], dx)[0]
    best = (ends[:, 1] < ends[:, 0]).astype(int)[:, None]
    return (np.take_along_axis(ends, best, axis=1)[:, 0],
            np.take_along_axis(cuts, best, axis=1)[:, 0])


def _id_table(ds: list):
    """The distinct points of ``ds`` (by ``id``) and the index of each entry
    among them.  Each distinct point is checked once: the rows of a batched
    call (a curve's chords, the flows of one point to many times) share
    their points.  Raises ``GridMismatch`` if a point is not a density on
    the grid of ``ds[0]``.  ``ds`` is a list, so the ids and ``index`` are
    1-D."""
    ids = np.fromiter(map(id, ds), np.uint64, len(ds))
    _, first, index = np.unique(ids, return_index=True, return_inverse=True)
    points = [ds[i] for i in first.tolist()]
    if not (isinstance(ds[0], GridDensity) and all(ds[0].same_grid(d) for d in points)):
        raise GridMismatch("densities live on different grids")
    return points, index


def w2_distance(a: GridDensity, b: GridDensity) -> float:
    """Wasserstein-2 distance between two densities on the same grid."""
    points, index = _id_table([a, b])
    return float(_distances(points, index[None])[0][0])


def _waves(pairs: np.ndarray):
    """Each pair's leader and the waves of a batch of circle cut searches.

    Pair ``p`` follows the earliest earlier pair with the same second point,
    else pair 0, and starts from that leader's least cut.  A leader is the
    earliest pair with its second point, so it follows pair 0 itself: wave 0
    is pair 0, run unseeded, wave 1 the pairs that follow pair 0, and wave 2
    the rest.  On the all-pairs chords of a curve, ``(i, j)`` follows
    ``(0, j)`` and ``(0, j)`` follows ``(0, 1)``.  Returns the leader of
    each pair and the nonempty waves, each an ascending array of pairs.
    """
    own = np.arange(len(pairs))
    _, first, inverse = np.unique(pairs[:, 1], return_index=True, return_inverse=True)
    lead = first[inverse]
    lead[lead == own] = 0
    waves = [own[:1], own[1:][lead[1:] == 0], own[lead != 0]]
    return lead, [w for w in waves if w.size]


def _distances(points: list, pairs: np.ndarray):
    """W2 of each pair ``(points[pairs[p, 0]], points[pairs[p, 1]])`` of
    densities on one grid, and the cut at which the pair attains it.

    The cell masses of each density of ``points`` are stacked once into a
    table, and the cut kernel gathers every pair's cells from it.  On the
    interval a pair's squared distance is the kernel's cost of the cut at
    edge 0, where both quantiles start at the common origin, so every cut
    is 0.  On the circle the pairs run ``_min_cuts`` in the waves of
    ``_waves``, each a lockstep search over up to ``_SEARCH_PAIRS`` pairs at
    a time, seeded with the leaders' cuts.  A pair that shares its second
    point with its leader has a least cut a few ranks from the leader's:
    the all-pairs chords of a 65-node geodesic on 64 cells take about 2.1
    kernel rows a pair.
    """
    P, dx = len(pairs), points[0].dx
    mass = np.stack([d.rho for d in points])
    mass *= dx
    cuts = np.zeros(P, dtype=int)
    if points[0].boundary == "no-flux":
        # only cut 0, whose windows are the rows of the table itself
        n = mass.shape[1]
        costs = _cut_costs(sliding_window_view(mass.ravel(), n), pairs * n, dx)[0]
        return np.sqrt(np.maximum(costs, 0.0)), cuts
    costs = np.empty(P)
    lead, waves = _waves(pairs)
    for k, wave in enumerate(waves):
        for s in range(0, wave.size, _SEARCH_PAIRS):
            part = wave[s:s + _SEARCH_PAIRS]
            costs[part], cuts[part] = _min_cuts(mass, pairs[part], dx,
                                                cuts[lead[part]] if k else None)
    return np.sqrt(np.maximum(costs, 0.0)), cuts


def _geodesic_sampler(a: GridDensity, b: GridDensity):
    """``theta -> `` displacement interpolant of ``a`` and ``b``, re-binned to
    their common grid.

    The cut search (cut 0 on the interval) and both CDF builds depend only
    on the endpoints, so they run once here and every sampled time reuses
    them.
    """
    points, index = _id_table([a, b])
    cut = int(_distances(points, index[None])[1][0])
    Fa, xa = _rolled_cdf_nodes(a, cut)
    Fb, xb = _rolled_cdf_nodes(b, cut)
    U = np.union1d(Fa, Fb)
    qa = np.interp(U, Fa, xa)
    qb = np.interp(U, Fb, xb)

    def at(theta: float) -> GridDensity:
        if not 0.0 <= theta <= 1.0:
            raise DomainError(f"theta must lie in [0, 1], got {theta}")
        # the quantile q is strictly increasing, so this inverts it exactly
        # edge by edge into the cell masses
        q = (1.0 - theta) * qa + theta * qb
        masses = np.diff(np.interp(xa, q, U, left=0.0, right=1.0))
        return a.with_rho(np.roll(masses, cut) / a.dx)

    return at


def w2_geodesic(a: GridDensity, b: GridDensity, theta: float) -> GridDensity:
    """Displacement interpolation, re-binned to the common grid."""
    return _geodesic_sampler(a, b)(theta)


# -- entropy and slope -----------------------------------------------------

def entropy(kind: EntropyKind, d: GridDensity) -> float:
    r = d.rho
    if kind.name == "boltzmann":
        return float(np.sum(r * np.log(r)) * d.dx)
    m = kind.m
    return float(np.sum(r**m) * d.dx / (m - 1.0))


def _uprime(kind: EntropyKind, r: np.ndarray) -> np.ndarray:
    if kind.name == "boltzmann":
        return np.log(r) + 1.0
    m = kind.m
    return (m / (m - 1.0)) * r ** (m - 1.0)


def _with_ghosts(g: np.ndarray, boundary: str) -> np.ndarray:
    if boundary == "periodic":
        return np.concatenate([g[-1:], g, g[:1]])
    # reflecting ghosts: the no-flux wall sees zero gradient
    return np.concatenate([g[:1], g, g[-1:]])


def slope(kind: EntropyKind, d: GridDensity) -> float:
    """Metric slope of the entropy: ``sqrt( sum |D U'(rho)|^2 rho dx )``.

    ``D`` is the central difference on the cell centers.  For the Boltzmann
    entropy this is the square root of the discrete Fisher information.
    """
    g = _with_ghosts(_uprime(kind, d.rho), d.boundary)
    dg = (g[2:] - g[:-2]) / (2.0 * d.dx)
    val = float(np.sum(dg * dg * d.rho) * d.dx)
    return math.sqrt(max(val, 0.0))


# -- gradient flows --------------------------------------------------------

def _implicit_step(dx: np.ndarray, boundary: str, ds: np.ndarray, a: np.ndarray):
    """One implicit step of every row of a stack,
    ``r_i -> (I - ds_i div(a_i grad .))^{-1} r_i``, as one tridiagonal system.

    ``dx`` and ``ds`` are columns, one value per row; ``a`` holds each
    row's n face values (periodic, face j between cells j and j+1) or n-1
    interior face values (no-flux).  Each block is symmetric positive
    definite and its columns sum to one, so the steps conserve mass
    exactly.  The blocks are joined by zero off-diagonals, so LAPACK
    ``dpttrf`` and ``dpttrs`` do exactly the arithmetic of each block on
    its own and every row comes out bit for bit as if stepped alone.  The
    stack is factored once; the returned solve takes the first ``p`` rows
    of the stack, ``(p, n)``, and solves with the blocks those rows own.
    On the circle the wrap face is split off by Sherman-Morrison:
    ``M = T' + w u u^T`` with ``u = e_0 + e_{n-1}``, ``w = -ds a_{n-1}/dx^2``
    and ``T'`` the tridiagonal part with both end diagonals raised by
    ``|w|``, which costs one more stacked solve per factorization.  For
    n = 2, where the wrap face joins the same two cells as the inner face,
    ``u`` is the all-ones vector and the split adds ``w`` to the
    off-diagonal as well, so no special case is needed.  A block that is
    not positive definite raises ``FlowDiverged`` naming its row of the
    stack and its leading minor.
    """
    c = ds / (dx * dx)
    wrap = boundary == "periodic"
    inner = a[:, :-1] if wrap else a
    rows, n = inner.shape[0], inner.shape[1] + 1
    d = np.ones((rows, n))
    d[:, :-1] += c * inner
    d[:, 1:] += c * inner
    if wrap:
        d[:, [0, -1]] += 2.0 * c * a[:, -1:]
    e = np.zeros((rows, n))
    e[:, :-1] = -c * inner
    d, e, info = _lapack.dpttrf(d.ravel(), e.ravel()[:-1], overwrite_d=1, overwrite_e=1)
    if info > 0:
        row, minor = divmod(info - 1, n)
        raise FlowDiverged(f"implicit flow step of row {row} is not positive "
                           f"definite (dpttrf info {minor + 1})")

    def solve(r: np.ndarray) -> np.ndarray:
        p = r.shape[0]
        return _lapack.dpttrs(d[:p * n], e[:p * n - 1], r.ravel())[0].reshape(p, n)

    if not wrap:
        return solve
    w = -c[:, 0] * a[:, -1]
    u = np.zeros((rows, n))
    u[:, [0, -1]] = 1.0
    z = solve(u)
    z *= (w / (1.0 + w * (z[:, 0] + z[:, -1])))[:, None]

    def solve_wrapped(r: np.ndarray) -> np.ndarray:
        y = solve(r)
        return y - (y[:, :1] + y[:, -1:]) * z[:y.shape[0]]

    return solve_wrapped


def _face_values(r: np.ndarray, boundary: str) -> np.ndarray:
    if boundary == "periodic":
        return 0.5 * (r + np.roll(r, -1, axis=-1))
    return 0.5 * (r[..., :-1] + r[..., 1:])


def flow(kind: EntropyKind, d: GridDensity, s: float) -> GridDensity:
    """Entropy gradient flow for time ``s``: heat or porous-medium equation
    (``flows`` of one density)."""
    return flows(kind, [d], [s])[0]


def flows(kind: EntropyKind, ds, ss) -> list:
    """``flow`` of each density ``ds[i]`` for its time ``ss[i]``, all in
    lockstep on their common grid.

    A zero time returns the density itself, and a negative or non-finite
    one raises ``DomainError``.  Every other row takes
    ``nsub`` substeps of length ``s / nsub``, with ``nsub`` the least
    count whose substep stays under the row's stability cap (``dx^2 / 2``
    for heat, ``dx^2 / (m max(rho)^(m-1))`` for the porous medium).  The
    rows are ordered by ``nsub``, descending and stable, so the rows still
    stepping are always a prefix of the stack, and each round is one
    stacked ``_implicit_step`` of that prefix: heat factors the whole stack
    once, the porous medium refactors the prefix with its lagged face
    coefficients.  Every row comes out bit for bit as if flowed alone.
    """
    ds, ss = list(ds), [float(s) for s in ss]
    if len(ds) != len(ss):
        raise DomainError(f"{len(ds)} densities for {len(ss)} flow times")
    for s in ss:
        _check_flow_time(s)
    if ds:
        _id_table(ds)  # raises GridMismatch off the grid of ds[0]
    out = list(ds)
    live = [i for i, s in enumerate(ss) if s != 0.0]
    if not live:
        return out

    heat = kind.name == "boltzmann"
    m = kind.m
    nsub = {}
    for i in live:
        dx = ds[i].dx
        cap = 0.5 * dx * dx if heat else dx * dx / (m * float(np.max(ds[i].rho)) ** (m - 1.0))
        nsub[i] = max(1, int(math.ceil(ss[i] / cap)))
    live.sort(key=lambda i: -nsub[i])
    steps = np.array([nsub[i] for i in live])
    dt = np.array([ss[i] / nsub[i] for i in live])[:, None]
    dx = np.array([ds[i].dx for i in live])[:, None]
    boundary = ds[0].boundary
    r = np.stack([ds[i].rho for i in live])
    if heat:
        faces = r.shape[1] if boundary == "periodic" else r.shape[1] - 1
        step = _implicit_step(dx, boundary, dt, np.ones((len(live), faces)))
    for k in range(steps[0]):
        p = int(np.count_nonzero(steps > k))
        if not heat:
            a = m * _face_values(r[:p], boundary) ** (m - 1.0)
            step = _implicit_step(dx[:p], boundary, dt[:p], a)
        y = step(r[:p])
        if not np.all(np.isfinite(y)):
            raise FlowDiverged(
                f"{'heat' if heat else 'porous-medium'} step produced non-finite density")
        r[:p] = _project(y, dx[:p])
    for i, row in zip(live, r):
        out[i] = ds[i].with_rho(row)
    return out


class Density1DBackend(SpaceBackend):
    """Wasserstein-2 space over a 1D grid with a chosen entropy (lambda = 0)."""

    def __init__(self, kind: EntropyKind):
        self.kind = kind
        self.lam = 0.0

    def distance(self, a, b) -> float:
        return w2_distance(a, b)

    def distances(self, xs, ys) -> np.ndarray:
        """``distance`` of each pair, all through the batched cut kernel
        (``_distances``).  Each distinct point's grid is checked once: a
        curve's chords share their nodes."""
        xs, ys = list(xs), list(ys)
        if len(xs) != len(ys):
            raise DomainError(f"{len(xs)} first points for {len(ys)} second points")
        if not xs:
            return np.empty(0)
        points, index = _id_table(xs + ys)
        return _distances(points, index.reshape(2, -1).T)[0]

    def geodesic(self, a, b, theta: float):
        return w2_geodesic(a, b, theta)

    def geodesic_points(self, a, b, thetas) -> list:
        sample = _geodesic_sampler(a, b)
        return [sample(th) for th in thetas]

    def entropy(self, x) -> float:
        return entropy(self.kind, x)

    def slope(self, x) -> float:
        return slope(self.kind, x)

    def flow(self, x, s: float):
        return flow(self.kind, x, s)

    def flows(self, xs, ss) -> list:
        return flows(self.kind, xs, ss)

    def check_point(self, x) -> None:
        if not isinstance(x, GridDensity):
            raise InvalidCurve(f"expected GridDensity, got {type(x).__name__}")

    def same_space(self, a, b) -> bool:
        return isinstance(a, GridDensity) and a.same_grid(b)
