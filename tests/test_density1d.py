import bisect
import inspect
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import norm

from entrogeo import (
    EntropyKind,
    GridDensity,
    w2_distance,
    w2_geodesic,
)
from entrogeo import density1d
from entrogeo.core import geodesic_curve
from entrogeo.density1d import (
    DENSITY_FLOOR,
    _cdf_nodes,
    _cut_costs,
    _distances,
    _implicit_step,
    _min_cuts,
    _rolled_cdf_nodes,
    _turns,
    _waves,
    entropy,
    flow,
    flows,
    slope,
)
from entrogeo.errors import DomainError, FlowDiverged, GridMismatch
from entrogeo.fileio import density_from_csv, density_to_csv

from conftest import SWEEP, WIDE, gaussian_on

KB = EntropyKind.boltzmann()
KP = EntropyKind.porous_medium(2.0)


def l1(a, b):
    return float(np.sum(np.abs(a.rho - b.rho)) * a.dx)


class TestGridDensity:
    def test_mass_invariant_enforced(self):
        with pytest.raises(DomainError):
            GridDensity(np.full(8, 1.0), dx=1.0)  # mass 8

    def test_floor_enforced(self):
        rho = np.full(8, 0.125)
        rho[0] = 0.0
        with pytest.raises(DomainError):
            GridDensity(rho, dx=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("normalize", [False, True])
    def test_non_finite_rejected(self, bad, normalize):
        # nan passes both the floor and the mass test, and the floor clamp
        # of normalize would turn -inf into a valid cell
        rho = np.full(8, 0.125)
        rho[3] = bad
        with pytest.raises(DomainError, match="non-finite"):
            GridDensity(rho, dx=1.0, normalize=normalize)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_with_rho_rejects_non_finite(self, bad):
        d = GridDensity.uniform(8, 0.125, boundary="periodic")
        rho = d.rho.copy()
        rho[0] = bad
        with pytest.raises(DomainError, match="non-finite"):
            d.with_rho(rho)

    @pytest.mark.parametrize("dx, x0, name", [
        (math.nan, 0.0, "dx"), (math.inf, 0.0, "dx"),
        (0.25, math.nan, "x0"), (0.25, math.inf, "x0"), (0.25, -math.inf, "x0"),
    ])
    def test_non_finite_grid_rejected(self, dx, x0, name):
        # a density with a nan x0 would not be on its own grid, so
        # w2_distance(d, d) would raise GridMismatch
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            GridDensity.uniform(4, dx, x0=x0)

    @pytest.mark.parametrize("cell", [64, 300, -1, 2.7, math.nan])
    def test_point_mass_cell_checked(self, cell):
        with pytest.raises(DomainError, match="point mass cell"):
            GridDensity.point_mass(cell, 64, 0.25)

    @pytest.mark.parametrize("cell", [0, 63, 5.0])
    def test_point_mass_in_its_cell(self, cell):
        d = GridDensity.point_mass(cell, 64, 0.25)
        assert int(np.argmax(d.rho)) == cell

    @pytest.mark.parametrize("mean, sigma", [(0.0, 1e-3), (50.0, 1.0)], ids=["narrow", "off-grid"])
    def test_no_mass_on_the_grid_rejected(self, mean, sigma):
        # every cell is below the floor, so projection would return the
        # uniform density
        with pytest.raises(DomainError, match="no cell above the floor"):
            gaussian_on(SWEEP, mean, sigma)
        with pytest.raises(DomainError, match="no cell above the floor"):
            GridDensity(np.zeros(8), dx=1.0, normalize=True)

    def test_normalize_projects(self):
        d = GridDensity(np.arange(1.0, 9.0), dx=0.5, normalize=True)
        assert abs(d.rho.sum() * d.dx - 1.0) <= 1e-12
        assert np.all(d.rho >= DENSITY_FLOOR)
        assert not hasattr(d, "floor")

    def test_csv_round_trip(self, tmp_path):
        d = gaussian_on(WIDE, 0.3, 1.1)
        path = tmp_path / "density.csv"
        density_to_csv(d, path)
        back = density_from_csv(path)
        assert back.n == d.n
        assert back.dx == pytest.approx(d.dx, rel=1e-12)
        assert l1(back, d) <= 1e-12


class TestW2Distance:
    def test_identity(self):
        a = gaussian_on(WIDE, 0.0, 1.0)
        assert w2_distance(a, a) == 0.0

    def test_aligned_translation_exact(self):
        # a shift by a whole number of cells is represented exactly
        n, dx, x0 = 448, 1.0 / 32, -6.0
        a = GridDensity.gaussian(0.0, 1.0, n, dx, x0)
        b = a.with_rho(np.roll(a.rho, 48))
        assert w2_distance(a, b) == pytest.approx(48 * dx, abs=1e-6)

    def test_generic_translation(self):
        a = gaussian_on(WIDE, -1.0, 1.0)
        b = gaussian_on(WIDE, 0.3, 1.0)
        assert w2_distance(a, b) == pytest.approx(1.3, abs=1e-4)

    def test_gaussian_closed_form(self):
        # W2(N(0,1), N(2, 1.5^2))^2 = (m0-m1)^2 + (s0-s1)^2 = 4.25; the
        # quantile-quadrature oracle below re-derives it independently
        n, dx, x0 = 512, 22.0 / 512, -10.0
        a = GridDensity.gaussian(0.0, 1.0, n, dx, x0)
        b = GridDensity.gaussian(2.0, 1.5, n, dx, x0)
        u = (np.arange(200000) + 0.5) / 200000
        oracle = math.sqrt(np.mean((norm.ppf(u, 0, 1) - norm.ppf(u, 2, 1.5)) ** 2))
        assert oracle == pytest.approx(math.sqrt(4.25), abs=1e-4)
        assert w2_distance(a, b) == pytest.approx(math.sqrt(4.25), abs=1e-3)

    def test_interval_exact_on_near_pairs(self, boltzmann):
        # nearly equal densities (neighbouring geodesic nodes, a node and its
        # short heat flow) against exact rational arithmetic on the same CDF
        # breakpoints: the kernel forms Qa - Qb without the cancellation of
        # interpolating both quantiles at their absolute positions
        n, dx, x0 = 64, 0.25, -8.0
        a = GridDensity.gaussian(-1.0, 1.0, n, dx, x0)
        b = GridDensity.gaussian(1.2, 2.0, n, dx, x0)
        pts = geodesic_curve(boltzmann, a, b, 64).points
        pairs = list(zip(pts[:-1:8], pts[1::8])) + [(p, flow(KB, p, 1e-5)) for p in pts[::16]]
        err_kernel, err_merged = [], []
        for p, q in pairs:
            ref = exact_interval_l2sq(p, q)
            merged = quantile_l2sq(*_cdf_nodes(p), *_cdf_nodes(q))
            err_kernel.append(float(abs(Fraction(w2_distance(p, q) ** 2) - ref) / ref))
            err_merged.append(float(abs(Fraction(merged) - ref) / ref))
        assert max(err_kernel) <= 1e-12
        assert max(err_kernel) <= max(err_merged)

    def test_grid_mismatch_rejected(self):
        a = gaussian_on(WIDE, 0.0, 1.0)
        b = GridDensity.gaussian(0.0, 1.0, 256, 20.0 / 256, -10.0)
        with pytest.raises(GridMismatch):
            w2_distance(a, b)

    def test_periodic_tight_translate(self):
        # sigma small enough that no mass reaches the seam: the circle
        # distance coincides with the rigid rotation cost
        n, dx = 384, 1.0 / 32
        a = GridDensity.gaussian(0.0, 0.5, n, dx, x0=-6.0, boundary="periodic")
        b = a.with_rho(np.roll(a.rho, 64))
        assert w2_distance(a, b) == pytest.approx(2.0, abs=1e-6)

    def test_periodic_wraps_the_short_way(self):
        n, dx = 256, 1.0 / 32
        a = GridDensity.gaussian(0.0, 0.3, n, dx, x0=-4.0, boundary="periodic")
        b = a.with_rho(np.roll(a.rho, -32))  # shift -1, i.e. 7 the long way
        assert w2_distance(a, b) == pytest.approx(1.0, abs=1e-6)


def quantile_l2sq(Fa, xa, Fb, xb):
    """Exact ``int_0^1 (Qa - Qb)^2 du`` for two piecewise-linear quantiles,
    merged breakpoint by breakpoint with ``union1d`` and ``interp``."""
    U = np.union1d(Fa, Fb)
    g = np.interp(U, Fa, xa) - np.interp(U, Fb, xb)
    g0, g1 = g[:-1], g[1:]
    # difference is linear per segment, so its square integrates exactly
    return float(np.sum(np.diff(U) * (g0 * g0 + g0 * g1 + g1 * g1) / 3.0))


def exact_interval_l2sq(a, b):
    """``int_0^1 (Qa - Qb)^2 du`` in rational arithmetic, from the float CDF
    breakpoints of both densities and exact cell-edge positions."""
    Fa = [Fraction(v) for v in _cdf_nodes(a)[0].tolist()]
    Fb = [Fraction(v) for v in _cdf_nodes(b)[0].tolist()]
    dx = Fraction(a.dx)

    def quantile(F, u):
        i = min(bisect.bisect_right(F, u) - 1, len(F) - 2)
        return (i + (u - F[i]) / (F[i + 1] - F[i])) * dx

    U = sorted(set(Fa) | set(Fb))
    g = [quantile(Fa, u) - quantile(Fb, u) for u in U]
    return sum((u1 - u0) * (g0 * g0 + g0 * g1 + g1 * g1) / 3
               for u0, u1, g0, g1 in zip(U, U[1:], g, g[1:]))


def loop_cut_costs(a, b):
    """Reference for the batched kernel: each cell-edge cut on its own."""
    costs = []
    for cut in range(a.n):
        Fa, x = _cdf_nodes(a, np.roll(a.rho, -cut))
        Fb, _ = _cdf_nodes(b, np.roll(b.rho, -cut))
        costs.append(quantile_l2sq(Fa, x, Fb, x))
    return np.array(costs)


def random_bumps(rng, n, background, widths=(0.03, 0.15)):
    """Three wrapped Gaussian bumps of random place, width and weight on [-8, 8)."""
    L = 16.0
    centers = rng.uniform(-8.0, 8.0, 3)
    widths = rng.uniform(*widths, 3) * L
    weights = rng.uniform(0.3, 1.0, 3)

    def fn(x):
        z = (x[:, None] - centers + L / 2) % L - L / 2
        return background + np.sum(weights * np.exp(-0.5 * (z / widths) ** 2), axis=1)

    return GridDensity.from_function(fn, n, L / n, -8.0, "periodic")


def table(pairs):
    """The cell masses of ``pairs`` stacked as a table, and each pair's two rows."""
    mass = np.stack([d.rho * d.dx for pair in pairs for d in pair])
    return mass, np.arange(len(mass)).reshape(-1, 2)


def cut_costs(pairs, cuts):
    """Costs and slopes of pair ``p`` cut at each edge of ``cuts[p]``."""
    mass, rows = table(pairs)
    starts = (rows * 2 * mass.shape[1])[:, None, :] + cuts[:, :, None]
    costs, slopes = _cut_costs(_turns(mass), starts.reshape(-1, 2), pairs[0][0].dx)
    return costs.reshape(cuts.shape), slopes.reshape(cuts.shape)


def min_cuts(pairs, seeds=None):
    mass, rows = table(pairs)
    return _min_cuts(mass, rows, pairs[0][0].dx, seeds)


def all_cut_costs(a, b):
    return cut_costs([(a, b)], np.arange(a.n)[None])[0][0]


def plateau_pairs(rng, n, count):
    """Narrow bumps that decay to the floor: many cells sit at the floor in
    both densities, the draw that defeats a plain bisection."""
    return [(random_bumps(rng, n, 0.0, (0.01, 0.03)), random_bumps(rng, n, 0.0, (0.01, 0.03)))
            for _ in range(count)]


def circle_geodesic(backend):
    """The 65 nodes of a geodesic between two bumps on a 64-cell circle:
    neighbouring nodes are nearly equal densities."""
    n, dx, x0 = 64, 0.25, -8.0
    L = n * dx
    a = GridDensity.gaussian(x0 + 0.45 * L, 0.05 * L, n, dx, x0, "periodic")
    b = GridDensity.gaussian(x0 + 0.6 * L, 0.09 * L, n, dx, x0, "periodic")
    return geodesic_curve(backend, a, b, 64).points


@pytest.fixture
def kernel_rows(monkeypatch):
    """The number of cut rows of each call of the cut kernel."""
    evaluated = []
    kernel = density1d._block_cut_costs
    signature = inspect.signature(kernel)

    def counting(*args, **kwargs):
        evaluated.append(len(signature.bind(*args, **kwargs).arguments["starts"]))
        return kernel(*args, **kwargs)

    monkeypatch.setattr(density1d, "_block_cut_costs", counting)
    return evaluated


def plain_bisection(a, b):
    """Least cut cost by bisection on the sorted thetas with no tie rule."""
    theta = (_cdf_nodes(a)[0] - _cdf_nodes(b)[0])[:-1]
    costs = all_cut_costs(a, b)[np.argsort(theta, kind="stable")]
    lo, hi = 0, a.n - 1
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if costs[mid + 1] < costs[mid] else (lo, mid)
    return costs[lo]


class TestCircleCutCosts:
    @pytest.mark.parametrize("n", [64, 300])  # 300 cuts span several row blocks
    def test_matches_per_cut_loop(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            a = random_bumps(rng, n, background=0.02)
            b = random_bumps(rng, n, background=0.02)
            ref = loop_cut_costs(a, b)
            costs = all_cut_costs(a, b)
            assert np.max(np.abs(costs - ref) / ref) <= 1e-12
            assert np.argmin(costs) == np.argmin(ref)
            assert w2_distance(a, b) == pytest.approx(math.sqrt(ref.min()), rel=1e-12)

    def test_ties_broken_within_roundoff(self):
        # narrow bumps that decay to the floor: every cut through a region
        # empty in both densities costs the same up to roundoff, so the
        # search may pick another of those cuts than the loop, but never a
        # dearer one
        rng = np.random.default_rng(1)
        tied = 0
        for _ in range(5):
            a = random_bumps(rng, 64, background=0.0, widths=(0.01, 0.03))
            b = random_bumps(rng, 64, background=0.0, widths=(0.01, 0.03))
            ref = loop_cut_costs(a, b)
            costs = all_cut_costs(a, b)
            assert np.max(np.abs(costs - ref) / ref) <= 1e-12
            _, cut = min_cuts([(a, b)])
            assert ref[cut[0]] <= ref.min() * (1.0 + 1e-12)
            tied += np.sum(ref <= ref.min() * (1.0 + 1e-12)) > 1
        assert tied > 0  # the draw does contain tied cuts

    def test_whole_cell_rotation_exact(self):
        n, dx = 64, 0.25
        a = GridDensity.gaussian(-1.0, 0.5, n, dx, x0=-8.0, boundary="periodic")
        b = a.with_rho(np.roll(a.rho, 7))
        costs = all_cut_costs(a, b)
        ref = loop_cut_costs(a, b)
        assert np.max(np.abs(costs - ref) / ref) <= 1e-12
        # only the floor mass in the 7 cells the bump crosses moves less
        assert w2_distance(a, b) == pytest.approx(7 * dx, rel=1e-10)

    def test_neighbouring_geodesic_nodes(self, porous2):
        # nearly equal densities: Qa - Qb is tiny next to the positions, so
        # the kernel must form it without cancellation
        pts = circle_geodesic(porous2)
        for p, q in zip(pts[:-1], pts[1:]):
            ref = loop_cut_costs(p, q)
            assert np.max(np.abs(all_cut_costs(p, q) - ref) / ref) <= 1e-12

    @pytest.mark.parametrize("n", [16, 64, 300])
    @pytest.mark.parametrize("plateau", [False, True])
    def test_slope_is_derivative_of_cost(self, n, plateau):
        # phi is convex and C^1, so between neighbouring sorted thetas each
        # secant lies between the kernel's slopes at its two ends
        rng = np.random.default_rng(20 * n + plateau)
        if plateau:
            pairs = plateau_pairs(rng, n, 5)
        else:
            pairs = [(random_bumps(rng, n, 0.02), random_bumps(rng, n, 0.02)) for _ in range(5)]
        for a, b in pairs:
            costs, slopes = cut_costs([(a, b)], np.arange(n)[None])
            theta = (_cdf_nodes(a)[0] - _cdf_nodes(b)[0])[:-1]
            order = np.argsort(theta, kind="stable")
            t, c, s = theta[order], costs[0][order], slopes[0][order]
            dt = np.diff(t)
            apart = dt > 1e-9
            secant = np.diff(c)[apart] / dt[apart]
            tol = 1e-12 * np.max(np.abs(s))
            assert np.all(secant >= s[:-1][apart] - tol)
            assert np.all(secant <= s[1:][apart] + tol)

    def test_rows_and_cut_lists_independent(self):
        # a pair's costs do not depend on the other pairs or cuts beside it
        rng = np.random.default_rng(3)
        pairs = plateau_pairs(rng, 40, 3)
        cuts = rng.integers(0, 40, (3, 7))
        costs, _ = cut_costs(pairs, cuts)
        for p, (a, b) in enumerate(pairs):
            assert np.array_equal(costs[p], all_cut_costs(a, b)[cuts[p]])


class TestCircleCutSearch:
    @pytest.mark.parametrize("n", [8, 64, 300])
    @pytest.mark.parametrize("plateau", [False, True])
    def test_matches_all_cuts_minimum(self, n, plateau):
        rng = np.random.default_rng(10 * n + plateau)
        if plateau:
            pairs = plateau_pairs(rng, n, 20)
        else:
            pairs = [(random_bumps(rng, n, 0.02), random_bumps(rng, n, 0.02)) for _ in range(20)]
        cost, cut = min_cuts(pairs)
        for p, (a, b) in enumerate(pairs):
            costs = all_cut_costs(a, b)
            assert cost[p] == costs[cut[p]]
            assert cost[p] <= costs.min() * (1.0 + 1e-12)

    def test_plateau_draws_defeat_plain_bisection(self):
        # comparing the costs of neighbouring cuts is fooled where they tie
        # to roundoff; the bisection on the sign of the slope stays exact
        pairs = plateau_pairs(np.random.default_rng(1), 64, 30)
        cost, _ = min_cuts(pairs)
        fooled = 0
        for (a, b), c in zip(pairs, cost):
            best = all_cut_costs(a, b).min()
            fooled += plain_bisection(a, b) > best * (1.0 + 1e-12)
            assert c <= best * (1.0 + 1e-12)
        assert fooled > 0

    @pytest.mark.parametrize("n", [3, 4, 16, 64, 300])
    def test_any_seed_gives_the_unseeded_result(self, n):
        # a seed moves only the first probe: from every cut, each draw ends
        # on the bracket of the unseeded bisection, so on the same cost and cut
        rng = np.random.default_rng(30 + n)
        pairs = [(random_bumps(rng, n, 0.02), random_bumps(rng, n, 0.02)) for _ in range(3)]
        pairs += plateau_pairs(rng, n, 3)
        # at n = 3 this draw is two near copies of one point mass: every
        # slope is negative at roundoff, yet the last cut costs more than
        # the middle one, so only the clip keeps a seed off the last rank
        pairs += plateau_pairs(np.random.default_rng(15), n, 1)
        u = GridDensity.uniform(n, 16.0 / n, -8.0, "periodic")
        pairs += [(u, pairs[0][0]), (u, u), (pairs[1][1], pairs[1][1])]
        for a, b in pairs:
            cost, cut = min_cuts([(a, b)])
            seeded, cuts = min_cuts([(a, b)] * n, np.arange(n))
            assert seeded.tobytes() == np.repeat(cost, n).tobytes()
            assert np.array_equal(cuts, np.repeat(cut, n))

    @pytest.mark.parametrize("n", [8, 64, 300])
    def test_cut_evaluations_per_pair(self, n, kernel_rows):
        # one cut per pair per round, then at most the two bracket ends
        rng = np.random.default_rng(n)
        pairs = plateau_pairs(rng, n, 4)
        pairs += [(random_bumps(rng, n, 0.02), random_bumps(rng, n, 0.02)) for _ in range(4)]
        min_cuts(pairs)
        assert sum(kernel_rows) <= len(pairs) * (math.ceil(math.log2(n - 1)) + 2)
        for a, b in pairs:
            kernel_rows.clear()
            min_cuts([(a, b)])
            assert sum(kernel_rows) <= math.ceil(math.log2(n - 1)) + 2

    def test_seeded_cut_evaluations_all_pairs(self, porous2, kernel_rows):
        # the chords of one node to every later node of a geodesic: (i, j)
        # starts from the cut of (0, j), next to its own (unseeded
        # bisection takes 6 rows per pair at n = 64, and perfect seeds 2);
        # measured 4,288 rows in 88 kernel calls for the 2,080 pairs
        pts = circle_geodesic(porous2)
        pairs = [(i, j) for i in range(len(pts)) for j in range(i + 1, len(pts))]
        kernel_rows.clear()  # the geodesic's own cut search
        porous2.distances([pts[i] for i, _ in pairs], [pts[j] for _, j in pairs])
        assert sum(kernel_rows) <= 2.07 * len(pairs)
        assert len(kernel_rows) <= 88

    def test_seeded_cut_evaluations_consecutive_chords(self, porous2, kernel_rows):
        # a curve's consecutive chords are all leaders: seeded with the
        # first chord's cut they take 2.75 rows each where unseeded
        # bisection took 6
        pts = circle_geodesic(porous2)
        kernel_rows.clear()
        porous2.distances(pts[:-1], pts[1:])
        assert sum(kernel_rows) <= 2.8 * (len(pts) - 1)

    @pytest.mark.parametrize("n", [8, 64, 300])
    def test_seeded_cut_evaluations_star(self, n, porous2, kernel_rows):
        # one point against unrelated draws: a seed far from the cut costs
        # at most the outward steps and a bisection of what they bracket
        rng = np.random.default_rng(40 + n)
        ys = [b for pair in plateau_pairs(rng, n, 8) for b in pair]
        ys += [random_bumps(rng, n, 0.02) for _ in range(16)]
        porous2.distances([random_bumps(rng, n, 0.02)] * len(ys), ys)
        assert sum(kernel_rows) <= len(ys) * 2 * (math.ceil(math.log2(n - 1)) + 2)

    def test_identical_densities(self):
        a = random_bumps(np.random.default_rng(4), 16, 0.0)
        cost, _ = min_cuts([(a, a)])
        assert cost[0] == 0.0


class TestDistances:
    @pytest.mark.parametrize("boundary", ["periodic", "no-flux"])
    def test_equals_per_pair_loop(self, porous2, boundary):
        rng = np.random.default_rng(5)
        pts = [random_bumps(rng, 48, 0.0) for _ in range(7)]
        pts = [GridDensity(p.rho, p.dx, p.x0, boundary) for p in pts]
        xs, ys = pts[:-1], pts[1:]
        d = porous2.distances(xs, ys)
        assert d.tolist() == [porous2.distance(x, y) for x, y in zip(xs, ys)]

    @pytest.mark.parametrize("shape", ["all_pairs", "star", "chain", "many_to_one", "shuffled",
                                       "shared_first"])
    def test_seeded_lists_equal_per_pair_loop(self, porous2, shape):
        # the seeded leaders and followers give each pair the bytes of its
        # own unseeded search (w2_distance runs one pair, unseeded)
        pts = circle_geodesic(porous2)
        N = len(pts)
        rng = np.random.default_rng(8)
        pairs = {
            "all_pairs": [(i, j) for i in range(N) for j in range(i + 1, N)],
            "star": [(7, j) for j in range(N)],
            "chain": [(i, i + 1) for i in range(N - 1)],
            "many_to_one": [(i, 30) for i in range(N)],
            # leaders and followers interleaved, some pairs repeated
            "shuffled": [tuple(p) for p in rng.integers(0, N, (300, 2))],
            # a later pair that shares only its first point follows pair 0
            "shared_first": [(0, 1), (2, 3), (2, 4)],
        }[shape]
        assert len(_waves(np.array(pairs))[1]) <= 3
        xs = [pts[i] for i, _ in pairs]
        ys = [pts[j] for _, j in pairs]
        d = porous2.distances(xs, ys)
        assert d.tobytes() == np.array([w2_distance(x, y) for x, y in zip(xs, ys)]).tobytes()

    def test_leaders(self):
        # a pair follows the earliest earlier pair with its second point,
        # else pair 0; a leader follows pair 0, so there are three waves
        pairs = np.array([(0, 1), (0, 2), (3, 2), (3, 4), (5, 4), (5, 6)])
        lead, waves = _waves(pairs)
        assert lead.tolist() == [0, 0, 1, 0, 3, 0]
        assert [w.tolist() for w in waves] == [[0], [1, 3, 5], [2, 4]]
        lead, waves = _waves(np.array([(0, 1), (2, 1), (0, 3), (2, 3)]))
        assert lead.tolist() == [0, 0, 0, 2]
        assert [w.tolist() for w in waves] == [[0], [1, 2], [3]]
        lead, waves = _waves(np.array([(0, 1), (2, 3), (2, 4)]))
        assert lead.tolist() == [0, 0, 0]
        assert [w.tolist() for w in waves] == [[0], [1, 2]]

    def test_cuts(self, porous2):
        # interval pairs all take cut 0; circle pairs take the cut of their
        # own unseeded search
        rng = np.random.default_rng(10)
        pts = [random_bumps(rng, 48, 0.0) for _ in range(6)]
        pairs = np.array([(i, j) for i in range(6) for j in range(6) if i != j])
        interval = [GridDensity(p.rho, p.dx, p.x0) for p in pts]
        assert _distances(interval, pairs)[1].tolist() == [0] * len(pairs)
        cuts = _distances(pts, pairs)[1]
        assert cuts.tolist() == [int(min_cuts([(pts[i], pts[j])])[1][0]) for i, j in pairs]

    def test_many_pairs_span_blocks(self, porous2):
        rng = np.random.default_rng(6)
        pts = [random_bumps(rng, 64, 0.0) for _ in range(20)]
        xs = [p for p in pts for _ in pts][:300]
        ys = [q for _ in pts for q in pts][:300]
        d = porous2.distances(xs, ys)
        assert d.tolist() == [porous2.distance(x, y) for x, y in zip(xs, ys)]

    def test_each_distinct_point_checked_once(self, porous2, monkeypatch):
        rng = np.random.default_rng(9)
        pts = [random_bumps(rng, 32, 0.0) for _ in range(5)]
        checked = []
        same_grid = GridDensity.same_grid

        def counting(self, other):
            checked.append(other)
            return same_grid(self, other)

        monkeypatch.setattr(GridDensity, "same_grid", counting)
        xs = [p for p in pts for _ in pts]
        ys = [q for _ in pts for q in pts]
        porous2.distances(xs, ys)
        assert len(checked) == len(pts)

    def test_grid_mismatch_rejected(self, porous2):
        a = random_bumps(np.random.default_rng(7), 32, 0.0)
        b = random_bumps(np.random.default_rng(8), 64, 0.0)
        with pytest.raises(GridMismatch):
            porous2.distances([a, a], [a, b])

    def test_empty(self, porous2):
        assert porous2.distances([], []).shape == (0,)

    def test_unequal_lengths_rejected(self, porous2):
        a = random_bumps(np.random.default_rng(7), 32, 0.0)
        with pytest.raises(DomainError, match="1 first points for 2"):
            porous2.distances([a], [a, a])
        with pytest.raises(DomainError):
            porous2.distances([], [a])


class TestNonDensityPoints:
    """A point that is not a ``GridDensity`` is a ``GridMismatch`` wherever
    it stands, first or not."""

    @pytest.mark.parametrize("first", [True, False], ids=["first", "second"])
    @pytest.mark.parametrize("op", ["distances", "distance", "flows", "geodesic"])
    def test_rejected(self, porous2, op, first):
        d = random_bumps(np.random.default_rng(7), 32, 0.0)
        a, b = (np.zeros(32), d) if first else (d, np.zeros(32))
        call = {
            "distances": lambda: porous2.distances([a], [b]),
            "distance": lambda: porous2.distance(a, b),
            "flows": lambda: porous2.flows([a, b], [0.1, 0.1]),
            "geodesic": lambda: porous2.geodesic(a, b, 0.5),
        }[op]
        with pytest.raises(GridMismatch):
            call()


class TestW2Geodesic:
    def test_cut_zero_nodes_are_the_interval_nodes(self):
        d = GridDensity.gaussian(0.3, 0.7, 40, 0.15, x0=-2.9)
        F, x = _rolled_cdf_nodes(d, 0)
        F0, x0 = _cdf_nodes(d)
        assert F.tobytes() == F0.tobytes() and x.tobytes() == x0.tobytes()

    def test_endpoints_rebinned_exactly(self):
        a = gaussian_on(WIDE, 0.0, 1.0)
        b = gaussian_on(WIDE, 2.0, 1.5)
        assert l1(w2_geodesic(a, b, 0.0), a) <= 1e-6
        assert l1(w2_geodesic(a, b, 1.0), b) <= 1e-6

    def test_gaussian_midpoint(self):
        a = gaussian_on(WIDE, 0.0, 1.0)
        b = gaussian_on(WIDE, 2.0, 1.0)
        mid = w2_geodesic(a, b, 0.5)
        assert l1(mid, gaussian_on(WIDE, 1.0, 1.0)) <= 1e-3

    def test_constant_speed(self):
        a = gaussian_on(WIDE, 0.0, 1.0)
        b = gaussian_on(WIDE, 2.0, 1.5)
        d = w2_distance(a, b)
        for th1, th2 in ((0.0, 0.25), (0.25, 0.75), (0.5, 1.0)):
            g1 = w2_geodesic(a, b, th1)
            g2 = w2_geodesic(a, b, th2)
            assert w2_distance(g1, g2) == pytest.approx((th2 - th1) * d, rel=1e-3)

    def test_periodic_geodesic_rotates(self):
        n, dx = 256, 1.0 / 32
        a = GridDensity.gaussian(0.0, 0.4, n, dx, x0=-4.0, boundary="periodic")
        b = a.with_rho(np.roll(a.rho, 64))
        mid = w2_geodesic(a, b, 0.5)
        ref = a.with_rho(np.roll(a.rho, 32))
        assert l1(mid, ref) <= 5e-3  # re-binning error at dx/sigma ~ 0.08
        d = w2_distance(a, b)
        assert w2_distance(a, mid) == pytest.approx(0.5 * d, rel=1e-3)


class TestEntropy:
    @pytest.mark.parametrize("m", [math.nan, math.inf])
    def test_non_finite_porous_exponent_rejected(self, m):
        # nan is not <= 1 either; U_m with m nan or inf has a nan entropy
        # and slope and no stable flow step
        with pytest.raises(DomainError, match="exponent must be finite"):
            EntropyKind.porous_medium(m)

    def test_uniform_boltzmann(self):
        d = GridDensity.uniform(64, 0.25)  # L = 16
        assert entropy(KB, d) == pytest.approx(-math.log(16.0), abs=1e-12)

    def test_uniform_porous(self):
        d = GridDensity.uniform(64, 0.25)
        assert entropy(KP, d) == pytest.approx(1.0 / 16.0, abs=1e-12)

    def test_gaussian_differential_entropy(self):
        d = gaussian_on(WIDE, 0.0, 1.0)
        assert entropy(KB, d) == pytest.approx(-0.5 * math.log(2 * math.pi * math.e), abs=1e-3)


class TestSlope:
    def test_uniform_is_flat(self):
        d = GridDensity.uniform(64, 0.25)
        assert slope(KB, d) == 0.0
        assert slope(KP, d) == 0.0

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_gaussian_fisher_information(self, sigma):
        d = gaussian_on(WIDE, 0.0, sigma)
        assert slope(KB, d) ** 2 == pytest.approx(1.0 / sigma**2, rel=1e-3)

    def test_porous_sine_density_vs_quadrature_oracle(self):
        # rho = (1 + sin(2 pi x)/2) on the unit circle; slope^2 for U_2 is
        # int |2 rho'|^2 rho dx = 2 pi^2, re-derived by dense quadrature
        n = 256
        d = GridDensity.from_function(
            lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x), n, 1.0 / n,
            boundary="periodic",
        )
        xs = np.linspace(0.0, 1.0, 200001)
        rho = 1.0 + 0.5 * np.sin(2 * np.pi * xs)
        drho = np.gradient(rho, xs)
        oracle = np.trapezoid((2.0 * drho) ** 2 * rho, xs)
        assert oracle == pytest.approx(2.0 * math.pi**2, rel=1e-6)
        assert slope(KP, d) ** 2 == pytest.approx(oracle, rel=1e-3)


class TestFlow:
    def test_zero_time_identity(self):
        d = gaussian_on(WIDE, 0.0, 1.0)
        assert flow(KB, d, 0.0) is d

    @pytest.mark.parametrize("s", [0.1, 0.25, 0.5])
    def test_heat_variance_law(self, s):
        d = gaussian_on(WIDE, 0.0, 1.0)
        evolved = flow(KB, d, s)
        ref = gaussian_on(WIDE, 0.0, math.sqrt(1.0 + 2.0 * s))
        assert l1(evolved, ref) <= 1e-3

    def test_entropy_strictly_decreasing(self):
        d = gaussian_on(WIDE, 0.0, 1.0)
        vals = [entropy(KB, flow(KB, d, s)) for s in (0.0, 0.05, 0.1, 0.2)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_porous_entropy_strictly_decreasing(self):
        d = gaussian_on(WIDE, 0.0, 1.0)
        vals = [entropy(KP, flow(KP, d, s)) for s in (0.0, 0.05, 0.1, 0.2)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_mass_conserved(self):
        d = gaussian_on(WIDE, 1.0, 0.8)
        out = flow(KB, d, 0.3)
        assert abs(out.rho.sum() * out.dx - 1.0) <= 1e-12

    def test_grid_refinement_self_consistency(self):
        # doubling n changes the entropy of the evolved state by < 1e-3 rel
        coarse = GridDensity.gaussian(0.0, 1.0, 256, 20.0 / 256, -10.0)
        fine = GridDensity.gaussian(0.0, 1.0, 512, 20.0 / 512, -10.0)
        ec = entropy(KB, flow(KB, coarse, 0.2))
        ef = entropy(KB, flow(KB, fine, 0.2))
        assert ec == pytest.approx(ef, rel=1e-3)

    def test_periodic_heat_flow_to_uniform(self):
        n = 128
        d = GridDensity.from_function(
            lambda x: 1.0 + 0.9 * np.sin(2 * np.pi * x), n, 1.0 / n,
            boundary="periodic",
        )
        out = flow(KB, d, 1.0)
        assert l1(out, GridDensity.uniform(n, 1.0 / n, boundary="periodic")) <= 1e-3


def dense_laplacian(n, dx, a):
    """``div(a grad .)`` with face ``i`` joining cells ``i`` and ``(i+1) mod n``:
    n faces on the circle, n-1 on the interval (no-flux walls)."""
    mat = np.zeros((n, n))
    for i in range(a.size):
        j = (i + 1) % n
        mat[i, i] -= a[i]
        mat[j, j] -= a[i]
        mat[i, j] += a[i]
        mat[j, i] += a[i]
    return mat / (dx * dx)


class TestPeriodicLaplacian:
    """One stacked implicit step solves ``(I - ds_i div(a_i grad .)) x_i = r_i``
    for every row ``i`` of the stack."""

    boundary = "periodic"

    @pytest.mark.parametrize("n", [2, 3, 64])
    @pytest.mark.parametrize("unit", [True, False])
    def test_matches_dense_reference(self, n, unit):
        dx = 0.3
        ds = np.array([[0.5], [0.05], [1.3]])
        rng = np.random.default_rng(n)
        faces = n if self.boundary == "periodic" else n - 1
        a = np.ones((3, faces)) if unit else rng.uniform(0.5, 2.0, (3, faces))
        r = rng.uniform(0.1, 1.0, (3, n))
        ref = np.array([np.linalg.solve(np.eye(n) - s * dense_laplacian(n, dx, ai), ri)
                        for s, ai, ri in zip(ds[:, 0], a, r)])
        step = _implicit_step(np.full((3, 1), dx), self.boundary, ds, a)
        np.testing.assert_allclose(step(r), ref, rtol=1e-13, atol=0.0)
        # a prefix of the stack solves with the blocks its rows own
        np.testing.assert_allclose(step(r[:2]), ref[:2], rtol=1e-13, atol=0.0)

    def test_row_not_positive_definite_named(self):
        n = 8
        faces = n if self.boundary == "periodic" else n - 1
        a = np.ones((3, faces))
        # cells 3 and 4 of row 1 get diagonal 1 + (ds/dx^2)(1 - 10) < 0
        a[1, 3] = -10.0
        with pytest.raises(FlowDiverged, match=r"row 1 is not positive definite \(dpttrf info 4\)"):
            _implicit_step(np.full((3, 1), 0.3), self.boundary, np.full((3, 1), 0.5), a)


class TestNoFluxLaplacian(TestPeriodicLaplacian):
    boundary = "no-flux"


class TestFlows:
    @pytest.mark.parametrize("kind", [KB, KP, EntropyKind.porous_medium(1.5)],
                             ids=["boltzmann", "m2", "m1.5"])
    @pytest.mark.parametrize("boundary", ["periodic", "no-flux"])
    @pytest.mark.parametrize("n", [2, 3, 64])
    def test_bitwise_per_point(self, kind, boundary, n):
        rng = np.random.default_rng(n)
        pts = [GridDensity(rng.uniform(0.1, 1.0, n), 4.0 / n, -2.0, boundary, normalize=True)
               for _ in range(3)]
        # a repeated point, a repeated time, a zero time and rows that stop
        # stepping at different rounds
        xs = [pts[0], pts[1], pts[0], pts[2], pts[1], pts[0]]
        ss = [0.01, 0.0, 0.01, 0.05, 0.002, 0.03]
        out = flows(kind, xs, ss)
        assert out[1] is xs[1]
        for x, s, y in zip(xs, ss, out):
            assert np.array_equal(y.rho, flow(kind, x, s).rho)

    def test_zero_time_returns_input(self):
        d = gaussian_on(WIDE, 0.0, 1.0)
        assert flows(KP, [d, d], [0.0, 0.0])[1] is d

    def test_empty(self):
        assert flows(KB, [], []) == []

    def test_negative_time_rejected(self):
        d = gaussian_on(WIDE, 0.0, 1.0)
        with pytest.raises(DomainError):
            flows(KB, [d, d], [0.1, -0.1])

    @pytest.mark.parametrize("kind", [KB, KP], ids=["heat", "porous"])
    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, kind, s):
        d = gaussian_on(WIDE, 0.0, 1.0)
        with pytest.raises(DomainError, match="finite and nonnegative"):
            flow(kind, d, s)
        with pytest.raises(DomainError, match="finite and nonnegative"):
            flows(kind, [d, d], [0.1, s])

    def test_grid_mismatch_rejected(self):
        a = gaussian_on(WIDE, 0.0, 1.0)
        b = GridDensity.gaussian(0.0, 1.0, 256, 20.0 / 256, -10.0)
        with pytest.raises(GridMismatch):
            flows(KB, [a, b], [0.1, 0.1])


class TestFlowInvariants:
    def test_w2_contraction_boltzmann(self, boltzmann):
        a = gaussian_on(WIDE, -1.0, 0.8)
        b = gaussian_on(WIDE, 1.5, 1.2)
        for s in (0.05, 0.1, 0.2):
            lhs = w2_distance(flow(KB, a, s), flow(KB, b, s))
            assert lhs <= w2_distance(a, b) + 2e-3

    def test_w2_contraction_porous(self, porous2):
        a = gaussian_on(WIDE, -1.0, 0.8)
        b = gaussian_on(WIDE, 1.5, 1.2)
        for s in (0.05, 0.1, 0.2):
            lhs = w2_distance(flow(KP, a, s), flow(KP, b, s))
            assert lhs <= w2_distance(a, b) + 2e-3

    @pytest.mark.parametrize("kind", [KB, KP], ids=["boltzmann", "porous"])
    def test_energy_dissipation_equality(self, kind):
        d = gaussian_on(WIDE, 0.5, 0.9)
        T, K = 0.2, 64
        ss = np.linspace(0.0, T, K + 1)
        cur = d
        slopes = [slope(kind, cur)]
        for ds in np.diff(ss):
            cur = flow(kind, cur, float(ds))
            slopes.append(slope(kind, cur))
        dissipated = np.trapezoid(np.array(slopes) ** 2, ss)
        drop = entropy(kind, d) - entropy(kind, cur)
        assert dissipated == pytest.approx(drop, rel=2e-2)

    def test_slope_monotone_along_flow(self):
        d = GridDensity.from_function(
            lambda x: np.exp(-0.5 * ((x + 2) / 0.5) ** 2) + 0.7 * np.exp(-0.5 * ((x - 1) / 0.8) ** 2),
            **WIDE,
        )
        vals = []
        cur = d
        for ds in np.diff(np.linspace(0.0, 0.2, 9)):
            cur = flow(KB, cur, float(ds))
            vals.append(slope(KB, cur))
        assert all(b <= a + 1e-6 for a, b in zip(vals, vals[1:]))

    def test_regularization_bound(self):
        x = GridDensity.from_function(
            lambda q: np.exp(-0.5 * ((q + 2) / 0.4) ** 2) + np.exp(-0.5 * ((q - 2) / 0.6) ** 2),
            **WIDE,
        )
        y = gaussian_on(WIDE, 0.0, 1.0)
        sy2 = slope(KB, y) ** 2
        d2 = w2_distance(x, y) ** 2
        for t in (0.05, 0.1, 0.2):
            lhs = slope(KB, flow(KB, x, t)) ** 2
            assert lhs <= sy2 + d2 / t**2 + 5e-3

    @pytest.mark.parametrize("kind", [KB, KP], ids=["boltzmann", "porous"])
    def test_displacement_convexity(self, kind):
        pairs = [
            (gaussian_on(WIDE, -1.0, 0.7), gaussian_on(WIDE, 1.5, 1.3)),
            (gaussian_on(WIDE, 0.0, 0.5), gaussian_on(WIDE, 2.0, 2.0)),
        ]
        for a, b in pairs:
            ea, eb = entropy(kind, a), entropy(kind, b)
            for th in np.linspace(0.0, 1.0, 9):
                e_mid = entropy(kind, w2_geodesic(a, b, float(th)))
                assert e_mid <= (1 - th) * ea + th * eb + 1e-3
