import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrogeo import (
    Curve,
    GridDensity,
    QuadraticPotential,
    fisher_action,
    geodesic_curve,
    kinetic_action,
    schrodinger_action,
)
from entrogeo.core import SpaceBackend, kinetic_actions
from entrogeo.errors import DomainError, InvalidCurve
from entrogeo.regularizer import build as build_regularized


def segment_curve(backend, a, b, n):
    return geodesic_curve(backend, np.asarray(a, float), np.asarray(b, float), n)


class TestIdentityEquality:
    """Records that hold arrays compare and hash by identity, never raise."""

    def pairs(self, quad1d):
        a = GridDensity.gaussian(0.0, 1.0, 64, 0.25, -8.0)
        b = GridDensity.gaussian(0.0, 1.0, 64, 0.25, -8.0)
        base = segment_curve(quad1d, [1.0], [2.0], 8)
        return [
            (a, b),
            (Curve.uniform([a, b]), Curve.uniform([a, b])),
            (build_regularized(quad1d, base, 0.1), build_regularized(quad1d, base, 0.1)),
            (QuadraticPotential(np.zeros(1), 1.0), QuadraticPotential(np.zeros(1), 1.0)),
        ]

    def test_eq_in_and_set(self, quad1d):
        for a, b in self.pairs(quad1d):
            assert a == a and not (a == b) and a != b
            assert a in [b, a] and a not in [b]
            assert len({a, b, a}) == 2 and hash(a) == hash(a)


class TestCurve:
    def test_grid_must_span_unit_interval(self):
        with pytest.raises(InvalidCurve):
            Curve([0.0, 0.5, 0.9], [np.zeros(1)] * 3)
        with pytest.raises(InvalidCurve):
            Curve([0.1, 0.5, 1.0], [np.zeros(1)] * 3)

    def test_grid_strictly_increasing(self):
        with pytest.raises(InvalidCurve):
            Curve([0.0, 0.5, 0.5, 1.0], [np.zeros(1)] * 4)

    def test_non_finite_time_rejected(self):
        # a NaN node fails every comparison, so an increase test written as
        # "no step <= 0" let it through, and the action of the curve was NaN
        for t in (math.nan, math.inf):
            with pytest.raises(InvalidCurve, match="finite"):
                Curve([0.0, t, 1.0], [np.zeros(1)] * 3)

    def test_point_count_matches(self):
        with pytest.raises(InvalidCurve):
            Curve([0.0, 1.0], [np.zeros(1)] * 3)

    def test_mixed_payloads_rejected(self, quad2d):
        c = Curve([0.0, 1.0], [np.zeros(2), np.zeros(3)])
        with pytest.raises(InvalidCurve):
            kinetic_action(quad2d, c)

    @pytest.mark.parametrize("node", [2, 4])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("action", [kinetic_action, fisher_action])
    def test_non_finite_node_rejected(self, quad2d, action, bad, node):
        # every node is checked, not only the first: a non-finite interior
        # or end node made the kinetic action NaN and the Fisher action
        # raise SlopeUndefined
        pts = [np.full(2, 0.25 * i) for i in range(5)]
        pts[node] = np.array([0.5, bad])
        with pytest.raises(InvalidCurve, match="coordinates must be finite"):
            action(quad2d, Curve.uniform(pts))


class TestKineticAction:
    def test_constant_curve_is_zero(self, quad2d):
        c = Curve.uniform([np.array([1.0, 2.0])] * 9)
        assert kinetic_action(quad2d, c) == 0.0

    @pytest.mark.parametrize("n", [2, 16, 64])
    def test_straight_line_half_distance_squared(self, quad2d, n):
        c = segment_curve(quad2d, [0.0, 0.0], [1.0, 0.0], n)
        assert kinetic_action(quad2d, c) == pytest.approx(0.5, abs=1e-12)

    def test_gaussian_quantile_geodesic(self, boltzmann):
        # translated Gaussians with a cell-aligned shift: W2 = 2 exactly and
        # the geodesic nodes are exact rolls, so the 2-energy is 1/2 * 2^2
        from entrogeo import GridDensity

        n, dx, x0 = 448, 1.0 / 32, -6.0
        a = GridDensity.gaussian(0.0, 1.0, n, dx, x0)
        pts = [a.with_rho(np.roll(a.rho, i)) for i in range(0, 65)]
        c = Curve.uniform(pts)
        assert kinetic_action(boltzmann, c) == pytest.approx(2.0, abs=1e-6)

    def test_lower_bound_on_random_curves(self, quad2d):
        rng = np.random.default_rng(3)
        for _ in range(20):
            pts = [rng.uniform(-2, 2, 2) for _ in range(9)]
            c = Curve.uniform(pts)
            lb = 0.5 * float(np.sum((pts[-1] - pts[0]) ** 2))
            assert kinetic_action(quad2d, c) >= lb - 1e-12

    def test_grid_refinement_of_geodesic(self, quad2d):
        coarse = segment_curve(quad2d, [0.0, 1.0], [2.0, -1.0], 8)
        fine = segment_curve(quad2d, [0.0, 1.0], [2.0, -1.0], 256)
        assert kinetic_action(quad2d, fine) <= kinetic_action(quad2d, coarse) + 1e-9

    def test_grid_refinement_of_density_geodesic(self, boltzmann):
        # exact cell-roll geodesic represented on two time resolutions; the
        # domain leaves ~7 sigma of headroom so no floored tail mass wraps
        from entrogeo import GridDensity

        n, dx, x0 = 512, 1.0 / 32, -7.0
        a = GridDensity.gaussian(0.0, 1.0, n, dx, x0)

        def rolled_curve(nodes):
            step = 64 // nodes
            pts = [a.with_rho(np.roll(a.rho, i * step)) for i in range(nodes + 1)]
            return Curve.uniform(pts)

        coarse = kinetic_action(boltzmann, rolled_curve(16))
        fine = kinetic_action(boltzmann, rolled_curve(64))
        assert fine <= coarse + 1e-9


    def test_circle_chords_match_per_pair_distances(self, porous2):
        # the batched chords reproduce the one-pair search exactly
        from entrogeo import GridDensity

        n, dx, x0 = 64, 0.25, -8.0
        a = GridDensity.gaussian(-3.0, 0.8, n, dx, x0, "periodic")
        b = GridDensity.gaussian(2.5, 1.4, n, dx, x0, "periodic")
        c = geodesic_curve(porous2, a, b, 8)
        total = 0.0
        for p, q, dt in zip(c.points[:-1], c.points[1:], np.diff(c.times)):
            chord = porous2.distance(p, q)
            total += chord * chord / dt
        assert kinetic_action(porous2, c) == 0.5 * total

    @pytest.mark.parametrize("backend", ["quad2d", "porous2"])
    def test_plural_equals_per_curve(self, request, monkeypatch, backend):
        # the chords of every curve from one distances call, each curve's
        # value bit for bit its own
        from entrogeo import GridDensity

        be = request.getfixturevalue(backend)
        if backend == "quad2d":
            a, b, c = np.array([1.0, -2.0]), np.array([0.5, 3.0]), np.array([-1.0, 0.0])
        else:
            n, dx, x0 = 32, 0.25, -4.0
            a, b, c = (GridDensity.gaussian(m, s, n, dx, x0, "periodic")
                       for m, s in ((-2.0, 0.5), (1.5, 0.9), (0.0, 0.3)))
        curves = [geodesic_curve(be, a, b, 6), geodesic_curve(be, b, c, 9),
                  Curve.uniform([a, c])]
        calls = []
        distances = be.distances

        def counting(xs, ys):
            calls.append(len(xs))
            return distances(xs, ys)

        monkeypatch.setattr(be, "distances", counting)
        values = kinetic_actions(be, curves)
        monkeypatch.undo()
        assert calls == [16]
        assert [v.hex() for v in values] == [kinetic_action(be, c).hex() for c in curves]
        assert kinetic_actions(be, []) == []


class TestDistances:
    def test_default_loops_over_distance(self, quad2d):
        rng = np.random.default_rng(0)
        xs = [rng.normal(size=2) for _ in range(5)]
        ys = [rng.normal(size=2) for _ in range(5)]
        d = quad2d.distances(xs, ys)
        assert d.dtype == float
        assert d.tolist() == [quad2d.distance(x, y) for x, y in zip(xs, ys)]

    def test_empty_and_unequal_lengths(self, quad2d):
        assert quad2d.distances([], []).shape == (0,)
        with pytest.raises(DomainError, match="1 first points for 2 second points"):
            quad2d.distances([np.zeros(2)], [np.zeros(2), np.ones(2)])

    def test_default_flows_unequal_lengths(self, quad2d):
        # the default loop refuses a length mismatch like the density override
        with pytest.raises(DomainError, match="1 points for 2 flow times"):
            quad2d.flows([np.zeros(2)], [0.1, 0.2])

    def test_default_entropies_and_slopes_loop(self, quad2d):
        assert type(quad2d).entropies is SpaceBackend.entropies
        assert type(quad2d).slopes is SpaceBackend.slopes
        xs = [np.array([1.0, 2.0]), np.zeros(2), np.array([1.0, 2.0])]
        assert quad2d.entropies(xs).tolist() == [quad2d.entropy(x) for x in xs]
        assert quad2d.slopes(xs).tolist() == [quad2d.slope(x) for x in xs]
        assert quad2d.entropies([]).shape == quad2d.slopes([]).shape == (0,)


class TestFisherAction:
    def test_constant_curve_value(self, quad2d):
        c = Curve.uniform([np.array([2.0, 0.0])] * 5)
        # |grad V|(x) = |x| = 2, integrand 1/2 * 4 constant
        assert fisher_action(quad2d, c) == pytest.approx(2.0, abs=1e-12)

    def test_zero_at_minimizer(self, quad2d):
        c = Curve.uniform([np.zeros(2)] * 5)
        assert fisher_action(quad2d, c) == 0.0

    def test_constant_gaussian_curve(self, boltzmann):
        from entrogeo import GridDensity

        g = GridDensity.gaussian(0.0, 1.0, 512, 20.0 / 512, -10.0)
        c = Curve.uniform([g] * 5)
        # Fisher information of N(0, s^2) is 1/s^2; the oracle below
        # re-derives it by quadrature of (rho'/rho)^2 rho on the grid
        xs = g.centers
        rho = np.exp(-0.5 * xs**2) / math.sqrt(2 * math.pi)
        oracle = np.sum((np.gradient(np.log(rho), xs) ** 2) * rho) * g.dx
        assert oracle == pytest.approx(1.0, rel=1e-3)
        assert fisher_action(boltzmann, c) == pytest.approx(0.5, rel=1e-3)

    def test_undefined_slope_raises(self):
        class NanSlope(SpaceBackend):
            lam = 0.0

            def slope(self, p):
                return math.nan

            def check_point(self, p):
                pass

            def same_space(self, a, b):
                return True

        from entrogeo.errors import SlopeUndefined

        c = Curve.uniform([np.zeros(1)] * 3)
        with pytest.raises(SlopeUndefined):
            fisher_action(NanSlope(), c)

    def test_density_curve_equals_per_node_loop(self, porous2):
        class Looped(type(porous2)):
            slopes = SpaceBackend.slopes

        a = GridDensity.gaussian(-1.0, 0.5, 64, 0.25, -8.0, "periodic")
        b = GridDensity.gaussian(2.0, 1.5, 64, 0.25, -8.0, "periodic")
        c = geodesic_curve(porous2, a, b, 8)
        c = Curve(c.times, c.points[:4] + (a,) + c.points[5:])  # a repeated node
        assert fisher_action(porous2, c).hex() == fisher_action(Looped(porous2.kind), c).hex()

    def test_first_undefined_slope_named(self):
        class BadSlopes(SpaceBackend):
            def slope(self, p):
                return {2.0: -1.0, 3.0: math.nan}.get(float(p[0]), 1.0)

            def check_point(self, p):
                pass

            def same_space(self, a, b):
                return True

        from entrogeo.errors import SlopeUndefined

        c = Curve.uniform([np.array([float(i)]) for i in range(5)])
        with pytest.raises(SlopeUndefined, match="at node 2$"):
            fisher_action(BadSlopes(), c)

    def test_infinite_endpoint_slopes_are_dropped(self, quad2d):
        class InfEndpoints(SpaceBackend):
            lam = 0.0

            def slope(self, p):
                return math.inf if p[0] == 0.0 else 1.0

            def check_point(self, p):
                pass

            def same_space(self, a, b):
                return True

        c = Curve.uniform([np.array([0.0]), np.array([1.0]), np.array([0.0])])
        # interior trapezoid weight only
        assert fisher_action(InfEndpoints(), c) == pytest.approx(0.25)


class TestSchrodingerAction:
    def test_eps_zero_reduces_to_kinetic(self, quad2d):
        c = segment_curve(quad2d, [0.0, 0.0], [1.0, 1.0], 16)
        assert schrodinger_action(quad2d, c, 0.0) == kinetic_action(quad2d, c)

    def test_constant_curve_composition(self, quad2d):
        c = Curve.uniform([np.array([2.0, 0.0])] * 5)
        assert schrodinger_action(quad2d, c, 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_line_through_potential(self, quad2d):
        # I along the segment 0 -> (1,0) is 1/2 int t^2 dt = 1/6
        c = segment_curve(quad2d, [0.0, 0.0], [1.0, 0.0], 256)
        expected = 0.5 + 0.25 / 6.0
        assert schrodinger_action(quad2d, c, 0.5) == pytest.approx(expected, abs=1e-5)

    def test_negative_eps_rejected(self, quad2d):
        c = segment_curve(quad2d, [0.0, 0.0], [1.0, 0.0], 4)
        for eps in (-0.1, math.nan, math.inf):
            with pytest.raises(DomainError, match="eps"):
                schrodinger_action(quad2d, c, eps)

    @given(
        e1=st.floats(0.0, 2.0),
        e2=st.floats(0.0, 2.0),
        shift=st.floats(-1.5, 1.5),
    )
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_eps(self, quad2d, e1, e2, shift):
        c = Curve.uniform([np.array([shift, t]) for t in np.linspace(0, 1, 5)])
        lo, hi = sorted((e1, e2))
        assert schrodinger_action(quad2d, c, lo) <= schrodinger_action(quad2d, c, hi) + 1e-12


class TestHatFunction:
    """The tent profile h(t) = eps * min(t, 1 - t) that `build` puts on a curve."""

    def profile(self, quad1d, eps, n):
        return build_regularized(quad1d, segment_curve(quad1d, [1.0], [2.0], n), eps).h

    def test_peak_value(self, quad1d):
        # side slopes +-eps, so the peak at t = 1/2 is eps/2
        h = self.profile(quad1d, 0.4, 8)
        assert h[4] == pytest.approx(0.2)
        assert h.max() == h[4]

    def test_boundary_zeros(self, quad1d):
        h = self.profile(quad1d, 0.7, 10)
        assert h[0] == 0.0
        assert h[-1] == 0.0

    def test_with_slope_matches_min_form(self, quad1d):
        h = self.profile(quad1d, 0.3, 16)
        for t, v in zip(np.linspace(0, 1, 17), h):
            assert v == pytest.approx(0.3 * min(t, 1 - t), abs=1e-15)


class TestMetricAxioms:
    def test_euclidean_triples(self, quad2d):
        rng = np.random.default_rng(17)
        for _ in range(25):
            a, b, c = (rng.uniform(-3, 3, 2) for _ in range(3))
            dab = quad2d.distance(a, b)
            assert dab == pytest.approx(quad2d.distance(b, a), abs=1e-12)
            assert dab <= quad2d.distance(a, c) + quad2d.distance(c, b) + 1e-9
            assert quad2d.distance(a, a) == 0.0

    def test_density_triples(self, boltzmann):
        from entrogeo import GridDensity

        rng = np.random.default_rng(23)
        n, dx, x0 = 128, 20.0 / 128, -10.0
        pts = [
            GridDensity.gaussian(rng.uniform(-2, 2), rng.uniform(0.5, 2.0), n, dx, x0)
            for _ in range(6)
        ]
        for a, b, c in ((0, 1, 2), (3, 4, 5), (0, 3, 5), (1, 4, 2)):
            dab = boltzmann.distance(pts[a], pts[b])
            assert dab == pytest.approx(boltzmann.distance(pts[b], pts[a]), abs=1e-12)
            assert dab <= (
                boltzmann.distance(pts[a], pts[c])
                + boltzmann.distance(pts[c], pts[b])
                + 1e-9
            )
