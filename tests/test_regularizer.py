import math

import numpy as np
import pytest

from entrogeo import Curve, GridDensity, fisher_action, geodesic_curve, kinetic_action
from entrogeo.core import SpaceBackend
from entrogeo.errors import DomainError, EndpointEntropyInfinite
from entrogeo.regularizer import (
    RegularizedCurve,
    build,
    builds,
    convexity_certificate,
    discrete_estimate_residual,
    discrete_estimate_residuals,
    pointwise_estimate_residual,
    pointwise_estimate_residuals,
    recovery_gap,
    recovery_gaps,
)

from conftest import SWEEP, gaussian_on


def quad_segment(quad1d, a, b, n=64):
    return geodesic_curve(quad1d, np.array([a]), np.array([b]), n)


def circle_reg(porous2, n_intervals):
    n, dx, x0 = 48, 0.25, -6.0
    a = GridDensity.gaussian(-2.0, 0.6, n, dx, x0, "periodic")
    b = GridDensity.gaussian(1.5, 1.1, n, dx, x0, "periodic")
    base = geodesic_curve(porous2, a, b, n_intervals)
    return build(porous2, base, 0.05)


class TestBuild:
    def test_zero_profile_is_identity(self, quad1d):
        base = quad_segment(quad1d, 1.0, 2.0)
        reg = build(quad1d, base, 0.0)
        for p, q in zip(reg.tilde.points, base.points):
            assert p is q

    def test_endpoints_preserved_bitwise(self, quad1d):
        base = quad_segment(quad1d, 1.0, 2.0)
        reg = build(quad1d, base, 0.3)
        assert reg.tilde.points[0] is base.points[0]
        assert reg.tilde.points[-1] is base.points[-1]

    def test_quadratic_flow_composition(self, quad1d):
        base = quad_segment(quad1d, 1.0, 2.0)
        reg = build(quad1d, base, 0.2)
        for t, p, q in zip(base.times.tolist(), base.points, reg.tilde.points):
            assert q[0] == pytest.approx(math.exp(-0.2 * min(t, 1 - t)) * p[0], abs=1e-14)

    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.3, 1.7])
    def test_profile_is_the_tent(self, quad1d, eps):
        # side slopes +-eps, zero at both ends, peak eps/2 at t = 1/2,
        # each node's time bit for bit the scalar formula
        base = quad_segment(quad1d, 1.0, 2.0, n=20)
        h = build(quad1d, base, eps).h
        assert h.tolist() == [eps * min(t, 1 - t) for t in base.times.tolist()]
        assert h[0] == h[-1] == 0.0 and h[10] == eps / 2 == h.max()
        # the tent's area eps/4, exact for the trapezoid rule on a grid
        # with a node at the kink
        assert np.trapezoid(h, base.times) == pytest.approx(eps / 4, rel=1e-14, abs=0.0)
        assert not h.flags.writeable

    def test_negative_profile_rejected(self, quad1d):
        base = quad_segment(quad1d, 1.0, 2.0, n=4)
        with pytest.raises(DomainError, match="eps"):
            build(quad1d, base, -0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_density_profile_rejected(self, boltzmann, bad):
        a = gaussian_on(SWEEP, 0.0, 1.0)
        base = geodesic_curve(boltzmann, a, gaussian_on(SWEEP, 2.0, 1.5), 4)
        with pytest.raises(DomainError, match="finite and nonnegative"):
            build(boltzmann, base, bad)

    @pytest.mark.parametrize("boundary", ["no-flux", "periodic"])
    def test_equals_per_node_flow(self, porous2, boltzmann, boundary):
        backend = boltzmann if boundary == "no-flux" else porous2
        a = gaussian_on(SWEEP, 0.0, 1.0, boundary)
        b = gaussian_on(SWEEP, 2.0, 1.5, boundary)
        base = geodesic_curve(backend, a, b, 16)
        reg = build(backend, base, 0.1)
        for ht, p, q in zip(reg.h.tolist(), base.points, reg.tilde.points):
            if ht == 0.0:
                assert q is p
            else:
                assert np.array_equal(q.rho, backend.flow(p, ht).rho)

    def test_gaussian_heat_law_at_midpoint(self, boltzmann):
        a = gaussian_on(SWEEP, 0.0, 1.0)
        b = gaussian_on(SWEEP, 2.0, 1.0)
        base = geodesic_curve(boltzmann, a, b, 64)
        eps = 0.2
        reg = build(boltzmann, base, eps)
        mid = reg.tilde.points[32]
        # heat flow for time eps/2 adds variance 2 * eps/2 = eps
        ref = gaussian_on(SWEEP, 1.0, math.sqrt(1.0 + eps))
        assert float(np.sum(np.abs(mid.rho - ref.rho)) * mid.dx) <= 1e-3


class TestBuilds:
    @pytest.mark.parametrize("backend", ["quad1d", "porous2"])
    def test_equals_per_profile(self, request, backend):
        be = request.getfixturevalue(backend)
        if backend == "quad1d":
            base = quad_segment(be, 1.0, 2.0, n=16)
        else:
            base = circle_reg(be, 16).base
        eps_list = [0.2, 0.0, 0.03, 0.2]
        for reg, eps in zip(builds(be, base, eps_list), eps_list):
            one = build(be, base, eps)
            assert reg.h.tobytes() == one.h.tobytes()
            for p, q in zip(reg.tilde.points, one.tilde.points):
                assert np.asarray(getattr(p, "rho", p)).tobytes() == \
                    np.asarray(getattr(q, "rho", q)).tobytes()
        assert builds(be, base, []) == []

    @pytest.mark.parametrize("bad", [-0.1, math.nan, math.inf])
    def test_bad_slope_rejected_before_any_flow(self, quad1d, bad):
        base = quad_segment(quad1d, 1.0, 2.0, n=8)

        class NoFlows(type(quad1d)):
            def flows(self, xs, ss):
                raise AssertionError("flowed before checking eps")

        with pytest.raises(DomainError, match="eps must be finite and nonnegative"):
            builds(NoFlows(quad1d.potential), base, [0.1, bad])


def flowed(backend, base, h):
    """The regularized curve of ``base`` under the per-node vertical times
    ``h``, node by node; ``build`` takes tent slopes only."""
    pts = [p if s == 0.0 else backend.flow(p, s) for p, s in zip(base.points, h.tolist())]
    return RegularizedCurve(base, h, Curve(base.times, pts))


def scalar_residual(backend, reg, i, j):
    """The two-point estimate residual of ``(i, j)`` by its scalar formula,
    on Python floats, with the chords of single-pair distances."""
    lam, times, h = backend.lam, reg.times.tolist(), reg.h.tolist()
    tilde, base = reg.tilde.points, reg.base.points
    h0, h1 = h[i], h[j]
    dt = times[j] - times[i]
    ip, im = (j, i) if h1 >= h0 else (i, j)
    slope_p = backend.slope(tilde[ip])
    if math.isinf(slope_p):
        if h0 != h1:
            return None
        slope_term = 0.0
    else:
        dh = h1 - h0
        if abs(lam) < 1e-8:
            cosh = 0.5 * dh * dh
        else:
            cosh = (math.exp(lam * dh) + math.exp(-lam * dh) - 2.0) / (2.0 * lam * lam)
        slope_term = slope_p**2 * cosh / (dt * dt)
    if h0 == h1:
        energy_term = 0.0
    else:
        dh_plus, dt_plus = h[ip] - h[im], times[ip] - times[im]
        if abs(lam) < 1e-8:
            coef = dh_plus / dt_plus
        else:
            coef = (1.0 - math.exp(-lam * dh_plus)) / (lam * dt_plus)
        energy_term = coef * (backend.entropy(tilde[j]) - backend.entropy(tilde[i])) / dt
    dtil = backend.distance(tilde[i], tilde[j])
    dbase = backend.distance(base[i], base[j])
    lhs = 0.5 * (dtil / dt) ** 2 + slope_term + energy_term
    rhs = 0.5 * math.exp(-lam * (h0 + h1)) * (dbase / dt) ** 2
    return lhs - rhs


def bits(values):
    return [None if v is None else float(v).hex() for v in values]


class TestDiscreteEstimate:
    def test_trivial_equality_when_profile_vanishes(self, quad1d):
        base = quad_segment(quad1d, 1.0, 2.0)
        reg = build(quad1d, base, 0.0)
        assert discrete_estimate_residual(quad1d, reg, 0, 64) == 0.0

    def test_quadratic_all_pairs_nonpositive(self, quad1d):
        base = quad_segment(quad1d, 1.0, 2.0)
        reg = build(quad1d, base, 0.1)
        worst = max(
            discrete_estimate_residual(quad1d, reg, i, j)
            for i in range(65) for j in range(i + 1, 65)
        )
        assert worst <= 1e-8

    def test_boltzmann_adjacent_nodes(self, boltzmann):
        a = gaussian_on(SWEEP, 0.0, 1.0)
        b = gaussian_on(SWEEP, 2.0, 2.0)
        base = geodesic_curve(boltzmann, a, b, 64)
        reg = build(boltzmann, base, 0.05)
        worst = max(
            discrete_estimate_residual(boltzmann, reg, i, i + 1) for i in range(64)
        )
        assert worst <= 5e-3

    def test_index_validation(self, quad1d):
        base = quad_segment(quad1d, 1.0, 2.0, n=8)
        reg = build(quad1d, base, 0.1)
        with pytest.raises(DomainError):
            discrete_estimate_residual(quad1d, reg, 3, 3)

    def test_infinite_slope_not_applicable(self, quad1d):
        base = quad_segment(quad1d, 1.0, 2.0, n=8)
        reg = build(quad1d, base, 0.1)

        class InfSlope(SpaceBackend):
            lam = 1.0
            distance = staticmethod(quad1d.distance)
            entropy = staticmethod(quad1d.entropy)

            def slope(self, p):
                return math.inf

        assert discrete_estimate_residual(InfSlope(), reg, 0, 3) is None


class TestDiscreteEstimateResiduals:
    def test_quadratic_equals_per_pair(self, quad1d):
        reg = build(quad1d, quad_segment(quad1d, 1.0, 2.0, n=12), 0.1)
        res = discrete_estimate_residuals(quad1d, reg)
        assert list(res) == [(i, j) for i in range(13) for j in range(i + 1, 13)]
        assert res == {(i, j): discrete_estimate_residual(quad1d, reg, i, j) for i, j in res}

    def test_circle_equals_per_pair(self, porous2):
        reg = circle_reg(porous2, 12)
        res = discrete_estimate_residuals(porous2, reg)
        assert res == {(i, j): discrete_estimate_residual(porous2, reg, i, j) for i, j in res}

    def test_infinite_slope_convention(self, quad1d):
        reg = build(quad1d, quad_segment(quad1d, 1.0, 2.0, n=8), 0.1)

        class InfSlope(SpaceBackend):
            lam = 1.0
            distance = staticmethod(quad1d.distance)
            distances = staticmethod(quad1d.distances)
            entropy = staticmethod(quad1d.entropy)

            def slope(self, p):
                return math.inf

        res = discrete_estimate_residuals(InfSlope(), reg)
        assert res == {(i, j): discrete_estimate_residual(InfSlope(), reg, i, j) for i, j in res}
        # only pairs of equal vertical times are applicable: inf * 0 = 0
        equal = [(i, j) for i, j in res if reg.h[i] == reg.h[j]]
        assert [p for p, r in res.items() if r is not None] == equal
        assert (0, 8) in equal and res[0, 8] == 0.0


    @pytest.mark.parametrize("backend", ["quad1d", "porous2"])
    def test_bitwise_scalar_formula(self, request, backend):
        # lam = 1 on the quadratic; a plateau in the profile gives pairs
        # with h0 == h1 > 0 besides the symmetric ones
        be = request.getfixturevalue(backend)
        if backend == "quad1d":
            base = quad_segment(be, 1.0, 2.0)
        else:
            base = circle_reg(be, 32).base
        h = np.minimum(0.05 * np.minimum(base.times, 1 - base.times), 0.009)
        reg = flowed(be, base, h)
        res = discrete_estimate_residuals(be, reg)
        assert bits(res.values()) == bits(scalar_residual(be, reg, i, j) for i, j in res)
        assert sum(reg.h[i] == reg.h[j] > 0 for i, j in res) > 20

    def test_bitwise_scalar_formula_with_infinite_slopes(self, quad1d):
        # infinite slopes at a few nodes: the pairs smoothed most at them
        # are not applicable unless their vertical times agree
        reg = build(quad1d, quad_segment(quad1d, 1.0, 2.0, n=16), 0.1)
        sharp = {id(reg.tilde.points[k]) for k in (3, 8, 13)}

        class SomeInfSlopes(SpaceBackend):
            lam = 1.0
            distance = staticmethod(quad1d.distance)
            distances = staticmethod(quad1d.distances)
            entropy = staticmethod(quad1d.entropy)

            def slope(self, p):
                return math.inf if id(p) in sharp else quad1d.slope(p)

        be = SomeInfSlopes()
        res = discrete_estimate_residuals(be, reg)
        assert bits(res.values()) == bits(scalar_residual(be, reg, i, j) for i, j in res)
        assert res[3, 16] is None and res[3, 13] == scalar_residual(be, reg, 3, 13)


class TestPointwiseEstimate:
    def test_constant_curve_at_equilibrium(self, quad1d):
        base = Curve.uniform([np.zeros(1)] * 9)
        reg = build(quad1d, base, 0.2)
        for i in range(1, 8):
            assert pointwise_estimate_residual(quad1d, reg, i) == pytest.approx(0.0, abs=1e-14)

    def test_quadratic_fine_grid(self, quad1d):
        base = quad_segment(quad1d, 1.0, 2.0, n=2048)
        reg = build(quad1d, base, 0.1)
        kink = base.node_nearest(0.5)
        worst = max(
            pointwise_estimate_residual(quad1d, reg, i)
            for i in range(1, 2048) if abs(i - kink) > 1
        )
        assert worst <= 1e-6

    def test_density_node_near_a_third(self, boltzmann):
        a = gaussian_on(SWEEP, 0.0, 1.0)
        b = gaussian_on(SWEEP, 2.0, 2.0)
        base = geodesic_curve(boltzmann, a, b, 64)
        reg = build(boltzmann, base, 0.05)
        assert pointwise_estimate_residual(boltzmann, reg, base.node_nearest(0.3)) <= 1e-2


class TestPointwiseEstimateResiduals:
    def test_quadratic_equals_per_node(self, quad1d):
        reg = build(quad1d, quad_segment(quad1d, 1.0, 2.0, n=16), 0.1)
        res = pointwise_estimate_residuals(quad1d, reg, range(1, 16))
        assert res == {i: pointwise_estimate_residual(quad1d, reg, i) for i in range(1, 16)}

    def test_circle_equals_per_node(self, porous2):
        reg = circle_reg(porous2, 16)
        res = pointwise_estimate_residuals(porous2, reg, [1, 5, 9, 15])
        assert res == {i: pointwise_estimate_residual(porous2, reg, i) for i in (1, 5, 9, 15)}

    def test_endpoints_rejected(self, quad1d):
        reg = build(quad1d, quad_segment(quad1d, 1.0, 2.0, n=8), 0.1)
        for i in (0, 8):
            with pytest.raises(DomainError):
                pointwise_estimate_residuals(quad1d, reg, [3, i])


class TestRecoveryGap:
    def test_zero_eps_exact(self, quad1d):
        base = quad_segment(quad1d, 1.0, 2.0)
        assert recovery_gap(quad1d, base, 0.0) == 0.0

    @pytest.mark.parametrize("eps", [0.2, 0.1, 0.05])
    def test_quadratic_nonnegative(self, quad1d, eps):
        base = quad_segment(quad1d, 1.0, 2.0)
        assert recovery_gap(quad1d, base, eps) >= -5e-3

    @pytest.mark.parametrize("eps", [0.2, 0.1, 0.05])
    def test_boltzmann_nonnegative(self, boltzmann, eps):
        a = gaussian_on(SWEEP, 0.0, 1.0)
        b = gaussian_on(SWEEP, 2.0, 2.0)
        base = geodesic_curve(boltzmann, a, b, 64)
        assert recovery_gap(boltzmann, base, eps) >= -5e-3

    def test_infinite_endpoint_entropy_raises(self, quad1d):
        base = quad_segment(quad1d, 1.0, 2.0, n=8)

        class InfEntropy:
            lam = 1.0

            def entropy(self, p):
                return math.inf

        with pytest.raises(EndpointEntropyInfinite):
            recovery_gap(InfEntropy(), base, 0.1)


def composed_recovery_gap(backend, base, eps):
    """The recovery gap from ``build`` and the action functionals."""
    if eps == 0.0:
        return 0.0
    reg = build(backend, base, eps)
    lhs = kinetic_action(backend, reg.tilde) + eps**2 * fisher_action(backend, reg.tilde)
    e0, e1 = backend.entropy(base.points[0]), backend.entropy(base.points[-1])
    rhs = (math.exp(max(-backend.lam, 0.0) * eps) * kinetic_action(backend, base)
           - 2.0 * eps * backend.entropy(reg.tilde.points[base.node_nearest(0.5)])
           + eps * (e0 + e1))
    return rhs - lhs


class TestRecoveryGaps:
    @pytest.mark.parametrize("backend", ["quad1d", "porous2"])
    def test_bitwise_per_eps(self, request, backend):
        be = request.getfixturevalue(backend)
        if backend == "quad1d":
            base = quad_segment(be, 1.0, 2.0)
        else:
            base = circle_reg(be, 32).base
        eps_list = [0.2, 0.0, 0.1, 0.05]
        gaps = recovery_gaps(be, base, eps_list)
        assert bits(gaps) == bits(recovery_gap(be, base, e) for e in eps_list)
        assert bits(gaps) == bits(composed_recovery_gap(be, base, e) for e in eps_list)
        assert recovery_gaps(be, base, []) == []

    def test_errors_of_the_single_form(self, quad1d):
        base = quad_segment(quad1d, 1.0, 2.0, n=8)
        for bad in (-0.1, math.nan, math.inf):
            for gap in (lambda: recovery_gap(quad1d, base, bad),
                        lambda: recovery_gaps(quad1d, base, [0.1, 0.0, bad])):
                with pytest.raises(DomainError, match="eps must be finite and nonnegative"):
                    gap()

        class InfEntropy:
            lam = 1.0

            def entropy(self, p):
                return math.inf

        for eps_list in ([0.1], [0.0], [0.2, 0.1]):
            with pytest.raises(EndpointEntropyInfinite):
                recovery_gaps(InfEntropy(), base, eps_list)
        # eps is checked before the endpoints
        with pytest.raises(DomainError, match="eps"):
            recovery_gaps(InfEntropy(), base, [0.1, math.nan])


class TestUniformConvergence:
    def test_tilde_approaches_base_linearly(self, boltzmann):
        a = gaussian_on(SWEEP, 0.0, 1.0)
        b = gaussian_on(SWEEP, 2.0, 2.0)
        base = geodesic_curve(boltzmann, a, b, 32)
        sups = []
        for eps in (0.2, 0.1, 0.05):
            reg = build(boltzmann, base, eps)
            sups.append(max(
                boltzmann.distance(p, q)
                for p, q in zip(reg.tilde.points, base.points)
            ))
        assert sups[0] > sups[1] > sups[2]
        # empirically <= C * eps with a stable constant
        cs = [s / e for s, e in zip(sups, (0.2, 0.1, 0.05))]
        assert max(cs) <= 2.0 * min(cs)

    def test_entropy_continuity_along_tilde(self, boltzmann):
        a = gaussian_on(SWEEP, 0.0, 1.0)
        b = gaussian_on(SWEEP, 2.0, 2.0)
        base = geodesic_curve(boltzmann, a, b, 32)
        reg = build(boltzmann, base, 0.1)
        es = [boltzmann.entropy(p) for p in reg.tilde.points]
        jumps = np.abs(np.diff(es[1:-1]))
        assert np.max(jumps) <= 5.0 * (1.0 / 32)  # <= C * dt on interior nodes


class TestConvexityCertificate:
    @pytest.mark.parametrize("bad", [-0.1, 1.5, math.nan])
    def test_theta_outside_unit_interval_rejected(self, quad1d, bad):
        # a nan theta would otherwise count as an endpoint, where the
        # inequality holds with equality
        with pytest.raises(DomainError, match="theta grid"):
            convexity_certificate(quad1d, np.array([1.0]), np.array([2.0]), [bad, 0.5])

    def test_quadratic_equality(self, quad1d):
        thetas = np.linspace(0.0, 1.0, 33)
        v = convexity_certificate(quad1d, np.array([-1.5]), np.array([2.0]), thetas)
        assert v <= 1e-9

    def test_boltzmann(self, boltzmann):
        thetas = np.linspace(0.0, 1.0, 33)
        a = gaussian_on(SWEEP, 0.0, 1.0)
        b = gaussian_on(SWEEP, 2.0, 2.0)
        assert convexity_certificate(boltzmann, a, b, thetas) <= 1e-3

    def test_porous(self, porous2):
        thetas = np.linspace(0.0, 1.0, 33)
        a = gaussian_on(SWEEP, 0.0, 1.0)
        b = gaussian_on(SWEEP, 2.0, 2.0)
        assert convexity_certificate(porous2, a, b, thetas) <= 1e-3

    def test_gaussian_entropy_profile_oracle(self, boltzmann):
        # E along the Gaussian geodesic is -log sigma_theta - log sqrt(2 pi e),
        # convex in theta since sigma_theta is affine; quadrature cross-check
        a = gaussian_on(SWEEP, 0.0, 1.0)
        b = gaussian_on(SWEEP, 2.0, 2.0)
        for th in (0.25, 0.5, 0.75):
            sig = 1.0 + th
            oracle = -math.log(sig) - 0.5 * math.log(2 * math.pi * math.e)
            got = boltzmann.entropy(boltzmann.geodesic(a, b, th))
            assert got == pytest.approx(oracle, abs=2e-3)
