import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from entrogeo import (
    EuclideanBackend,
    QuadraticPotential,
    UserPotential,
)
from entrogeo.euclidean import Potential
from entrogeo.flow_verify import local_global_report
from entrogeo.errors import DomainError, InvalidCurve


def quartic_potential():
    # V(x) = x^4/4 + x^2/2 on R, convex with Hessian >= 1
    return UserPotential(
        v=lambda x: 0.25 * float(x[0] ** 4) + 0.5 * float(x[0] ** 2),
        grad_v=lambda x: np.array([x[0] ** 3 + x[0]]),
        lam=1.0,
        dim=1,
    )


class TestQuadraticFlow:
    def test_closed_form_halving(self, quad2d):
        out = quad2d.flow(np.array([1.0, 0.0]), math.log(2.0))
        np.testing.assert_allclose(out, [0.5, 0.0], atol=1e-15)

    def test_identity_at_zero(self, quad2d):
        x = np.array([0.3, -0.7])
        np.testing.assert_array_equal(quad2d.flow(x, 0.0), x)

    def test_negative_time_rejected(self, quad2d):
        # a nan or infinite time is rejected like a negative one, by the
        # closed form and by the RK4 flow alike
        for s in (-0.1, math.nan, math.inf):
            with pytest.raises(DomainError, match="flow time must be finite and nonnegative"):
                quad2d.flow(np.zeros(2), s)
            with pytest.raises(DomainError, match="flow time must be finite and nonnegative"):
                quartic_potential().flow(np.zeros(1), s)

    def test_semigroup(self, quad2d):
        x = np.array([1.3, -0.4])
        a = quad2d.flow(quad2d.flow(x, 0.3), 0.5)
        b = quad2d.flow(x, 0.8)
        np.testing.assert_allclose(a, b, atol=1e-8)


class TestFlows:
    @pytest.mark.parametrize("backend", ["quad2d", "quartic"])
    def test_equals_loop_over_flow(self, backend, quad2d):
        be = quad2d if backend == "quad2d" else EuclideanBackend(quartic_potential())
        rng = np.random.default_rng(3)
        xs = [rng.uniform(-1.0, 1.0, be.dim) for _ in range(4)]
        ss = [0.3, 0.0, 0.3, 1.1]
        for got, x, s in zip(be.flows(xs, ss), xs, ss, strict=True):
            np.testing.assert_array_equal(got, be.flow(x, s))


class TestQuadraticArrays:
    """The quadratic well's gradients, Hessians, geodesic points and flows
    of many points are array passes, bit for bit the per-point forms; a
    user potential keeps its per-point callbacks."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_bitwise_per_point(self, dim):
        rng = np.random.default_rng(dim)
        pot = QuadraticPotential(rng.standard_normal(dim), 1.7)
        be = EuclideanBackend(pot)
        xs = 3.0 * rng.standard_normal((9, dim))
        assert pot.grads(xs).tobytes() == np.array([pot.grad(x) for x in xs]).tobytes()
        assert pot.hessians(xs).tobytes() == np.array([pot.hess(x) for x in xs]).tobytes()
        thetas = (0.0, 0.25, 1.0 / 3.0, 0.9, 1.0)
        got = be.geodesic_points(xs[0], xs[1], thetas)
        want = [be.geodesic(xs[0], xs[1], t) for t in thetas]
        assert [p.tobytes() for p in got] == [p.tobytes() for p in want]
        ss = [0.0, *rng.uniform(0.0, 3.0, 8).tolist()]
        got = be.flows(list(xs), ss)
        assert [p.tobytes() for p in got] == [be.flow(x, s).tobytes() for x, s in zip(xs, ss)]
        assert be.flows([], []) == [] and be.geodesic_points(xs[0], xs[1], []) == []

    def test_flow_times_checked(self, quad2d):
        for s in (-0.1, math.nan, math.inf):
            with pytest.raises(DomainError, match="flow time must be finite and nonnegative"):
                quad2d.flows([np.zeros(2), np.ones(2)], [0.1, s])

    def test_user_potential_falls_back(self):
        pot = quartic_potential()
        be = EuclideanBackend(pot)
        assert type(pot).grads is Potential.grads and type(pot).hessians is Potential.hessians
        xs = np.array([[0.3], [-1.2], [2.0]])
        assert pot.grads(xs).tobytes() == np.array([pot.grad(x) for x in xs]).tobytes()
        assert pot.hessians(xs).shape == (3, 1, 1)
        assert pot.hessians(xs).tobytes() == np.array([pot.hess(x) for x in xs]).tobytes()
        got = be.flows(list(xs), [0.1, 0.0, 0.2])
        assert [p.tobytes() for p in got] == [
            pot.flow(x, s).tobytes() for x, s in zip(xs, [0.1, 0.0, 0.2])]


class TestUserFlow:
    def test_zero_time_identity(self):
        pot = quartic_potential()
        x = np.array([1.0])
        np.testing.assert_array_equal(pot.flow(x, 0.0), x)

    def test_rk4_against_independent_integrator(self):
        pot = quartic_potential()
        # oracle: scipy's adaptive RK45 at tight tolerance on the same ODE
        sol = solve_ivp(
            lambda t, y: -(y**3 + y), (0.0, 0.5), [1.0],
            rtol=1e-12, atol=1e-12,
        )
        oracle = sol.y[0, -1]
        got = pot.flow(np.array([1.0]), 0.5)[0]
        assert got == pytest.approx(oracle, abs=1e-8)
        # frozen regression constant from the oracle above
        assert got == pytest.approx(0.4747627550268085, abs=1e-8)

    def test_finite_time_blowup_raises(self):
        # concave quartic: x' = x^3 escapes in finite time, RK4 overflows
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # declared lam is a lower bound lie
            pot = UserPotential(
                v=lambda x: -0.25 * float(x[0] ** 4),
                grad_v=lambda x: np.array([-x[0] ** 3]),
                lam=-8.0,
                dim=1,
            )
        from entrogeo.errors import FlowDiverged

        with pytest.raises(FlowDiverged), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            pot.flow(np.array([2.0]), 5.0)

    def test_gradient_validation_rejects_wrong_gradient(self):
        with pytest.raises(DomainError):
            UserPotential(
                v=lambda x: float(x[0] ** 2),
                grad_v=lambda x: np.array([3.0 * x[0]]),
                lam=1.0,
                dim=1,
            )

    def test_convexity_mismatch_warns(self):
        with pytest.warns(UserWarning):
            UserPotential(
                v=lambda x: float(x[0] ** 2),  # true lambda = 2
                grad_v=lambda x: 2.0 * x,
                lam=10.0,
                dim=1,
            )


class TestSlope:
    def test_norm_of_gradient(self, quad2d):
        assert quad2d.slope(np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_zero_at_minimizer(self, quad2d):
        assert quad2d.slope(np.zeros(2)) == 0.0

    def test_quartic_hand_derivative(self):
        pot = quartic_potential()
        be = EuclideanBackend(pot)
        assert be.slope(np.array([1.0])) == pytest.approx(2.0)


class TestGeodesic:
    def test_endpoints(self, quad2d):
        x, y = np.array([1.0, 2.0]), np.array([-1.0, 0.5])
        np.testing.assert_array_equal(quad2d.geodesic(x, y, 0.0), x)
        np.testing.assert_array_equal(quad2d.geodesic(x, y, 1.0), y)

    def test_midpoint(self, quad2d):
        mid = quad2d.geodesic(np.zeros(2), np.array([2.0, 0.0]), 0.5)
        np.testing.assert_allclose(mid, [1.0, 0.0])

    def test_constant_speed(self, quad2d):
        rng = np.random.default_rng(11)
        for _ in range(10):
            x, y = rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2)
            th = rng.uniform()
            d = quad2d.distance(x, y)
            assert quad2d.distance(quad2d.geodesic(x, y, th), x) == pytest.approx(
                th * d, abs=1e-12
            )


class TestSlopeGlobalCheck:
    # local_global_report's residual is the sampled global slope
    # sup_y ((V(x)-V(y))/d + lam/2 d)^+ minus the local slope |grad V(x)|

    def test_zero_at_minimizer(self, quad2d):
        rng = np.random.default_rng(0)
        samples = [rng.uniform(-2, 2, 2) for _ in range(20)]
        rep = local_global_report(quad2d, np.zeros(2), samples)
        assert rep.worst_residual == pytest.approx(0.0, abs=1e-12)
        assert rep.samples == 20

    def test_quadratic_quotient_exact_at_every_h(self, quad1d):
        # for V = x^2/2 the lam/2 * d term compensates the quotient exactly
        x = np.array([2.0])
        for h in (0.1, 0.01, 0.001):
            rep = local_global_report(quad1d, x, [np.array([2.0 - h])])
            assert rep.worst_residual == pytest.approx(0.0, abs=1e-10)

    def test_difference_quotient_limit_from_below(self):
        # quartic at x = 1: quotient = 2 - h (V''(1) - lam)/2 + O(h^2), so it
        # climbs to the slope 2 from below as the sample approaches x
        backend = EuclideanBackend(quartic_potential())
        x = np.array([1.0])
        vals = [
            local_global_report(backend, x, [np.array([1.0 - h])]).worst_residual
            for h in (0.1, 0.01, 0.001)
        ]
        assert vals[0] < vals[1] < vals[2] <= 1e-12
        assert vals[2] == pytest.approx(0.0, abs=5e-3)

    def test_center_sample_saturates(self, quad1d):
        x = np.array([2.0])
        rep = local_global_report(quad1d, x, [np.array([0.0])])
        assert rep.worst_residual == pytest.approx(0.0, abs=1e-12)

    def test_never_exceeds_local_slope(self, quad2d):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.uniform(-2, 2, 2)
            samples = [rng.uniform(-3, 3, 2) for _ in range(50)]
            assert local_global_report(quad2d, x, samples, tolerance=1e-9).passed


class TestFlowInvariants:
    def test_contraction(self, quad2d):
        rng = np.random.default_rng(2)
        for _ in range(10):
            x, y = rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2)
            for s in rng.uniform(0.0, 2.0, 5):
                lhs = quad2d.distance(quad2d.flow(x, s), quad2d.flow(y, s))
                assert lhs <= math.exp(-s) * quad2d.distance(x, y) + 1e-8

    def test_energy_dissipation_equality(self, quad1d):
        x = np.array([2.0])
        T = 1.0
        ss = np.linspace(0.0, T, 2001)
        slopes = np.array([quad1d.slope(quad1d.flow(x, s)) for s in ss])
        dissipated = np.trapezoid(slopes**2, ss)
        drop = quad1d.entropy(x) - quad1d.entropy(quad1d.flow(x, T))
        # closed forms: drop = 2 - 2 e^{-2}, integral = 2 (1 - e^{-2})
        assert drop == pytest.approx(2 - 2 * math.exp(-2.0), abs=1e-12)
        assert dissipated == pytest.approx(drop, rel=1e-4)

    def test_slope_monotonicity(self, quad2d):
        x = np.array([1.5, -0.5])
        ss = np.linspace(0.0, 2.0, 21)
        vals = [math.exp(s) * quad2d.slope(quad2d.flow(x, s)) for s in ss]
        assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))

    def test_user_flow_contraction(self):
        pot = quartic_potential()
        be = EuclideanBackend(pot)
        rng = np.random.default_rng(8)
        for _ in range(5):
            x, y = rng.uniform(-1.5, 1.5, 1), rng.uniform(-1.5, 1.5, 1)
            s = rng.uniform(0.1, 1.0)
            lhs = be.distance(be.flow(x, s), be.flow(y, s))
            assert lhs <= math.exp(-s) * be.distance(x, y) + 1e-8


class TestBackendContract:
    def test_check_point_shape(self, quad2d):
        with pytest.raises(InvalidCurve):
            quad2d.check_point(np.zeros(3))
        with pytest.raises(InvalidCurve):
            quad2d.check_point(np.array([np.nan, 0.0]))

    def test_quadratic_requires_positive_strength(self):
        with pytest.raises(DomainError):
            QuadraticPotential(np.zeros(1), 0.0)

    @pytest.mark.parametrize("strength", [math.nan, math.inf])
    def test_quadratic_requires_finite_strength(self, strength):
        with pytest.raises(DomainError, match="positive and finite"):
            QuadraticPotential(np.zeros(1), strength)

    def test_quadratic_hessian_is_one_read_only_matrix(self):
        # the solver asks for the Hessian at every node; one matrix serves all
        pot = QuadraticPotential([0.5, -1.0], 2.0)
        h = pot.hess(np.zeros(2))
        assert h is pot.hess(np.ones(2))
        np.testing.assert_array_equal(h, 2.0 * np.eye(2))
        with pytest.raises(ValueError, match="read-only"):
            h[0, 0] = 0.0

    @pytest.mark.parametrize("center", [np.zeros(0), [0.0, math.nan], [math.inf], [[]]],
                             ids=["empty", "nan", "inf", "empty-nested"])
    def test_quadratic_requires_a_finite_center(self, center):
        with pytest.raises(DomainError, match="at least one coordinate, all finite"):
            QuadraticPotential(center, 1.0)
