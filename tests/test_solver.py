import dataclasses
import gc
import importlib.util
import math
import mmap
import pickle
import re
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from entrogeo import (
    Curve,
    EuclideanBackend,
    GridDensity,
    QuadraticPotential,
    UserPotential,
    geodesic_curve,
)
from entrogeo.core import SpaceBackend, schrodinger_action
from entrogeo.density1d import _cdf_nodes
from entrogeo.errors import (
    DomainError,
    EndpointEntropyInfinite,
    EntrogeoError,
    GridMismatch,
    InvalidCurve,
)
from entrogeo import solver as solver_mod
from entrogeo.regularizer import build as build_regularized
from entrogeo.regularizer import builds
from entrogeo.solver import (
    SolverOptions,
    _banded_cholesky_solver,
    _DensityProblem,
    _EuclideanProblem,
    _lbfgs_armijo,
    _quantile_samples,
    _uniform_times,
    bridge_from_flow,
    discrete_action,
    discrete_actions,
    solve,
    solves,
)

from conftest import SWEEP, gaussian_on


def _bench_oracles():
    """``bench/oracles.py``, loaded by file path: the one home of the
    closed forms that the benchmark and these tests check against."""
    path = Path(__file__).resolve().parents[1] / "bench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("_bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_oracles = _bench_oracles()
quadratic_well_cost, gaussian_cost = _oracles.quadratic_well_cost, _oracles.gaussian_cost


class TestGeodesicCost:
    """The eps = 0 solve costs ``1/2 d(x, y)^2``."""

    def test_zero_for_equal_points(self, quad2d):
        x = np.array([1.0, 0.5])
        assert solve(quad2d, x, x, 0.0).cost == 0.0

    def test_euclidean_value(self, quad2d):
        y = np.array([3.0, 4.0])
        assert quad2d.distance(np.zeros(2), y) == pytest.approx(5.0)
        assert solve(quad2d, np.zeros(2), y, 0.0).cost == pytest.approx(12.5)

    def test_gaussian_pair(self, boltzmann):
        a = gaussian_on(SWEEP, 0.0, 1.0)
        b = gaussian_on(SWEEP, 2.0, 1.0)
        assert boltzmann.distance(a, b) == pytest.approx(2.0, rel=1e-3)
        assert solve(boltzmann, a, b, 0.0).cost == pytest.approx(2.0, rel=1e-3)


class TestEuclideanSolve:
    def test_eps_zero_reproduces_segment(self, quad2d):
        x, y = np.zeros(2), np.array([1.0, 1.0])
        res = solve(quad2d, x, y, 0.0)
        assert res.converged
        assert res.stationarity <= 1e-10
        assert res.cost == pytest.approx(1.0, abs=1e-12)
        seg = geodesic_curve(quad2d, x, y, res.minimizer.n_intervals)
        for p, q in zip(res.minimizer.points, seg.points):
            np.testing.assert_allclose(p, q, atol=1e-12)

    def test_eps_zero_is_closed_form_at_large_scale(self, quad2d):
        # the segment is the exact minimizer; at this scale its roundoff
        # stationarity (~5e-7) exceeds the 1e-7 target, so a descent from
        # it used to run out its budget and report non-convergence
        x, y = 1e8 * np.array([0.3, -1.1]), 1e8 * np.array([2.0, 0.7])
        res = solve(quad2d, x, y, 0.0)
        assert res.converged
        assert res.iterations == 0
        assert res.cost == pytest.approx(0.5 * float((x - y) @ (x - y)), rel=1e-15)

    def test_converges_at_large_scale(self, quad2d):
        # one exact Newton step solves the well at any scale; at 1e8 the
        # roundoff of the gradient is about 3e-6, so only a target relative
        # to the action lets the solve stop
        x, y = np.array([0.3, -1.1]), np.array([2.0, 0.7])
        opts = SolverOptions()
        unit = solve(quad2d, x, y, 0.1, opts)
        res = solve(quad2d, 1e8 * x, 1e8 * y, 0.1, opts)
        assert res.converged
        assert res.iterations <= 3
        assert res.stationarity <= opts.grad_tol
        # the problem is homogeneous of degree 2 in the endpoints
        assert res.cost == pytest.approx(1e16 * unit.cost, rel=1e-12)

    def test_bridge_identity_quadratic(self, quad1d):
        # the flow trajectory t -> S_{eps t} x is the optimal bridge to
        # S_eps x with value eps (E(x) - E(S_eps x)) = 1.5 log 2
        eps = math.log(2.0)
        x = np.array([2.0])
        expected = 1.5 * math.log(2.0)
        rb = bridge_from_flow(quad1d, x, eps)
        assert rb.cost == pytest.approx(expected, abs=1e-4)
        y = quad1d.flow(x, eps)
        rs = solve(quad1d, x, y, eps)
        assert rs.converged
        assert rs.cost == pytest.approx(expected, abs=1e-4)

    def test_bridge_from_equilibrium_is_constant(self, quad2d):
        res = bridge_from_flow(quad2d, np.zeros(2), 0.5)
        assert res.cost == pytest.approx(0.0, abs=1e-14)
        for p in res.minimizer.points:
            np.testing.assert_allclose(p, np.zeros(2), atol=1e-14)

    def test_descent_history_monotone(self, quad1d):
        res = solve(quad1d, np.array([1.0]), np.array([2.0]), 0.3)
        assert all(b <= a + 1e-12 for a, b in zip(res.cost_history, res.cost_history[1:]))

    def test_cold_solve_converges_at_roundoff_floor(self, quad1d):
        # a cold solve at a tight grad_tol converges well inside max_iter.
        # On the quadratic well the Gauss-Newton model is exact, so the
        # first step lands on the minimizer and the line search's
        # approximate-Wolfe branch is never reached here; TestLineSearch
        # drives that branch directly
        eps = 0.1
        x, y = np.array([1.0]), np.array([2.0])
        opts = SolverOptions(grad_tol=1e-8)
        res = solve(quad1d, x, y, eps, opts)
        assert res.converged
        assert res.iterations < opts.max_iter // 4
        exact = quadratic_well_cost(eps, 1.0, np.zeros(1), x, y)
        assert res.cost == pytest.approx(exact, abs=1e-6)

    def test_lower_bound(self, quad1d):
        for eps in (0.1, 0.3, 0.7):
            res = solve(quad1d, np.array([1.0]), np.array([2.0]), eps)
            lb = eps * abs(quad1d.entropy(np.array([1.0])) - quad1d.entropy(np.array([2.0])))
            assert res.cost >= lb - 1e-9

    def test_cost_decomposition(self, quad1d):
        res = solve(quad1d, np.array([1.0]), np.array([2.0]), 0.2)
        assert res.cost == pytest.approx(res.kinetic + 0.04 * res.fisher, abs=1e-12)

    def test_discrete_action_of_minimizer_is_the_cost(self, quad2d, boltzmann):
        x, y = np.array([1.0, -0.5]), np.array([-0.3, 2.0])
        for eps in (0.0, 0.2, 0.9):
            res = solve(quad2d, x, y, eps, SolverOptions(n_time=15))
            assert discrete_action(quad2d, res.minimizer, eps) == res.cost
            assert res.cost == res.kinetic + eps**2 * res.fisher
        # a density curve stores densities, so discrete_action repacks its
        # quantiles and meets the cost only to the PCHIP round trip (about
        # +2.2e-4 relative at this n and n_time), from above, as any
        # competitor curve must; the Fisher part counts every row once, the
        # end rows included
        n, dx, x0 = 64, 22.0 / 64, -10.0
        a = GridDensity.gaussian(0.0, 1.0, n, dx, x0)
        b = GridDensity.gaussian(2.0, 2.0, n, dx, x0)
        prob = _DensityProblem(boltzmann, a, b, _uniform_times(15), n)
        _, w = _steps_and_weights(prob.times)
        for eps in (0.0, 0.2):
            res = solve(boltzmann, a, b, eps, SolverOptions(n_time=15))
            S = [np.sum(prob.H * _fisher_residuals(boltzmann.kind, Q, prob.h, prob.H) ** 2)
                 for Q in prob._stack(res.decision)]
            assert res.fisher == pytest.approx(0.5 * float(w @ S), rel=1e-12)
            assert res.cost == res.kinetic + eps**2 * res.fisher
            repacked = discrete_action(boltzmann, res.minimizer, eps)
            assert res.cost <= repacked <= res.cost * (1.0 + 3e-4)

    @pytest.mark.parametrize("backend", ["boltzmann", "porous2", "quad2d"])
    def test_two_node_curve_has_an_empty_decision_vector(self, backend, request, sweep_pair):
        # a curve of its two end points alone is scored like any other: at
        # eps = 0 its action is the closed-form geodesic cost
        be = request.getfixturevalue(backend)
        x, y = sweep_pair if backend != "quad2d" else (np.zeros(2), np.ones(2))
        curve = Curve(np.array([0.0, 1.0]), [x, y])
        assert discrete_action(be, curve, 0.0) == solve(be, x, y, 0.0).cost
        if backend == "quad2d":
            # 2.1e-16 relative; at other end points the 64 steps of the
            # solved geodesic round apart from the one step by about an ulp
            assert discrete_action(be, curve, 0.3) == pytest.approx(
                schrodinger_action(be, curve, 0.3), rel=1e-15, abs=0.0)
            x, y = np.array([1.0, -0.5]), np.array([-0.3, 2.0])
            assert discrete_action(be, Curve(np.array([0.0, 1.0]), [x, y]), 0.0) == (
                pytest.approx(solve(be, x, y, 0.0).cost, rel=2.5e-16, abs=0.0))
        else:
            assert discrete_action(be, curve, 0.3) > discrete_action(be, curve, 0.0)

    def test_grid_consistency(self, quad1d):
        r1 = solve(quad1d, np.array([1.0]), np.array([2.0]), 0.2,
                   SolverOptions(n_time=63))
        r2 = solve(quad1d, np.array([1.0]), np.array([2.0]), 0.2,
                   SolverOptions(n_time=127))
        assert r2.cost == pytest.approx(r1.cost, rel=1e-3)

    def test_negative_eps_rejected(self, quad1d):
        x, y = np.array([1.0]), np.array([2.0])
        curve = geodesic_curve(quad1d, x, y, 4)
        for eps in (-0.1, math.nan, math.inf):
            with pytest.raises(DomainError, match="eps"):
                solve(quad1d, x, y, eps)
            with pytest.raises(DomainError, match="eps"):
                discrete_action(quad1d, curve, eps)
            with pytest.raises(DomainError, match="eps"):
                bridge_from_flow(quad1d, x, eps)


class TestLineSearch:
    """``_lbfgs_armijo`` on a 1-D quadratic whose value sits at its roundoff
    floor: every value is exactly 1.0 while the gradient stays exact, so no
    step passes the Armijo test and only the approximate-Wolfe branch can
    accept one."""

    @staticmethod
    def flat_quadratic(curvature, center, trials):
        def value_grad(z):
            trials.append(float(z[0]))
            # 1 + 1e-20 (z - center)^2 / 2 rounds to 1.0
            return 1.0 + 1e-20 * float((z[0] - center) ** 2) / 2, curvature * (z - center)
        return value_grad

    def test_wolfe_branch_accepts_at_the_roundoff_floor(self):
        trials = []
        z, iters, history, converged, stalled, decrement = _lbfgs_armijo(
            self.flat_quadratic(1.0, 1.0, trials), np.zeros(1), 1e-12, lambda d: d, 10)
        assert converged and not stalled
        # the unit step was taken although the value did not decrease, which
        # the Armijo test (a decrease of at least 1e-4 |g.d|) forbids
        assert trials == [0.0, 1.0]
        assert history == [1.0, 1.0]
        assert iters == 1 and z.tolist() == [1.0] and decrement == 0.0

    def test_wolfe_bracket_rejects_an_overshoot(self):
        # the unit step overshoots the minimizer at 0.25 to a slope of
        # 3 |g.d|, above the bracket's (1 - 2 delta) |g.d|, and so does the
        # half step; the quarter step lands on the minimizer
        trials = []
        z, iters, history, converged, _, _ = _lbfgs_armijo(
            self.flat_quadratic(4.0, 0.25, trials), np.zeros(1), 1e-12, lambda d: d, 10)
        assert converged
        assert trials == [0.0, 1.0, 0.5, 0.25]
        assert iters == 1 and z.tolist() == [0.25]

    def test_value_above_the_floor_is_rejected(self):
        # every trial off the start rises by 1e-12, more than the roundoff
        # allowance of 1e-14, so none is accepted although the unit step
        # lands on a zero slope: the search stalls
        def value_grad(z):
            return (1.0 if z[0] == 0.0 else 1.0 + 1e-12), z - 1.0

        z, iters, history, converged, stalled, _ = _lbfgs_armijo(
            value_grad, np.zeros(1), 1e-12, lambda d: d, 10)
        assert stalled and not converged
        assert iters == 0 and z.tolist() == [0.0] and history == [1.0]


class TestStalledDescent:
    """Every trial point off the warm start is infeasible, so the line search
    of each stage stalls on its first step, and the second stall in a row
    ends the descent."""

    @pytest.mark.parametrize("reverse", [False, True], ids=["model", "reversed-model"])
    def test_two_stalls_end_the_solve(self, quad2d, monkeypatch, reverse):
        start, builds = [], []
        value_grad = _EuclideanProblem.value_grad
        make_preconditioner = _EuclideanProblem.make_preconditioner

        def feasible_at_start_only(prob, z, sigma):
            if not start:
                start.append(z.copy())
            return value_grad(prob, z, sigma) if np.array_equal(z, start[0]) else (math.inf, None)

        def counted(prob, z, sigma):
            builds.append(z.copy())
            model = make_preconditioner(prob, z, sigma)
            # a reversed model gives an ascent direction, which the descent
            # replaces by steepest descent without testing the decrement
            return (lambda d: -model(d)) if reverse else model

        monkeypatch.setattr(_EuclideanProblem, "value_grad", feasible_at_start_only)
        monkeypatch.setattr(_EuclideanProblem, "make_preconditioner", counted)
        res = solve(quad2d, np.zeros(2), np.array([1.0, 1.0]), 0.3, SolverOptions(n_time=7))
        assert not res.converged and res.iterations == 0
        assert len(builds) == 2 and all(np.array_equal(b, start[0]) for b in builds)
        assert res.model_builds == 2
        assert len(res.cost_history) == 1
        # the decrement is tested, and found above grad_tol, only on the model's direction
        assert math.isinf(res.stationarity) == reverse
        assert res.stationarity > SolverOptions.grad_tol


class TestEuclideanGradient:
    def test_adjoint_gradient_matches_finite_differences(self, quad2d):
        # the double well without hess_v takes its Hessian from central
        # differences of grad V
        for be in (quad2d, _double_well(True), _double_well(False)):
            prob = _EuclideanProblem(be, np.zeros(2), np.array([1.0, 1.0]), _uniform_times(15))
            sigma = 0.3**2
            rng = np.random.default_rng(1)
            base = prob.pack(geodesic_curve(be, np.zeros(2), np.array([1.0, 1.0]), 16))
            for trial in range(20):
                z = base + 0.2 * rng.standard_normal(base.size)
                _, g = prob.value_grad(z, sigma)
                k = rng.integers(z.size)
                h = 1e-6
                e = np.zeros_like(z)
                e[k] = h
                fd = (prob.value_grad(z + e, sigma)[0]
                      - prob.value_grad(z - e, sigma)[0]) / (2 * h)
                assert g[k] == pytest.approx(fd, rel=1e-5, abs=1e-10)


def _double_well(with_hess: bool):
    # V = 1/4 (|x|^2 - 1)^2, whose Hessian (|x|^2 - 1) I + 2 x x^T is
    # indefinite near the origin: lam = -1
    hess = (lambda x: (x @ x - 1.0) * np.eye(2) + 2.0 * np.outer(x, x)) if with_hess else None
    return EuclideanBackend(UserPotential(
        lambda x: 0.25 * (x @ x - 1.0) ** 2, lambda x: (x @ x - 1.0) * x,
        lam=-1.0, dim=2, hess_v=hess))


def _fisher_residuals(kind, Q, h, H):
    """Quantile-space slope residuals R_k on nodes with spacings ``h`` and
    dual widths ``H``; analytic, so complex-step exact."""
    G = np.diff(Q) / h
    if kind.name == "boltzmann":
        A = 1.0 - np.log(G)
    else:
        A = kind.m / (kind.m - 1.0) * G ** (1.0 - kind.m)
    return (np.diff(A) / H) / (0.5 * (G[1:] + G[:-1]))


def _steps_and_weights(times):
    """Time steps and trapezoid weights of a time grid."""
    dts = np.diff(times)
    w = np.zeros(times.size)
    w[:-1] += 0.5 * dts
    w[1:] += 0.5 * dts
    return dts, w


def _dense_model_check(prob, z0, sigma, model, rtol=1e-10):
    """The preconditioner of ``prob`` at ``z0`` and Fisher weight ``sigma``
    inverts ``model`` to ``rtol``."""
    apply = prob.make_preconditioner(z0, sigma)
    rng = np.random.default_rng(3)
    for _ in range(3):
        v = rng.standard_normal(z0.size)
        want = np.linalg.solve(model, v)
        assert np.linalg.norm(apply(v) - want) <= rtol * np.linalg.norm(want)


def _float32_breaks_down(monkeypatch):
    """Make every float32 factorization report a breakdown at its first
    minor, so that each density model is factored from its float64 rows."""
    lapack = solver_mod._lapack
    monkeypatch.setattr(solver_mod, "_lapack", SimpleNamespace(
        spbtrf=lambda ab, **kw: (ab, 1), spbtrs=lapack.spbtrs,
        dpbtrf=lapack.dpbtrf, dpbtrs=lapack.dpbtrs))


class TestEuclideanModel:
    @pytest.mark.parametrize("dim", [1, 3])
    def test_quadratic_well_one_newton_step(self, dim):
        strength, eps = 1.0, 0.2
        center = np.linspace(-0.5, 0.5, dim)
        be = EuclideanBackend(QuadraticPotential(center, strength))
        x, y = np.linspace(1.0, 2.0, dim), np.linspace(-1.0, 0.5, dim)
        # 255 nodes keep the O(dt^2) time error of the cost below 1e-6
        res = solve(be, x, y, eps, SolverOptions(n_time=255))
        assert res.converged
        assert res.iterations <= 2
        assert res.stationarity <= 1e-12
        exact = quadratic_well_cost(eps, strength, center, x, y)
        assert res.cost == pytest.approx(exact, abs=1e-6)

    def test_nonconvex_double_well_converges(self):
        x, y = np.array([-1.0, 0.3]), np.array([1.1, -0.2])
        costs = []
        for with_hess in (True, False):
            res = solve(_double_well(with_hess), x, y, 0.3)
            assert res.converged
            costs.append(res.cost)
        assert costs[0] == pytest.approx(costs[1], abs=1e-8)

    def test_gauss_newton_model_on_nonuniform_grid(self):
        be = _double_well(True)
        times = np.linspace(0.0, 1.0, 7) ** 1.4
        eps = 0.6
        prob = _EuclideanProblem(be, np.array([-1.0, 0.3]), np.array([1.1, -0.2]), times)
        z0 = np.random.default_rng(2).uniform(-1.0, 1.0, prob.n_interior * 2)
        dts, w = _steps_and_weights(times)
        nI = prob.n_interior
        model = np.zeros((2 * nI, 2 * nI))
        for i, p in enumerate(z0.reshape(nI, 2)):
            h = be.potential.hess(p)
            blk = slice(2 * i, 2 * i + 2)
            model[blk, blk] = ((1.0 / dts[i] + 1.0 / dts[i + 1]) * np.eye(2)
                               + eps**2 * w[i + 1] * h @ h)
            if i + 1 < nI:
                nxt = slice(2 * i + 2, 2 * i + 4)
                model[blk, nxt] = model[nxt, blk] = -np.eye(2) / dts[i + 1]
        _dense_model_check(prob, z0, eps**2, model)


def _dense_density_model(be):
    """A density problem, a perturbed geodesic ``z0``, the Fisher weight and
    the Gauss-Newton model assembled densely, the Fisher Jacobian by complex
    step."""
    n, dx, x0 = 32, 22.0 / 32, -10.0
    a = GridDensity.gaussian(0.0, 1.0, n, dx, x0)
    b = GridDensity.gaussian(2.0, 2.0, n, dx, x0)
    times = np.linspace(0.0, 1.0, 7) ** 1.5  # 5 interior nodes, non-uniform
    eps, m = 0.5, 12
    prob = _DensityProblem(be, a, b, times, m)
    nI, w, H = prob.n_interior, prob.row_mass, prob.H
    z0 = prob.geodesic_z()
    rng = np.random.default_rng(4)
    min_inc = np.min(np.diff(z0.reshape(nI, m), axis=1))
    z0 = z0 + 0.2 * min_inc * rng.standard_normal(z0.size)
    dts, wt = _steps_and_weights(times)
    model = np.zeros((nI * m, nI * m))
    step = 1e-30
    for i, Q in enumerate(z0.reshape(nI, m)):
        J = np.array([_fisher_residuals(be.kind, Q + 1j * step * e, prob.h, H).imag / step
                      for e in np.eye(m)]).T
        blk = slice(i * m, (i + 1) * m)
        model[blk, blk] = ((1.0 / dts[i] + 1.0 / dts[i + 1]) * np.diag(w)
                           + eps**2 * wt[i + 1] * J.T @ (H[:, None] * J))
        if i + 1 < nI:
            nxt = slice((i + 1) * m, (i + 2) * m)
            model[blk, nxt] = model[nxt, blk] = -np.diag(w) / dts[i + 1]
    return prob, z0, eps**2, model


class TestDensityModel:
    @pytest.mark.parametrize("backend", ["boltzmann", "porous2"])
    def test_banded_model_matches_dense_assembly(self, backend, request, monkeypatch):
        # the float64 path, which a float32 breakdown falls back to
        _float32_breaks_down(monkeypatch)
        _dense_model_check(*_dense_density_model(request.getfixturevalue(backend)))

    @pytest.mark.parametrize("backend", ["boltzmann", "porous2"])
    def test_float32_model_matches_dense_assembly(self, backend, request):
        # the float32 factor solves to 5.4e-7 (boltzmann) and 1.8e-7 (porous2)
        _dense_model_check(*_dense_density_model(request.getfixturevalue(backend)),
                           rtol=1e-6)


class TestGradedNodes:
    def test_packed_gaussian_fisher(self, boltzmann):
        # the quantile-space Fisher of N(m, s^2) is 1/s^2; the packed end
        # rows at m = 256 measure 2.4e-3 (s = 1) and 3.5e-3 (s = 2) below
        # it, where uniform midpoints lose 7e-2 to the dropped tails
        a, b = gaussian_on(SWEEP, 0.0, 1.0), gaussian_on(SWEEP, 2.0, 2.0)
        prob = _DensityProblem(boltzmann, a, b, _uniform_times(3), 256)
        S = prob._slope_sq(prob._stack(prob.geodesic_z()))[0]
        assert S[0] == pytest.approx(1.0, rel=4e-3)
        assert S[-1] == pytest.approx(0.25, rel=4e-3)
        assert abs(np.sum(prob.row_mass) - 1.0) <= 1e-15
        np.testing.assert_allclose(prob.u + prob.u[::-1], 1.0, rtol=0.0, atol=1e-15)


def _near_dirac_problem(be):
    """A problem whose density models all break down in float32, its eps
    and the cold start of its solve: a point mass and a narrow Gaussian on
    [0, 1] at n = 64, both mollified by the flow for sqrt(eps), at eps = 0.4
    and 7 time nodes."""
    n, eps = 64, 0.4
    x = GridDensity.point_mass(int(0.35 * n), n, 1.0 / n)
    y = GridDensity.gaussian(0.7, 0.15, n, 1.0 / n)
    x, y = be.flows([x, y], [math.sqrt(eps)] * 2)
    n_time = 7
    prob = _DensityProblem(be, x, y, _uniform_times(n_time), n)
    return prob, eps, prob.pack(build_regularized(
        be, geodesic_curve(be, x, y, n_time + 1), eps).tilde)


class TestModelFactorization:
    def test_indefinite_band_names_the_model(self):
        # lower band of [[1, 2, 0], [2, -1, 0], [0, 0, 1]]: the second
        # leading minor is -5
        ab = np.array([[1.0, -1.0, 1.0], [2.0, 0.0, 0.0]], order="F")
        with pytest.raises(EntrogeoError, match=r"^stand-in model: .* not positive definite "
                                                r"\(leading minor 2 of 3\)$"):
            _banded_cholesky_solver(ab, "stand-in model")

    def test_band_indefinite_only_in_float32(self):
        # [[1, c], [c, 1]] with c = 1 - 2^-30 is positive definite, but c
        # rounds to 1 in float32, where the second pivot is then 0
        c = 1.0 - 2.0**-30
        ab = np.array([[1.0, 1.0], [c, 0.0]], order="F")
        with pytest.raises(EntrogeoError, match=r"\(leading minor 2 of 2\)$"):
            _banded_cholesky_solver(np.asfortranarray(ab, np.float32), "stand-in model")
        x = _banded_cholesky_solver(ab, "stand-in model")(np.ones(2))
        assert x.dtype == np.float64
        np.testing.assert_allclose([x[0] + c * x[1], c * x[0] + x[1]], 1.0, rtol=1e-14)

    def test_float32_breakdown_refactors_the_float64_rows(self, boltzmann, monkeypatch):
        prob, eps, z0 = _near_dirac_problem(boltzmann)
        factor = solver_mod._banded_cholesky_solver
        outcomes, rounded = [], []

        def recorded(ab, model):
            if ab.dtype == np.float32:
                rounded.append(np.asfortranarray(ab, np.float64))
            try:
                solve_band = factor(ab, model)
            except EntrogeoError:
                outcomes.append((ab.dtype, False))
                raise
            outcomes.append((ab.dtype, True))
            return solve_band

        v = np.random.default_rng(6).standard_normal(z0.size)
        with monkeypatch.context() as patch:
            patch.setattr(solver_mod, "_banded_cholesky_solver", recorded)
            got = prob.make_preconditioner(z0, eps**2)(v)
        assert outcomes == [(np.float32, False), (np.float64, True)]
        # the float32 rounding itself makes the model indefinite: the
        # rounded band breaks down in float64 too
        with pytest.raises(EntrogeoError, match="not positive definite"):
            factor(rounded[0], "rounded model")
        _float32_breaks_down(monkeypatch)
        assert prob.make_preconditioner(z0, eps**2)(v).tobytes() == got.tobytes()

    def test_solve_whose_builds_all_break_down_is_the_float64_solve(self, boltzmann,
                                                                    monkeypatch):
        prob, eps, _ = _near_dirac_problem(boltzmann)
        opts = SolverOptions(n_time=prob.n_interior)
        lapack, infos = solver_mod._lapack, []

        def spbtrf(ab, **kw):
            cb, info = lapack.spbtrf(ab, **kw)
            infos.append(info)
            return cb, info

        with monkeypatch.context() as patch:
            patch.setattr(solver_mod, "_lapack", SimpleNamespace(
                spbtrf=spbtrf, spbtrs=lapack.spbtrs, dpbtrf=lapack.dpbtrf, dpbtrs=lapack.dpbtrs))
            res = solve(boltzmann, prob.chart.first, prob.chart.last, eps, opts)
        assert infos and all(infos)
        _float32_breaks_down(monkeypatch)
        forced = solve(boltzmann, prob.chart.first, prob.chart.last, eps, opts)
        assert res.decision.tobytes() == forced.decision.tobytes()
        assert (res.cost, res.iterations, res.stationarity) == (
            forced.cost, forced.iterations, forced.stationarity)

    def test_second_model_leaves_the_first_intact(self, boltzmann):
        a = GridDensity.gaussian(0.0, 1.0, 32, 22.0 / 32, -10.0)
        b = GridDensity.gaussian(2.0, 2.0, 32, 22.0 / 32, -10.0)
        prob = _DensityProblem(boltzmann, a, b, _uniform_times(7), 12)
        z0 = prob.geodesic_z()
        v = np.random.default_rng(5).standard_normal(z0.size)
        first = prob.make_preconditioner(z0, 0.25)
        want = first(v)
        # a second model built while the first lives must not overwrite it
        second = prob.make_preconditioner(z0 * 1.01, 0.25)
        np.testing.assert_array_equal(first(v), want)
        assert not np.array_equal(second(v), want)


class TestDensitySolve:
    def test_eps_zero_is_quantile_geodesic(self, boltzmann, sweep_pair):
        a, b = sweep_pair
        res = solve(boltzmann, a, b, 0.0)
        assert res.converged
        assert res.iterations == 0
        assert res.cost == pytest.approx(0.5 * boltzmann.distance(a, b) ** 2, rel=1e-3)
        assert res.stationarity <= 1e-10

    def test_solve_bracketed_by_geodesic_and_recovery(self, boltzmann, sweep_pair):
        a, b = sweep_pair
        r0 = solve(boltzmann, a, b, 0.0)
        res = solve(boltzmann, a, b, 0.1)
        assert res.converged
        assert res.cost >= r0.cost  # kinetic alone is already >= cost_0
        warm = discrete_action(boltzmann, res.minimizer, 0.1)
        assert res.cost <= warm + 1e-9

    def test_periodic_not_supported(self):
        from entrogeo import Density1DBackend, EntropyKind

        be = Density1DBackend(EntropyKind.boltzmann())
        n = 64
        a = GridDensity.gaussian(0.3, 0.05, n, 1.0 / n, boundary="periodic")
        b = GridDensity.gaussian(0.7, 0.05, n, 1.0 / n, boundary="periodic")
        with pytest.raises(DomainError):
            solve(be, a, b, 0.1)

    def test_bridge_identity_boltzmann(self, boltzmann):
        # A_eps along the flow equals eps (E(x) - E(S_eps x)); both sides by
        # independent grid quadratures, which differ by 5.1e-4 relative
        a = gaussian_on(SWEEP, 0.0, 1.0)
        eps = 0.1
        res = bridge_from_flow(boltzmann, a, eps, SolverOptions(n_time=63))
        target = eps * (boltzmann.entropy(a) - boltzmann.entropy(boltzmann.flow(a, eps)))
        assert res.cost == pytest.approx(target, rel=1e-3)

    @pytest.mark.parametrize("entropy, eps", [
        *(pytest.param("porous2", eps, id=str(eps)) for eps in (0.1, 0.5, 1.0, 2.0)),
        *(pytest.param("boltzmann", eps, id=f"boltzmann-{eps}", marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="the quantile Fisher stencil charges too little: the Boltzmann solves "
            "cost 1.22e-3 (eps 0.1) and 1.85e-3 (eps 0.2) relative below "
            "eps (E(x) - E(S_eps x)), in 4 and 73 iterations, both reported converged"))
          for eps in (0.1, 0.2)),
    ])
    def test_porous_solve_between_a_flow_pair_meets_the_bound(self, entropy, eps, request):
        # between x and y = S_eps x the cost is exactly eps (E(x) - E(y)),
        # the action of the flow curve, and no curve costs less; the porous
        # solves measure 9.7e-4, 7.3e-4, 6.4e-4 and 6.2e-4 above it
        be = request.getfixturevalue(entropy)
        x = gaussian_on(SWEEP, 0.0, 1.0)
        y = be.flow(x, eps)
        bound = eps * (be.entropy(x) - be.entropy(y))
        res = solve(be, x, y, eps)
        assert res.converged
        assert bound <= res.cost <= (1.0 + 1e-3) * bound

    @pytest.mark.parametrize("eps_list", [
        pytest.param([0.2, 0.1, 0.05, 0.025], id="chain"),
        pytest.param([0.5], id="0.5", marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="the quantile Fisher stencil charges too little: at eps 0.5 fisher "
            "reads 3.49e-2 relative below the closed form, after 139 iterations")),
    ])
    def test_gaussian_kinetic_and_fisher_match_the_closed_form(self, boltzmann, eps_list):
        # the exact cost C is the minimum of K + sigma F over curves, sigma =
        # eps^2, so by the envelope theorem the minimizer's F is dC/dsigma
        # (here a central difference) and its K is C - sigma F.  On the
        # bench's seed-1 pair the chain measures F 3.23e-3 to 3.31e-3 below,
        # K 5.21e-5 to 5.22e-5 and the cost 4.1e-5 to 5.2e-5 above, relative
        m0, s0, m1, s1 = -0.1463, 1.0347, 2.1055, 1.951
        x, y = gaussian_on(SWEEP, m0, s0), gaussian_on(SWEEP, m1, s1)

        def cost(sigma):
            return gaussian_cost(math.sqrt(sigma), m0, s0, m1, s1)

        h = 1e-4
        for res in solves(boltzmann, x, y, eps_list):
            sigma = res.eps**2
            fisher = (cost(sigma + h) - cost(sigma - h)) / (2.0 * h)
            assert res.converged
            assert res.fisher == pytest.approx(fisher, rel=3.6e-3)
            assert res.kinetic == pytest.approx(cost(sigma) - sigma * fisher, rel=5.7e-5)
            assert res.cost == pytest.approx(cost(sigma), rel=5.7e-5)

    def test_descent_history_monotone(self, boltzmann, sweep_pair):
        a, b = sweep_pair
        res = solve(boltzmann, a, b, 0.2)
        assert all(b2 <= a2 + 1e-12 for a2, b2 in zip(res.cost_history, res.cost_history[1:]))

    def test_infinite_entropy_endpoint_raises(self, boltzmann, sweep_pair):
        a, _ = sweep_pair

        class InfEntropyBackend:
            lam = 0.0

            def entropy(self, p):
                return math.inf

            def check_point(self, p):
                pass

            def same_space(self, p, q):
                return True

        with pytest.raises(EndpointEntropyInfinite,
                           match=r"entrogeo\.cost_analysis\.mollified_sweep"):
            solve(InfEntropyBackend(), a, a, 0.1)


class TestEndpointValidation:
    def test_euclidean_endpoint_of_wrong_dimension(self, quad2d):
        with pytest.raises(InvalidCurve):
            solve(quad2d, np.array([1.0]), np.array([2.0]), 0.3)

    def test_endpoint_dimension_checked_before_entropy(self, quad2d):
        # with eps > 0 the endpoint entropies are evaluated, which must not
        # happen on points of the wrong dimension
        with pytest.raises(InvalidCurve):
            solve(quad2d, np.zeros(3), np.ones(3), 0.1)

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_density_endpoints_on_different_grids(self, boltzmann, eps):
        a = GridDensity.gaussian(0.0, 1.0, 128, 0.1, -6.4)
        b = GridDensity.gaussian(0.5, 1.0, 64, 0.2, -6.4)
        with pytest.raises(GridMismatch):
            solve(boltzmann, a, b, eps)

    def test_discrete_action_checks_endpoints(self, boltzmann, quad2d):
        curve = geodesic_curve(quad2d, np.zeros(2), np.ones(2), 4)
        with pytest.raises(InvalidCurve):
            discrete_action(boltzmann, curve, 0.1)
        a = GridDensity.gaussian(0.0, 1.0, 128, 0.1, -6.4)
        b = GridDensity.gaussian(0.5, 1.0, 64, 0.2, -6.4)
        with pytest.raises(GridMismatch):
            discrete_action(boltzmann, Curve(np.linspace(0.0, 1.0, 3), [a, a, b]), 0.1)

    @pytest.mark.parametrize("node", [1, 2, 3])
    def test_discrete_action_checks_every_node(self, quad2d, node):
        # a non-finite interior node raises, where the action used to be NaN
        pts = [np.full(2, 0.25 * i) for i in range(5)]
        pts[node] = np.array([math.nan, 0.5])
        with pytest.raises(InvalidCurve, match="coordinates must be finite"):
            discrete_action(quad2d, Curve.uniform(pts), 0.1)

    def test_backend_without_solver_strategy(self):
        class Plain(SpaceBackend):
            def check_point(self, x):
                pass

            def same_space(self, a, b):
                return True

            def entropy(self, x):
                return 0.0

        x, y = np.zeros(1), np.ones(1)
        msg = "no solver strategy for backend Plain"
        with pytest.raises(DomainError, match=msg):
            solve(Plain(), x, y, 0.1)
        with pytest.raises(DomainError, match=msg):
            discrete_action(Plain(), Curve.uniform([x, y]), 0.1)

    def test_discrete_action_checks_interior_nodes(self, quad2d):
        pts = [np.zeros(2), np.zeros(3), np.ones(2)]
        with pytest.raises(InvalidCurve):
            discrete_action(quad2d, Curve(np.linspace(0.0, 1.0, 3), pts), 0.1)


class TestQuantileSamples:
    N, DX, X0 = 128, 0.1, -6.4

    def _densities(self):
        n, dx, x0 = self.N, self.DX, self.X0
        return [
            GridDensity.gaussian(-1.0, 0.2, n, dx, x0),
            GridDensity.gaussian(0.5, 3.0, n, dx, x0),
            GridDensity.uniform(n, dx, x0),
            GridDensity.gaussian(2.0, 0.02, n, dx, x0),  # below the cell width
            GridDensity.point_mass(40, n, dx, x0),
            # against the wall, where the end rule clamps the slope to zero
            GridDensity.point_mass(0, n, dx, x0),
        ]

    def test_matches_scipy_pchip_row_by_row(self):
        u_mid = (np.arange(4 * self.N) + 0.5) / (4 * self.N)
        ds = self._densities()
        Q = _quantile_samples(ds, u_mid)
        assert Q.shape == (len(ds), u_mid.size)
        for d, row in zip(ds, Q):
            ref = PchipInterpolator(*_cdf_nodes(d))(u_mid)
            np.testing.assert_allclose(row, ref, rtol=0.0, atol=1e-15)
        single = _quantile_samples(ds[3:4], u_mid)
        np.testing.assert_allclose(single, Q[3:4], rtol=0.0, atol=1e-15)

    def test_flat_gathers_match_the_row_column_gathers(self):
        n, dx = SWEEP["n"], SWEEP["dx"]
        ds = [GridDensity.gaussian(-0.2 + 0.04 * k, 1.0 + 0.015 * k, n, dx, SWEEP["x0"])
              for k in range(63)]
        u = solver_mod._graded_nodes(n)[0]
        assert _quantile_samples(ds, u).tobytes() == pchip_reference(ds, u).tobytes()

    def test_knot_just_above_a_node_in_a_deep_row(self):
        # a flat lookup over rows shifted by 2 r rounds a node within an ulp
        # of 2 r below a knot up to the knot, into the next cubic
        n, dx = SWEEP["n"], SWEEP["dx"]
        ds = [GridDensity.gaussian(-0.2 + 0.04 * k, 1.0 + 0.015 * k, n, dx, SWEEP["x0"])
              for k in range(64)]
        F = _cdf_nodes(ds[0], np.stack([d.rho for d in ds]))[0]
        below = [np.nextafter(F[r, j], 0.0) for r in (61, 62, 63) for j in (n // 4, n // 2)]
        u = np.unique(np.concatenate([solver_mod._graded_nodes(n)[0], below]))
        assert _quantile_samples(ds, u).tobytes() == pchip_reference(ds, u).tobytes()

    def test_rejects_mixed_grids(self):
        ds = self._densities()
        other = GridDensity.uniform(self.N, 2.0 * self.DX, self.X0)
        with pytest.raises(GridMismatch):
            _quantile_samples([ds[0], other], np.array([0.5]))


def pchip_reference(ds, u):
    """``_quantile_samples`` with 2-D [row, interval] gathers, each row's
    intervals from its own ``searchsorted``."""
    n = ds[0].n
    rows = len(ds)
    F, x = _cdf_nodes(ds[0], np.stack([d.rho for d in ds]))
    h = np.diff(F, axis=1)
    mk = np.diff(x) / h
    w1 = 2.0 * h[:, 1:] + h[:, :-1]
    w2 = h[:, 1:] + 2.0 * h[:, :-1]
    dk = np.empty((rows, n + 1))
    dk[:, 1:-1] = 1.0 / ((w1 / mk[:, :-1] + w2 / mk[:, 1:]) / (w1 + w2))
    dk[:, 0] = solver_mod._pchip_end_slope(h[:, 0], h[:, 1], mk[:, 0], mk[:, 1])
    dk[:, -1] = solver_mod._pchip_end_slope(h[:, -1], h[:, -2], mk[:, -1], mk[:, -2])
    t = (dk[:, :-1] + dk[:, 1:] - 2.0 * mk) / h
    c0 = t / h
    c1 = (mk - dk[:, :-1]) / h - t
    r = np.arange(rows)[:, None]
    i = np.clip([np.searchsorted(f, u, side="right") - 1 for f in F], 0, n - 1)
    s = u - F[r, i]
    s2 = s * s
    return ((x[i] + dk[r, i] * s) + c1[r, i] * s2) + c0[r, i] * (s2 * s)


def _density_fd_check(prob, sigma, seed, trials):
    """Adjoint gradient at Fisher weight ``sigma`` against central
    differences at bounded random perturbations of the geodesic, which keep
    every increment positive; the step is a fixed fraction of the smallest
    increment."""
    rng = np.random.default_rng(seed)
    z0 = prob.geodesic_z()
    min_inc = np.min(np.diff(z0.reshape(prob.n_interior, prob.m), axis=1))
    for trial in range(trials):
        z = z0 + 0.2 * min_inc * rng.uniform(-1.0, 1.0, z0.size)
        _, g = prob.value_grad(z, sigma)
        k = rng.integers(z.size)
        h = 1e-4 * np.min(np.diff(z.reshape(prob.n_interior, prob.m), axis=1))
        e = np.zeros_like(z)
        e[k] = h
        fd = (prob.value_grad(z + e, sigma)[0] - prob.value_grad(z - e, sigma)[0]) / (2 * h)
        assert g[k] == pytest.approx(fd, rel=1e-5, abs=1e-8)


class TestDensityGradient:
    def test_adjoint_gradient_matches_finite_differences(self, boltzmann):
        n, dx, x0 = 128, 22.0 / 128, -10.0
        a = GridDensity.gaussian(0.0, 1.0, n, dx, x0)
        b = GridDensity.gaussian(2.0, 2.0, n, dx, x0)
        _density_fd_check(_DensityProblem(boltzmann, a, b, _uniform_times(7), 64), 0.1**2, 5, 20)

    def test_porous_gradient_matches_finite_differences(self, porous2):
        n, dx, x0 = 128, 22.0 / 128, -10.0
        a = GridDensity.gaussian(0.0, 1.0, n, dx, x0)
        b = GridDensity.gaussian(2.0, 2.0, n, dx, x0)
        _density_fd_check(_DensityProblem(porous2, a, b, _uniform_times(7), 64), 0.1**2, 6, 10)

    def test_infeasible_trial_returns_inf(self, boltzmann):
        n, dx, x0 = 64, 22.0 / 64, -10.0
        a = GridDensity.gaussian(0.0, 1.0, n, dx, x0)
        b = GridDensity.gaussian(2.0, 2.0, n, dx, x0)
        prob = _DensityProblem(boltzmann, a, b, _uniform_times(3), 32)
        z = prob.geodesic_z()
        z[1], z[0] = z[0], z[1] + 1.0  # break monotonicity
        v, g = prob.value_grad(z, 0.1**2)
        assert v == math.inf and g is None


class TestSolverOptions:
    def test_validation(self):
        with pytest.raises(DomainError, match="n_time must be at least 3"):
            SolverOptions(n_time=2)
        for tol in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="grad_tol must be positive and finite"):
                SolverOptions(grad_tol=tol)
        with pytest.raises(DomainError, match="max_iter must be at least 1"):
            SolverOptions(max_iter=0)

    @pytest.mark.parametrize("name", ["n_time", "max_iter", "quantile_points"])
    @pytest.mark.parametrize("value", [10.5, 16.0, "16"])
    def test_non_integer_counts_rejected(self, name, value):
        # a float used to reach numpy inside solve and fail there with a
        # TypeError
        with pytest.raises(DomainError, match=f"{name} must be an integer, got {value!r}"):
            SolverOptions(**{name: value})

    @pytest.mark.parametrize("name", ["n_time", "max_iter", "quantile_points"])
    @pytest.mark.parametrize("value", [True, False, np.True_])
    def test_bool_counts_rejected(self, name, value):
        # max_iter=True used to run one iteration
        msg = re.escape(f"{name} must be an integer, got {value!r}")
        with pytest.raises(DomainError, match=msg):
            SolverOptions(**{name: value})

    def test_numpy_integer_counts_solve(self, quad1d):
        opts = SolverOptions(n_time=np.int64(7), max_iter=np.int32(50))
        assert solve(quad1d, np.array([1.0]), np.array([2.0]), 0.1, opts).converged

    @pytest.mark.parametrize("qp", [0, 1, 2, -5])
    def test_too_few_quantile_points_rejected(self, qp):
        with pytest.raises(DomainError, match="quantile_points must be at least 3"):
            SolverOptions(quantile_points=qp)

    def test_quantile_points_floor_solves(self, boltzmann):
        a = GridDensity.gaussian(0.0, 1.0, 64, 22.0 / 64, -10.0)
        b = GridDensity.gaussian(2.0, 2.0, 64, 22.0 / 64, -10.0)
        res = solve(boltzmann, a, b, 0.1, SolverOptions(n_time=7, quantile_points=3))
        assert res.decision.size == 7 * 3
        assert res.fisher > 0.0

    def test_max_iter_non_convergence_reported(self):
        # the double well is not quadratic, so one model step cannot be exact
        grad_tol = 1e-10
        res = solve(_double_well(True), np.array([-1.0, 0.3]), np.array([1.1, -0.2]),
                    0.3, SolverOptions(max_iter=1, grad_tol=grad_tol))
        assert not res.converged
        assert res.iterations == 1
        assert res.stationarity > 1e3 * grad_tol


def _chain(be, x, y, eps_list, n_time=15):
    """Every result of the ``solves`` chain of ``eps_list``, as a sweep
    chains them."""
    return list(solves(be, x, y, eps_list, SolverOptions(n_time=n_time)))


def _record_models(monkeypatch, before_build=lambda built: None):
    """Weak references to every density model built from now on, in a list
    that ``before_build`` is shown before each build."""
    built, build = [], _DensityProblem.make_preconditioner

    def recorded(prob, z0, sigma):
        before_build(built)
        model = build(prob, z0, sigma)
        built.append(weakref.ref(model))
        return model

    monkeypatch.setattr(_DensityProblem, "make_preconditioner", recorded)
    return built


def _chain_counting_slopes(monkeypatch, be, x, y, eps_list, forget=False):
    """The ``_chain`` of ``eps_list`` and the number of ``_slope_sq`` calls
    it made; with ``forget`` the problem drops its kept evaluation before
    every ``action``, so that each one evaluates afresh."""
    calls, action = [], solver_mod._Problem.action
    problem = _DensityProblem if isinstance(x, GridDensity) else _EuclideanProblem
    slope_sq = problem._slope_sq

    def counted(prob, rows):
        calls.append(1)
        return slope_sq(prob, rows)

    def forgetful(prob, z, sigma):
        prob._kept = None
        return action(prob, z, sigma)

    with monkeypatch.context() as patch:
        patch.setattr(problem, "_slope_sq", counted)
        if forget:
            patch.setattr(solver_mod._Problem, "action", forgetful)
        chain = _chain(be, x, y, eps_list)
    return chain, len(calls)


def _mmaps(monkeypatch, mapping=mmap.mmap, private=True):
    """The sizes of the mappings the solver makes from now on, each made by
    ``mapping``; without ``private`` the system seems to lack
    ``MAP_PRIVATE``."""
    sizes = []

    def counted(fileno, length, **kw):
        sizes.append(length)
        return mapping(fileno, length, **kw)

    names = ("MAP_PRIVATE", "MAP_ANONYMOUS", "MADV_HUGEPAGE") if private else ()
    monkeypatch.setattr(solver_mod, "mmap", SimpleNamespace(
        mmap=counted, **{k: getattr(mmap, k) for k in names if hasattr(mmap, k)}))
    return sizes


def _mapped(nbytes):
    """The length of the mapping of a fresh band of ``nbytes``: rounded up
    to whole huge pages, plus one, where the system has ``MAP_PRIVATE``."""
    if not hasattr(mmap, "MAP_PRIVATE"):
        return nbytes
    huge = solver_mod._HUGE_PAGE
    return -(-nbytes // huge) * huge + huge


@pytest.fixture(scope="module")
def pair():
    n = 64
    return (GridDensity.gaussian(0.0, 1.0, n, 22.0 / n, -10.0),
            GridDensity.gaussian(2.0, 2.0, n, 22.0 / n, -10.0))


class TestInheritedModel:
    """A chained solve runs its first stage on the factored model of the
    solve before it while the two eps are within a factor 4, and factors a
    model of its own otherwise."""

    @pytest.mark.parametrize("eps_list, builds", [
        # (eps_model / eps)^2: 1.8, 4, 16 (the 0.2 model), then 64: rebuild
        ([0.2, 0.15, 0.1, 0.05, 0.025], [1, 0, 0, 0, 1]),
        # 9, then 100: rebuild, then 9 (the 0.03 model)
        ([0.3, 0.1, 0.03, 0.01], [1, 0, 1, 0]),
        # ascending: 1/4, 1/16 (the 0.05 model), then 1/36: rebuild
        ([0.05, 0.1, 0.2, 0.3], [1, 0, 0, 1]),
    ])
    def test_builds_follow_the_factor_4_rule(self, boltzmann, pair, eps_list, builds):
        chain = _chain(boltzmann, *pair, eps_list)
        assert all(r.converged for r in chain)
        assert [r.model_builds for r in chain] == builds

    @pytest.mark.parametrize("eps_list", [[0.2, 0.15, 0.1, 0.05, 0.025], [0.3, 0.1, 0.03, 0.01]])
    def test_own_model_decrement_within_grad_tol(self, boltzmann, pair, eps_list):
        # the stopping target under a model of a larger eps is scaled so
        # that a model of the row's own eps, factored afresh at its
        # minimizer, also meets the rule -g.d <= grad_tol eps^2 |v|
        opts = SolverOptions(n_time=15)
        prob = _DensityProblem(boltzmann, *pair, _uniform_times(opts.n_time), pair[0].n)
        for res in _chain(boltzmann, *pair, eps_list):
            sigma = res.eps**2
            v, g = prob.value_grad(res.decision, sigma)
            own = float(np.sum(g * prob.make_preconditioner(res.decision, sigma)(g))) / (sigma * v)
            assert 0.0 < own <= opts.grad_tol
            assert own <= res.stationarity * (1.0 + 1e-4)

    def test_chain_builds_one_problem(self, boltzmann, pair, monkeypatch):
        # eps enters each evaluation and model as sigma = eps^2, so the rows
        # of a sweep's chain, the eps = 0 row included, share one problem
        built, init = [], _DensityProblem.__init__

        def counted(prob, *args):
            built.append(prob)
            init(prob, *args)

        monkeypatch.setattr(_DensityProblem, "__init__", counted)
        chain = _chain(boltzmann, *pair, [0.2, 0.175, 0.15, 0.125, 0.1, 0.075, 0.05, 0.025, 0.0])
        assert len(chain) == 9 and all(r.converged for r in chain)
        assert len(built) == 1

    def test_one_shot_eps_iterable_solves_like_a_list(self, boltzmann, pair):
        # the eps are checked before the chain runs; a generator read twice
        # used to be spent by the check and yield nothing
        eps_list = [0.2, 0.0, 0.1]
        listed = [r.to_record() for r in _chain(boltzmann, *pair, eps_list)]
        assert len(listed) == 3
        for once in ((e for e in eps_list), map(float, eps_list)):
            assert [r.to_record() for r in _chain(boltzmann, *pair, once)] == listed

    def test_euclidean_chain_inherits(self, quad2d):
        chain = _chain(quad2d, np.zeros(2), np.array([1.0, 1.0]), [0.3, 0.2, 0.1, 0.05])
        assert [r.model_builds for r in chain] == [1, 0, 0, 1]
        for res in chain:
            assert res.cost == pytest.approx(
                quadratic_well_cost(res.eps, 1.0, np.zeros(2), np.zeros(2), np.ones(2)), rel=1e-3)

    def test_eps_zero_leaves_the_chain_as_it_is(self, boltzmann, pair):
        # an eps = 0 solve in a chain starts from nothing and hands on nothing
        with_zero = _chain(boltzmann, *pair, [0.2, 0.0, 0.1])
        without = _chain(boltzmann, *pair, [0.2, 0.1])
        assert [r.model_builds for r in with_zero] == [1, 0, 0]
        assert with_zero[2].decision.tobytes() == without[1].decision.tobytes()
        assert with_zero[1].decision.tobytes() == solve(
            boltzmann, *pair, 0.0, SolverOptions(n_time=15)).decision.tobytes()

    def test_rebuild_allocates_no_second_band(self, boltzmann, pair, monkeypatch):
        # the 0.2 model serves the 0.1 solve, and it is dropped, its band
        # handed to the rebuild, before the 0.025 solve builds its own
        dead = []
        _record_models(monkeypatch, lambda built: dead.extend(m() is None for m in built))
        chain = _chain(boltzmann, *pair, [0.2, 0.1, 0.025])
        assert [r.model_builds for r in chain] == [1, 0, 1]
        assert dead == [True]

    def test_rebuild_refills_the_released_band(self, boltzmann, pair, monkeypatch):
        # the one mapping of the chain is the 0.2 model's float32 band,
        # which the 0.025 model refills
        sizes = _mmaps(monkeypatch)
        chain = _chain(boltzmann, *pair, [0.2, 0.1, 0.025])
        assert [r.model_builds for r in chain] == [1, 0, 1]
        prob = _DensityProblem(boltzmann, *pair, _uniform_times(15), pair[0].n)
        assert sizes == [_mapped(4 * (2 * prob.n_interior + 1) * prob.n_interior * prob.m)]

    def test_refilled_model_is_the_fresh_model(self, boltzmann, pair, monkeypatch):
        prob = _DensityProblem(boltzmann, *pair, _uniform_times(7), 16)
        fresh = _DensityProblem(boltzmann, *pair, _uniform_times(7), 16)
        z0 = prob.geodesic_z()
        z1 = prob.pack(build_regularized(
            boltzmann, geodesic_curve(boltzmann, *pair, 8), 0.3).tilde)
        v = np.random.default_rng(7).standard_normal(z0.size)
        want = fresh.make_preconditioner(z1, 0.05**2)(v)
        first = prob.make_preconditioner(z0, 0.3**2)
        del first
        sizes = _mmaps(monkeypatch)
        # nothing reads the dropped model's band, which takes the new rows
        refilled = prob.make_preconditioner(z1, 0.05**2)
        assert sizes == []
        assert refilled(v).tobytes() == want.tobytes()

    def test_held_model_is_never_refilled(self, boltzmann, pair, monkeypatch):
        prob = _DensityProblem(boltzmann, *pair, _uniform_times(7), 16)
        z0 = prob.geodesic_z()
        v = np.random.default_rng(9).standard_normal(z0.size)
        # the first model is held only by a closure, as a tracer wrapping
        # each model holds it
        held = (lambda model: lambda v: model(v))(prob.make_preconditioner(z0, 0.3**2))
        before = held(v)
        sizes = _mmaps(monkeypatch)
        # the second model maps a band of its own; once it is dropped the
        # third refills the second's band, never the held first's
        second = prob.make_preconditioner(z0, 0.05**2)
        del second
        third = prob.make_preconditioner(z0, 0.02**2)
        assert sizes == [_mapped(4 * (2 * prob.n_interior + 1) * prob.n_interior * prob.m)]
        assert held(v).tobytes() == before.tobytes()
        assert third(v).tobytes() != before.tobytes()

    def test_float64_retry_maps_its_own_band(self, boltzmann, pair, monkeypatch):
        def problem():
            return _DensityProblem(boltzmann, *pair, _uniform_times(7), 16)

        prob = problem()
        z0 = prob.geodesic_z()
        v = np.random.default_rng(8).standard_normal(z0.size)
        elements = (2 * prob.n_interior + 1) * prob.n_interior * prob.m
        want32 = problem().make_preconditioner(z0, 0.01)(v)
        with monkeypatch.context() as patch:
            _float32_breaks_down(patch)
            want64 = problem().make_preconditioner(z0, 0.01)(v)
        prob.make_preconditioner(z0, 0.01)  # a float32 model, dropped at once
        sizes = _mmaps(monkeypatch)
        with monkeypatch.context() as patch:
            _float32_breaks_down(patch)
            retry = prob.make_preconditioner(z0, 0.01)
            # the dropped model's float32 band takes the float32 rows, which
            # break down; the float64 rows go into a band of their own
            assert sizes == [_mapped(8 * elements)]
            # the retry reads only its float64 band, so while it is held the
            # next build refills the float32 band and maps a float64 one
            held = prob.make_preconditioner(z0, 0.01)
            assert sizes == [_mapped(8 * elements)] * 2
            assert retry(v).tobytes() == held(v).tobytes() == want64.tobytes()
            assert [ab.dtype for ab, _ in prob._bands.values()] == [np.float32, np.float64]
            # once both are dropped, a retry maps nothing
            del retry, held
            assert prob.make_preconditioner(z0, 0.01)(v).tobytes() == want64.tobytes()
            assert len(sizes) == 2
        # nor does a float32 build, whose rows factor again
        assert prob.make_preconditioner(z0, 0.01)(v).tobytes() == want32.tobytes()
        assert len(sizes) == 2

    @pytest.mark.skipif(not hasattr(mmap, "MAP_PRIVATE"), reason="no private mappings")
    def test_fresh_band_starts_on_a_huge_page(self, boltzmann, pair):
        prob = _DensityProblem(boltzmann, *pair, _uniform_times(7), 16)
        model = prob.make_preconditioner(prob.geodesic_z(), 0.01)
        ab = prob._bands[np.dtype(np.float32)][0]
        assert ab.ctypes.data % solver_mod._HUGE_PAGE == 0
        assert ab.flags.f_contiguous and ab.shape == (2 * prob.n_interior + 1, 7 * 16)
        del model

    @pytest.mark.parametrize("private", [True, False])
    def test_build_without_huge_page_advice(self, boltzmann, pair, monkeypatch, private):
        # a system that refuses the advice, or has no private mappings,
        # builds the same model on small pages
        advised = []

        class Refusing(mmap.mmap):
            def madvise(self, *args):
                advised.append(args)
                raise OSError("huge pages refused")

        def problem():
            return _DensityProblem(boltzmann, *pair, _uniform_times(7), 16)

        prob = problem()
        z0 = prob.geodesic_z()
        v = np.random.default_rng(4).standard_normal(z0.size)
        want = problem().make_preconditioner(z0, 0.01)(v)
        sizes = _mmaps(monkeypatch, Refusing, private)
        assert prob.make_preconditioner(z0, 0.01)(v).tobytes() == want.tobytes()
        nbytes = 4 * (2 * prob.n_interior + 1) * prob.n_interior * prob.m
        assert sizes == [_mapped(nbytes) if private else nbytes]
        assert len(advised) == (private and hasattr(mmap, "MADV_HUGEPAGE")
                                and hasattr(mmap, "MAP_PRIVATE"))

    def test_kept_results_hold_no_model(self, boltzmann, pair, monkeypatch):
        # a model lives in its chain, so a result a caller keeps holds no
        # band of megabytes
        built = _record_models(monkeypatch)
        kept = [solve(boltzmann, *pair, e, SolverOptions(n_time=15)) for e in (0.2, 0.1, 0.05)]
        assert all(r.converged for r in kept)
        assert len(built) == 3 and all(m() is None for m in built)

    def test_eps_zero_and_flow_bridges_build_no_model(self, boltzmann, pair):
        res, after = solves(boltzmann, *pair, [0.0, 0.1], SolverOptions(n_time=15))
        assert res.model_builds == 0
        assert after.model_builds == 1
        bridge = bridge_from_flow(boltzmann, pair[0], 0.1, SolverOptions(n_time=7))
        assert bridge.model_builds == 0 and bridge.to_record()["model_builds"] == 0

    def test_results_compare_repr_and_pickle_without_the_model(self, quad1d):
        res = solve(quad1d, np.array([1.0]), np.array([2.0]), 0.1, SolverOptions(n_time=7))
        assert res.model_builds == 1
        assert "model" not in {f.name for f in dataclasses.fields(res)}
        assert res == dataclasses.replace(res, decision=None)
        # a curve compares by identity, so a pickled result is compared field by field
        back = pickle.loads(pickle.dumps(res))
        assert repr(back) == repr(res)
        assert back.to_record() == res.to_record() and back.cost_history == res.cost_history
        assert back.decision.tobytes() == res.decision.tobytes()


class TestRenderedMinimizer:
    """A solve's result keeps its decision vector and renders ``minimizer``
    from it on first read, with no reference to the problem or its bands."""

    def test_render_on_read_is_the_eager_render(self, boltzmann, pair, monkeypatch):
        problems, renders = [], []
        problem, render = solver_mod._problem, solver_mod._density_from_quantiles

        def recorded(*args):
            prob = problem(*args)
            problems.append(weakref.ref(prob))
            return prob

        def counted(*args):
            renders.append(1)
            return render(*args)

        monkeypatch.setattr(solver_mod, "_problem", recorded)
        monkeypatch.setattr(solver_mod, "_density_from_quantiles", counted)
        res = solve(boltzmann, *pair, 0.1, SolverOptions(n_time=15))
        gc.collect()
        assert len(problems) == 1 and problems[0]() is None and renders == []
        # the ends are read without rendering
        assert res.ends() == pair and renders == []
        back = pickle.loads(pickle.dumps(res))
        curve = res.minimizer
        assert res.minimizer is curve and len(renders) == 1
        # what the solver rendered eagerly: the end points around the
        # densities of the quantile rows
        prob = _DensityProblem(boltzmann, *pair, _uniform_times(15), pair[0].n)
        inner = render(pair[0], res.decision.reshape(prob.n_interior, prob.m), prob.u)
        assert curve.times.tobytes() == prob.times.tobytes()
        assert curve.points[0] is pair[0] and curve.points[-1] is pair[1]
        for rendered in (curve, back.minimizer):
            assert [p.rho.tobytes() for p in rendered.points[1:-1]] == [
                p.rho.tobytes() for p in inner]
            assert all(p.same_grid(pair[0]) for p in rendered.points)

    def test_euclidean_curve_is_the_decision_rows(self, quad2d):
        x, y = np.zeros(2), np.array([1.0, 1.0])
        res = solve(quad2d, x, y, 0.2, SolverOptions(n_time=7))
        assert [p.tobytes() for p in res.ends()] == [x.tobytes(), y.tobytes()]
        rows = res.decision.reshape(7, 2)
        assert [p.tobytes() for p in res.minimizer.points] == [
            p.tobytes() for p in (x, *rows, y)]

    def test_deviation_is_the_largest_row_distance(self, boltzmann, quad2d, pair):
        # from the geodesic between the same end points: 0 at eps = 0 and
        # nan where nothing was solved
        for be, x, y in ((boltzmann, *pair), (quad2d, np.zeros(2), np.array([1.0, 1.0]))):
            zero, res = solves(be, x, y, [0.0, 0.2], SolverOptions(n_time=7))
            prob = solver_mod._problem(be, x, y, _uniform_times(7), SolverOptions(n_time=7))
            assert zero.deviation == 0.0
            assert res.deviation == float(np.max(
                prob.row_distances(res.decision, zero.decision))) > 0.0
        assert math.isnan(bridge_from_flow(boltzmann, pair[0], 0.1).deviation)

    def test_quantile_distance_is_the_exact_integral(self):
        # the difference of two extended quantile rows is piecewise linear,
        # so its L2 norm matches a fine trapezoid quadrature of it
        u = solver_mod._graded_nodes(16)[0]
        rng = np.random.default_rng(3)
        Qa, Qb = (np.cumsum(rng.uniform(0.1, 1.0, (3, 16)), axis=1) for _ in range(2))
        got = solver_mod._quantile_distances(Qa, Qb, u)
        u_full, qa = solver_mod._extended_quantiles(Qa, u)
        qb = solver_mod._extended_quantiles(Qb, u)[1]
        fine = np.linspace(0.0, 1.0, 200001)
        want = [math.sqrt(np.trapezoid((np.interp(fine, u_full, a) - np.interp(fine, u_full, b))
                                       ** 2, fine)) for a, b in zip(qa, qb)]
        np.testing.assert_allclose(got, want, rtol=1e-8)
        assert np.all(solver_mod._quantile_distances(Qa, Qa, u) == 0.0)


class TestKeptEvaluation:
    """An action at the ``z`` of the last evaluation reuses its sigma-free
    parts: the start of a chained solve and the cost split after a descent
    evaluate nothing afresh, and change no bit of any result."""

    @pytest.mark.parametrize("backend, eps_list, saved", [
        # the density chain repeats 16 of its 37 evaluations, the Euclidean
        # one 8 of 14: each chained solve starts, and each cost split is
        # taken, at the minimizer the descent evaluated last, and the first
        # stage starts where the cold-start build evaluated
        ("boltzmann", [0.2, 0.175, 0.15, 0.125, 0.1, 0.075, 0.05, 0.025, 0.0], 16),
        ("quad2d", [0.3, 0.2, 0.1, 0.05], 8),
    ])
    def test_chain_is_bit_identical_with_fewer_slopes(self, backend, eps_list, saved,
                                                      pair, request, monkeypatch):
        be = request.getfixturevalue(backend)
        x, y = pair if backend == "boltzmann" else (np.zeros(2), np.array([1.0, 1.0]))
        kept, n_kept = _chain_counting_slopes(monkeypatch, be, x, y, eps_list)
        fresh, n_fresh = _chain_counting_slopes(monkeypatch, be, x, y, eps_list, forget=True)
        assert all(r.converged for r in kept)
        for a, b in zip(kept, fresh, strict=True):
            assert repr(a.to_record()) == repr(b.to_record())
            assert np.array(a.cost_history).tobytes() == np.array(b.cost_history).tobytes()
            assert a.decision.tobytes() == b.decision.tobytes()
        assert (n_kept, n_fresh - n_kept) == ({"boltzmann": 21, "quad2d": 6}[backend], saved)

    @pytest.mark.parametrize("backend", ["boltzmann", "quad2d"])
    def test_model_at_the_kept_iterate_reuses_its_jacobian(self, backend, pair, request,
                                                            monkeypatch):
        # a build at a fresh point evaluates there once, and the value_grad
        # that follows at that point evaluates nothing; a build at the
        # iterate evaluated last evaluates nothing either, and every model
        # is the fresh one bit for bit
        be = request.getfixturevalue(backend)
        if backend == "boltzmann":
            x, y, cls, args = *pair, _DensityProblem, (16,)
            z = _DensityProblem(be, *pair, _uniform_times(7), 16).pack(build_regularized(
                be, geodesic_curve(be, *pair, 8), 0.3).tilde)
        else:
            x, y, cls, args = np.zeros(2), np.array([1.0, -1.0]), _EuclideanProblem, ()
            z = np.random.default_rng(5).standard_normal(7 * 2)
        calls, slope_sq = [], cls._slope_sq

        def counted(prob, rows):
            calls.append(1)
            return slope_sq(prob, rows)

        monkeypatch.setattr(cls, "_slope_sq", counted)
        built, kept, fresh = (cls(be, x, y, _uniform_times(7), *args) for _ in range(3))
        v = np.random.default_rng(11).standard_normal(z.size)
        want = fresh.make_preconditioner(z, 0.01)(v)
        calls.clear()
        assert built.make_preconditioner(z, 0.01)(v).tobytes() == want.tobytes()
        assert len(calls) == 1
        reused = built.value_grad(z, 0.01)
        assert len(calls) == 1
        evaluated = cls(be, x, y, _uniform_times(7), *args).value_grad(z, 0.01)
        assert reused[0] == evaluated[0] and reused[1].tobytes() == evaluated[1].tobytes()
        kept.value_grad(z, 0.01)
        calls.clear()
        assert kept.make_preconditioner(z, 0.01)(v).tobytes() == want.tobytes()
        assert calls == []
        if backend == "boltzmann":
            bands = [p._bands[np.dtype(np.float32)][0] for p in (kept, fresh)]
            assert bands[0].tobytes() == bands[1].tobytes()

    def test_cold_density_solve_has_one_jacobian_path(self, boltzmann, pair, monkeypatch):
        # every Fisher Jacobian of a solve, the models' included, comes from
        # an evaluation's _slope_sq
        inside, within, jacobian = [], [], solver_mod._fisher_jacobian
        slope_sq = _DensityProblem._slope_sq

        def marked(prob, rows):
            inside.append(1)
            try:
                return slope_sq(prob, rows)
            finally:
                inside.pop()

        def recorded(*args):
            within.append(bool(inside))
            return jacobian(*args)

        monkeypatch.setattr(_DensityProblem, "_slope_sq", marked)
        monkeypatch.setattr(solver_mod, "_fisher_jacobian", recorded)
        res = solve(boltzmann, *pair, 0.05, SolverOptions(n_time=15))
        assert res.converged and res.model_builds >= 1
        assert within and all(within)

    def test_action_at_a_changed_z_recomputes(self, boltzmann, pair):
        prob = _DensityProblem(boltzmann, *pair, _uniform_times(7), 16)
        z = prob.geodesic_z()
        at_geodesic = prob.action(z, 0.01)
        z[5] += 0.25 * (z[6] - z[5])  # in place, after the evaluation
        moved = prob.action(z, 0.01)
        want = _DensityProblem(boltzmann, *pair, _uniform_times(7), 16).action(z.copy(), 0.01)
        assert moved[:2] == want[:2] and moved[2].tobytes() == want[2].tobytes()
        assert moved[:2] != at_geodesic[:2]
        # the same z under another sigma recombines the kept parts
        again = prob.action(z.copy(), 0.04)
        assert again[:2] == moved[:2]
        assert again[2].tobytes() == _DensityProblem(
            boltzmann, *pair, _uniform_times(7), 16).action(z, 0.04)[2].tobytes()


class TestEpsRange:
    """eps whose square underflows to 0 or overflows is rejected before
    any flow or solve: the solver divides by eps^2."""

    @pytest.mark.parametrize("eps, msg", [(1e-300, "underflows"), (5e-324, "underflows"),
                                          (1e155, "overflows")])
    def test_rejected_on_both_backends(self, quad1d, boltzmann, eps, msg):
        a = GridDensity.gaussian(0.0, 1.0, 32, 22.0 / 32, -10.0)
        b = GridDensity.gaussian(2.0, 2.0, 32, 22.0 / 32, -10.0)
        for be, x, y in ((quad1d, np.array([1.0]), np.array([2.0])), (boltzmann, a, b)):
            with pytest.raises(DomainError, match=re.escape(f"eps = {eps} is too") + f".*{msg}"):
                solve(be, x, y, eps, SolverOptions(n_time=7))
            with pytest.raises(DomainError, match=msg):
                discrete_action(be, geodesic_curve(be, x, y, 4), eps)
            with pytest.raises(DomainError, match=msg):
                bridge_from_flow(be, x, eps)

    def test_sweep_rejects_before_any_solve(self, quad1d, monkeypatch):
        from entrogeo import cost_analysis

        chains = []
        monkeypatch.setattr(cost_analysis, "solves", lambda *a, **k: chains.append(a))
        with pytest.raises(DomainError, match="underflows"):
            cost_analysis.sweep(quad1d, np.array([1.0]), np.array([2.0]), [0.1, 1e-300])
        assert not chains


class TestDiscreteActions:
    """Curves that share a time grid and end points are scored on one
    problem by value only, bit for bit as a solve's action scores each."""

    @pytest.mark.parametrize("backend", ["boltzmann", "porous2"])
    def test_one_problem_scores_each_curve_alone(self, backend, pair, request, monkeypatch):
        be = request.getfixturevalue(backend)
        opts = SolverOptions(n_time=15)
        eps_list = [0.3, 0.1, 0.03, 0.0]
        curves = [reg.tilde for reg in builds(be, geodesic_curve(be, *pair, 16), eps_list)]
        prob = _DensityProblem(be, *pair, _uniform_times(15), pair[0].n)
        want = []
        for curve, eps in zip(curves, eps_list):
            kin, fis, _ = prob.action(prob.pack(curve), eps**2)
            want.append(kin + eps**2 * fis)
        alone = [discrete_action(be, curve, eps, opts) for curve, eps in zip(curves, eps_list)]
        packs, pack = [], solver_mod._quantile_samples
        monkeypatch.setattr(solver_mod, "_quantile_samples",
                            lambda ds, u: packs.append(len(ds)) or pack(ds, u))
        got = discrete_actions(be, curves, eps_list, opts)
        assert np.array(got).tobytes() == np.array(alone).tobytes() == np.array(want).tobytes()
        # the two end rows once, then each curve's 15 interior rows
        assert packs == [2] + [15] * len(curves)

    def test_value_leaves_the_kept_evaluation(self, boltzmann, pair):
        prob = _DensityProblem(boltzmann, *pair, _uniform_times(7), 16)
        z = prob.geodesic_z()
        kin, fis, _ = prob.action(z, 0.01)
        kept, jac = prob._kept, prob._jac.copy()
        geo = geodesic_curve(boltzmann, *pair, 8)
        other = prob.pack(build_regularized(boltzmann, geo, 0.3).tilde)
        assert prob.value(z, 0.01) == kin + 0.01 * fis
        prob.value(other, 0.01)
        assert prob._kept is kept and prob._jac.tobytes() == jac.tobytes()

    def test_curves_share_grid_and_ends(self, quad2d):
        a, b = np.zeros(2), np.ones(2)
        curve = geodesic_curve(quad2d, a, b, 4)
        for other in (geodesic_curve(quad2d, a, 2.0 * b, 4), geodesic_curve(quad2d, a, b, 5)):
            with pytest.raises(DomainError, match="share their time grid and end points"):
                discrete_actions(quad2d, [curve, other], [0.1, 0.1])
        with pytest.raises(DomainError, match="2 curves for 1 eps"):
            discrete_actions(quad2d, [curve, curve], [0.1])
        assert discrete_actions(quad2d, [], []) == []
        # ends are compared by value
        copy = Curve(curve.times, [a.copy(), *curve.points[1:-1], b.copy()])
        assert discrete_actions(quad2d, [curve, copy], [0.1, 0.2]) == [
            discrete_action(quad2d, curve, 0.1), discrete_action(quad2d, copy, 0.2)]


class TestTinyEps:
    """Where ``sigma F(geo)`` is within the line search's allowance of
    ``K(geo)``, a solve returns the geodesic, which is then as optimal as a
    descent could make it, instead of spending its budget below the
    roundoff of the action."""

    @pytest.fixture(scope="class")
    def tiny_pair(self):
        return (GridDensity.gaussian(0.0, 1.0, 64, 0.25, -8.0),
                GridDensity.gaussian(1.0, 1.2, 64, 0.25, -8.0))

    def test_geodesic_returned(self, boltzmann, tiny_pair):
        # this solve ran 2,000 iterations and reported converged False
        opts = SolverOptions(n_time=15)
        geo = solve(boltzmann, *tiny_pair, 0.0, opts)
        eps = 1e-12
        res = solve(boltzmann, *tiny_pair, eps, opts)
        assert (res.iterations, res.converged, res.model_builds, res.deviation) == (0, True, 0, 0.0)
        assert res.decision.tobytes() == geo.decision.tobytes()
        assert (res.kinetic, res.fisher) == (geo.cost, geo.fisher)
        assert res.cost == res.kinetic + eps**2 * res.fisher
        assert res.cost_history == (res.cost,)
        assert 0.0 <= res.stationarity < 1e-12  # roundoff of the kinetic gradient

    def test_larger_eps_descends(self, boltzmann, tiny_pair):
        # above the value floor no solve evaluates anything at the geodesic
        for eps in (1e-6, 1e-3):
            res = solve(boltzmann, *tiny_pair, eps, SolverOptions(n_time=15))
            assert res.converged and res.model_builds == 1 and res.iterations >= 1
            assert res.deviation > 0.0

    def test_tiny_eps_leaves_the_chain_as_it_is(self, boltzmann, tiny_pair):
        with_tiny = _chain(boltzmann, *tiny_pair, [0.2, 1e-12, 0.1])
        without = _chain(boltzmann, *tiny_pair, [0.2, 0.1])
        assert [r.model_builds for r in with_tiny] == [1, 0, 0]
        assert with_tiny[2].decision.tobytes() == without[1].decision.tobytes()
