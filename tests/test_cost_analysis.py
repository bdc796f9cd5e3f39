import math

import numpy as np
import pytest

from entrogeo import Curve, GridDensity, cost_analysis
from entrogeo.cost_analysis import (
    CostProfile,
    _descending_eps,
    derivative_check,
    fisher_monotonicity,
    gamma_diagnostics,
    mollified_sweep,
    sweep,
    taylor_check,
)
from entrogeo.errors import DomainError, ProfileIncomplete, ScheduleRejected
from entrogeo.regularizer import build
from entrogeo.solver import SchrodingerResult, SolverOptions, discrete_action, solves


EPS_DYADIC = [0.2, 0.1, 0.05, 0.025]


def result_row(eps):
    return SchrodingerResult(minimizer=None, cost=1.0, kinetic=1.0, fisher=0.0,
                             iterations=0, converged=True, stationarity=0.0, eps=eps)


@pytest.fixture(scope="module")
def quad_profile(quad1d):
    return sweep(quad1d, np.array([1.0]), np.array([2.0]),
                 [0.0] + [0.025 * k for k in range(1, 9)])


class TestProfileInvariants:
    def test_rows_sorted_and_distinct(self):
        rows = (
            result_row(0.2),
            result_row(0.1),
        )
        with pytest.raises(DomainError):
            CostProfile(rows, 0.5, 0.1, None, SolverOptions())

    def test_duplicate_eps_rejected_by_sweep(self, quad1d):
        with pytest.raises(DomainError):
            sweep(quad1d, np.array([1.0]), np.array([2.0]), [0.1, 0.1])

    def test_profile_keeps_the_sweep_options(self, quad1d):
        opts = SolverOptions(n_time=7)
        prof = sweep(quad1d, np.array([1.0]), np.array([2.0]), [0.0, 0.1], opts)
        assert prof.opts is opts
        assert sweep(quad1d, np.array([1.0]), np.array([2.0]), [0.1]).opts == SolverOptions()

    def test_singleton_zero(self, quad1d):
        prof = sweep(quad1d, np.array([1.0]), np.array([2.0]), [0.0])
        assert len(prof.rows) == 1
        assert prof.rows[0].cost == pytest.approx(0.5, abs=1e-12)
        assert prof.rows[0].cost == prof.cost_0


class TestSweep:
    def test_rows_are_solver_results(self, quad_profile):
        assert all(isinstance(r, SchrodingerResult) for r in quad_profile.rows)
        assert quad_profile.to_records() == [r.to_record() for r in quad_profile.rows]
        assert quad_profile.rows[0].iterations == 0
        assert all(r.iterations > 0 for r in quad_profile.rows[1:])

    def test_rows_equal_a_hand_chain_of_solves(self, boltzmann):
        # the sweep is a chain of solves, each started from the result
        # before it; its rows drop the decision vector
        n = 64
        x = GridDensity.gaussian(0.0, 1.0, n, 22.0 / n, -10.0)
        y = GridDensity.gaussian(2.0, 2.0, n, 22.0 / n, -10.0)
        opts = SolverOptions(n_time=15)
        eps_list = [0.2, 0.1, 0.05]
        prof = sweep(boltzmann, x, y, eps_list, opts)
        chain = list(solves(boltzmann, x, y, eps_list, opts))
        fields = ("cost", "kinetic", "fisher", "iterations", "stationarity")
        for row, res in zip(reversed(prof.rows), chain):
            assert row.decision is None and res.decision is not None
            assert [getattr(row, f) for f in fields] == [getattr(res, f) for f in fields]
        assert any(r.iterations > 0 for r in prof.rows)

    def test_rows_drop_the_model_and_count_builds(self, boltzmann):
        # 0.2 factors its model, 0.1 runs on it ((0.2 / 0.1)^2 = 4) and
        # 0.025 factors its own ((0.2 / 0.025)^2 = 64); a row keeps neither
        # a model nor its decision vector
        n = 64
        x = GridDensity.gaussian(0.0, 1.0, n, 22.0 / n, -10.0)
        y = GridDensity.gaussian(2.0, 2.0, n, 22.0 / n, -10.0)
        prof = sweep(boltzmann, x, y, [0.0, 0.025, 0.1, 0.2], SolverOptions(n_time=15))
        assert all(r.decision is None for r in prof.rows)
        assert [r.model_builds for r in prof.rows] == [0, 1, 0, 1]
        assert [rec["model_builds"] for rec in prof.to_records()] == [0, 1, 0, 1]

    def test_cost_strictly_increasing(self, quad_profile):
        costs = [r.cost for r in quad_profile.rows]
        assert all(b > a for a, b in zip(costs, costs[1:]))

    def test_all_converged(self, quad_profile):
        assert all(r.converged for r in quad_profile.rows)

    def test_cost_continuity(self, quad_profile):
        # adjacent gaps bounded by C * d(eps): slope <= 2 eps_max I_max
        rows = quad_profile.rows
        i_max = rows[1].fisher
        for r1, r2 in zip(rows, rows[1:]):
            bound = 2.0 * r2.eps * i_max * (r2.eps - r1.eps) + 1e-9
            assert r2.cost - r1.cost <= bound


class TestFisherMonotonicity:
    def test_quadratic(self, quad_profile):
        assert fisher_monotonicity(quad_profile) <= 1e-6

    def test_needs_two_rows(self, quad1d):
        prof = sweep(quad1d, np.array([1.0]), np.array([2.0]), [0.0])
        with pytest.raises(ProfileIncomplete):
            fisher_monotonicity(prof)


class TestDerivativeCheck:
    def test_quadratic_residuals_small(self, quad_profile):
        residuals = derivative_check(quad_profile)
        for res, row in zip(residuals, quad_profile.rows[1:-1]):
            assert res <= 0.05 * 2.0 * row.eps * row.fisher

    def test_equilibrium_profile_is_flat(self, quad1d):
        x = np.zeros(1)
        prof = sweep(quad1d, x, x, [0.0, 0.05, 0.1, 0.15])
        residuals = derivative_check(prof)
        assert max(residuals) <= 1e-10

    def test_needs_three_rows(self, quad1d):
        prof = sweep(quad1d, np.array([1.0]), np.array([2.0]), [0.0, 0.1])
        with pytest.raises(ProfileIncomplete):
            derivative_check(prof)


class TestTaylorCheck:
    def test_quadratic_limit(self, quad_profile):
        # oracle: I_0 = 1/2 int_0^1 (1+t)^2 dt = 7/6, re-verified by quadrature
        ts = np.linspace(0.0, 1.0, 100001)
        quad = np.trapezoid((1.0 + ts) ** 2, ts)
        assert quad == pytest.approx(7.0 / 3.0, rel=1e-9)
        report = taylor_check(quad_profile)
        assert report.passed
        assert report.fisher_0 == pytest.approx(7.0 / 6.0, rel=1e-3)
        assert report.limit_estimate == pytest.approx(7.0 / 6.0, rel=0.05)

    def test_missing_reference_raises(self):
        rows = (result_row(0.1),)
        prof = CostProfile(rows, 0.5, math.inf, None, SolverOptions())
        with pytest.raises(ProfileIncomplete):
            taylor_check(prof)

    def test_equilibrium_ratios_vanish(self, quad1d):
        x = np.zeros(1)
        prof = sweep(quad1d, x, x, [0.0, 0.05, 0.1])
        report = taylor_check(prof)
        assert report.fisher_0 == 0.0
        assert all(abs(r) <= 1e-12 for _, r in report.ratios)


class TestGammaDiagnostics:
    def test_quadratic(self, quad1d):
        prof = sweep(quad1d, np.array([1.0]), np.array([2.0]), EPS_DYADIC)
        report = gamma_diagnostics(quad1d, prof)
        assert report.passed
        assert report.eps == tuple(sorted(EPS_DYADIC, reverse=True))
        assert all(g > 0 for g in report.cost_gaps)
        # deviation from the segment is bounded by C * eps along the sweep
        # (the closed-form bridge actually decays one order faster)
        cs = [d / e for d, e in zip(report.minimizer_deviation, report.eps)]
        assert all(c2 <= c1 + 1e-12 for c1, c2 in zip(cs, cs[1:]))
        assert all(d <= cs[0] * e + 1e-12
                   for d, e in zip(report.minimizer_deviation, report.eps))

    def test_degenerate_singleton(self, quad1d):
        prof = sweep(quad1d, np.array([1.0]), np.array([2.0]), [0.1])
        report = gamma_diagnostics(quad1d, prof)
        assert report.recovery_nonnegative

    def test_zero_row_is_skipped(self, quad1d, quad_profile):
        zero, first = quad_profile.rows[:2]
        report = gamma_diagnostics(quad1d, CostProfile(
            (zero, first), quad_profile.cost_0, quad_profile.fisher_0,
            quad_profile.geodesic, quad_profile.opts))
        assert report.eps == (first.eps,) and report.passed

    def test_no_positive_row_rejected(self, quad1d, quad_profile):
        # zero rows checked must not read as a pass
        with pytest.raises(ProfileIncomplete, match="no positive-eps rows"):
            gamma_diagnostics(quad1d, CostProfile(
                quad_profile.rows[:1], quad_profile.cost_0, quad_profile.fisher_0,
                quad_profile.geodesic, quad_profile.opts))

    def test_recovery_scored_with_the_sweep_options(self, boltzmann):
        # m = 4n graded quantile nodes: the recovery curves must be scored
        # by the action the rows minimized, not by the default m = n one
        n = 64
        x = GridDensity.gaussian(0.35, 0.08, n, 1.0 / n)
        y = GridDensity.gaussian(0.6, 0.12, n, 1.0 / n)
        opts = SolverOptions(n_time=15, quantile_points=4 * n)
        prof = sweep(boltzmann, x, y, [0.1, 0.05], opts)
        # the eps = 0.1 row converges only after several preconditioner
        # rebuilds (_STAGE_BUDGET); one stage of max_iter steps does not
        assert all(r.converged for r in prof.rows)
        report = gamma_diagnostics(boltzmann, prof)
        assert report.eps == (0.1, 0.05)

        def gaps(o):
            return tuple(
                discrete_action(boltzmann, build(boltzmann, prof.geodesic, e).tilde, e, o)
                - r.cost
                for e, r in zip(report.eps, reversed(prof.rows)))

        assert report.recovery_gaps == gaps(opts)
        assert report.recovery_nonnegative
        # the default discretization scores them otherwise
        default = gaps(SolverOptions(n_time=15))
        assert all(abs(g - d) > 1e-5 for g, d in zip(report.recovery_gaps, default))


    @pytest.mark.parametrize("kind", ["quadratic", "density"])
    def test_batched_record_equals_per_eps_calls(self, quad1d, boltzmann, kind):
        if kind == "quadratic":
            backend, x, y = quad1d, np.array([1.0]), np.array([2.0])
        else:
            n = 64
            backend = boltzmann
            x = GridDensity.gaussian(0.35, 0.08, n, 1.0 / n)
            y = GridDensity.gaussian(0.6, 0.12, n, 1.0 / n)
        prof = sweep(backend, x, y, [0.1, 0.05, 0.025], SolverOptions(n_time=15))
        report = gamma_diagnostics(backend, prof)
        rows = list(reversed(prof.rows))  # descending eps
        geo = prof.geodesic
        assert report.eps == tuple(r.eps for r in rows)
        assert report.recovery_gaps == tuple(
            discrete_action(backend, build(backend, geo, r.eps).tilde, r.eps, prof.opts) - r.cost
            for r in rows)
        assert report.minimizer_deviation == tuple(
            float(np.max(backend.distances(r.minimizer.points, geo.points))) for r in rows)
        assert report.passed

    def test_mollified_profile_rejected(self, boltzmann):
        # rows between mollified endpoints cost less than the geodesic
        # (cost gaps of -3.2e-2 here), so the recovery argument has no sign
        n = 64
        x = GridDensity.gaussian(0.35, 0.08, n, 1.0 / n)
        y = GridDensity.gaussian(0.6, 0.12, n, 1.0 / n)
        prof = mollified_sweep(boltzmann, x, y, [0.1, 0.05], lambda e: 0.5,
                               SolverOptions(n_time=15))
        assert all(r.cost < prof.cost_0 for r in prof.rows)
        with pytest.raises(DomainError, match="eps=0.1 row starts at another point"):
            gamma_diagnostics(boltzmann, prof)

    def test_ends_compared_by_value(self, boltzmann):
        # equal copies of the endpoints give the same record; a moved end raises
        n = 64
        x = GridDensity.gaussian(0.35, 0.08, n, 1.0 / n)
        y = GridDensity.gaussian(0.6, 0.12, n, 1.0 / n)
        opts = SolverOptions(n_time=15)
        prof = sweep(boltzmann, x, y, [0.1, 0.05], opts)
        copies = CostProfile(prof.rows, prof.cost_0, prof.fisher_0, Curve(
            prof.geodesic.times, [GridDensity(x.rho, x.dx, x.x0), *prof.geodesic.points[1:-1],
                                  GridDensity(y.rho, y.dx, y.x0)]), opts)
        assert gamma_diagnostics(boltzmann, copies) == gamma_diagnostics(boltzmann, prof)
        shifted = CostProfile(prof.rows, prof.cost_0, prof.fisher_0, Curve(
            prof.geodesic.times, [*prof.geodesic.points[:-1], y.with_rho(np.roll(y.rho, 1))]),
            opts)
        with pytest.raises(DomainError, match="eps=0.1 row ends at another point"):
            gamma_diagnostics(boltzmann, shifted)


class TestDefaultSweep:
    """A density sweep under the default stopping rule solves every row.

    The endpoints are the benchmark's seed-1 pair, N(-0.1463, 1.0347^2) ->
    N(2.1055, 1.951^2) on [-10, 12].  Each row starts from the minimizer
    of the row above, which already has a small gradient; the rule's target
    scales with eps^2 |v| and not with the grid, so it asks every row for
    at least one step at n = 256 and n = 1024 alike.
    """

    @pytest.mark.parametrize("n, eps_list", [
        (256, [0.025 * k for k in range(1, 9)]),
        (1024, [0.05, 0.1, 0.2]),
    ], ids=["n256", "n1024"])
    def test_every_row_solved(self, boltzmann, monkeypatch, n, eps_list):
        x = GridDensity.gaussian(-0.1463, 1.0347, n, 22.0 / n, -10.0)
        y = GridDensity.gaussian(2.1055, 1.951, n, 22.0 / n, -10.0)
        results = {}

        def recording_solves(*args, **kwargs):
            for res in solves(*args, **kwargs):
                results[res.eps] = res
                yield res

        monkeypatch.setattr(cost_analysis, "solves", recording_solves)
        prof = sweep(boltzmann, x, y, eps_list)
        rows = prof.rows  # ascending eps
        grad_tol = SolverOptions().grad_tol
        for r in rows:
            res = results[r.eps]
            assert res.iterations >= 1
            assert res.converged and res.stationarity <= grad_tol
        fisher = [r.fisher for r in rows]
        assert all(f2 < f1 for f1, f2 in zip(fisher, fisher[1:]))

        report = gamma_diagnostics(boltzmann, prof)
        assert report.passed
        devs = report.minimizer_deviation  # descending eps
        assert all(d2 < d1 for d1, d2 in zip(devs, devs[1:]))

        # each row's minimizer is a competitor at every other eps, so
        # cost_i <= kin_j + eps_i^2 fis_j up to the slack the rule leaves
        for ri in rows:
            for rj in rows:
                if ri is not rj:
                    competitor = rj.kinetic + ri.eps**2 * rj.fisher
                    assert ri.cost <= competitor + grad_tol * ri.eps**2 * ri.cost


@pytest.fixture(scope="module")
def near_dirac_pair():
    n = 64
    x = GridDensity.point_mass(int(0.35 * n), n, 1.0 / n)
    y = GridDensity.gaussian(0.7, 0.15, n, 1.0 / n)
    return x, y


class TestMollifiedSweep:

    def test_zero_schedule_on_smooth_endpoints_matches_sweep(self, boltzmann):
        n, dx, x0 = 256, 16.0 / 256, -8.0
        a = GridDensity.gaussian(-1.0, 1.0, n, dx, x0)
        b = GridDensity.gaussian(1.0, 1.2, n, dx, x0)
        opts = SolverOptions(n_time=31)
        direct = sweep(boltzmann, a, b, [0.05, 0.1], opts)
        molli = mollified_sweep(boltzmann, a, b, [0.05, 0.1], lambda e: 0.0, opts)
        for r1, r2 in zip(direct.rows, molli.rows):
            # same discrete problem up to the warm-start path
            assert r2.cost == pytest.approx(r1.cost, rel=1e-4)

    def test_zero_schedule_has_the_reference_of_sweep(self, boltzmann, near_dirac_pair):
        # both sweeps take cost_0 and the geodesic from the eps = 0 solve,
        # in the solver's quantile discretization; the exact 1/2 W2^2 on
        # the grid lies 3.1e-3 below it on this pair
        x, y = near_dirac_pair
        opts = SolverOptions(n_time=31)
        direct = sweep(boltzmann, x, y, [0.4], opts)
        molli = mollified_sweep(boltzmann, x, y, [0.4], lambda e: 0.0, opts)
        assert molli.cost_0 == direct.cost_0 and molli.fisher_0 == math.inf
        assert molli.geodesic.times.tobytes() == direct.geodesic.times.tobytes()
        for p, q in zip(molli.geodesic.points, direct.geodesic.points, strict=True):
            assert p.rho.tobytes() == q.rho.tobytes()

    # m = 4n = 256: the stopping target does not depend on m
    @pytest.mark.parametrize("quantile_points", [None, 256], ids=["n", "4n"])
    def test_sqrt_schedule_accepted(self, boltzmann, near_dirac_pair, quantile_points):
        x, y = near_dirac_pair
        opts = SolverOptions(n_time=31, quantile_points=quantile_points)
        prof = mollified_sweep(boltzmann, x, y, [0.4, 0.2, 0.1], math.sqrt, opts)
        costs = [r.cost for r in prof.rows]  # ascending eps = descending eta
        assert all(r.converged for r in prof.rows)
        # smaller eps mollifies less, so the cost climbs back toward the
        # geodesic cost of the original endpoints
        assert costs[0] > costs[1] > costs[2]
        assert costs[0] <= prof.cost_0 + 1e-6

    def test_square_schedule_rejected(self, boltzmann, near_dirac_pair):
        x, y = near_dirac_pair
        with pytest.raises(ScheduleRejected):
            mollified_sweep(boltzmann, x, y, [0.4, 0.2, 0.1, 0.05],
                            lambda e: e**2, SolverOptions(n_time=31))

    def test_negative_eta_rejected(self, boltzmann, near_dirac_pair):
        x, y = near_dirac_pair
        with pytest.raises(DomainError):
            mollified_sweep(boltzmann, x, y, [0.1], lambda e: -1.0,
                            SolverOptions(n_time=31))

    @pytest.mark.parametrize("eta", [math.nan, math.inf])
    def test_non_finite_eta_rejected(self, quad1d, boltzmann, near_dirac_pair, eta):
        x, y = near_dirac_pair
        with pytest.raises(DomainError, match="finite and nonnegative"):
            mollified_sweep(boltzmann, x, y, [0.1], lambda e: eta,
                            SolverOptions(n_time=31))
        with pytest.raises(DomainError, match="finite and nonnegative"):
            mollified_sweep(quad1d, np.array([1.0]), np.array([2.0]), [0.1], lambda e: eta)

    def test_no_positive_eps_rejected(self, quad1d):
        # an eps = 0 gets no row, so this list would give an empty profile
        with pytest.raises(DomainError, match="needs a positive eps"):
            mollified_sweep(quad1d, np.array([1.0]), np.array([2.0]), [0.0], lambda e: 0.0)

    def test_profile_keeps_the_options(self, boltzmann, near_dirac_pair):
        x, y = near_dirac_pair
        opts = SolverOptions(n_time=7)
        prof = mollified_sweep(boltzmann, x, y, [0.0, 0.4], math.sqrt, opts)
        assert prof.opts is opts
        assert [r.eps for r in prof.rows] == [0.4]
        assert prof.rows[0].decision is None


class TestEpsList:
    """``sweep`` and ``mollified_sweep`` share one rule for ``eps_list``."""

    def test_descending(self):
        assert _descending_eps([0.1, 0, 0.3, 0.2]) == [0.3, 0.2, 0.1, 0.0]
        assert _descending_eps(np.array([0.05])) == [0.05]

    @pytest.mark.parametrize("eps_list, match", [
        ([], "nonempty"),
        ([0.1, -0.1], "nonnegative"),
        ([0.1, math.nan], "nonnegative"),
        ([math.inf], "nonnegative"),
        ([0.1, 0.2, 0.1], "distinct"),
        ([0, 0.0], "distinct"),
    ], ids=["empty", "negative", "nan", "inf", "repeat", "repeat-zero"])
    def test_rejected_by_both_sweeps(self, quad1d, eps_list, match):
        x, y = np.array([1.0]), np.array([2.0])
        with pytest.raises(DomainError, match=match):
            _descending_eps(eps_list)
        with pytest.raises(DomainError, match=match):
            sweep(quad1d, x, y, eps_list)
        with pytest.raises(DomainError, match=match):
            mollified_sweep(quad1d, x, y, eps_list, lambda e: 0.0)
