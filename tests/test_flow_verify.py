import math

import numpy as np
import pytest

from entrogeo import Density1DBackend, EntropyKind, GridDensity, SpaceBackend
from entrogeo.errors import DomainError
from entrogeo.flow_verify import (
    contraction_report,
    ede_report,
    evi_defect,
    local_global_report,
    regularization_report,
    slope_monotonicity_report,
)

from conftest import NARROW, gaussian_on

S_GRID = np.linspace(0.05, 1.5, 12)
S_GRID_DENSITY = np.linspace(0.02, 0.2, 8)


def bimodal():
    return GridDensity.from_function(
        lambda x: np.exp(-0.5 * ((x + 2) / 0.5) ** 2)
        + 0.7 * np.exp(-0.5 * ((x - 1.5) / 0.8) ** 2),
        **NARROW,
    )


class TestEviDefect:
    def test_quadratic_closed_form(self, quad2d):
        rng = np.random.default_rng(7)
        for _ in range(5):
            x, y = rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2)
            r = evi_defect(quad2d, x, y, S_GRID)
            assert r.worst_residual <= 1e-6
            assert r.passed

    def test_reference_at_start_reduces_to_dissipation(self, quad2d):
        x = np.array([1.0, -0.5])
        r = evi_defect(quad2d, x, x, np.array([0.01, 0.05, 0.1]))
        assert r.worst_residual <= 1e-6

    def test_heat_flow_bimodal(self, boltzmann):
        r = evi_defect(boltzmann, bimodal(), gaussian_on(NARROW, 0.0, 1.0),
                       S_GRID_DENSITY, tolerance=5e-3)
        assert r.worst_residual <= 5e-3
        assert r.passed

    def test_report_record_shape(self, quad2d):
        r = evi_defect(quad2d, np.ones(2), np.zeros(2), S_GRID)
        rec = r.to_record()
        assert set(rec) == {"property", "worst_residual", "samples", "pass"}


class TestContraction:
    def test_quadratic_equality_case(self, quad2d):
        x, y = np.array([1.0, 0.0]), np.array([-1.0, 0.0])
        d1 = quad2d.distance(quad2d.flow(x, 1.0), quad2d.flow(y, 1.0))
        assert d1 == pytest.approx(2.0 * math.exp(-1.0), abs=1e-12)
        r = contraction_report(quad2d, [(x, y)], S_GRID)
        assert abs(r.worst_residual) <= 1e-12

    def test_identical_points(self, quad2d):
        x = np.array([0.7, 0.7])
        r = contraction_report(quad2d, [(x, x)], S_GRID)
        assert r.worst_residual == 0.0

    def test_heat_flow_translates(self, boltzmann):
        # the heat flow moves cell-aligned translates in lockstep, so the
        # W2 distance between them is exactly preserved (lambda = 0)
        a = gaussian_on(NARROW, 0.0, 1.0)
        b = a.with_rho(np.roll(a.rho, 32))
        r = contraction_report(boltzmann, [(a, b)], S_GRID_DENSITY, tolerance=2e-3)
        assert r.worst_residual <= 2e-3
        assert r.passed


class TestBadArguments:
    @pytest.mark.parametrize("s_grid", [[0.0, 0.1], [0.2, 0.1], [0.1, math.nan], [0.1, math.inf]])
    def test_evi_grid(self, quad2d, s_grid):
        with pytest.raises(DomainError, match="s_grid"):
            evi_defect(quad2d, np.ones(2), np.zeros(2), s_grid)

    @pytest.mark.parametrize("T, n_quad", [(0.0, 16), (math.nan, 16), (math.inf, 16),
                                           (1.0, 1), (1.0, 2.5), (1.0, 16.0)])
    def test_ede_span_and_nodes(self, quad2d, T, n_quad):
        with pytest.raises(DomainError, match="T > 0|n_quad"):
            ede_report(quad2d, np.ones(2), T, n_quad=n_quad)


class TestEde:
    def test_equilibrium(self, quad2d):
        r = ede_report(quad2d, np.zeros(2), 1.0, n_quad=16)
        assert r.worst_residual <= 1e-12

    def test_quadratic_closed_form(self, quad1d):
        # drop = 2 - 2 e^{-2}; dissipation integral = 2 (1 - e^{-2}); equal
        r = ede_report(quad1d, np.array([2.0]), 1.0, n_quad=4096)
        assert r.worst_residual <= 1e-6

    def test_heat_flow_gaussian(self, boltzmann):
        r = ede_report(boltzmann, gaussian_on(NARROW, 0.0, 1.0), 0.1,
                       n_quad=32, tolerance=2e-2)
        assert r.worst_residual <= 2e-2


class TestSlopeMonotonicity:
    def test_quadratic(self, quad2d):
        r = slope_monotonicity_report(quad2d, np.array([1.5, -1.0]), S_GRID)
        assert r.worst_residual <= 1e-9

    def test_heat_flow(self, boltzmann):
        r = slope_monotonicity_report(boltzmann, bimodal(), S_GRID_DENSITY,
                                      tolerance=1e-6)
        assert r.worst_residual <= 1e-6


class TestRegularization:
    def test_out_of_domain_times_skipped(self):
        from entrogeo import EuclideanBackend, QuadraticPotential

        class Shifted(EuclideanBackend):
            pass

        be = Shifted(QuadraticPotential(np.zeros(1), 1.0))
        be.lam = -2.0  # -lam t >= log 2 for t >= 0.347
        r = regularization_report(be, np.array([1.0]), np.array([0.5]),
                                  np.array([0.4, 0.5, 1.0]))
        assert r.samples == 0
        assert r.worst_residual == -math.inf
        assert r.passed

    def test_quadratic_self_reference(self, quad1d):
        # with y = x the bound reads slope(S_t x)^2 <= slope(x)^2/(2e^t - 1)
        x = np.array([2.0])
        for t in (0.1, 0.5, 1.0):
            lhs = quad1d.slope(quad1d.flow(x, t)) ** 2
            rhs = quad1d.slope(x) ** 2 / (2 * math.exp(t) - 1.0)
            assert lhs <= rhs + 1e-12
        r = regularization_report(quad1d, x, x, S_GRID)
        assert r.worst_residual <= 1e-6

    def test_heat_flow(self, boltzmann):
        r = regularization_report(boltzmann, bimodal(),
                                  gaussian_on(NARROW, 0.0, 1.0),
                                  S_GRID_DENSITY, tolerance=5e-3)
        assert r.worst_residual <= 5e-3


class TestLocalGlobal:
    def test_quadratic(self, quad2d):
        rng = np.random.default_rng(3)
        samples = [rng.uniform(-3, 3, 2) for _ in range(100)]
        r = local_global_report(quad2d, np.array([1.2, 0.3]), samples)
        assert r.worst_residual <= 1e-9

    def test_density(self, boltzmann):
        x = bimodal()
        g = gaussian_on(NARROW, 0.0, 1.0)
        samples = [boltzmann.flow(x, s) for s in (0.05, 0.1)] + [
            boltzmann.geodesic(x, g, th) for th in (0.25, 0.5, 0.75)
        ] + [g]
        r = local_global_report(boltzmann, x, samples, tolerance=1e-2)
        assert r.worst_residual <= 1e-2


class TestDeterminism:
    def test_reports_are_reproducible(self, quad2d):
        rng1 = np.random.default_rng(42)
        rng2 = np.random.default_rng(42)

        def run(rng):
            pairs = [(rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2)) for _ in range(4)]
            return contraction_report(quad2d, pairs, S_GRID).worst_residual

        assert run(rng1) == run(rng2)


class _PairByPair(Density1DBackend):
    """The circle backend with the default one-pair-at-a-time ``distances``."""

    distances = SpaceBackend.distances


class TestBatchedDistances:
    # the reports take their distances from one batched call; on the circle
    # that is the lockstep cut search, which must agree with single pairs
    def test_circle_reports_match_single_pair_distances(self):
        kind = EntropyKind.porous_medium(2.0)
        batched, single = Density1DBackend(kind), _PairByPair(kind)
        grid = dict(n=64, dx=0.25, x0=-8.0, boundary="periodic")
        bump = GridDensity.gaussian(-2.0, 0.9, **grid)
        other = GridDensity.gaussian(1.5, 1.3, **grid)
        wide = GridDensity.gaussian(5.0, 2.0, **grid)
        samples = [batched.flow(bump, 0.05), batched.geodesic(bump, other, 0.5), wide, bump]
        s_grid = np.linspace(0.02, 0.2, 4)
        for report in (
            lambda be: evi_defect(be, bump, other, s_grid, 5e-3),
            lambda be: contraction_report(be, [(bump, other), (other, wide)], s_grid, 2e-3),
            lambda be: local_global_report(be, bump, samples, 1e-2),
        ):
            a, b = report(batched), report(single)
            assert a.samples == b.samples
            assert a.worst_residual == pytest.approx(b.worst_residual, rel=1e-12, abs=1e-14)

    def test_local_global_skips_coincident_samples(self, porous2):
        grid = dict(n=64, dx=0.25, x0=-8.0, boundary="periodic")
        x = GridDensity.gaussian(0.0, 1.0, **grid)
        y = GridDensity.gaussian(2.0, 1.0, **grid)
        assert local_global_report(porous2, x, [x, y, x]).samples == 1
