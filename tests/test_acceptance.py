"""Acceptance gate: one test per shipped criterion, printed pass/fail.

Each criterion pins its tolerances here; the numeric targets come from the
closed forms / quadrature oracles evaluated inline.  Run with ``-s`` to see
the one-line verdicts.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import norm

from entrogeo import GridDensity, geodesic_curve, w2_distance
from entrogeo.cli import main as cli_main
from entrogeo.cost_analysis import (
    derivative_check,
    fisher_monotonicity,
    gamma_diagnostics,
    sweep,
    taylor_check,
)
from entrogeo.density1d import flow, slope
from entrogeo.flow_verify import (
    contraction_report,
    ede_report,
    evi_defect,
    local_global_report,
    regularization_report,
    slope_monotonicity_report,
)
from entrogeo.regularizer import (
    build,
    convexity_certificate,
    discrete_estimate_residual,
    recovery_gap,
)
from entrogeo.solver import (
    SolverOptions,
    _DensityProblem,
    _EuclideanProblem,
    _uniform_times,
    bridge_from_flow,
    solve,
)

from conftest import NARROW, SWEEP, WIDE, gaussian_on

EPS_UNIFORM = [0.025 * k for k in range(1, 9)]
EPS_DYADIC = [0.2, 0.1, 0.05, 0.025]


def verdict(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num:2d} {name:34s} {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# stopping targets tightened past the 1e-6 default: a solve stops at
# -g.d <= grad_tol eps^2 |v| and leaves about half of that as cost slack,
# which the Taylor ratios divide by eps^2; the slack must sit far below the
# row-to-row change of those ratios for the monotone approach to be visible
@pytest.fixture(scope="module")
def quad_profile(quad1d):
    return sweep(quad1d, np.array([1.0]), np.array([2.0]), [0.0] + EPS_UNIFORM,
                 SolverOptions(grad_tol=1e-8))


@pytest.fixture(scope="module")
def density_profile(boltzmann, sweep_pair):
    a, b = sweep_pair
    return sweep(boltzmann, a, b, [0.0] + EPS_UNIFORM,
                 SolverOptions(grad_tol=1e-7))


def test_criterion_1_evi_suite(quad1d, quad2d, boltzmann):
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    s_grid = np.linspace(0.05, 1.5, 12)

    worst_quad = -math.inf
    for _ in range(4):
        x, y = rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2)
        worst_quad = max(worst_quad, evi_defect(quad2d, x, y, s_grid).worst_residual)
    pairs = [(rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2)) for _ in range(6)]
    worst_quad = max(worst_quad, contraction_report(quad2d, pairs, s_grid).worst_residual)
    worst_quad = max(worst_quad, ede_report(quad1d, np.array([2.0]), 1.0, n_quad=4096).worst_residual)
    worst_quad = max(worst_quad, slope_monotonicity_report(
        quad2d, rng.uniform(-2, 2, 2), s_grid).worst_residual)
    worst_quad = max(worst_quad, regularization_report(
        quad2d, rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2), s_grid).worst_residual)
    worst_quad = max(worst_quad, local_global_report(
        quad2d, rng.uniform(-2, 2, 2),
        [rng.uniform(-3, 3, 2) for _ in range(100)]).worst_residual)

    mix = GridDensity.from_function(
        lambda x: np.exp(-0.5 * ((x + 2) / 0.5) ** 2)
        + 0.7 * np.exp(-0.5 * ((x - 1.5) / 0.8) ** 2),
        **NARROW,
    )
    g = gaussian_on(NARROW, 0.0, 1.0)
    g_shift = g.with_rho(np.roll(g.rho, 32))
    sd = np.linspace(0.02, 0.2, 8)
    contraction = contraction_report(boltzmann, [(g, g_shift), (mix, g)], sd).worst_residual
    ede = ede_report(boltzmann, mix, 0.1, n_quad=32).worst_residual
    mono = slope_monotonicity_report(boltzmann, mix, sd).worst_residual
    regu = regularization_report(boltzmann, mix, g, sd).worst_residual
    elapsed = time.monotonic() - t0

    ok = (
        worst_quad <= 1e-6
        and contraction <= 2e-3
        and ede <= 2e-2
        and mono <= 1e-6
        and regu <= 5e-3
        and elapsed <= 30.0
    )
    verdict(1, "EVI suite", ok,
            f"quad {worst_quad:.2e} | contraction {contraction:.2e} ede {ede:.2e} "
            f"mono {mono:.2e} reg {regu:.2e} | {elapsed:.1f}s")


def test_criterion_2_gaussian_battery(boltzmann):
    t0 = time.monotonic()
    a = gaussian_on(WIDE, 0.0, 1.0)
    b = GridDensity.gaussian(2.0, 1.5, 512, 22.0 / 512, -10.0)
    a22 = GridDensity.gaussian(0.0, 1.0, 512, 22.0 / 512, -10.0)
    # oracle: dense quantile quadrature of the closed form W2^2 = 4.25
    u = (np.arange(100000) + 0.5) / 100000
    oracle = math.sqrt(np.mean((norm.ppf(u, 0, 1) - norm.ppf(u, 2, 1.5)) ** 2))
    w2 = w2_distance(a22, b)
    w2_ok = abs(w2 - 2.061553) <= 1e-3 and abs(oracle - w2) <= 1e-3

    fisher_ok = True
    for sig in (0.5, 1.0, 2.0):
        s2 = slope(boltzmann.kind, gaussian_on(WIDE, 0.0, sig)) ** 2
        fisher_ok &= abs(s2 - 1.0 / sig**2) <= 1e-3 / sig**2

    heat_ok = True
    for s in (0.1, 0.25, 0.5):
        evolved = flow(boltzmann.kind, a, s)
        ref = gaussian_on(WIDE, 0.0, math.sqrt(1 + 2 * s))
        heat_ok &= float(np.sum(np.abs(evolved.rho - ref.rho)) * a.dx) <= 1e-3
    elapsed = time.monotonic() - t0
    ok = w2_ok and fisher_ok and heat_ok and elapsed <= 10.0
    verdict(2, "Gaussian closed-form battery", ok,
            f"W2 {w2:.6f} fisher_ok {fisher_ok} heat_ok {heat_ok} | {elapsed:.1f}s")


def test_criterion_3_fundamental_estimates(quad1d, boltzmann, sweep_pair):
    t0 = time.monotonic()
    base_q = geodesic_curve(quad1d, np.array([1.0]), np.array([2.0]), 64)
    reg_q = build(quad1d, base_q, 0.1)
    worst_q = max(
        discrete_estimate_residual(quad1d, reg_q, i, j)
        for i in range(65) for j in range(i + 1, 65)
    )
    a, b = sweep_pair
    base_d = geodesic_curve(boltzmann, a, b, 64)
    reg_d = build(boltzmann, base_d, 0.05)
    worst_d = max(
        discrete_estimate_residual(boltzmann, reg_d, i, j)
        for i in range(65) for j in range(i + 1, 65)
    )
    gaps = [recovery_gap(quad1d, base_q, e) for e in (0.2, 0.1, 0.05)]
    gaps += [recovery_gap(boltzmann, base_d, e) for e in (0.2, 0.1, 0.05)]
    elapsed = time.monotonic() - t0
    ok = worst_q <= 1e-8 and worst_d <= 5e-3 and min(gaps) >= -5e-3 and elapsed <= 60.0
    verdict(3, "fundamental estimate certificates", ok,
            f"discrete quad {worst_q:.2e} density {worst_d:.2e} "
            f"min recovery gap {min(gaps):.2e} | {elapsed:.1f}s")


def test_criterion_4_bridge_identity(quad1d, boltzmann):
    t0 = time.monotonic()
    eps = math.log(2.0)
    x = np.array([2.0])
    target = 1.5 * math.log(2.0)  # eps (E(x) - E(S_eps x)) = ln2 (2 - 1/2)
    res = solve(quad1d, x, quad1d.flow(x, eps), eps)
    quad_ok = abs(res.cost - target) <= 1e-4 and res.converged

    g = gaussian_on(SWEEP, 0.0, 1.0)
    eps_d = 0.1
    bridge = bridge_from_flow(boltzmann, g, eps_d)
    target_d = eps_d * (boltzmann.entropy(g) - boltzmann.entropy(boltzmann.flow(g, eps_d)))
    dens_ok = abs(bridge.cost - target_d) <= 0.02 * abs(target_d)
    elapsed = time.monotonic() - t0
    ok = quad_ok and dens_ok and elapsed <= 60.0
    verdict(4, "gradient-flow bridge identity", ok,
            f"quad {res.cost:.6f} vs {target:.6f} | density {bridge.cost:.6f} "
            f"vs {target_d:.6f} | {elapsed:.1f}s")


def test_criterion_5_gamma_convergence(quad1d, boltzmann, quad_profile, density_profile):
    t0 = time.monotonic()

    def dyadic_sub(profile):
        rows = tuple(r for r in profile.rows
                     if r.eps == 0.0 or any(abs(r.eps - e) < 1e-12 for e in EPS_DYADIC))
        from entrogeo.cost_analysis import CostProfile
        return CostProfile(rows, profile.cost_0, profile.fisher_0, profile.geodesic,
                           profile.opts)

    rq = gamma_diagnostics(quad1d, dyadic_sub(quad_profile))
    rd = gamma_diagnostics(boltzmann, dyadic_sub(density_profile))
    elapsed = time.monotonic() - t0
    ok = (
        rq.passed and rd.passed
        and all(g > 0 for g in rq.cost_gaps) and all(g > 0 for g in rd.cost_gaps)
        and elapsed <= 300.0
    )
    verdict(5, "Gamma-convergence diagnostics", ok,
            f"quad gaps {['%.1e' % g for g in rq.cost_gaps]} "
            f"density gaps {['%.1e' % g for g in rd.cost_gaps]} | {elapsed:.1f}s")


def test_criterion_6_taylor_expansion(quad_profile, density_profile):
    # density oracle: I_0 = 1/2 int_0^1 sigma_theta^-2 = 1/(2 s0 s1) = 0.25
    th = np.linspace(0.0, 1.0, 200001)
    dens_oracle = 0.5 * np.trapezoid((1.0 + th) ** -2.0, th)
    assert dens_oracle == pytest.approx(0.25, rel=1e-8)
    # quadratic oracle: I_0 = 1/2 int_0^1 (1+t)^2 dt = 7/6 (the geodesic runs
    # 1 -> 2 through V = x^2/2, slope = |x| = 1 + t)
    quad_oracle = 0.5 * np.trapezoid((1.0 + th) ** 2, th)
    assert quad_oracle == pytest.approx(7.0 / 6.0, rel=1e-8)

    # the density ratio at eps = 0.025 measures 3.2e-3 below the oracle on
    # the graded quantile grid (2.3e-2 on uniform midpoints at m = 4n)
    td = taylor_check(density_profile)
    tq = taylor_check(quad_profile)
    r_d = dict(td.ratios)[0.025]
    r_q = dict(tq.ratios)[0.025]
    # taylor_check's own tolerance is 0.05; the density limit is held to 0.005
    dens_ok = (abs(r_d - dens_oracle) <= 0.005 * dens_oracle and td.rel_error <= 0.005
               and td.monotone_approach)
    quad_ok = abs(r_q - quad_oracle) <= 0.05 * quad_oracle and tq.monotone_approach
    bound_ok = all(
        row.cost - prof.cost_0 <= row.eps**2 * oracle + 1e-3
        for prof, oracle in ((density_profile, dens_oracle), (quad_profile, quad_oracle))
        for row in prof.rows if row.eps > 0
    ) and td.pointwise_bound_ok and tq.pointwise_bound_ok
    ok = dens_ok and quad_ok and bound_ok and td.passed and tq.passed
    verdict(6, "Taylor expansion of the cost", ok,
            f"density ratio {r_d:.4f} vs {dens_oracle:.4f} | "
            f"quad ratio {r_q:.4f} vs {quad_oracle:.4f}")


def test_criterion_7_derivative_identity(quad_profile, density_profile):
    # the density residuals measure at most 2.6e-5 of 2 eps I_eps
    rel_worst, ok = {}, True
    for name, prof, tol in (("quad", quad_profile, 0.05),
                            ("density", density_profile, 1e-4)):
        residuals = derivative_check(prof)
        rels = [
            res / (2.0 * row.eps * row.fisher)
            for res, row in zip(residuals, prof.rows[1:-1])
            if row.eps > 0
        ]
        rel_worst[name] = max(rels)
        assert fisher_monotonicity(prof) <= (1e-6 if name == "quad" else 1e-3)
        ok = ok and rel_worst[name] <= tol
    verdict(7, "derivative identity", ok,
            f"quad {rel_worst['quad']:.4f} (<=0.05) "
            f"density {rel_worst['density']:.1e} (<=1e-4)")


def test_criterion_8_solver_correctness(quad2d, boltzmann, quad_profile,
                                        density_profile):
    rng = np.random.default_rng(42)
    prob_e = _EuclideanProblem(quad2d, np.zeros(2), np.array([1.0, 1.0]), 0.3,
                               _uniform_times(15))
    base = prob_e.pack(geodesic_curve(quad2d, np.zeros(2), np.array([1.0, 1.0]), 16))
    grad_ok = True
    for _ in range(20):
        z = base + 0.2 * rng.standard_normal(base.size)
        _, g = prob_e.value_grad(z)
        k = rng.integers(z.size)
        e = np.zeros_like(z)
        e[k] = 1e-6
        fd = (prob_e.value_grad(z + e)[0] - prob_e.value_grad(z - e)[0]) / 2e-6
        grad_ok &= abs(g[k] - fd) <= 1e-5 * max(1e-4, abs(fd))

    nd, dxd, x0d = 128, 22.0 / 128, -10.0
    ad = GridDensity.gaussian(0.0, 1.0, nd, dxd, x0d)
    bd = GridDensity.gaussian(2.0, 2.0, nd, dxd, x0d)
    prob_d = _DensityProblem(boltzmann, ad, bd, 0.1, _uniform_times(7), 64)
    z0 = prob_d.geodesic_z()
    min_inc = np.min(np.diff(z0.reshape(prob_d.n_interior, prob_d.m), axis=1))
    for _ in range(20):
        z = z0 + 0.2 * min_inc * rng.standard_normal(z0.size)
        _, g = prob_d.value_grad(z)
        k = rng.integers(z.size)
        h = 1e-7
        e = np.zeros_like(z)
        e[k] = h
        fd = (prob_d.value_grad(z + e)[0] - prob_d.value_grad(z - e)[0]) / (2 * h)
        grad_ok &= abs(g[k] - fd) <= 1e-5 * max(1e-3, abs(fd))

    res_a = solve(quad2d, np.zeros(2), np.array([1.0, 1.0]), 0.3)
    res_b = solve(boltzmann, ad, bd, 0.1, SolverOptions(n_time=15))
    descent_ok = all(
        b <= a + 1e-12
        for res in (res_a, res_b)
        for a, b in zip(res.cost_history, res.cost_history[1:])
    )

    seg = solve(quad2d, np.zeros(2), np.array([1.0, 1.0]), 0.0)
    segment_ok = seg.stationarity <= 1e-10 and seg.converged
    ok = grad_ok and descent_ok and segment_ok
    verdict(8, "solver correctness", ok,
            f"grad_ok {grad_ok} descent_ok {descent_ok} "
            f"segment stationarity {seg.stationarity:.1e}")


def test_criterion_9_convexity_certificates(quad1d, boltzmann, porous2, sweep_pair):
    thetas = np.linspace(0.0, 1.0, 33)
    vq = convexity_certificate(quad1d, np.array([-1.5]), np.array([2.0]), thetas)
    a, b = sweep_pair
    vb = convexity_certificate(boltzmann, a, b, thetas)
    vp = convexity_certificate(porous2, a, b, thetas)
    ok = vq <= 1e-9 and vb <= 1e-3 and vp <= 1e-3
    verdict(9, "convexity certificates", ok,
            f"quad {vq:.1e} boltzmann {vb:.1e} porous {vp:.1e}")


def test_criterion_10_cli_reproducibility(tmp_path):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text("""
[backend]
kind = quadratic
dim = 1
center = 0
strength = 1

[endpoints]
x = 1
y = 2

[run]
command = sweep
eps_list = 0, 0.05, 0.1
seed = 7

[output]
directory = out
formats = csv, json
""")
    assert cli_main([str(cfg), "--output", str(tmp_path / "a")]) == 0
    assert cli_main([str(cfg), "--output", str(tmp_path / "b")]) == 0
    same = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("profile.csv", "diagnostics.json")
    )
    verdict(10, "CLI reproducibility", same, "byte-identical CSV and JSON")
