"""Configuration-driven command line: solve, sweep, and verify runs.

Usage::

    entrogeo CONFIG [--output DIR] [--seed N]

The command itself (solve / sweep / verify) lives in the config file; the
flags only override the output directory and the RNG seed so an experiment
stays a reproducible artifact.  Outputs are CSV/JSON only (plotting is
external):

* solve  -> ``curve.csv`` (minimizer) and ``result.json``
* sweep  -> ``profile.csv`` plus ``diagnostics.json`` bundling the Fisher
  monotonicity, derivative-identity, Taylor, and Gamma-convergence checks
* verify -> ``diagnostics.json`` with one record per flow/regularizer
  certificate

Exit codes: 0 success, 1 usage/config/IO error, 2 a solve did not converge
or a verification certificate failed.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import cost_analysis, flow_verify, regularizer
from .config import ExperimentConfig, load_config
from .core import HatFunction, geodesic_curve
from .density1d import Density1DBackend, GridDensity
from .errors import EntrogeoError
from .euclidean import EuclideanBackend
from .fileio import dump_json, write_curve_csv, write_profile_csv
from .flow_verify import EviReport
from .solver import solve

_QUAD_TOLERANCES = {
    "evi": 1e-6,
    "contraction": 1e-8,
    "ede": 1e-6,
    "slope_monotonicity": 1e-9,
    "regularization": 1e-6,
    "local_global": 1e-9,
    "discrete_estimate": 1e-8,
    "pointwise_estimate": 1e-6,
    "recovery_gap": 5e-3,
    "convexity": 1e-9,
}

_DENSITY_TOLERANCES = {
    "evi": 5e-3,
    "contraction": 2e-3,
    "ede": 2e-2,
    "slope_monotonicity": 1e-6,
    "regularization": 5e-3,
    "local_global": 1e-2,
    "discrete_estimate": 5e-3,
    "pointwise_estimate": 1e-2,
    "recovery_gap": 5e-3,
    "convexity": 1e-3,
}


def cmd_solve(config: ExperimentConfig) -> int:
    res = solve(config.backend, config.x, config.y, config.eps, config.solver_options)
    config.output_dir.mkdir(parents=True, exist_ok=True)
    if "csv" in config.formats:
        write_curve_csv(res.minimizer, config.output_dir / "curve.csv")
    if "json" in config.formats:
        dump_json(res.to_record(), config.output_dir / "result.json")
    return 0 if res.converged else 2


def cmd_sweep(config: ExperimentConfig) -> int:
    opts = config.solver_options
    if opts.grad_tol is None:
        # sweep diagnostics divide residual solver slack by eps^2, so the
        # profile needs tighter stationarity than a single solve would
        from dataclasses import replace

        opts = replace(opts, grad_tol=1e-7 if isinstance(
            config.backend, Density1DBackend) else 1e-8)
    profile = cost_analysis.sweep(
        config.backend, config.x, config.y, config.eps_list, opts
    )
    diagnostics = {
        "profile": profile.to_records(),
        "cost_0": profile.cost_0,
        "fisher_0": profile.fisher_0,
    }
    if len([r for r in profile.rows if r.converged]) >= 2:
        diagnostics["fisher_monotonicity_violation"] = cost_analysis.fisher_monotonicity(profile)
    if len(profile.rows) >= 3:
        diagnostics["derivative_residuals"] = cost_analysis.derivative_check(profile)
    if config.taylor:
        tr = cost_analysis.taylor_check(profile)
        diagnostics["taylor"] = {
            "ratios": [list(p) for p in tr.ratios],
            "limit_estimate": tr.limit_estimate,
            "fisher_0": tr.fisher_0,
            "rel_error": tr.rel_error,
            "monotone_approach": tr.monotone_approach,
            "pointwise_bound_ok": tr.pointwise_bound_ok,
            "pass": tr.passed,
        }
    pos_eps = [e for e in config.eps_list if e > 0]
    if pos_eps:
        gr = cost_analysis.gamma_diagnostics(
            config.backend, config.x, config.y, pos_eps,
            opts=opts, profile=profile,
        )
        diagnostics["gamma"] = {
            "eps": list(gr.eps),
            "cost_gaps": list(gr.cost_gaps),
            "minimizer_deviation": list(gr.minimizer_deviation),
            "recovery_gaps": list(gr.recovery_gaps),
            "pass": gr.passed,
        }
    config.output_dir.mkdir(parents=True, exist_ok=True)
    if "csv" in config.formats:
        write_profile_csv(profile, config.output_dir / "profile.csv")
    if "json" in config.formats:
        dump_json(diagnostics, config.output_dir / "diagnostics.json")
    return 0 if all(r.converged for r in profile.rows) else 2


def _verify_quadratic(backend: EuclideanBackend, rng, tol) -> list:
    dim = backend.dim
    s_grid = np.linspace(0.05, 1.5, 12)
    reports = {}

    pts = [rng.uniform(-2.0, 2.0, dim) for _ in range(8)]
    worst = -math.inf
    for i in range(4):
        r = flow_verify.evi_defect(backend, pts[i], pts[i + 4], s_grid, tol["evi"])
        worst = max(worst, r.worst_residual)
    reports["evi"] = EviReport("evi", worst, 4 * s_grid.size, worst <= tol["evi"], tol["evi"])

    pairs = [(rng.uniform(-2, 2, dim), rng.uniform(-2, 2, dim)) for _ in range(6)]
    reports["contraction"] = flow_verify.contraction_report(backend, pairs, s_grid, tol["contraction"])
    x0 = rng.uniform(-2, 2, dim)
    reports["ede"] = flow_verify.ede_report(backend, x0, 1.0, n_quad=4096, tolerance=tol["ede"])
    reports["slope_monotonicity"] = flow_verify.slope_monotonicity_report(
        backend, rng.uniform(-2, 2, dim), s_grid, tol["slope_monotonicity"])
    reports["regularization"] = flow_verify.regularization_report(
        backend, rng.uniform(-2, 2, dim), rng.uniform(-2, 2, dim), s_grid, tol["regularization"])
    samples = [rng.uniform(-3, 3, dim) for _ in range(100)]
    reports["local_global"] = flow_verify.local_global_report(
        backend, rng.uniform(-2, 2, dim), samples, tol["local_global"])

    a = rng.uniform(-2, 2, dim)
    b = rng.uniform(-2, 2, dim)
    base = geodesic_curve(backend, a, b, 64)
    reg = regularizer.build(backend, base, HatFunction.with_slope(0.1))
    worst = max(regularizer.discrete_estimate_residuals(backend, reg).values())
    reports["discrete_estimate"] = EviReport(
        "discrete_estimate", worst, 65 * 64 // 2, worst <= tol["discrete_estimate"],
        tol["discrete_estimate"])

    fine = geodesic_curve(backend, a, b, 2048)
    regf = regularizer.build(backend, fine, HatFunction.with_slope(0.1))
    kink = fine.node_nearest(0.5)
    worst = max(regularizer.pointwise_estimate_residuals(
        backend, regf, [i for i in range(1, 2048) if abs(i - kink) > 1]).values())
    reports["pointwise_estimate"] = EviReport(
        "pointwise_estimate", worst, 2045, worst <= tol["pointwise_estimate"],
        tol["pointwise_estimate"])

    worst = max(-regularizer.recovery_gap(backend, base, e) for e in (0.2, 0.1, 0.05))
    reports["recovery_gap"] = EviReport(
        "recovery_gap", worst, 3, worst <= tol["recovery_gap"], tol["recovery_gap"])

    thetas = np.linspace(0.0, 1.0, 33)
    worst = max(
        regularizer.convexity_certificate(backend, rng.uniform(-2, 2, dim),
                                          rng.uniform(-2, 2, dim), thetas)
        for _ in range(4)
    )
    reports["convexity"] = EviReport(
        "convexity", worst, 4 * 33, worst <= tol["convexity"], tol["convexity"])
    return reports


def _verify_density(backend: Density1DBackend, grid, rng, tol) -> list:
    n, dx, x0, boundary, floor = grid
    L = n * dx

    def gauss(mean_frac, sigma_frac):
        return GridDensity.gaussian(x0 + mean_frac * L, sigma_frac * L, n, dx,
                                    x0, boundary, floor)

    mix = GridDensity.from_function(
        lambda xs: (
            0.6 * np.exp(-0.5 * ((xs - (x0 + 0.35 * L)) / (0.05 * L)) ** 2)
            + 0.4 * np.exp(-0.5 * ((xs - (x0 + 0.62 * L)) / (0.07 * L)) ** 2)
        ),
        n, dx, x0, boundary, floor,
    )
    g_mid = gauss(0.5, 0.08)
    g_off = gauss(0.6, 0.08)
    s_grid = np.linspace(0.02, 0.2, 8)
    reports = {}

    reports["evi"] = flow_verify.evi_defect(backend, mix, g_mid, s_grid, tol["evi"])
    shift_cells = max(1, int(0.1 * n))
    g_shift = g_mid.with_rho(np.roll(g_mid.rho, shift_cells))
    reports["contraction"] = flow_verify.contraction_report(
        backend, [(g_mid, g_shift), (mix, g_off)], s_grid, tol["contraction"])
    reports["ede"] = flow_verify.ede_report(backend, mix, 0.1, n_quad=32, tolerance=tol["ede"])
    reports["slope_monotonicity"] = flow_verify.slope_monotonicity_report(
        backend, mix, s_grid, tol["slope_monotonicity"])
    reports["regularization"] = flow_verify.regularization_report(
        backend, mix, g_mid, s_grid, tol["regularization"])
    samples = [backend.flow(mix, s) for s in (0.05, 0.1)] + [
        backend.geodesic(mix, g_mid, th) for th in (0.25, 0.5, 0.75)
    ] + [g_mid, g_off]
    reports["local_global"] = flow_verify.local_global_report(
        backend, mix, samples, tol["local_global"])

    a = gauss(0.45, 0.05)
    b = gauss(0.6, 0.09)
    base = geodesic_curve(backend, a, b, 64)
    reg = regularizer.build(backend, base, HatFunction.with_slope(0.05))
    worst = max(regularizer.discrete_estimate_residuals(backend, reg).values())
    reports["discrete_estimate"] = EviReport(
        "discrete_estimate", worst, 65 * 64 // 2, worst <= tol["discrete_estimate"],
        tol["discrete_estimate"])

    kink = base.node_nearest(0.5)
    worst = max(regularizer.pointwise_estimate_residuals(
        backend, reg, [i for i in range(1, 64) if abs(i - kink) > 1]).values())
    reports["pointwise_estimate"] = EviReport(
        "pointwise_estimate", worst, 61, worst <= tol["pointwise_estimate"],
        tol["pointwise_estimate"])

    worst = max(-regularizer.recovery_gap(backend, base, e) for e in (0.2, 0.1, 0.05))
    reports["recovery_gap"] = EviReport(
        "recovery_gap", worst, 3, worst <= tol["recovery_gap"], tol["recovery_gap"])

    thetas = np.linspace(0.0, 1.0, 33)
    worst = max(
        regularizer.convexity_certificate(backend, a, b, thetas),
        regularizer.convexity_certificate(backend, mix, g_mid, thetas),
    )
    reports["convexity"] = EviReport(
        "convexity", worst, 2 * 33, worst <= tol["convexity"], tol["convexity"])
    return reports


def cmd_verify(config: ExperimentConfig) -> int:
    rng = np.random.default_rng(config.seed)
    if isinstance(config.backend, EuclideanBackend):
        defaults = dict(_QUAD_TOLERANCES)
    else:
        defaults = dict(_DENSITY_TOLERANCES)
    defaults.update(config.tolerances)
    if isinstance(config.backend, EuclideanBackend):
        reports = _verify_quadratic(config.backend, rng, defaults)
    else:
        if config.grid is None:
            raise EntrogeoError("density verification needs grid parameters")
        reports = _verify_density(config.backend, config.grid, rng, defaults)
    selected = {name: reports[name] for name in config.properties}

    config.output_dir.mkdir(parents=True, exist_ok=True)
    if "json" in config.formats:
        dump_json(
            [selected[name].to_record() for name in sorted(selected)],
            config.output_dir / "diagnostics.json",
        )
    for name in sorted(selected):
        r = selected[name]
        status = "pass" if r.passed else "FAIL"
        print(f"{name:22s} residual {r.worst_residual: .3e}  tol {r.tolerance:.1e}  {status}")
    return 0 if all(r.passed for r in selected.values()) else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="entrogeo",
        description="Entropic-cost experiments driven by a config file.",
    )
    parser.add_argument("config", help="experiment configuration file (INI)")
    parser.add_argument("--output", help="override the output directory")
    parser.add_argument("--seed", type=int, help="override the RNG seed")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
        if args.output is not None:
            config.output_dir = Path(args.output)
        if args.seed is not None:
            config.seed = args.seed
        if config.command == "solve":
            return cmd_solve(config)
        if config.command == "sweep":
            return cmd_sweep(config)
        return cmd_verify(config)
    except EntrogeoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
