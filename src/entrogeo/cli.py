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
* verify -> ``diagnostics.json`` with one record per selected
  flow/regularizer certificate

Verify runs one certificate table, ``_CERTIFICATES``, on both backends: it
maps each property name to a function ``(backend, samples, tol) ->
EviReport`` and to its default tolerance on each backend.
``_verify_quadratic`` and ``_verify_density`` only build their backend's
sample set.  Only the selected properties are computed; the quadratic
sample set draws every random number whatever the selection, so a subset
run reports the same records as a full run.

Exit codes: 0 success, 1 usage/config/IO error, 2 a solve did not converge
or a verification certificate failed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from . import cost_analysis, flow_verify, regularizer
from .config import ExperimentConfig, load_config
from .core import HatFunction, geodesic_curve
from .density1d import Density1DBackend, GridDensity
from .errors import ConfigError, EntrogeoError
from .euclidean import EuclideanBackend
from .fileio import dump_json, write_curve_csv, write_profile_csv
from .solver import solve


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


@dataclass
class _Samples:
    """One backend's inputs to the certificate table; pairs are ``(x, y)``.

    ``local_global()`` returns a base point and its comparison points.  The
    geodesic from ``a`` to ``b`` and its regularized copies are built on
    first use, so a certificate that is not selected costs nothing.
    """

    backend: object
    s_grid: np.ndarray
    evi: list
    contraction: list
    ede: tuple  # (x, T, n_quad)
    slope_point: object
    regularization: tuple
    local_global: Callable
    a: object
    b: object
    hat_slope: float
    pointwise_intervals: int  # of the curve the pointwise estimate samples
    convexity: list

    @cached_property
    def base(self):
        return geodesic_curve(self.backend, self.a, self.b, 64)

    @cached_property
    def reg(self):
        return regularizer.build(self.backend, self.base, HatFunction.with_slope(self.hat_slope))

    @cached_property
    def pointwise_reg(self):
        if self.pointwise_intervals == self.base.n_intervals:
            return self.reg
        fine = geodesic_curve(self.backend, self.a, self.b, self.pointwise_intervals)
        return regularizer.build(self.backend, fine, HatFunction.with_slope(self.hat_slope))


def _evi(backend, s, tol):
    reps = [flow_verify.evi_defect(backend, x, y, s.s_grid, tol) for x, y in s.evi]
    return flow_verify._report("evi", max(r.worst_residual for r in reps),
                               sum(r.samples for r in reps), tol)


def _ede(backend, s, tol):
    x, T, n_quad = s.ede
    return flow_verify.ede_report(backend, x, T, n_quad=n_quad, tolerance=tol)


def _local_global(backend, s, tol):
    x, samples = s.local_global()
    return flow_verify.local_global_report(backend, x, samples, tol)


def _discrete_estimate(backend, s, tol):
    res = regularizer.discrete_estimate_residuals(backend, s.reg)
    return flow_verify._report("discrete_estimate", max(res.values()), len(res), tol)


def _pointwise_estimate(backend, s, tol):
    reg = s.pointwise_reg
    n = reg.base.n_intervals
    kink = reg.base.node_nearest(0.5)
    nodes = [i for i in range(1, n) if abs(i - kink) > 1]
    res = regularizer.pointwise_estimate_residuals(backend, reg, nodes)
    return flow_verify._report("pointwise_estimate", max(res.values()), len(nodes), tol)


def _recovery_gap(backend, s, tol):
    gaps = [-g for g in regularizer.recovery_gaps(backend, s.base, (0.2, 0.1, 0.05))]
    return flow_verify._report("recovery_gap", max(gaps), len(gaps), tol)


def _convexity(backend, s, tol):
    thetas = np.linspace(0.0, 1.0, 33)
    worst = max(regularizer.convexity_certificate(backend, x, y, thetas) for x, y in s.convexity)
    return flow_verify._report("convexity", worst, len(s.convexity) * thetas.size, tol)


# verify property -> (certificate (backend, samples, tol) -> EviReport,
#                     default tolerance on the quadratic, on the density backend)
_CERTIFICATES = {
    "evi": (_evi, 1e-6, 5e-3),
    "contraction": (lambda be, s, tol: flow_verify.contraction_report(
        be, s.contraction, s.s_grid, tol), 1e-8, 2e-3),
    "ede": (_ede, 1e-6, 2e-2),
    "slope_monotonicity": (lambda be, s, tol: flow_verify.slope_monotonicity_report(
        be, s.slope_point, s.s_grid, tol), 1e-9, 1e-6),
    "regularization": (lambda be, s, tol: flow_verify.regularization_report(
        be, *s.regularization, s.s_grid, tol), 1e-6, 5e-3),
    "local_global": (_local_global, 1e-9, 1e-2),
    "discrete_estimate": (_discrete_estimate, 1e-8, 5e-3),
    "pointwise_estimate": (_pointwise_estimate, 1e-6, 1e-2),
    "recovery_gap": (_recovery_gap, 5e-3, 5e-3),
    "convexity": (_convexity, 1e-9, 1e-3),
}


def _certify(samples: _Samples, properties, tol) -> dict:
    return {name: _CERTIFICATES[name][0](samples.backend, samples, tol[name])
            for name in properties}


def _verify_quadratic(backend: EuclideanBackend, rng, properties, tol) -> dict:
    def draw(r=2.0):
        return rng.uniform(-r, r, backend.dim)

    # every draw happens, in this order, whichever properties are selected
    pts = [draw() for _ in range(8)]
    contraction = [(draw(), draw()) for _ in range(6)]
    ede_x, slope_point, regularization = draw(), draw(), (draw(), draw())
    comparison = [draw(3.0) for _ in range(100)]
    lg_x, a, b = draw(), draw(), draw()
    convexity = [(draw(), draw()) for _ in range(4)]
    return _certify(_Samples(
        backend, s_grid=np.linspace(0.05, 1.5, 12), evi=list(zip(pts[:4], pts[4:])),
        contraction=contraction, ede=(ede_x, 1.0, 4096), slope_point=slope_point,
        regularization=regularization, local_global=lambda: (lg_x, comparison),
        a=a, b=b, hat_slope=0.1, pointwise_intervals=2048, convexity=convexity,
    ), properties, tol)


def _verify_density(backend: Density1DBackend, grid, properties, tol) -> dict:
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
    g_shift = g_mid.with_rho(np.roll(g_mid.rho, max(1, int(0.1 * n))))
    a, b = gauss(0.45, 0.05), gauss(0.6, 0.09)

    def local_global():
        return mix, (backend.flows([mix, mix], [0.05, 0.1])
                     + backend.geodesic_points(mix, g_mid, (0.25, 0.5, 0.75)) + [g_mid, g_off])

    return _certify(_Samples(
        backend, s_grid=np.linspace(0.02, 0.2, 8), evi=[(mix, g_mid)],
        contraction=[(g_mid, g_shift), (mix, g_off)], ede=(mix, 0.1, 32), slope_point=mix,
        regularization=(mix, g_mid), local_global=local_global,
        a=a, b=b, hat_slope=0.05, pointwise_intervals=64, convexity=[(a, b), (mix, g_mid)],
    ), properties, tol)


def cmd_verify(config: ExperimentConfig) -> int:
    backend = config.backend
    quadratic = isinstance(backend, EuclideanBackend)
    tol = {name: config.tolerances.get(name, quad_tol if quadratic else density_tol)
           for name, (_, quad_tol, density_tol) in _CERTIFICATES.items()}
    names = sorted(set(config.properties))
    if quadratic:
        reports = _verify_quadratic(backend, np.random.default_rng(config.seed), names, tol)
    else:
        if config.grid is None:
            raise EntrogeoError("density verification needs grid parameters")
        reports = _verify_density(backend, config.grid, names, tol)

    config.output_dir.mkdir(parents=True, exist_ok=True)
    if "json" in config.formats:
        dump_json([reports[name].to_record() for name in names],
                  config.output_dir / "diagnostics.json")
    for name in names:
        r = reports[name]
        status = "pass" if r.passed else "FAIL"
        print(f"{name:22s} residual {r.worst_residual: .3e}  tol {r.tolerance:.1e}  {status}")
    return 0 if all(r.passed for r in reports.values()) else 2


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
            if args.seed < 0:
                raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
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
