"""Spans around the entry points of each entrogeo layer, recorded from outside.

``Tracer.install`` replaces the layer entry points (module functions and
problem/backend methods, see ``TARGETS``) with wrappers that record one span
per call: name, start, end, parent span and the id of the CLI job the call
belongs to.  A module function is replaced in every ``entrogeo`` module that
imported it by name, so calls through ``from .x import f`` aliases are seen
too.  Spans stay in memory until ``write_csv``.  ``layer_metrics`` turns them
into per-layer call counts and self times (a span's duration minus the time
its child spans cover).
"""

from __future__ import annotations

import csv
import functools
import sys
import time
from collections import defaultdict


def _flow_name(args):
    return "density1d.heat_flow" if args[0].name == "boltzmann" else "density1d.pm_flow"


def _w2_name(args):
    return "density1d.w2_circle" if args[0].boundary == "periodic" else "density1d.w2_interval"


# (module, qualified attribute, span name or function of the call arguments)
TARGETS = [
    ("cli", "main", "cli.main"),
    ("cli", "cmd_solve", "cli.command"),
    ("cli", "cmd_sweep", "cli.command"),
    ("cli", "cmd_verify", "cli.command"),
    ("cli", "_verify_quadratic", "cli.command"),
    ("cli", "_verify_density", "cli.command"),
    ("config", "load_config", "config.load"),
    ("fileio", "dump_json", "fileio.write"),
    ("fileio", "write_curve_csv", "fileio.write"),
    ("fileio", "write_profile_csv", "fileio.write"),
    ("core", "kinetic_action", "core.action"),
    ("core", "fisher_action", "core.action"),
    ("core", "fisher_quadrature", "core.action"),
    ("core", "schrodinger_action", "core.action"),
    ("core", "geodesic_curve", "core.geodesic_curve"),
    ("solver", "solve", "solver.solve"),
    ("solver", "discrete_action", "solver.discrete_action"),
    ("solver", "_lbfgs_armijo", "solver.lbfgs"),
    ("solver", "_EuclideanProblem.value_grad", "solver.euclid_value_grad"),
    ("solver", "_DensityProblem.value_grad", "solver.density_value_grad"),
    ("solver", "_DensityProblem.make_preconditioner", "solver.model_build"),
    ("solver", "_quantile_samples", "solver.quantile_pack"),
    ("solver", "_density_from_quantiles", "solver.quantile_unpack"),
    ("density1d", "flow", _flow_name),
    ("density1d", "w2_distance", _w2_name),
    ("density1d", "w2_geodesic", "density1d.geodesic"),
    ("density1d", "entropy", "density1d.entropy_slope"),
    ("density1d", "slope", "density1d.entropy_slope"),
    ("euclidean", "EuclideanBackend.flow", "euclidean.flow"),
    ("euclidean", "EuclideanBackend.distance", "euclidean.metric"),
    ("euclidean", "EuclideanBackend.geodesic", "euclidean.metric"),
    ("euclidean", "EuclideanBackend.entropy", "euclidean.metric"),
    ("euclidean", "EuclideanBackend.slope", "euclidean.metric"),
    ("regularizer", "build", "regularizer.build"),
    ("regularizer", "discrete_estimate_residual", "regularizer.estimate"),
    ("regularizer", "pointwise_estimate_residual", "regularizer.estimate"),
    ("regularizer", "recovery_gap", "regularizer.estimate"),
    ("regularizer", "convexity_certificate", "regularizer.estimate"),
    ("flow_verify", "evi_defect", "flow_verify.certificate"),
    ("flow_verify", "contraction_report", "flow_verify.certificate"),
    ("flow_verify", "ede_report", "flow_verify.certificate"),
    ("flow_verify", "slope_monotonicity_report", "flow_verify.certificate"),
    ("flow_verify", "regularization_report", "flow_verify.certificate"),
    ("flow_verify", "local_global_report", "flow_verify.certificate"),
    ("cost_analysis", "sweep", "cost_analysis.sweep"),
    ("cost_analysis", "gamma_diagnostics", "cost_analysis.gamma"),
    ("cost_analysis", "taylor_check", "cost_analysis.check"),
    ("cost_analysis", "derivative_check", "cost_analysis.check"),
    ("cost_analysis", "fisher_monotonicity", "cost_analysis.check"),
]

# span fields: name, start, end, parent index (-1 at the root), job id, info
NAME, START, END, PARENT, JOB, INFO = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.job = ""
        self._stack = []
        self._undo = []

    def wrap(self, fn, name):
        spans, stack, tracer = self.spans, self._stack, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name(args) if callable(name) else name, 0.0, 0.0,
                   stack[-1] if stack else -1, tracer.job, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            return tracer._after(rec, out)

        return wrapper

    def _after(self, rec, out):
        name = rec[NAME]
        if name == "solver.lbfgs":
            rec[INFO] = out[1]  # iterations of this L-BFGS stage
        elif name == "solver.solve":
            rec[INFO] = (out.eps, out.converged, out.stationarity, out.iterations)
        elif name == "solver.model_build":
            out = self.wrap(out, "solver.model_solve")
        return out

    def install(self, package):
        """Wrap every target of ``TARGETS`` inside the imported ``package``.

        Returns the targets the package no longer has; their layers then
        read zero instead of failing the run.
        """
        mods = [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == package.__name__ or k.startswith(package.__name__ + "."))]
        missing = []
        for mod_name, attr, name in TARGETS:
            owner = sys.modules.get(f"{package.__name__}.{mod_name}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            orig = vars(owner).get(leaf) if owner is not None else None
            if orig is None:
                missing.append(f"{mod_name}.{attr}")
            elif path:  # a method: wrap it on its class
                self._undo.append((owner, leaf, orig))
                setattr(owner, leaf, self.wrap(orig, name))
            else:
                self._wrap_everywhere(mods, orig, name)
        return missing

    def _wrap_everywhere(self, mods, orig, name):
        wrapped = self.wrap(orig, name)
        for m in mods:
            for key, val in list(vars(m).items()):
                if val is orig:
                    self._undo.append((m, key, orig))
                    setattr(m, key, wrapped)

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "start", "end", "parent", "job"])
            for i, s in enumerate(self.spans):
                out.writerow([i, s[NAME], repr(s[START]), repr(s[END]), s[PARENT], s[JOB]])


def self_times(spans):
    """Per-name ``(calls, self seconds)`` over a list of spans."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    calls = defaultdict(int)
    secs = defaultdict(float)
    for s, c in zip(spans, child):
        calls[s[NAME]] += 1
        secs[s[NAME]] += s[END] - s[START] - c
    return calls, secs


def solve_records(spans):
    """One record per ``solver.solve`` span with its own evaluation and
    iteration counts (value_grad calls and L-BFGS iterations beneath it)."""
    owner = {}
    records = {}
    for i, s in enumerate(spans):
        p = s[PARENT]
        owner[i] = i if s[NAME] == "solver.solve" else owner.get(p) if p >= 0 else None
        if s[NAME] == "solver.solve":
            records[i] = {"job": s[JOB], "evaluations": 0, "lbfgs_iterations": 0}
    for i, s in enumerate(spans):
        o = owner[i]
        if o is None:
            continue
        if s[NAME] in ("solver.euclid_value_grad", "solver.density_value_grad"):
            records[o]["evaluations"] += 1
        elif s[NAME] == "solver.lbfgs":
            records[o]["lbfgs_iterations"] += s[INFO] or 0
    out = []
    for i, rec in records.items():
        if spans[i][INFO] is None:
            continue  # the solve raised
        eps, converged, stationarity, iterations = spans[i][INFO]
        rec.update(eps=eps, converged=converged, stationarity=stationarity,
                   iterations=iterations, seconds=spans[i][END] - spans[i][START])
        out.append(rec)
    return out


# per-layer metric -> ("calls" | "self_s", span names summed)
LAYER_METRICS = {
    "solver.solves": ("calls", ["solver.solve"]),
    "solver.solve_s": ("self_s", ["solver.solve"]),
    "solver.lbfgs_s": ("self_s", ["solver.lbfgs"]),
    "solver.euclid_value_grad_s": ("self_s", ["solver.euclid_value_grad"]),
    "solver.density_value_grad_s": ("self_s", ["solver.density_value_grad"]),
    "solver.model_builds": ("calls", ["solver.model_build"]),
    "solver.model_build_s": ("self_s", ["solver.model_build"]),
    "solver.model_solves": ("calls", ["solver.model_solve"]),
    "solver.model_solve_s": ("self_s", ["solver.model_solve"]),
    "solver.quantile_packs": ("calls", ["solver.quantile_pack"]),
    "solver.quantile_pack_s": ("self_s", ["solver.quantile_pack"]),
    "solver.quantile_unpack_s": ("self_s", ["solver.quantile_unpack"]),
    "solver.discrete_action_s": ("self_s", ["solver.discrete_action"]),
    "density1d.heat_flows": ("calls", ["density1d.heat_flow"]),
    "density1d.heat_flow_s": ("self_s", ["density1d.heat_flow"]),
    "density1d.pm_flows": ("calls", ["density1d.pm_flow"]),
    "density1d.pm_flow_s": ("self_s", ["density1d.pm_flow"]),
    "density1d.w2_interval_calls": ("calls", ["density1d.w2_interval"]),
    "density1d.w2_interval_s": ("self_s", ["density1d.w2_interval"]),
    "density1d.w2_circle_calls": ("calls", ["density1d.w2_circle"]),
    "density1d.w2_circle_s": ("self_s", ["density1d.w2_circle"]),
    "density1d.geodesic_calls": ("calls", ["density1d.geodesic"]),
    "density1d.geodesic_s": ("self_s", ["density1d.geodesic"]),
    "density1d.entropy_slope_s": ("self_s", ["density1d.entropy_slope"]),
    "euclidean.flows": ("calls", ["euclidean.flow"]),
    "euclidean.flow_s": ("self_s", ["euclidean.flow"]),
    "euclidean.metric_s": ("self_s", ["euclidean.metric"]),
    "regularizer.builds": ("calls", ["regularizer.build"]),
    "regularizer.build_s": ("self_s", ["regularizer.build"]),
    "regularizer.estimate_s": ("self_s", ["regularizer.estimate"]),
    "flow_verify.certificates": ("calls", ["flow_verify.certificate"]),
    "flow_verify.certificate_s": ("self_s", ["flow_verify.certificate"]),
    "cost_analysis.sweep_s": ("self_s", ["cost_analysis.sweep"]),
    "cost_analysis.gamma_s": ("self_s", ["cost_analysis.gamma"]),
    "cost_analysis.check_s": ("self_s", ["cost_analysis.check"]),
    "core.action_s": ("self_s", ["core.action", "core.geodesic_curve"]),
    "cli.command_s": ("self_s", ["cli.main", "cli.command"]),
    "config.load_s": ("self_s", ["config.load"]),
    "fileio.write_s": ("self_s", ["fileio.write"]),
}


def layer_metrics(spans, passes: int) -> dict:
    """Per-layer counts and self times, averaged over ``passes`` passes."""
    calls, secs = self_times(spans)
    out = {}
    for metric, (kind, names) in LAYER_METRICS.items():
        src = calls if kind == "calls" else secs
        out[metric] = sum(src.get(n, 0) for n in names) / passes
    evaluations = calls.get("solver.euclid_value_grad", 0) + calls.get("solver.density_value_grad", 0)
    iterations = sum(s[INFO] or 0 for s in spans if s[NAME] == "solver.lbfgs")
    out["solver.evaluations"] = evaluations / passes
    out["solver.iterations"] = iterations / passes
    out["solver.accept_ratio"] = iterations / evaluations if evaluations else 0.0
    out["trace.spans"] = len(spans) / passes
    return out
