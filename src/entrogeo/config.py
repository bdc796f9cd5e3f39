"""Experiment configuration: strict INI-style sections and keys.

A config file fully determines one experiment, so runs are reproducible
artifacts; the command line only selects the file and the output
directory.  Unknown sections or keys are rejected outright.  ``verify``
takes no keys of its own: it always runs every certificate at its fixed
tolerance, and ``seed`` draws the quadratic backend's sample points.

::

    [backend]
    kind = density              ; or quadratic
    entropy = boltzmann         ; or porous_medium (with m = ...)
    n = 256
    dx = 0.0859375
    x0 = -10
    boundary = no-flux

    [endpoints]
    x = gaussian(0, 1)          ; gaussian(m, s) | point_mass(cell) |
    y = gaussian(2, 2)          ; uniform | csv:path   (density backend)

    [run]
    command = sweep             ; solve | sweep | verify
    eps_list = 0, 0.025, 0.05, 0.1, 0.2
    seed = 0

    [output]
    directory = out
    formats = csv, json
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .cost_analysis import _descending_eps
from .density1d import Density1DBackend, EntropyKind, GridDensity
from .errors import ConfigError, DomainError
from .euclidean import EuclideanBackend, QuadraticPotential
from .fileio import density_from_csv
from .solver import SolverOptions

__all__ = ["ExperimentConfig", "load_config"]

_BACKEND_KEYS = {"kind", "entropy", "m", "n", "dx", "x0", "boundary",
                 "dim", "center", "strength"}
_ENDPOINT_KEYS = {"x", "y"}
_RUN_KEYS = {"command", "eps", "eps_list", "seed", "n_time", "max_iter",
             "grad_tol", "quantile_points"}
_OUTPUT_KEYS = {"directory", "formats"}
_COMMANDS = ("solve", "sweep", "verify")


@dataclass
class ExperimentConfig:
    backend: object
    grid: Optional[tuple]  # (n, dx, x0, boundary) for density backends
    x: object
    y: object
    command: str
    eps: Optional[float]
    eps_list: list
    seed: int
    solver_options: SolverOptions
    output_dir: Path
    formats: list


def _fail(section, key, msg):
    raise ConfigError(f"[{section}] {key}: {msg}")


def _to_float(text, section, key):
    try:
        v = float(text)
    except ValueError:
        _fail(section, key, f"not a number: {text!r}")
    if not math.isfinite(v):
        _fail(section, key, f"not a finite number: {text!r}")
    return v


def _get_float(sec, section, key, default=None, positive=False):
    if key not in sec:
        if default is not None:
            return default
        _fail(section, key, "missing required value")
    v = _to_float(sec[key], section, key)
    if positive and v <= 0:
        _fail(section, key, f"must be positive, got {v}")
    return v


def _get_int(sec, section, key, default=None):
    if key not in sec:
        if default is not None:
            return default
        _fail(section, key, "missing required value")
    try:
        return int(sec[key])
    except ValueError:
        _fail(section, key, f"not an integer: {sec[key]!r}")


def _parse_floats(text, section, key):
    return [_to_float(tok, section, key) for tok in re.split(r"[,\s]+", text.strip()) if tok]


def _check_keys(cfg, section, allowed):
    for key in cfg[section]:
        if key not in allowed:
            raise ConfigError(f"[{section}] unknown key {key!r}")


def _build_backend(sec):
    kind = sec.get("kind")
    if kind == "quadratic":
        dim = _get_int(sec, "backend", "dim", default=1)
        if dim < 1:
            _fail("backend", "dim", "must be at least 1")
        center_text = sec.get("center", "0")
        center = np.array(_parse_floats(center_text, "backend", "center"))
        if center.size == 1 and dim > 1:
            center = np.full(dim, center[0])
        if center.size != dim:
            _fail("backend", "center", f"needs {dim} coordinates")
        strength = _get_float(sec, "backend", "strength", default=1.0, positive=True)
        return EuclideanBackend(QuadraticPotential(center, strength))
    if kind == "density":
        entropy_name = sec.get("entropy", "boltzmann")
        if entropy_name == "boltzmann":
            kind_obj = EntropyKind.boltzmann()
        elif entropy_name == "porous_medium":
            kind_obj = EntropyKind.porous_medium(_get_float(sec, "backend", "m", positive=True))
        else:
            _fail("backend", "entropy", f"unknown entropy {entropy_name!r}")
        return Density1DBackend(kind_obj)
    _fail("backend", "kind", f"must be quadratic or density, got {kind!r}")


def _density_grid(sec):
    n = _get_int(sec, "backend", "n")
    dx = _get_float(sec, "backend", "dx", positive=True)
    x0 = _get_float(sec, "backend", "x0", default=0.0)
    boundary = sec.get("boundary", "no-flux")
    return n, dx, x0, boundary


_PRESET_RE = re.compile(r"^(\w+)\s*(?:\(([^)]*)\))?$")


def _build_density_endpoint(text, grid, base_dir):
    text = text.strip()
    if text.startswith("csv:"):
        path = Path(text[4:].strip())
        if not path.is_absolute():
            path = base_dir / path
        return density_from_csv(path, boundary=grid[3])
    m = _PRESET_RE.match(text)
    if not m:
        raise ConfigError(f"[endpoints] cannot parse density preset {text!r}")
    name = m.group(1)
    args = _parse_floats(m.group(2) or "", "endpoints", name)
    n, dx, x0, boundary = grid
    if name == "gaussian":
        if len(args) != 2:
            raise ConfigError("[endpoints] gaussian(mean, sigma) needs two numbers")
        return GridDensity.gaussian(args[0], args[1], n, dx, x0, boundary)
    if name == "uniform":
        if args:
            raise ConfigError("[endpoints] uniform takes no arguments")
        return GridDensity.uniform(n, dx, x0, boundary)
    if name == "point_mass":
        if len(args) != 1:
            raise ConfigError("[endpoints] point_mass(cell) needs one integer")
        return GridDensity.point_mass(args[0], n, dx, x0, boundary)
    raise ConfigError(f"[endpoints] unknown density preset {name!r}")


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    cfg = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = cfg.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    for section in cfg.sections():
        if section not in ("backend", "endpoints", "run", "output"):
            raise ConfigError(f"unknown section [{section}]")
    for section, allowed in (
        ("backend", _BACKEND_KEYS),
        ("endpoints", _ENDPOINT_KEYS),
        ("run", _RUN_KEYS),
        ("output", _OUTPUT_KEYS),
    ):
        if section in cfg:
            _check_keys(cfg, section, allowed)
    if "backend" not in cfg or "run" not in cfg:
        raise ConfigError("config needs [backend] and [run] sections")

    backend_sec = cfg["backend"]
    backend = _build_backend(backend_sec)
    grid = _density_grid(backend_sec) if backend_sec.get("kind") == "density" else None

    run = cfg["run"]
    command = run.get("command")
    if command not in _COMMANDS:
        raise ConfigError(f"[run] command: must be one of {_COMMANDS}, got {command!r}")

    x = y = None
    if command in ("solve", "sweep"):
        if "endpoints" not in cfg:
            raise ConfigError("solve/sweep need an [endpoints] section")
        ep = cfg["endpoints"]
        if "x" not in ep or "y" not in ep:
            raise ConfigError("[endpoints] needs both x and y")
        if isinstance(backend, EuclideanBackend):
            x = np.array(_parse_floats(ep["x"], "endpoints", "x"))
            y = np.array(_parse_floats(ep["y"], "endpoints", "y"))
            for tag, pt in (("x", x), ("y", y)):
                if pt.size != backend.dim:
                    _fail("endpoints", tag, f"needs {backend.dim} coordinates")
        else:
            x = _build_density_endpoint(ep["x"], grid, path.parent)
            y = _build_density_endpoint(ep["y"], grid, path.parent)

    eps = None
    eps_list = []
    if command == "solve":
        eps = _get_float(run, "run", "eps")
        if eps < 0:
            _fail("run", "eps", f"must be nonnegative, got {eps}")
    elif command == "sweep":
        if "eps_list" not in run:
            _fail("run", "eps_list", "missing required value")
        try:
            eps_list = _descending_eps(_parse_floats(run["eps_list"], "run", "eps_list"))[::-1]
        except DomainError as exc:
            _fail("run", "eps_list", str(exc))

    qp = None
    if "quantile_points" in run:
        qp = _get_int(run, "run", "quantile_points")
    try:
        solver_options = SolverOptions(
            n_time=_get_int(run, "run", "n_time", default=SolverOptions.n_time),
            max_iter=_get_int(run, "run", "max_iter", default=SolverOptions.max_iter),
            grad_tol=_get_float(run, "run", "grad_tol", default=SolverOptions.grad_tol,
                                positive=True),
            quantile_points=qp,
        )
    except DomainError as exc:
        raise ConfigError(f"[run] {exc}") from None

    out = cfg["output"] if "output" in cfg else {}
    out_dir = Path(out.get("directory", "out"))
    if not out_dir.is_absolute():
        out_dir = path.parent / out_dir
    formats = [f.strip() for f in out.get("formats", "csv, json").split(",") if f.strip()]
    for f in formats:
        if f not in ("csv", "json"):
            raise ConfigError(f"[output] formats: unknown format {f!r}")

    seed = _get_int(run, "run", "seed", default=0)
    if seed < 0:
        _fail("run", "seed", f"must be nonnegative, got {seed}")

    return ExperimentConfig(
        backend=backend,
        grid=grid,
        x=x,
        y=y,
        command=command,
        eps=eps,
        eps_list=eps_list,
        seed=seed,
        solver_options=solver_options,
        output_dir=out_dir,
        formats=formats,
    )
