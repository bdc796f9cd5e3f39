"""Deterministic CSV/JSON writers and readers: every artifact format.

CSV floats are printed with 17 significant digits (``fmt``) and JSON
floats in Python's shortest round-trip form; both read back to the same
doubles bit for bit, and two runs of the same experiment produce
byte-identical files.  JSON is written by the standard ``json`` module with
sorted keys and a 2-space indent; non-finite floats appear as ``Infinity``,
``-Infinity`` and ``NaN``, which ``json.loads`` reads back.
"""

from __future__ import annotations

import json

import numpy as np

from .core import Curve
from .density1d import DENSITY_FLOOR, GridDensity
from .errors import DomainError

__all__ = [
    "density_from_csv",
    "density_to_csv",
    "dump_json",
    "fmt",
    "read_curve_csv",
    "write_curve_csv",
    "write_profile_csv",
]


def fmt(v: float) -> str:
    return format(float(v), ".17g")


def _plain(obj):
    """The Python value of a numpy scalar, for ``json.dump``'s ``default``."""
    if isinstance(obj, (np.bool_, np.integer, np.floating)):
        return obj.item()
    raise DomainError(f"cannot serialize {type(obj).__name__} to JSON")


def dump_json(obj, path) -> None:
    with open(path, "w", newline="") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_plain)
        fh.write("\n")


def write_curve_csv(curve: Curve, path) -> None:
    """One row per time node: ``t`` plus the point payload columns.

    Density curves carry their grid geometry in a leading comment line so
    the file is self-describing; its ``floor`` field is ``DENSITY_FLOOR``,
    which ``read_curve_csv`` does not need.
    """
    first = curve.points[0]
    with open(path, "w", newline="") as fh:
        if isinstance(first, GridDensity):
            fh.write(
                f"# grid n={first.n} dx={fmt(first.dx)} x0={fmt(first.x0)} "
                f"boundary={first.boundary} floor={fmt(DENSITY_FLOOR)}\n"
            )
            fh.write("t," + ",".join(f"rho{i}" for i in range(first.n)) + "\n")
            for t, p in zip(curve.times, curve.points):
                fh.write(fmt(t) + "," + ",".join(fmt(v) for v in p.rho) + "\n")
        else:
            dim = np.asarray(first).size
            fh.write("t," + ",".join(f"c{i}" for i in range(dim)) + "\n")
            for t, p in zip(curve.times, curve.points):
                fh.write(fmt(t) + "," + ",".join(fmt(v) for v in np.asarray(p)) + "\n")


def read_curve_csv(path) -> Curve:
    with open(path) as fh:
        first = fh.readline()
        grid = first.startswith("# grid ")
        if grid:
            fields = dict(kv.split("=", 1) for kv in first[len("# grid "):].split())
            fh.readline()  # column header
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    times, rows = data[:, 0].copy(), data[:, 1:]
    if not grid:
        return Curve(times, list(rows))
    # 17-digit printing round-trips doubles, so the stored values still
    # satisfy the mass and floor invariants verbatim
    dx, x0 = float(fields["dx"]), float(fields["x0"])
    return Curve(times, [GridDensity(r, dx, x0, fields["boundary"]) for r in rows])


def write_profile_csv(profile, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("eps,cost,kinetic,fisher,converged\n")
        for r in profile.rows:
            fh.write(
                f"{fmt(r.eps)},{fmt(r.cost)},{fmt(r.kinetic)},{fmt(r.fisher)},"
                + ("true" if r.converged else "false")
                + "\n"
            )


def density_to_csv(d: GridDensity, path) -> None:
    """Write ``x,rho`` rows (cell centers) with full float precision."""
    with open(path, "w", newline="") as fh:
        fh.write("x,rho\n")
        for x, r in zip(d.centers, d.rho):
            fh.write(f"{fmt(x)},{fmt(r)}\n")


def density_from_csv(path, boundary: str = "no-flux") -> GridDensity:
    """Read ``x,rho`` rows on a uniform grid back into a density."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != 2 or data.shape[0] < 2:
        raise DomainError("density CSV needs two columns of at least two rows")
    x, r = data[:, 0], data[:, 1]
    steps = np.diff(x)
    dx = float(steps[0])
    if dx <= 0 or np.any(np.abs(steps - dx) > 1e-9 * dx):
        raise DomainError("density CSV grid must be uniform and increasing")
    return GridDensity(r, dx, x0=float(x[0]) - 0.5 * dx, boundary=boundary, normalize=True)
