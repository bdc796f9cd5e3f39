"""Deterministic CSV/JSON writers and readers for experiment artifacts.

Every float is printed with 17 significant digits, which round-trips IEEE
doubles exactly: re-reading a written file reconstructs the same values
bit for bit, and two runs of the same experiment produce byte-identical
files.  JSON objects are written with sorted keys through a small local
serializer so the float format stays under our control.
"""

from __future__ import annotations

import io

import numpy as np

from .core import Curve
from .density1d import DENSITY_FLOOR, GridDensity
from .errors import DomainError

__all__ = [
    "dump_json",
    "fmt",
    "read_curve_csv",
    "write_curve_csv",
    "write_profile_csv",
]


def fmt(v: float) -> str:
    return format(float(v), ".17g")


def _json_write(obj, out: io.TextIOBase, indent: int) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.write("{}")
            return
        out.write("{\n")
        items = sorted(obj.items())
        for i, (k, v) in enumerate(items):
            out.write(f'{pad}  "{k}": ')
            _json_write(v, out, indent + 1)
            out.write(",\n" if i + 1 < len(items) else "\n")
        out.write(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            out.write("[]")
            return
        out.write("[\n")
        for i, v in enumerate(obj):
            out.write(pad + "  ")
            _json_write(v, out, indent + 1)
            out.write(",\n" if i + 1 < len(obj) else "\n")
        out.write(pad + "]")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.write("true" if obj else "false")
    elif obj is None:
        out.write("null")
    elif isinstance(obj, (int, np.integer)):
        out.write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.write(fmt(obj))
    elif isinstance(obj, str):
        out.write('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    else:
        raise DomainError(f"cannot serialize {type(obj).__name__} to JSON")


def dump_json(obj, path) -> None:
    with open(path, "w", newline="") as fh:
        _json_write(obj, fh, 0)
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
        first = fh.readline().rstrip("\n")
        grid = None
        if first.startswith("# grid "):
            fields = dict(kv.split("=", 1) for kv in first[len("# grid "):].split())
            grid = {
                "n": int(fields["n"]),
                "dx": float(fields["dx"]),
                "x0": float(fields["x0"]),
                "boundary": fields["boundary"],
            }
            fh.readline()  # column header
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    times = np.array([float(r[0]) for r in rows])
    if grid is None:
        pts = [np.array([float(v) for v in r[1:]]) for r in rows]
    else:
        # 17-digit printing round-trips doubles, so the stored values still
        # satisfy the mass and floor invariants verbatim
        pts = [
            GridDensity(
                np.array([float(v) for v in r[1:]]),
                grid["dx"], grid["x0"], grid["boundary"],
            )
            for r in rows
        ]
    return Curve(times, pts)


def write_profile_csv(profile, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("eps,cost,kinetic,fisher,converged\n")
        for r in profile.rows:
            fh.write(
                f"{fmt(r.eps)},{fmt(r.cost)},{fmt(r.kinetic)},{fmt(r.fisher)},"
                + ("true" if r.converged else "false")
                + "\n"
            )
