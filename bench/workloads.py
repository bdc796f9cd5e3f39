"""The benchmark's workloads: generated INI files plus the checks on their outputs.

Each ``make_*`` function draws its parameters from the benchmark seed,
writes the INI files the CLI runs, and returns a :class:`Workload` whose
``check`` turns one job's exit code, output directory and printed lines into
:class:`Outcome` records.  An outcome is an operation (one solve of a sweep
or solve batch, one certificate) or an output check (closed-form oracle,
``cost_0`` against ``1/2 W2^2``, byte identity of repeated outputs).
Failures are recorded, never raised, and no tolerance depends on the run.
"""

from __future__ import annotations

import csv
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from entrogeo.density1d import GridDensity, w2_distance

from oracles import gaussian_cost, quadratic_well_cost, rel_err

# output-check tolerances; they state what the program promises today and
# are fixed, whatever a run measures
QUAD_ORACLE_TOL = 1e-4   # O(dt^2) time discretization at n_time = 63 is ~3e-5
GAUSS_ORACLE_TOL = 5e-2  # the acceptance gate's Taylor tolerance (criterion 6)
DENSITY_COST0_TOL = 1e-3  # PCHIP quantile sampling vs exact piecewise-linear W2
CIRCLE_ORACLE_TOL = 1e-4

DENSITY_GRID = {"n": 256, "dx": 22.0 / 256, "x0": -10.0}
DENSITY_EPS = "0, 0.025, 0.05, 0.075, 0.1, 0.125, 0.15, 0.175, 0.2"
CIRCLE_GRID = {"n": 64, "dx": 0.25, "x0": -8.0}
SEEDED_SOLVES = 3
N_TIME = 63  # the CLI default


@dataclass
class Outcome:
    kind: str  # "solve", "certificate" or "check"
    name: str
    ok: bool
    detail: str = ""
    oracle_err: Optional[float] = None


@dataclass
class Job:
    name: str
    ini: Path


@dataclass
class Workload:
    jobs: list
    check: Callable  # (job, exit code, output dir, printed text) -> [Outcome]
    params: dict
    sizes: dict
    min_passes: int
    pass_checks: Callable = field(default=lambda: [])  # once per pass, outside the CLI


def write_ini(path: Path, sections: dict) -> Path:
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{k} = {v}" for k, v in keys.items()]
        lines.append("")
    path.write_text("\n".join(lines))
    return path


def _floats(values) -> str:
    return ", ".join(repr(v) for v in values)


# -- output readers ----------------------------------------------------------

def load_json(path: Path):
    """Read a CLI JSON artifact; its 17-digit writer prints inf/nan bare."""
    text = re.sub(r"(?<![\w.])(-?)inf\b", r"\1Infinity", path.read_text())
    return json.loads(re.sub(r"\bnan\b", "NaN", text))


def read_profile(path: Path) -> list:
    with open(path, newline="") as fh:
        return [
            {"eps": float(r["eps"]), "cost": float(r["cost"]),
             "converged": r["converged"] == "true"}
            for r in csv.DictReader(fh)
        ]


_VERDICT = re.compile(r"^(\w+)\s+residual\s+(\S+)\s+tol\s+(\S+)\s+(pass|FAIL)$")


def parse_verdicts(text: str) -> dict:
    """``{property: passed}`` from the lines ``verify`` prints."""
    out = {}
    for line in text.splitlines():
        m = _VERDICT.match(line.strip())
        if m:
            out[m.group(1)] = m.group(4) == "pass"
    return out


def same_outputs(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    return names == sorted(p.name for p in b.iterdir()) and all(
        (a / n).read_bytes() == (b / n).read_bytes() for n in names
    )


def sweep_outcomes(job: str, rc: int, out: Path, cost_0: float, oracle: Callable) -> list:
    """Outcomes of one CLI density sweep.

    ``cost_0`` is the exact ``1/2 W2^2`` of the endpoints; ``oracle(eps, cost,
    cost_0)`` returns the relative error of one positive eps row against its
    closed form.
    """
    rows = read_profile(out / "profile.csv")
    diag = load_json(out / "diagnostics.json")
    res = [Outcome("solve", f"{job} eps={r['eps']:g}", r["converged"],
                   "" if r["converged"] else "not converged") for r in rows]
    for name in ("taylor", "gamma"):
        if name in diag:
            res.append(Outcome("certificate", f"{job} {name}", bool(diag[name]["pass"])))
    want_rc = 0 if all(r["converged"] for r in rows) else 2
    res.append(Outcome("check", f"{job} exit code", rc == want_rc, f"exit {rc}, expected {want_rc}"))
    same = [r["cost"] for r in rows] == [r["cost"] for r in diag["profile"]]
    res.append(Outcome("check", f"{job} csv/json profile agree", same))
    err = rel_err(diag["cost_0"], cost_0)
    res.append(Outcome("check", f"{job} cost_0 vs W2^2/2", err <= DENSITY_COST0_TOL,
                       f"rel err {err:.3e} (tol {DENSITY_COST0_TOL:g})"))
    for r in rows:
        if r["eps"] > 0:
            err = oracle(r["eps"], r["cost"], diag["cost_0"])
            res.append(Outcome("check", f"{job} oracle eps={r['eps']:g}", err <= GAUSS_ORACLE_TOL,
                               f"rel err {err:.3e} (tol {GAUSS_ORACLE_TOL:g})", err))
    return res


# -- density_sweep ------------------------------------------------------------

def make_density_sweep(seed: int, workdir: Path) -> Workload:
    """CLI sweep on the Boltzmann density backend, endpoints drawn around
    the acceptance fixture N(0, 1) -> N(2, 4), then a few seeded cold CLI
    solves in the quadratic well.

    Hessian-model factorization does most of its work, density value_grad,
    PCHIP packing and heat flow most of the rest; the Euclidean solves put
    L-BFGS/Armijo and the Euclidean value_grad on the books.  The circle
    layers do none of it.  The Gaussian closed form exposes the
    quantile-tail bias.
    """
    rng = random.Random(seed)
    m0 = round(rng.uniform(-0.2, 0.2), 4)
    s0 = round(rng.uniform(0.95, 1.05), 4)
    m1 = round(2.0 + rng.uniform(-0.2, 0.2), 4)
    s1 = round(rng.uniform(1.9, 2.1), 4)
    g = DENSITY_GRID
    ini = write_ini(workdir / "sweep.ini", {
        "backend": {"kind": "density", "entropy": "boltzmann", "n": g["n"],
                    "dx": repr(g["dx"]), "x0": repr(g["x0"]), "boundary": "no-flux"},
        "endpoints": {"x": f"gaussian({m0!r}, {s0!r})", "y": f"gaussian({m1!r}, {s1!r})"},
        "run": {"command": "sweep", "eps_list": DENSITY_EPS, "seed": seed},
        "output": {"formats": "csv, json"},
    })
    x = GridDensity.gaussian(m0, s0, g["n"], g["dx"], g["x0"])
    y = GridDensity.gaussian(m1, s1, g["n"], g["dx"], g["x0"])
    cost_0 = 0.5 * w2_distance(x, y) ** 2
    gauss_0 = gaussian_cost(0.0, m0, s0, m1, s1)

    def oracle(eps, cost, solver_cost_0):
        # compare cost_eps - cost_0: the eps = 0 level carries the grid's
        # own truncation and binning, which cost_0 is checked for separately
        return rel_err(cost - solver_cost_0, gaussian_cost(eps, m0, s0, m1, s1) - gauss_0)

    solve_jobs, specs, solve_check = quadratic_solves(rng, seed, workdir)

    def check(job, rc, out, text):
        if job.name == "sweep":
            return sweep_outcomes(job.name, rc, out, cost_0, oracle)
        return solve_check(job, rc, out)

    n_eps = len(DENSITY_EPS.split(","))
    return Workload(
        [Job("sweep", ini)] + solve_jobs, check,
        params={"m0": m0, "s0": s0, "m1": m1, "s1": s1, "eps_list": DENSITY_EPS,
                "quadratic_solves": specs},
        sizes={**g, "eps_values": n_eps, "n_time": N_TIME, "quantile_points": 4 * g["n"],
               "unknowns": N_TIME * 4 * g["n"],
               "quadratic_unknowns": [N_TIME * s["dim"] for s in specs.values()]},
        min_passes=3,
    )


# -- seeded Euclidean solves -------------------------------------------------

def quadratic_solves(rng: random.Random, seed: int, workdir: Path):
    """Seeded cold CLI solves in the quadratic well: jobs, their parameters,
    and the check of one solve's outputs against the closed form.

    They converge at the default tolerance.  The acceptance criterion-10
    sweep is not run: its cold eps = 0.1 solve stalls at the roundoff floor
    for 45-70 s, too long to repeat within a run, and a single pass that
    long spread 0.25-0.28 IQR/median over ten runs on a shared host.
    """
    jobs, specs = [], {}
    for i in range(SEEDED_SOLVES):
        dim = rng.randint(1, 3)
        k = round(rng.uniform(0.5, 2.0), 4)
        # kappa = eps k in [0.88, 0.9]: the discretization error of the
        # oracle comparison grows like kappa^2, so the worst case of a
        # batch stays put from seed to seed
        eps = round(rng.uniform(0.88, 0.9) / k, 6)
        c, x, y = ([round(rng.uniform(-r, r), 4) for _ in range(dim)] for r in (1.0, 2.0, 2.0))
        name = f"solve{i}"
        specs[name] = {"dim": dim, "strength": k, "eps": eps, "center": c, "x": x, "y": y}
        jobs.append(Job(name, write_ini(workdir / f"{name}.ini", {
            "backend": {"kind": "quadratic", "dim": dim, "center": _floats(c), "strength": repr(k)},
            "endpoints": {"x": _floats(x), "y": _floats(y)},
            "run": {"command": "solve", "eps": repr(eps), "seed": seed},
            "output": {"formats": "csv, json"},
        })))

    def check(job, rc, out):
        s = specs[job.name]
        rec = load_json(out / "result.json")
        conv = bool(rec["converged"])
        want_rc = 0 if conv else 2
        err = rel_err(rec["cost"], quadratic_well_cost(s["eps"], s["strength"], s["center"], s["x"], s["y"]))
        return [
            Outcome("solve", job.name, conv, f"stationarity {rec['stationarity']:.4e}"),
            Outcome("check", f"{job.name} exit code", rc == want_rc, f"exit {rc}, expected {want_rc}"),
            Outcome("check", f"{job.name} oracle", err <= QUAD_ORACLE_TOL,
                    f"rel err {err:.3e} (tol {QUAD_ORACLE_TOL:g})", err),
        ]

    return jobs, specs, check


# -- circle_verify ------------------------------------------------------------

def make_circle_verify(seed: int, workdir: Path) -> Workload:
    """CLI verify, every certificate, porous-medium entropy m = 2 on the circle.

    The brute-force circle W2 cut search does most of its work, porous flow
    and circle geodesics the rest; the solver does none.  The seed only
    sets the config seed, which the density certificates do not draw from.
    """
    g = CIRCLE_GRID
    config_seed = seed % 2**32
    ini = write_ini(workdir / "verify.ini", {
        "backend": {"kind": "density", "entropy": "porous_medium", "m": "2", "n": g["n"],
                    "dx": repr(g["dx"]), "x0": repr(g["x0"]), "boundary": "periodic"},
        "run": {"command": "verify", "seed": config_seed},
        "output": {"formats": "json"},
    })
    n, dx, x0 = g["n"], g["dx"], g["x0"]
    L = n * dx
    # a bump 0.06 L wide rotated by a shift that matches no cell edge
    shift = (round(0.1 * n) + 0.37) * dx
    bump = GridDensity.gaussian(x0 + 0.5 * L, 0.06 * L, n, dx, x0, "periodic")
    moved = GridDensity.gaussian(x0 + 0.5 * L + shift, 0.06 * L, n, dx, x0, "periodic")

    def rotation_oracle():
        err = rel_err(w2_distance(bump, moved), shift)
        return [Outcome("check", "circle W2 of a rotation", err <= CIRCLE_ORACLE_TOL,
                        f"rel err {err:.3e} (tol {CIRCLE_ORACLE_TOL:g})", err)]

    def check(job, rc, out, text):
        printed = parse_verdicts(text)
        records = {r["property"]: bool(r["pass"]) for r in load_json(out / "diagnostics.json")}
        res = [Outcome("certificate", name, ok, "" if ok else "FAIL")
               for name, ok in sorted(records.items())]
        want_rc = 0 if all(records.values()) else 2
        res.append(Outcome("check", "verify exit code", rc == want_rc, f"exit {rc}, expected {want_rc}"))
        res.append(Outcome("check", "printed verdicts match diagnostics.json",
                           printed == records and len(records) == 10))
        return res

    return Workload(
        [Job("verify", ini)], check,
        params={"config_seed": config_seed, "entropy": "porous_medium", "m": 2,
                "rotation_oracle_shift": shift},
        sizes={**g, "properties": 10},
        min_passes=2,
        pass_checks=rotation_oracle,
    )


WORKLOADS = {
    "density_sweep": make_density_sweep,
    "circle_verify": make_circle_verify,
}
