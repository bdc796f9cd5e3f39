import json
import re
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import entrogeo
from entrogeo.cli import main
from entrogeo.config import load_config
from entrogeo.errors import ConfigError
from entrogeo.density1d import DENSITY_FLOOR
from entrogeo.fileio import fmt, read_curve_csv
from entrogeo.solver import _DensityProblem


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


QUAD_SOLVE = """
[backend]
kind = quadratic
dim = 1
center = 0
strength = 1

[endpoints]
x = 1
y = 2

[run]
command = solve
eps = 0.1
seed = 0

[output]
directory = out
"""

QUAD_SWEEP = """
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
eps_list = 0, 0.05, 0.1, 0.15
seed = 0

[output]
directory = out
"""

DENSITY_SOLVE = """
[backend]
kind = density
entropy = boltzmann
n = 128
dx = 0.171875
x0 = -10

[endpoints]
x = gaussian(0, 1)
y = gaussian(2, 1)

[run]
command = solve
eps = 0.1
n_time = 31
seed = 0

[output]
directory = out
"""


# n = 256 makes the descent vectors about 16k entries long, past the length
# at which a threaded BLAS splits a dot product among its threads
DENSITY_SWEEP = """
[backend]
kind = density
entropy = boltzmann
n = 256
dx = 0.0859375
x0 = -10

[endpoints]
x = gaussian(-0.1463, 1.0347)
y = gaussian(2.1055, 1.951)

[run]
command = sweep
eps_list = 0, 0.05, 0.075, 0.1, 0.125
seed = 0

[output]
formats = csv, json
"""

_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


CIRCLE_VERIFY = """
[backend]
kind = density
entropy = porous_medium
m = 2
n = 64
dx = 0.25
x0 = -8
boundary = periodic

[run]
command = verify
seed = 1
"""

QUAD_VERIFY = """
[backend]
kind = quadratic
dim = 2

[run]
command = verify
seed = 4
"""


class TestSolveCommand:
    def test_quadratic_happy_path(self, tmp_path):
        cfg = write_config(tmp_path, QUAD_SOLVE)
        assert main([cfg]) == 0
        result = json.loads((tmp_path / "out" / "result.json").read_text())
        assert result["converged"] is True
        assert result["cost"] == pytest.approx(result["kinetic"] + 0.01 * result["fisher"])
        curve = read_curve_csv(tmp_path / "out" / "curve.csv")
        assert curve.points[0][0] == 1.0 and curve.points[-1][0] == 2.0

    def test_density_happy_path(self, tmp_path):
        cfg = write_config(tmp_path, DENSITY_SOLVE)
        assert main([cfg]) == 0
        curve = read_curve_csv(tmp_path / "out" / "curve.csv")
        assert curve.times.size == 33

    def test_negative_eps_exits_1(self, tmp_path, capsys):
        for eps in ("-1", "nan", "inf"):
            cfg = write_config(tmp_path, QUAD_SOLVE.replace("eps = 0.1", f"eps = {eps}"))
            assert main([cfg]) == 1
            assert "eps" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [QUAD_SOLVE, DENSITY_SOLVE], ids=["quadratic", "density"])
    @pytest.mark.parametrize("eps, msg", [("1e-300", "eps = 1e-300 is too small"),
                                          ("1e155", "eps = 1e+155 is too large")])
    def test_eps_whose_square_leaves_the_floats_exits_1(self, tmp_path, capsys, text, eps, msg):
        # a ZeroDivisionError (1e-300) or OverflowError (1e155) used to end
        # the command in a traceback
        cfg = write_config(tmp_path, text.replace("eps = 0.1", f"eps = {eps}"))
        assert main([cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {msg}") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_cold_start_flow_past_the_substep_count_exits_1(self, tmp_path, capsys):
        # the tent flow of the cold start at eps = 1e150 needs about 1e151
        # substeps, which used to raise OverflowError; at eps = 1e12 it needs
        # about 1e13, which used to run without end
        for eps in ("1e150", "1e12"):
            cfg = write_config(tmp_path, DENSITY_SOLVE.replace("eps = 0.1", f"eps = {eps}"))
            start = time.perf_counter()
            assert main([cfg]) == 1
            assert time.perf_counter() - start < 10.0
            err = capsys.readouterr().err
            assert err.startswith("error: flow time ") and "needs more than 1048576 substeps" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("text, old, new, key", [
        (QUAD_SWEEP, "eps_list = 0, 0.05", "eps_list = 0, nan", "eps_list"),
        (QUAD_SWEEP, "eps_list = 0, 0.05", "eps_list = 0, inf", "eps_list"),
        (QUAD_SOLVE, "center = 0", "center = nan", "center"),
        (QUAD_SOLVE, "x = 1", "x = -inf", "x"),
        (DENSITY_SOLVE, "gaussian(0, 1)", "gaussian(0, nan)", "gaussian"),
        (QUAD_SOLVE, "seed = 0", "seed = 0\ngrad_tol = inf", "grad_tol"),
    ], ids=["eps_list-nan", "eps_list-inf", "center", "endpoint", "preset", "tolerance"])
    def test_non_finite_number_exits_1(self, tmp_path, capsys, text, old, new, key):
        assert old in text
        cfg = write_config(tmp_path, text.replace(old, new))
        assert main([cfg]) == 1
        err = capsys.readouterr().err
        assert key in err and "not a finite number" in err

    @pytest.mark.parametrize("qp", ["0", "1", "2", "-5"])
    def test_too_few_quantile_points_exits_1(self, tmp_path, capsys, qp):
        text = DENSITY_SOLVE.replace("n_time = 31", f"n_time = 31\nquantile_points = {qp}")
        assert main([write_config(tmp_path, text)]) == 1
        err = capsys.readouterr().err
        assert "[run] quantile_points must be at least 3" in err

    def test_absent_grid_keys_leave_the_solver_default(self, tmp_path):
        # an absent n_time or quantile_points is None, the default grid of
        # the backend; a given one is kept as it is
        opts = load_config(write_config(tmp_path, DENSITY_SOLVE.replace("n_time = 31\n", "")))
        assert (opts.solver_options.n_time, opts.solver_options.quantile_points) == (None, None)
        text = DENSITY_SOLVE.replace("n_time = 31", "n_time = 63\nquantile_points = 128")
        opts = load_config(write_config(tmp_path, text)).solver_options
        assert (opts.n_time, opts.quantile_points) == (63, 128)

    def test_unknown_key_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, QUAD_SOLVE.replace("strength = 1", "strength = 1\nbogus = 2"))
        assert main([cfg]) == 1
        assert "bogus" in capsys.readouterr().err
        # a key that chose or loosened verify's certificates: verify runs
        # every certificate at its fixed tolerance
        for key in ("properties", "tolerance_evi"):
            cfg = write_config(tmp_path, QUAD_VERIFY.replace("seed = 4", f"seed = 4\n{key} = 1"))
            assert main([cfg]) == 1
            assert capsys.readouterr().err == f"error: [run] unknown key {key!r}\n"

    def test_floor_key_is_unknown(self, tmp_path, capsys):
        assert load_config(write_config(tmp_path, DENSITY_SOLVE)).grid == (
            128, 0.171875, -10.0, "no-flux")
        cfg = write_config(tmp_path, DENSITY_SOLVE.replace("x0 = -10", "x0 = -10\nfloor = 1e-12"))
        assert main([cfg]) == 1
        assert "unknown key 'floor'" in capsys.readouterr().err

    @pytest.mark.parametrize("text, line", [
        (QUAD_SOLVE, "n = 64"), (QUAD_SOLVE, "entropy = boltzmann"), (QUAD_SOLVE, "m = 2"),
        (DENSITY_SOLVE, "strength = 2"), (DENSITY_SOLVE, "m = 2"), (DENSITY_SOLVE, "dim = 2"),
    ], ids=["quadratic-n", "quadratic-entropy", "quadratic-m", "boltzmann-strength",
            "boltzmann-m", "boltzmann-dim"])
    def test_unread_backend_key_exits_1(self, tmp_path, capsys, text, line):
        # a known key that the chosen kind or entropy does not read used to
        # be ignored without a word
        key = line.split()[0]
        cfg = write_config(tmp_path, text.replace("[backend]\n", f"[backend]\n{line}\n"))
        msg = re.escape(f"[backend] {key}: not read with kind = ")
        with pytest.raises(ConfigError, match=msg):
            load_config(cfg)
        assert main([cfg]) == 1
        assert "Traceback" not in capsys.readouterr().err

    def test_forced_non_convergence_exits_2(self, tmp_path):
        cfg = write_config(
            tmp_path,
            QUAD_SOLVE.replace("eps = 0.1", "eps = 0.3\nmax_iter = 1\ngrad_tol = 1e-14"),
        )
        assert main([cfg]) == 2
        result = json.loads((tmp_path / "out" / "result.json").read_text())
        assert result["converged"] is False

    def test_failed_model_factorization_exits_1(self, tmp_path, capsys, monkeypatch):
        def negative_bands(self, Qs):
            rows = Qs.shape[0]
            return -1e9 * np.ones(Qs.shape), np.zeros((rows, self.m - 1)), np.zeros((rows, self.m - 2))

        monkeypatch.setattr(_DensityProblem, "_fisher_gn_bands", negative_bands)
        assert main([write_config(tmp_path, DENSITY_SOLVE)]) == 1
        err = capsys.readouterr().err
        # the default grid of n = 128 cells: m = 5n/4 quantile nodes
        assert err.startswith("error: density model (m = 160 quantile nodes, 31 time nodes)")
        assert "not positive definite" in err

    @pytest.mark.parametrize("cell", ["300", "-1", "2.7"])
    def test_point_mass_off_the_grid_exits_1(self, tmp_path, capsys, cell):
        text = DENSITY_SOLVE.replace("x = gaussian(0, 1)", f"x = point_mass({cell})")
        assert main([write_config(tmp_path, text)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "point mass cell" in err

    def test_gaussian_with_no_mass_on_the_grid_exits_1(self, tmp_path, capsys):
        # sigma far below dx leaves every cell under the floor
        text = DENSITY_SOLVE.replace("x = gaussian(0, 1)", "x = gaussian(0, 0.001)")
        assert main([write_config(tmp_path, text)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no cell above the floor" in err

    def test_uniform_with_arguments_exits_1(self, tmp_path, capsys):
        text = DENSITY_SOLVE.replace("x = gaussian(0, 1)", "x = uniform(5, 7)")
        assert main([write_config(tmp_path, text)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "uniform" in err

    @pytest.mark.parametrize("preset", ["uniform", "uniform()"])
    def test_uniform_without_arguments_loads(self, tmp_path, preset):
        text = DENSITY_SOLVE.replace("x = gaussian(0, 1)", f"x = {preset}")
        cfg = load_config(write_config(tmp_path, text))
        assert np.all(cfg.x.rho == cfg.x.rho[0])

    def test_missing_config_exits_1(self, tmp_path):
        assert main([str(tmp_path / "nope.ini")]) == 1

    @pytest.mark.parametrize("args", [[], ["--bogus", "1"], ["--seed", "3"], ["--seed", "x"]],
                             ids=["no-config", "unknown-flag", "seed", "seed-not-int"])
    def test_usage_error_exits_1(self, tmp_path, capsys, args):
        # 2 means a solve did not converge or a certificate failed
        cfg = [write_config(tmp_path, QUAD_VERIFY)] if args else []
        assert main(cfg + args) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: entrogeo") and "error:" in err

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: entrogeo")


class TestSweepCommand:
    def test_quadratic_sweep_outputs(self, tmp_path):
        cfg = write_config(tmp_path, QUAD_SWEEP)
        assert main([cfg]) == 0
        profile = (tmp_path / "out" / "profile.csv").read_text().splitlines()
        assert profile[0] == "eps,cost,kinetic,fisher,converged"
        assert len(profile) == 5
        diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        assert diag["taylor"]["pass"] is True
        assert diag["gamma"]["pass"] is True
        assert diag["fisher_monotonicity_violation"] <= 1e-6

    def test_zero_row_is_optional(self, tmp_path):
        # the sweep solves eps = 0 itself, so the 0 row changes no diagnostic
        diags = []
        for name, text in (("with", QUAD_SWEEP),
                           ("without", QUAD_SWEEP.replace("eps_list = 0, ", "eps_list = "))):
            assert main([write_config(tmp_path, text), "--output", str(tmp_path / name)]) == 0
            diags.append(json.loads((tmp_path / name / "diagnostics.json").read_text()))
        with_zero, without_zero = diags
        assert len(with_zero["profile"]) == 4 and len(without_zero["profile"]) == 3
        for key in ("taylor", "gamma", "cost_0", "fisher_0"):
            assert without_zero[key] == with_zero[key]

    def test_taylor_key_is_unknown(self, tmp_path, capsys):
        cfg = write_config(tmp_path, QUAD_SWEEP.replace("seed = 0", "seed = 0\ntaylor = false"))
        assert main([cfg]) == 1
        assert "unknown key 'taylor'" in capsys.readouterr().err

    @pytest.mark.parametrize("eps_list, msg", [
        ("0.1, 0.05, 0.1", "distinct"), ("0, -0.1", "finite and nonnegative"), (",", "nonempty"),
    ], ids=["repeat", "negative", "empty"])
    def test_eps_list_rule_of_the_library_sweep(self, tmp_path, capsys, eps_list, msg):
        cfg = write_config(tmp_path, QUAD_SWEEP.replace("eps_list = 0, 0.05, 0.1, 0.15",
                                                        f"eps_list = {eps_list}"))
        assert main([cfg]) == 1
        err = capsys.readouterr().err
        assert "[run] eps_list: eps" in err and f"must be {msg}" in err

    def test_zero_only_sweep(self, tmp_path):
        cfg = write_config(tmp_path, QUAD_SWEEP.replace("eps_list = 0, 0.05, 0.1, 0.15",
                                                        "eps_list = 0"))
        assert main([cfg]) == 0
        diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        assert len(diag["profile"]) == 1
        assert "taylor" not in diag and "gamma" not in diag
        assert len((tmp_path / "out" / "profile.csv").read_text().splitlines()) == 2

    def test_profile_records_are_solve_records(self, tmp_path):
        assert main([write_config(tmp_path, QUAD_SWEEP)]) == 0
        assert main([write_config(tmp_path, QUAD_SOLVE, "solve.ini"),
                     "--output", str(tmp_path / "solve")]) == 0
        result = json.loads((tmp_path / "solve" / "result.json").read_text())
        keys = list(result)
        diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        assert all(list(rec) == keys for rec in diag["profile"])
        assert "iterations" in keys and "stationarity" in keys
        # the cold solve factors its model; the sweep's chain factors one
        # for eps = 0.15 and none below, and eps = 0 is closed form
        assert result["model_builds"] == 1
        assert [rec["model_builds"] for rec in diag["profile"]] == [0, 0, 0, 1]

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, QUAD_SWEEP)
        assert main([cfg, "--output", str(tmp_path / "a")]) == 0
        assert main([cfg, "--output", str(tmp_path / "b")]) == 0
        for name in ("profile.csv", "diagnostics.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.skipif(_CORES < 2, reason="BLAS runs one thread on one core")
    def test_same_bytes_at_any_blas_thread_count(self, tmp_path):
        cfg = write_config(tmp_path, DENSITY_SWEEP)
        src = str(Path(entrogeo.__file__).resolve().parents[1])
        default = {k: v for k, v in os.environ.items()
                   if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        default["PYTHONPATH"] = os.pathsep.join(filter(None, [src, default.get("PYTHONPATH")]))
        one = dict(default, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        for name, env in (("default", default), ("one", one)):
            subprocess.run([sys.executable, "-m", "entrogeo.cli", cfg,
                            "--output", str(tmp_path / name)],
                           env=env, check=True, capture_output=True, timeout=600)
        for name in ("profile.csv", "diagnostics.json"):
            assert ((tmp_path / "default" / name).read_bytes()
                    == (tmp_path / "one" / name).read_bytes())


class TestVerifyCommand:
    def test_quadratic_suite_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, """
[backend]
kind = quadratic
dim = 2

[run]
command = verify
seed = 0
""")
        assert main([cfg, "--output", str(tmp_path / "out")]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 10
        assert all("pass" in ln for ln in lines)
        records = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        assert all(set(r) == {"property", "worst_residual", "samples", "pass"} for r in records)

    def test_circle_density_suite_passes(self, tmp_path, capsys):
        # porous medium m = 2 on the benchmark's circle grid
        cfg = write_config(tmp_path, """
[backend]
kind = density
entropy = porous_medium
m = 2
n = 64
dx = 0.25
x0 = -8
boundary = periodic

[run]
command = verify
seed = 0
""")
        assert main([cfg, "--output", str(tmp_path / "out")]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 10
        assert all(ln.endswith("pass") for ln in lines)

    def test_unknown_property_exits_1(self, tmp_path, capsys):
        # [run] properties no longer chooses certificates: any value of it,
        # known property name or not, is an unknown key
        cfg = write_config(tmp_path, """
[backend]
kind = quadratic
dim = 2

[run]
command = verify
properties = wibble
""")
        assert main([cfg]) == 1
        assert capsys.readouterr().err == "error: [run] unknown key 'properties'\n"

    def test_negative_seed_rejected(self, tmp_path, capsys):
        text = QUAD_VERIFY.replace("seed = 4", "seed = -3")
        with pytest.raises(ConfigError, match="seed"):
            load_config(write_config(tmp_path, text))
        assert main([write_config(tmp_path, text)]) == 1
        assert capsys.readouterr().err.startswith("error: [run] seed")

    def test_zero_tolerance_fails(self, tmp_path, capsys, monkeypatch):
        from entrogeo import cli

        cert, quad_tol, density_tol = cli._CERTIFICATES["discrete_estimate"]
        monkeypatch.setitem(cli._CERTIFICATES, "discrete_estimate", (cert, 0.0, density_tol))
        assert main([write_config(tmp_path, QUAD_VERIFY), "--output", str(tmp_path / "out")]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert [ln.split()[0] for ln in lines if ln.endswith("FAIL")] == ["discrete_estimate"]
        records = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        assert [r["property"] for r in records if not r["pass"]] == ["discrete_estimate"]

    @pytest.mark.parametrize("strength", [10, 100, 1000])
    def test_stiff_well_passes_on_its_time_scale(self, tmp_path, capsys, strength):
        # the sample times scale with 1 / lam: on the unit scale evi and ede
        # fail from lam = 10, and regularization overflows from lam = 300
        text = QUAD_VERIFY.replace("dim = 2", f"dim = 2\nstrength = {strength}")
        assert main([write_config(tmp_path, text), "--output", str(tmp_path / "out")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 10 and all(ln.endswith("pass") for ln in lines)

    @pytest.mark.parametrize("dim, center", [("0", ""), ("-2", "0")], ids=["empty", "negative"])
    @pytest.mark.parametrize("text", [QUAD_SOLVE, QUAD_VERIFY], ids=["solve", "verify"])
    def test_well_without_coordinates_exits_1(self, tmp_path, capsys, text, dim, center):
        # a well with no coordinates would solve to cost 0 and pass every
        # certificate
        text = re.sub(r"dim = \d", f"dim = {dim}\ncenter = {center}", text.replace("center = 0\n", ""))
        assert main([write_config(tmp_path, text), "--output", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert "[backend] dim: must be at least 1" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_very_stiff_well_fails_without_traceback(self, tmp_path, capsys):
        # at lam = 1e4 the central difference of evi meets roundoff: a
        # failed certificate, not an OverflowError
        text = QUAD_VERIFY.replace("dim = 2", "dim = 2\nstrength = 1e4")
        assert main([write_config(tmp_path, text), "--output", str(tmp_path / "out")]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert [ln.split()[0] for ln in lines if ln.endswith("FAIL")] == ["evi"]

    @pytest.mark.parametrize("text", [QUAD_VERIFY, CIRCLE_VERIFY], ids=["quadratic", "circle"])
    def test_pointwise_samples_count_the_nodes_evaluated(self, tmp_path, monkeypatch, text):
        from entrogeo import regularizer

        evaluated = []
        inner = regularizer.pointwise_estimate_residuals

        def counting(backend, reg, nodes):
            evaluated.append(len(nodes))
            return inner(backend, reg, nodes)

        monkeypatch.setattr(regularizer, "pointwise_estimate_residuals", counting)
        assert main([write_config(tmp_path, text), "--output", str(tmp_path / "out")]) == 0
        (record,) = [r for r in json.loads((tmp_path / "out" / "diagnostics.json").read_text())
                     if r["property"] == "pointwise_estimate"]
        assert len(evaluated) == 1 and record["samples"] == evaluated[0]


class TestCsvEndpoints:
    def test_density_endpoint_from_csv(self, tmp_path):
        from entrogeo import GridDensity
        from entrogeo.fileio import density_to_csv

        n, dx, x0 = 128, 0.171875, -10.0
        density_to_csv(GridDensity.gaussian(0.1, 1.1, n, dx, x0),
                       tmp_path / "start.csv")
        cfg = write_config(tmp_path, DENSITY_SOLVE.replace(
            "x = gaussian(0, 1)", "x = csv:start.csv"))
        assert main([cfg]) == 0

    def test_density_endpoint_with_a_nan_centre_exits_1(self, tmp_path, capsys):
        from entrogeo import GridDensity
        from entrogeo.fileio import density_to_csv

        path = tmp_path / "start.csv"
        density_to_csv(GridDensity.gaussian(0.1, 1.1, 128, 0.171875, -10.0), path)
        lines = path.read_text().splitlines()
        lines[50] = "nan," + lines[50].split(",")[1]
        path.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path, DENSITY_SOLVE.replace(
            "x = gaussian(0, 1)", "x = csv:start.csv"))
        assert main([cfg]) == 1
        err = capsys.readouterr().err
        assert "cell centres must be finite" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_density_endpoint_with_a_negative_cell_exits_1(self, tmp_path, capsys):
        from entrogeo import GridDensity
        from entrogeo.fileio import density_to_csv

        path = tmp_path / "start.csv"
        density_to_csv(GridDensity.gaussian(0.1, 1.1, 128, 0.171875, -10.0), path)
        lines = path.read_text().splitlines()
        lines[50] = lines[50].split(",")[0] + ",-0.01"
        path.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path, DENSITY_SOLVE.replace(
            "x = gaussian(0, 1)", "x = csv:start.csv"))
        assert main([cfg]) == 1
        err = capsys.readouterr().err
        assert "rho must be nonnegative, got -0.01" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestCurveRoundTrip:
    def test_density_curve_round_trips_exactly(self, tmp_path):
        cfg = write_config(tmp_path, DENSITY_SOLVE)
        assert main([cfg]) == 0
        path = tmp_path / "out" / "curve.csv"
        assert path.read_text().splitlines()[0] == (
            f"# grid n=128 dx=0.171875 x0=-10 boundary=no-flux floor={fmt(DENSITY_FLOOR)}")
        curve = read_curve_csv(path)
        from entrogeo.fileio import write_curve_csv

        again = tmp_path / "again.csv"
        write_curve_csv(curve, again)
        assert path.read_bytes() == again.read_bytes()
