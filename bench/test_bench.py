"""Self-tests of the benchmark's oracles, output parsers and span arithmetic.

Run with ``python3 -m pytest -q bench/test_bench.py`` from the repository root.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
from oracles import gaussian_cost, quadratic_well_cost  # noqa: E402
from workloads import load_json, parse_verdicts, read_profile, same_outputs  # noqa: E402

GL_X, GL_W = np.polynomial.legendre.leggauss(200)
T, W = 0.5 * (GL_X + 1.0), 0.5 * GL_W


def test_quadratic_oracle_tends_to_half_squared_distance():
    x, y, c = np.array([1.0, -0.5]), np.array([0.3, 2.0]), np.array([0.2, 0.1])
    half_d2 = 0.5 * float((x - y) @ (x - y))
    assert quadratic_well_cost(0.0, 1.3, c, x, y) == half_d2
    assert quadratic_well_cost(1e-8, 1.3, c, x, y) == pytest.approx(half_d2, rel=1e-12)


def test_quadratic_oracle_is_the_action_of_the_exact_path():
    # x(t) - c = (a sinh(kappa (1-t)) + b sinh(kappa t)) / sinh(kappa)
    eps, k, c, x, y = 0.7, 1.5, 0.4, -1.0, 2.0
    kap = eps * k
    a, b = x - c, y - c
    path = (a * np.sinh(kap * (1 - T)) + b * np.sinh(kap * T)) / np.sinh(kap)
    vel = kap * (-a * np.cosh(kap * (1 - T)) + b * np.cosh(kap * T)) / np.sinh(kap)
    action = float(np.sum(W * (0.5 * vel**2 + 0.5 * eps**2 * (k * path) ** 2)))
    assert quadratic_well_cost(eps, k, [c], [x], [y]) == pytest.approx(action, rel=1e-12)


def test_gaussian_oracle_at_eps_zero_is_half_w2_squared():
    m0, s0, m1, s1 = 0.1, 1.2, 2.3, 1.9
    assert gaussian_cost(0.0, m0, s0, m1, s1) == pytest.approx(
        0.5 * ((m1 - m0) ** 2 + (s1 - s0) ** 2), rel=1e-14)


@pytest.mark.parametrize("s0,s1", [(1.0, 2.0), (0.8, 1.7)])
def test_gaussian_oracle_eps_squared_slope(s0, s1):
    eps = 1e-4
    slope = (gaussian_cost(eps, 0.0, s0, 2.0, s1) - gaussian_cost(0.0, 0.0, s0, 2.0, s1)) / eps**2
    assert slope == pytest.approx(1.0 / (2.0 * s0 * s1), rel=1e-6)
    if (s0, s1) == (1.0, 2.0):
        assert slope == pytest.approx(0.25, rel=1e-6)


def test_gaussian_oracle_is_the_action_of_its_path():
    # the sd path s = sqrt(w) must reach the cost through the action
    # s'^2 / 2 + eps^2 / (2 s^2) (the mean part is (m1 - m0)^2 / 2)
    eps, s0, s1 = 0.3, 1.0, 2.0
    C = 0.5 * (s0**2 + s1**2) - math.sqrt(s0**2 * s1**2 + eps**2)
    w = s0**2 + (s1**2 - s0**2 - 2 * C) * T + 2 * C * T**2
    dw = (s1**2 - s0**2 - 2 * C) + 4 * C * T
    action = float(np.sum(W * (dw**2 / (8 * w) + eps**2 / (2 * w))))
    assert gaussian_cost(eps, 0.0, s0, 0.0, s1) == pytest.approx(action, rel=1e-12)


def test_parse_verdicts_reads_the_cli_lines():
    lines = [
        f"{name:22s} residual {r: .3e}  tol {tol:.1e}  {status}"
        for name, r, tol, status in (("evi", -4.378e-2, 5e-3, "pass"),
                                     ("slope_monotonicity", 2e-6, 1e-6, "FAIL"))
    ]
    assert parse_verdicts("\n".join(lines + ["noise"])) == {
        "evi": True, "slope_monotonicity": False}


def test_output_readers(tmp_path):
    (tmp_path / "d.json").write_text('{"a": inf, "b": [-inf, nan], "c": 1.5e-07}\n')
    d = load_json(tmp_path / "d.json")
    assert d["a"] == math.inf and d["b"][0] == -math.inf and math.isnan(d["b"][1])
    assert d["c"] == 1.5e-07
    (tmp_path / "p.csv").write_text(
        "eps,cost,kinetic,fisher,converged\n0,0.5,0.5,1.1,true\n0.1,0.51,0.5,1.1,false\n")
    assert read_profile(tmp_path / "p.csv") == [
        {"eps": 0.0, "cost": 0.5, "converged": True},
        {"eps": 0.1, "cost": 0.51, "converged": False},
    ]


def test_same_outputs(tmp_path):
    for d in ("a", "b", "c"):
        (tmp_path / d).mkdir()
        (tmp_path / d / "x.csv").write_text("1\n")
    (tmp_path / "c" / "x.csv").write_text("2\n")
    assert same_outputs(tmp_path / "a", tmp_path / "b")
    assert not same_outputs(tmp_path / "a", tmp_path / "c")


def test_tracer_records_nesting_and_self_time():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda: sum(range(1000)), "inner")
    outer = tracer.wrap(lambda: [inner() for _ in range(3)], "outer")
    tracer.job = "j"
    outer()
    names = [s[spans.NAME] for s in tracer.spans]
    assert names == ["outer", "inner", "inner", "inner"]
    assert [s[spans.PARENT] for s in tracer.spans] == [-1, 0, 0, 0]
    calls, secs = spans.self_times(tracer.spans)
    assert calls == {"outer": 1, "inner": 3}
    outer_dur = tracer.spans[0][spans.END] - tracer.spans[0][spans.START]
    assert secs["outer"] + secs["inner"] == pytest.approx(outer_dur, rel=1e-9)


def test_self_times_subtract_only_direct_children():
    s = [["a", 0.0, 10.0, -1, "", None], ["b", 1.0, 5.0, 0, "", None],
         ["c", 2.0, 3.0, 1, "", None]]
    calls, secs = spans.self_times(s)
    assert secs == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_tracer_install_and_uninstall_restore_entrogeo():
    import entrogeo
    import entrogeo.cli
    from entrogeo import cost_analysis, solver

    orig = solver.solve
    tracer = spans.Tracer()
    assert tracer.install(entrogeo) == []
    try:
        assert solver.solve is not orig and cost_analysis.solve is solver.solve
        assert entrogeo.cli.solve is solver.solve
    finally:
        tracer.uninstall()
    assert solver.solve is orig and cost_analysis.solve is orig


def test_benchmark_json_names_every_reported_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    reported = list(spans.LAYER_METRICS) + [
        "solver.evaluations", "solver.iterations", "solver.accept_ratio",
        "trace.spans", "trace.wall_s", "trace.overhead_s"]
    assert layers == {name: run.layer_unit(name) for name in reported}
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)


def test_arguments_are_checked():
    with pytest.raises(SystemExit):
        run.parse_args(["--workload", "nope", "--seed", "1", "--seconds", "1"])
    a = run.parse_args(["--workload", "circle_verify", "--seed", "3", "--seconds", "2", "--trace", "1"])
    assert (a.workload, a.seed, a.seconds, a.trace) == ("circle_verify", 3, 2.0, 1)


def test_install_reports_targets_the_package_lacks(monkeypatch):
    import entrogeo

    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + [
        ("solver", "gone", "solver.gone"), ("solver", "NoClass.method", "solver.gone")])
    tracer = spans.Tracer()
    try:
        assert tracer.install(entrogeo) == ["solver.gone", "solver.NoClass.method"]
    finally:
        tracer.uninstall()
