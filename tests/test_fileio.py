import json
import math

import numpy as np
import pytest

from entrogeo import Curve, GridDensity
from entrogeo.errors import DomainError
from entrogeo.fileio import (
    density_from_csv,
    density_to_csv,
    dump_json,
    read_curve_csv,
    write_curve_csv,
)


class TestDumpJson:
    RECORD = {
        "values": [math.inf, -math.inf, math.nan, np.float64(0.1), 0.0, 6.421634199116344e-07],
        "passed": np.bool_(True),
        "half": np.float32(0.5),
        "samples": np.int64(7),
        "empty": {},
        "none": [],
    }

    def test_layout(self, tmp_path):
        path = tmp_path / "r.json"
        dump_json(self.RECORD, path)
        assert path.read_text() == (
            '{\n'
            '  "empty": {},\n'
            '  "half": 0.5,\n'
            '  "none": [],\n'
            '  "passed": true,\n'
            '  "samples": 7,\n'
            '  "values": [\n'
            '    Infinity,\n'
            '    -Infinity,\n'
            '    NaN,\n'
            '    0.1,\n'
            '    0.0,\n'
            '    6.421634199116344e-07\n'
            '  ]\n'
            '}\n'
        )

    def test_json_loads_reads_the_values_back(self, tmp_path):
        path = tmp_path / "r.json"
        dump_json(self.RECORD, path)
        back = json.loads(path.read_text())
        inf, ninf, nan, tenth, zero, small = back["values"]
        assert inf == math.inf and ninf == -math.inf and math.isnan(nan)
        assert tenth == 0.1 and small == 6.421634199116344e-07
        # a float zero stays a float
        assert type(zero) is float and zero == 0.0
        assert back["passed"] is True and back["half"] == 0.5
        assert type(back["samples"]) is int and back["samples"] == 7

    @pytest.mark.parametrize("value", [object(), 1j, np.complex128(1j)],
                             ids=["object", "complex", "numpy-complex"])
    def test_unserializable_value_raises(self, tmp_path, value):
        with pytest.raises(DomainError, match="cannot serialize"):
            dump_json({"x": value}, tmp_path / "r.json")


class TestCurveCsv:
    def test_euclidean_curve_round_trips_exactly(self, tmp_path):
        rng = np.random.default_rng(3)
        curve = Curve(np.linspace(0.0, 1.0, 5), list(rng.standard_normal((5, 1)) / 3.0))
        path = tmp_path / "curve.csv"
        write_curve_csv(curve, path)
        back = read_curve_csv(path)
        assert back.times.tolist() == curve.times.tolist()
        assert [p.tolist() for p in back.points] == [p.tolist() for p in curve.points]
        again = tmp_path / "again.csv"
        write_curve_csv(back, again)
        assert path.read_bytes() == again.read_bytes()


class TestDensityCsv:
    def test_seventeen_digits(self, tmp_path):
        d = GridDensity(np.array([0.3, 0.7, 1.1]), 0.2, x0=0.1, normalize=True)
        path = tmp_path / "d.csv"
        density_to_csv(d, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,rho"
        assert lines[1] == f"{d.centers[0]:.17g},{d.rho[0]:.17g}"
        back = density_from_csv(path)
        assert back.rho == pytest.approx(d.rho, rel=1e-15)
        assert (back.dx, back.x0) == pytest.approx((d.dx, d.x0), rel=1e-15)

    @pytest.mark.parametrize("text, message", [
        ("x,rho\n0.5,1\n", "two columns of at least two rows"),
        ("x\n0.5\n1.5\n", "two columns of at least two rows"),
        ("x,rho,w\n0.5,1,0\n1.5,1,0\n", "two columns of at least two rows"),
        ("x,rho\n0.5,1\n1.5,1\n3.5,1\n", "uniform and increasing"),
        ("x,rho\n1.5,1\n0.5,1\n", "uniform and increasing"),
        # a NaN past the second row used to pass the uniform-grid test
        ("x,rho\n0.5,1\n1.5,1\nnan,1\n", "cell centres must be finite"),
        ("x,rho\nnan,1\n1.5,1\n2.5,1\n", "cell centres must be finite"),
        ("x,rho\n0.5,1\n1.5,1\ninf,1\n", "cell centres must be finite"),
    ], ids=["one-row", "one-column", "three-columns", "non-uniform", "decreasing",
            "nan-last", "nan-first", "inf"])
    def test_malformed_file_rejected(self, tmp_path, text, message):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(DomainError, match=message):
            density_from_csv(path)

    @pytest.mark.parametrize("value", ["-0.5", "-1e-300", "nan"])
    def test_negative_density_rejected(self, tmp_path, value):
        # normalize=True used to clamp the cell onto the floor, and the
        # file loaded as rho = [0.5, 1e-12, 0.5]
        path = tmp_path / "d.csv"
        path.write_text(f"x,rho\n0.5,1\n1.5,{value}\n2.5,1\n")
        with pytest.raises(DomainError, match=r"rho must be nonnegative, got .* at x = 1\.5"):
            density_from_csv(path)

    def test_zero_cells_load(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,rho\n0.5,1\n1.5,0\n2.5,1\n")
        assert density_from_csv(path).rho[0] == pytest.approx(0.5)
