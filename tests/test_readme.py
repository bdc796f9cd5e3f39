"""The README's two examples run as printed, and its install line is true.

The ``python`` block runs in a fresh interpreter on the package source and
must print the Taylor limit estimate of its sweep, close to the closed form
``I_0 = 1/(2 s0 s1) = 0.25``.  The ``ini`` block runs through the CLI.  The
setuptools floor the README names is the one ``pyproject.toml`` builds with.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from entrogeo.cli import main

ROOT = Path(__file__).resolve().parents[1]


def readme_block(lang):
    blocks = re.findall(rf"^```{lang}\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1, f"README has {len(blocks)} {lang} blocks"
    return blocks[0]


def test_python_example(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", readme_block("python")], cwd=tmp_path,
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert float(run.stdout.splitlines()[-1]) == pytest.approx(0.25, rel=0.01)


def test_ini_example(tmp_path):
    ini = tmp_path / "experiment.ini"
    ini.write_text(readme_block("ini"))
    assert main([str(ini)]) == 0
    assert (tmp_path / "out" / "profile.csv").is_file()
    assert (tmp_path / "out" / "diagnostics.json").is_file()


def test_setuptools_floor_matches_the_build_requirement():
    # parsed by pattern: tomllib is not in Python 3.10, the declared floor
    requires = re.search(r"^\[build-system\]\nrequires = \[(.*)\]$",
                         (ROOT / "pyproject.toml").read_text(), re.MULTILINE).group(1)
    floors = re.findall(r"setuptools>=([0-9.]+)", (ROOT / "README.md").read_text())
    assert floors and set(floors) == set(re.findall(r'"setuptools>=([0-9.]+)"', requires))
