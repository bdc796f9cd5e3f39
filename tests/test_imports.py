"""The CLI and the density layers load neither scipy.sparse nor scipy.interpolate.

Both subpackages are heavy to import, and every CLI run would pay for them
before doing any work.  The check runs in a fresh interpreter, after a CLI
import, one heat flow, one porous-medium flow and a small density solve.
Modules that ``scipy.linalg`` itself loads are not counted: older scipy
releases import scipy.sparse from scipy.linalg, which the solver needs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import entrogeo

SCRIPT = """
import json, sys

def loaded():
    return sorted(m for m in sys.modules
                  if m.startswith(("scipy.sparse", "scipy.interpolate")))

import scipy.linalg
base = loaded()

import entrogeo.cli
from entrogeo import Density1DBackend, EntropyKind, GridDensity
from entrogeo.density1d import flow
from entrogeo.solver import SolverOptions, solve

a = GridDensity.gaussian(-1.0, 0.8, 32, 0.4, -6.4)
b = GridDensity.gaussian(1.0, 1.2, 32, 0.4, -6.4)
flow(EntropyKind.boltzmann(), a, 0.1)
flow(EntropyKind.porous_medium(2.0), a, 0.1)
solve(Density1DBackend(EntropyKind.boltzmann()), a, b, 0.1, SolverOptions(n_time=7))
print(json.dumps(sorted(set(loaded()) - set(base))))
"""


def test_no_sparse_or_interpolate_after_cli_flows_and_solve():
    src = str(Path(entrogeo.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    assert json.loads(out.stdout.strip().splitlines()[-1]) == []
