"""The CLI and the solvers load only the modules they use.

Every CLI run pays for its imports before doing any work.  The package
takes its six LAPACK routines from scipy's compiled ``_flapack`` extension
(``density1d._load_lapack``), so neither ``scipy.linalg`` nor the array-API
layer it imports (which pulls in ``numpy.testing`` and ``numpy.f2py``) is
loaded, and no code path loads scipy.sparse or scipy.interpolate.  The
check runs in a fresh interpreter, after a CLI import, one heat flow, one
porous-medium flow, a small density solve and a small Euclidean solve.

Where the extension file is not found, the loader falls back to
``scipy.linalg.lapack``; the same routines give the same bytes either way.
Loading a config does not import the CLI: only the CLI knows the verify
certificates.  Every name a module exports in ``__all__`` resolves.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import entrogeo

UNNEEDED = ["scipy.linalg", "scipy.sparse", "scipy.interpolate", "scipy._lib._array_api",
            "numpy.testing", "numpy.f2py"]

SCRIPT = """
import json, sys
import numpy as np

import entrogeo.cli
from entrogeo import (Density1DBackend, EntropyKind, EuclideanBackend, GridDensity,
                      QuadraticPotential)
from entrogeo.density1d import flow
from entrogeo.solver import SolverOptions, solve

a = GridDensity.gaussian(-1.0, 0.8, 32, 0.4, -6.4)
b = GridDensity.gaussian(1.0, 1.2, 32, 0.4, -6.4)
flow(EntropyKind.boltzmann(), a, 0.1)
flow(EntropyKind.porous_medium(2.0), a, 0.1)
solve(Density1DBackend(EntropyKind.boltzmann()), a, b, 0.1, SolverOptions(n_time=7))
solve(EuclideanBackend(QuadraticPotential(np.zeros(1), 1.0)), np.array([1.0]),
      np.array([2.0]), 0.1, SolverOptions(n_time=7))
unneeded = tuple(sys.argv[1:])
print(json.dumps(sorted(m for m in sys.modules
                        if m in unneeded or m.startswith(tuple(u + "." for u in unneeded)))))
"""

# the LAPACK routines the package calls
ROUTINES = ["dpttrf", "dpttrs", "dpbtrf", "dpbtrs", "spbtrf", "spbtrs"]

# argv[1] is "direct" or "fallback"; prints the name of the module the
# routines came from, the routines it lacks, the outcomes of the float32
# factorizations of a density solve, and a digest of the bytes of that solve
# and of a heat and a porous-medium flow on the circle
FALLBACK_SCRIPT = """
import hashlib, importlib.machinery, json, sys, types

if sys.argv[1] == "fallback":
    # with no extension suffix, the direct load matches no file
    importlib.machinery.EXTENSION_SUFFIXES.clear()

from entrogeo import Density1DBackend, EntropyKind, GridDensity, density1d, solver
from entrogeo.solver import SolverOptions, solve

lapack, routines = density1d._lapack, sys.argv[2:]
infos = []

def spbtrf(ab, **kw):
    cb, info = lapack.spbtrf(ab, **kw)
    infos.append(info)
    return cb, info

solver._lapack = types.SimpleNamespace(
    **{r: getattr(lapack, r) for r in routines if hasattr(lapack, r)})
solver._lapack.spbtrf = spbtrf
a = GridDensity.gaussian(-1.0, 0.8, 32, 0.4, -6.4)
b = GridDensity.gaussian(1.0, 1.2, 32, 0.4, -6.4)
res = solve(Density1DBackend(EntropyKind.boltzmann()), a, b, 0.1, SolverOptions(n_time=7))
c = GridDensity.gaussian(0.0, 0.5, 32, 0.25, -4.0, boundary="periodic")
h = hashlib.sha256(res.decision.tobytes())
for kind in (EntropyKind.boltzmann(), EntropyKind.porous_medium(2.0)):
    h.update(density1d.flow(kind, c, 0.05).rho.tobytes())
print(json.dumps({"module": lapack.__name__,
                  "missing": [r for r in routines if not hasattr(lapack, r)],
                  "spbtrf_infos": infos, "digest": h.hexdigest()}))
"""

# argv[1] is a config file; prints whether loading it imported the CLI
LOAD_CONFIG_SCRIPT = """
import sys

from entrogeo.config import load_config

load_config(sys.argv[1])
print("entrogeo.cli" in sys.modules)
"""


def _run(script: str, *args: str) -> str:
    src = str(Path(entrogeo.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
                         check=True)
    return out.stdout.strip().splitlines()[-1]


def test_no_sparse_or_interpolate_after_cli_flows_and_solve():
    assert json.loads(_run(SCRIPT, *UNNEEDED)) == []


def test_lapack_fallback_gives_the_same_bytes():
    direct = json.loads(_run(FALLBACK_SCRIPT, "direct", *ROUTINES))
    fallback = json.loads(_run(FALLBACK_SCRIPT, "fallback", *ROUTINES))
    assert direct["module"] == "scipy.linalg._flapack"
    assert fallback["module"] == "scipy.linalg.lapack"
    assert direct["missing"] == fallback["missing"] == []
    # every model of the solve was factored in float32, with no breakdown
    assert direct["spbtrf_infos"] and set(direct["spbtrf_infos"]) == {0}
    assert fallback["spbtrf_infos"] == direct["spbtrf_infos"]
    assert direct["digest"] == fallback["digest"]


def test_load_config_leaves_the_cli_unimported(tmp_path):
    cfg = tmp_path / "verify.ini"
    cfg.write_text("[backend]\nkind = quadratic\n\n[run]\ncommand = verify\n")
    assert _run(LOAD_CONFIG_SCRIPT, str(cfg)) == "False"


def test_every_export_resolves():
    modules = [entrogeo] + [importlib.import_module(f"entrogeo.{info.name}")
                            for info in pkgutil.iter_modules(entrogeo.__path__)]
    assert len(modules) == 12
    for module in modules:
        exported = getattr(module, "__all__", [])
        assert [name for name in exported if not hasattr(module, name)] == [], module.__name__
        assert len(set(exported)) == len(exported), module.__name__
        assert not hasattr(module, "HatFunction"), module.__name__
