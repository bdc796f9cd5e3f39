#!/usr/bin/env python3
"""The entropic cost as a function of the temperature eps.

For fixed endpoints the optimal value  cost_eps = inf A + eps^2 I  is
non-decreasing and continuous in eps, converges to the geodesic cost as
eps drops (Gamma-convergence), is differentiable with

    d/d eps cost_eps = 2 eps I(omega_eps),

and expands to second order as  cost_eps = cost_0 + eps^2 I_0 + o(eps^2)
where I_0 is the Fisher action of the geodesic.  This script sweeps eps on
both shipped backends, prints the profile with the diagnostics, and writes
``demos/out/profile_{quadratic,gaussian}.csv`` for external plotting.

Run:  python3 demos/cost_temperature_sweep.py      (~15 s)
"""

from pathlib import Path

import numpy as np

from entrogeo import Density1DBackend, EntropyKind, EuclideanBackend, GridDensity, QuadraticPotential
from entrogeo.cost_analysis import derivative_check, fisher_monotonicity, sweep, taylor_check
from entrogeo.fileio import write_profile_csv

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)
EPS = [0.025 * k for k in range(1, 9)]


def report(name, backend, x, y, fisher_0_exact):
    print(f"== {name} ==")
    profile = sweep(backend, x, y, [0.0] + EPS)
    print("     eps       cost         kinetic      fisher    (cost-cost0)/eps^2")
    for r in profile.rows:
        ratio = "" if r.eps == 0 else f"{(r.cost - profile.cost_0)/r.eps**2:12.6f}"
        print(f"  {r.eps:6.3f}  {r.cost:.8f}  {r.kinetic:.8f}  {r.fisher:8.5f}  {ratio}")
    tay = taylor_check(profile)
    der = derivative_check(profile)
    rel = max(
        d / (2 * r.eps * r.fisher) for d, r in zip(der, profile.rows[1:-1]) if r.eps > 0
    )
    print(f"  Fisher action of the geodesic I_0 = {profile.fisher_0:.6f} "
          f"(exact {fisher_0_exact:.6f})")
    print(f"  Taylor ratio at eps=0.025: {tay.limit_estimate:.6f}  "
          f"monotone approach: {tay.monotone_approach}")
    print(f"  worst derivative-identity relative residual: {rel:.2e}")
    print(f"  Fisher monotone in eps: violation {fisher_monotonicity(profile):.2e}")
    write_profile_csv(profile, OUT / f"profile_{name}.csv")
    print(f"  -> {OUT / f'profile_{name}.csv'}\n")


# quadratic well, endpoints 1 -> 2: the geodesic is 1+t with slope 1+t, so
# I_0 = 1/2 int (1+t)^2 dt = 7/6
quad = EuclideanBackend(QuadraticPotential(np.zeros(1), 1.0))
report("quadratic", quad, np.array([1.0]), np.array([2.0]), 7.0 / 6.0)

# Gaussians N(0,1) -> N(2,4): sigma_t = 1 + t, I_0 = 1/2 int (1+t)^-2 = 1/4
dens = Density1DBackend(EntropyKind.boltzmann())
n, dx, x0 = 256, 22.0 / 256, -10.0
a = GridDensity.gaussian(0.0, 1.0, n, dx, x0)
b = GridDensity.gaussian(2.0, 2.0, n, dx, x0)
report("gaussian", dens, a, b, 0.25)
