"""Closed forms the benchmark checks the program's outputs against.

* ``quadratic_well_cost``: the exact entropic cost in the well
  ``V = k/2 |x - c|^2``.  Its Euler-Lagrange equation is
  ``x'' = kappa^2 (x - c)`` with ``kappa = eps k``, which gives
  ``kappa / (2 sinh kappa) ((|x-c|^2 + |y-c|^2) cosh kappa - 2 <x-c, y-c>)``.
* ``gaussian_cost``: the exact Schrodinger cost between ``N(m0, s0^2)`` and
  ``N(m1, s1^2)`` for the Boltzmann entropy.  W2 is flat in (mean, sd) and
  the Fisher information of ``N(m, s^2)`` is ``1/s^2``, so the mean moves
  linearly and ``w = s^2`` is quadratic in t:
  ``w(t) = s0^2 + (s1^2 - s0^2 - 2C) t + 2C t^2`` with
  ``C = (s0^2 + s1^2)/2 - sqrt(s0^2 s1^2 + eps^2)``, and the cost is
  ``(m1 - m0)^2 / 2 + C + eps^2 int_0^1 dt / w``.
* On the circle, W2 between a bump and its rotation by ``delta`` is
  ``delta`` for a bump much narrower than the circle (checked in
  ``workloads.py``).
"""

from __future__ import annotations

import math

import numpy as np

# 64-point Gauss-Legendre on [0, 1]: 1/w is analytic on the interval, so
# this is exact to rounding for every eps the benchmark uses
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_GL_T = 0.5 * (_GL_NODES + 1.0)
_GL_W = 0.5 * _GL_WEIGHTS


def quadratic_well_cost(eps: float, strength: float, center, x, y) -> float:
    a = np.asarray(x, dtype=float) - np.asarray(center, dtype=float)
    b = np.asarray(y, dtype=float) - np.asarray(center, dtype=float)
    kappa = eps * strength
    if kappa == 0.0:
        return 0.5 * float((a - b) @ (a - b))
    return kappa / (2.0 * math.sinh(kappa)) * (
        float(a @ a + b @ b) * math.cosh(kappa) - 2.0 * float(a @ b)
    )


def gaussian_cost(eps: float, m0: float, s0: float, m1: float, s1: float) -> float:
    C = 0.5 * (s0 * s0 + s1 * s1) - math.sqrt(s0 * s0 * s1 * s1 + eps * eps)
    w = s0 * s0 + (s1 * s1 - s0 * s0 - 2.0 * C) * _GL_T + 2.0 * C * _GL_T**2
    return 0.5 * (m1 - m0) ** 2 + C + eps * eps * float(np.sum(_GL_W / w))


def rel_err(value: float, exact: float) -> float:
    return abs(value - exact) / abs(exact)
