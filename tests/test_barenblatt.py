"""The Barenblatt caps of the porous-medium entropy with m = 2: an exact
cost at eps > 0, and the density solver measured against it.

For m = 2 the affine images ``Q = c + s P^{-1}(u)`` of the cap
``p(y) = 3/4 (1 - y^2)_+`` form a plane in quantile space to which both
``grad E`` and ``grad I`` are tangent, so the minimizer between two caps
stays a cap (Vazquez, *The Porous Medium Equation*, OUP 2007).  A cap of
half-width s has variance ``s^2 / 5`` and Fisher information
``9 / (5 s^4)``, so its mean moves linearly and s minimizes
``int_0^1 [s'^2 / 10 + 9/10 eps^2 s^-4] dt``.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import solveh_banded
from scipy.optimize import brentq

from entrogeo import GridDensity
from entrogeo.solver import solve

# the caps (c, s) -> (c, s) measured below, on the benchmark's density grid
CAPS = (-1.0, 1.5, 2.0, 3.0)
GRID = (256, 22.0 / 256, -10.0)


def _legs(k, a, top, delta):
    """Time and path integrals ``int ds / |s'|`` and ``int |s'| ds`` of the
    half-width from ``a`` up to ``top``, where ``s'^2 = delta + k (s^-4 -
    top^-4)``.  In ``s = top - w^2`` neither integrand is singular at
    ``top``, also when ``delta = 0`` makes it a turning point."""
    def q(w):  # (s'^2 - delta) / w^2
        s = top - w * w
        return k * (top + s) * (top * top + s * s) / (s * top) ** 4

    r = math.sqrt(top - a)
    opts = dict(epsabs=0.0, epsrel=1e-13, limit=200)
    return (quad(lambda w: 2.0 / math.sqrt(delta / (w * w) + q(w)), 0.0, r, **opts)[0],
            quad(lambda w: 2.0 * w * math.sqrt(delta + w * w * q(w)), 0.0, r, **opts)[0])


def barenblatt_cost(eps, c0, s0, c1, s1):
    """The exact cost between the m = 2 caps of centers ``c0``, ``c1`` and
    half-widths ``s0``, ``s1``.

    The half-width solves its Euler-Lagrange equation ``s'' = -18 eps^2
    s^-5``, whose first integral is ``1/10 s'^2 - 9/10 eps^2 s^-4 = E``;
    it is concave, so it either climbs monotonically from the narrower cap
    to the wider one or overshoots the wider one and turns back at
    ``top``.  Shooting finds the E whose travel time is 1, and the cost of
    s is ``int (s'^2 / 5 - E) dt``.
    """
    lo, hi = sorted((s0, s1))
    k = 9.0 * eps * eps
    if k == 0.0:
        return 0.5 * (c1 - c0) ** 2 + (s1 - s0) ** 2 / 10.0
    if _legs(k, lo, hi, 0.0)[0] >= 1.0:  # monotone: s' = 0 at hi would take too long
        top, d_hi = hi, 1.0
        while _legs(k, lo, hi, d_hi)[0] > 1.0:
            d_hi *= 4.0
        delta = brentq(lambda d: _legs(k, lo, hi, d)[0] - 1.0, 0.0, d_hi,
                       xtol=1e-300, rtol=1e-15)
        path = _legs(k, lo, hi, delta)[1]
    else:  # past hi, up to the turning point top and back
        def time(top):
            return _legs(k, lo, top, 0.0)[0] + _legs(k, hi, top, 0.0)[0]

        delta, t_hi = 0.0, 2.0 * hi
        while time(t_hi) < 1.0:
            t_hi *= 2.0
        top = brentq(lambda t: time(t) - 1.0, hi, t_hi, xtol=1e-300, rtol=1e-15)
        path = _legs(k, lo, top, 0.0)[1] + _legs(k, hi, top, 0.0)[1]
    energy = (delta - k / top**4) / 10.0
    return 0.5 * (c1 - c0) ** 2 + path / 5.0 - energy


def _discrete_cost(eps, c0, s0, c1, s1, steps):
    """The same cost minimized over half-widths on ``steps`` uniform time
    steps, by Newton on the convex discrete action (trapezoidal Fisher)."""
    dt, k = 1.0 / steps, 9.0 * eps * eps
    w = np.full(steps + 1, dt)
    w[[0, -1]] = 0.5 * dt
    s = np.linspace(s0, s1, steps + 1)
    band = np.zeros((2, steps - 1))
    band[1, :-1] = -1.0 / (5.0 * dt)
    for _ in range(50):
        flux = np.diff(s) / (5.0 * dt)
        grad = flux[:-1] - flux[1:] - 0.4 * k * w[1:-1] * s[1:-1] ** -5.0
        band[0] = 2.0 / (5.0 * dt) + 2.0 * k * w[1:-1] * s[1:-1] ** -6.0
        step = solveh_banded(band, grad, lower=True)
        s[1:-1] -= step
        if np.max(np.abs(step)) <= 1e-14:
            break
    action = np.sum(np.diff(s) ** 2) / (10.0 * dt) + 0.1 * k * np.sum(w * s**-4.0)
    return 0.5 * (c1 - c0) ** 2 + action


@pytest.mark.parametrize("eps, caps", [
    *((eps, CAPS) for eps in (0.0, 0.1, 0.5, 1.0, 2.0)),
    (0.5, (2.0, 3.0, -1.0, 1.5)),  # the same pair reversed
    (2.0, (0.0, 1.0, 0.0, 1.2)),  # overshoots the wider cap
    (1.0, (1.0, 0.8, -2.0, 1.0)),
])
def test_reference_matches_a_fine_discretization(eps, caps):
    # the Richardson extrapolation of 1000 and 2000 steps, whose error
    # falls at order 2; it agrees to 6.6e-11 relative on these pairs
    coarse, fine = (_discrete_cost(eps, *caps, steps) for steps in (1000, 2000))
    exact = barenblatt_cost(eps, *caps)
    assert exact <= fine
    assert exact == pytest.approx((4.0 * fine - coarse) / 3.0, rel=1e-9, abs=0.0)


def test_reference_at_the_measured_values():
    # eps 0, 0.1, 0.5 and 1 on CAPS, as tabulated in the roadmap
    assert [round(barenblatt_cost(eps, *CAPS), 6) for eps in (0.0, 0.1, 0.5, 1.0)] == [
        4.725, 4.725518, 4.737842, 4.775059]


def _cap(c, s):
    n, dx, x0 = GRID
    x = x0 + dx * (np.arange(n) + 0.5)
    return GridDensity(np.maximum(1.0 - ((x - c) / s) ** 2, 0.0), dx, x0, normalize=True)


_STENCIL = ("the quantile Fisher stencil charges too little: on the default grid the "
            "solve reads {} relative to the exact cost, below the eps = 0 floor -2.46e-4")


@pytest.mark.parametrize("eps", [
    0.1,
    pytest.param(0.5, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=_STENCIL.format("-5.63e-4"))),
    pytest.param(1.0, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=_STENCIL.format("-3.52e-3"))),
])
def test_solve_between_caps_meets_the_exact_cost(porous2, eps):
    # the grid caps and their quantile packing cost the eps = 0 solve
    # -2.46e-4 relative to the exact geodesic; an eps > 0 solve may be off
    # its exact cost by no more than that floor, either way.  eps 0.1 reads
    # -2.41e-4 in 347 iterations
    x, y = _cap(*CAPS[:2]), _cap(*CAPS[2:])
    floor = abs(solve(porous2, x, y, 0.0).cost / barenblatt_cost(0.0, *CAPS) - 1.0)
    res = solve(porous2, x, y, eps)
    assert res.converged
    assert abs(res.cost / barenblatt_cost(eps, *CAPS) - 1.0) <= floor
