"""Euclidean backend: ``X = R^d`` with a lambda-convex potential.

The entropy is a smooth potential ``V``, the metric slope is ``|grad V|``,
geodesics are straight segments, and the semigroup is the solution map of
``x' = -grad V(x)``.  The quadratic potential ``V = lam/2 |x - x0|^2`` has a
closed-form flow ``x0 + exp(-lam*s) (x - x0)`` and saturates every EVI
inequality, which makes it the exact reference case for the verification
harness.  User potentials integrate the flow with step-doubled RK4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional
import warnings

import numpy as np

from .core import SpaceBackend, _check_flow_time
from .errors import DomainError, FlowDiverged, InvalidCurve

__all__ = [
    "EuclideanBackend",
    "Potential",
    "QuadraticPotential",
    "UserPotential",
]


class Potential:
    """Smooth potential on R^d with a declared convexity parameter ``lam``."""

    dim: int
    lam: float

    def value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def grad(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def hess(self, x: np.ndarray) -> np.ndarray:
        """Hessian matrix of V at ``x``, shape ``(dim, dim)``."""
        raise NotImplementedError

    def flow(self, x: np.ndarray, s: float) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class QuadraticPotential(Potential):
    """``V(x) = strength/2 |x - center|^2``; everything is closed form.

    It holds an array, so ``==`` and ``hash`` go by identity."""

    center: np.ndarray
    strength: float = 1.0

    def __init__(self, center, strength: float = 1.0):
        center = np.atleast_1d(np.asarray(center, dtype=float))
        if center.size == 0 or not np.all(np.isfinite(center)):
            raise DomainError("quadratic center needs at least one coordinate, all finite")
        if not 0 < strength < math.inf:
            raise DomainError("quadratic strength must be positive and finite")
        center.setflags(write=False)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "strength", float(strength))

    @property
    def dim(self) -> int:
        return self.center.size

    @property
    def lam(self) -> float:
        return self.strength

    def value(self, x):
        d = np.asarray(x, dtype=float) - self.center
        return 0.5 * self.strength * float(d @ d)

    def grad(self, x):
        return self.strength * (np.asarray(x, dtype=float) - self.center)

    def hess(self, x):
        return self.strength * np.eye(self.dim)

    def flow(self, x, s):
        _check_flow_time(s)
        x = np.asarray(x, dtype=float)
        return self.center + np.exp(-self.strength * s) * (x - self.center)


_FD_CHECK_POINTS = 8


class UserPotential(Potential):
    """Potential given by callbacks ``v`` and ``grad_v`` with a declared lam.

    The Hessian comes from the optional ``hess_v`` callback, or else from
    central differences of ``grad_v``.  At construction the gradient is
    spot-checked against central differences of ``v`` on a few points
    drawn with seed 0 (relative 1e-4); a sampled Hessian quotient merely warns when
    the declared convexity looks violated, since the theory consumes
    ``lam`` as an input rather than estimating it.
    """

    def __init__(
        self,
        v: Callable[[np.ndarray], float],
        grad_v: Callable[[np.ndarray], np.ndarray],
        lam: float,
        dim: int,
        hess_v: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ):
        if dim < 1:
            raise DomainError("dimension must be >= 1")
        self._v = v
        self._grad_v = grad_v
        self.lam = float(lam)
        self.dim = int(dim)
        self._hess_v = hess_v
        rng = np.random.default_rng(0)
        self._validate_gradient(rng)
        self._convexity_warning(rng)

    def _validate_gradient(self, rng):
        h = 1e-5
        for _ in range(_FD_CHECK_POINTS):
            x = rng.uniform(-1.5, 1.5, size=self.dim)
            g = np.asarray(self._grad_v(x), dtype=float)
            fd = np.empty(self.dim)
            for k in range(self.dim):
                e = np.zeros(self.dim)
                e[k] = h
                fd[k] = (self._v(x + e) - self._v(x - e)) / (2 * h)
            scale = max(1.0, float(np.linalg.norm(g)))
            if np.linalg.norm(g - fd) > 1e-4 * scale:
                raise DomainError(
                    "grad_v disagrees with finite differences of v "
                    f"at x={x} (|diff|={np.linalg.norm(g - fd):.3e})"
                )

    def _convexity_warning(self, rng):
        # Hessian quotient <grad V(x)-grad V(y), x-y> / |x-y|^2 >= lam.
        worst = np.inf
        for _ in range(_FD_CHECK_POINTS):
            x = rng.uniform(-1.5, 1.5, size=self.dim)
            y = x + rng.uniform(-0.5, 0.5, size=self.dim)
            dx = x - y
            n2 = float(dx @ dx)
            if n2 < 1e-12:
                continue
            q = float((self.grad(x) - self.grad(y)) @ dx) / n2
            worst = min(worst, q)
        if worst < self.lam - 1e-6:
            warnings.warn(
                f"declared lambda={self.lam} but sampled convexity quotient "
                f"is {worst:.4f}; EVI certificates may fail",
                stacklevel=3,
            )

    def value(self, x):
        return float(self._v(np.asarray(x, dtype=float)))

    def grad(self, x):
        return np.asarray(self._grad_v(np.asarray(x, dtype=float)), dtype=float)

    def hess(self, x):
        x = np.asarray(x, dtype=float)
        if self._hess_v is not None:
            return np.asarray(self._hess_v(x), dtype=float)
        # central differences of grad V along each axis, symmetrized
        tau = 1e-6 * (1.0 + float(np.linalg.norm(x)))
        cols = [self.grad(x + e) - self.grad(x - e) for e in tau * np.eye(self.dim)]
        h = np.array(cols) / (2 * tau)
        return 0.5 * (h + h.T)

    def flow(self, x, s):
        _check_flow_time(s)
        x = np.asarray(x, dtype=float)
        if s == 0.0:
            return x.copy()
        n = max(16, int(np.ceil(s / 0.01)))
        prev = self._rk4(x, s, n)
        # step-doubling until self-consistent to 1e-9 relative
        for _ in range(20):
            n *= 2
            cur = self._rk4(x, s, n)
            if not np.all(np.isfinite(cur)):
                raise FlowDiverged(f"RK4 produced non-finite state at s={s}")
            if np.linalg.norm(cur - prev) <= 1e-9 * (1.0 + np.linalg.norm(cur)):
                return cur
            prev = cur
        raise FlowDiverged("RK4 step-doubling failed to converge")

    def _rk4(self, x, s, n):
        h = s / n
        y = x.astype(float).copy()
        f = lambda z: -self.grad(z)
        for _ in range(n):
            k1 = f(y)
            k2 = f(y + 0.5 * h * k1)
            k3 = f(y + 0.5 * h * k2)
            k4 = f(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            if not np.all(np.isfinite(y)):
                raise FlowDiverged("RK4 produced non-finite state")
        return y


class EuclideanBackend(SpaceBackend):
    """Metric-space view of ``(R^d, |.|)`` with entropy ``E = V``."""

    def __init__(self, potential: Potential):
        self.potential = potential
        self.lam = potential.lam

    @property
    def dim(self) -> int:
        return self.potential.dim

    def distance(self, a, b) -> float:
        return float(np.linalg.norm(np.asarray(a, float) - np.asarray(b, float)))

    def geodesic(self, a, b, theta: float):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        return (1.0 - theta) * a + theta * b

    def entropy(self, x) -> float:
        return self.potential.value(x)

    def slope(self, x) -> float:
        return float(np.linalg.norm(self.potential.grad(x)))

    def flow(self, x, s: float):
        return self.potential.flow(x, s)

    def check_point(self, x) -> None:
        arr = np.asarray(x, dtype=float)
        if arr.shape != (self.dim,):
            raise InvalidCurve(
                f"expected coordinate vector of shape ({self.dim},), got {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise InvalidCurve("coordinates must be finite")

    def same_space(self, a, b) -> bool:
        a = np.asarray(a)
        b = np.asarray(b)
        return a.shape == b.shape

