"""Legendre-Fenchel conjugation and Young-inequality diagnostics.

Every family carries its conjugate in closed form, and so does
truncate(phi, n) (phi* capped at n); conjugate() returns it.
NumericConjugate is the reference that the closed forms are checked against
(biconjugate_residual and the tests): it maximizes the concave map
u -> u*v - phi(t,u) by bracket expansion plus golden_max (Brent's method),
evaluating the domain boundary explicitly because the supremum may be
attained only there.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import PostconditionError
from .generators import OrliczGenerator
from .solvers import golden_max, monotone_cap

__all__ = [
    "conjugate",
    "NumericConjugate",
    "young_gap",
    "biconjugate_residual",
]

_VALUE_CUTOFF = 1e14


class NumericConjugate(OrliczGenerator):
    """phi*(t, v) = sup_{u > 0} (u*v - phi(t, u)) computed numerically.

    Flagged as numeric: derivatives come from Richardson-stabilized
    one-sided difference quotients, the finite bound from the slope of the
    base generator at infinity.
    """

    family = "conjugate"
    finite_valued = False

    def __init__(self, base: OrliczGenerator):
        self.base = base
        self._bound_cache: dict[float, float] = {}

    def __repr__(self) -> str:
        return f"NumericConjugate({self.base!r})"

    # -- evaluation -----------------------------------------------------------

    def _objective(self, t: float, v: float):
        base = self.base

        def g(u: float) -> float:
            e = base.phi(t, u)
            return u * v - e if math.isfinite(e) else -math.inf

        return g

    def _phi(self, t: float, v: float) -> float:
        if v == 0.0:
            return 0.0
        base = self.base
        g = self._objective(t, v)
        hi = base.finite_bound(t)
        if math.isinf(hi):
            # a power-of-two bracket for the maximizer, where phi'_- reaches
            # v; a value past the cutoff or no bracket in float range means
            # the supremum is infinite
            def stop(u: float) -> bool:
                return base.left_deriv(t, u) >= v or g(u) > _VALUE_CUTOFF

            hi = 1.0
            while not stop(hi):
                if 2.0 * hi == math.inf:
                    return math.inf
                hi *= 2.0
            if base.left_deriv(t, hi) < v:
                return math.inf
        _, best = golden_max(g, 0.0, hi)
        # the sup may sit at the edge of the finite region
        edge = monotone_cap(
            lambda u: 0.0 if math.isfinite(base.phi(t, u)) else math.inf, 0.0, 0.0, hi
        )
        best = max(best, g(edge))
        if best > _VALUE_CUTOFF:
            return math.inf
        return max(0.0, best)

    # -- derivatives (difference quotients, Richardson-stabilized) -------------

    def _quotient(self, t: float, v: float, side: int) -> float:
        vals = []
        h = 1e-4 if side > 0 else min(1e-4, v / 2.0)
        if h <= 0.0:
            return 0.0
        f0 = self._phi(t, v)
        if math.isinf(f0):
            return math.inf
        for _ in range(6):
            f1 = self._phi(t, v + side * h)
            if math.isinf(f1):
                return math.inf
            vals.append(side * (f1 - f0) / h)
            h /= 2.0
        # first-order one-sided quotients: Richardson pair on the last halving
        est = 2.0 * vals[-1] - vals[-2]
        return max(0.0, est)

    def _left(self, t: float, v: float) -> float:
        return self._quotient(t, v, -1)

    def _right(self, t: float, v: float) -> float:
        return self._quotient(t, v, +1)

    # -- structure --------------------------------------------------------------

    def zero_bound(self, t: float) -> float:
        return self.base.right_deriv(t, 0.0)

    def finite_bound(self, t: float) -> float:
        cached = self._bound_cache.get(t)
        if cached is None:
            cached = self._slope_at_infinity(t)
            self._bound_cache[t] = cached
        return cached

    def _slope_at_infinity(self, t: float) -> float:
        base = self.base
        if math.isfinite(base.finite_bound(t)):
            return math.inf  # bounded domain => conjugate finite everywhere
        u = 1.0
        prev = None
        for _ in range(500):
            e = base.phi(t, u)
            if math.isinf(e):
                return math.inf
            slope = e / u
            if slope > _VALUE_CUTOFF:
                return math.inf
            if prev is not None and abs(slope - prev) <= 1e-10 * max(1.0, slope):
                return slope
            prev = slope
            u *= 2.0
        return math.inf


#: the cache saves object construction; the size bound keeps a long run over
#: fresh generators from growing memory
CONJUGATE_CACHE_SIZE = 64


@lru_cache(maxsize=CONJUGATE_CACHE_SIZE)
def conjugate(gen: OrliczGenerator) -> OrliczGenerator:
    """The complementary generator, in closed form; NotImplementedError for
    a generator without one."""
    return gen.analytic_conjugate()


def young_gap(gen: OrliczGenerator, t: float, u: float, v: float) -> float:
    """phi(t,u) + phi*(t,v) - u*v, always >= 0; zero exactly when v lies in
    the subdifferential of phi(t, .) at u."""
    conj = conjugate(gen)
    a = gen.phi(t, u)
    b = conj.phi(t, v)
    if math.isinf(a) or math.isinf(b):
        return math.inf
    gap = a + b - u * v
    if gap < 0.0:
        if gap < -1e-12 * max(1.0, a + b, u * v):
            raise PostconditionError(f"Young inequality violated: gap = {gap}")
        gap = 0.0
    return gap


def biconjugate_residual(gen: OrliczGenerator, t: float, u_grid) -> float:
    """max over the grid of |phi**(t,u) - phi(t,u)| via numeric double
    conjugation; a finiteness mismatch counts as an infinite residual."""
    second = NumericConjugate(NumericConjugate(gen))
    worst = 0.0
    for u in u_grid:
        a = gen.phi(t, float(u))
        b = second.phi(t, float(u))
        if math.isfinite(a) != math.isfinite(b):
            return math.inf
        if math.isfinite(a):
            worst = max(worst, abs(a - b))
    return worst
