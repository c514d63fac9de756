"""Legendre-Fenchel conjugation and Young-inequality diagnostics.

Closed-form families carry their own conjugates, and so does truncate(phi, n)
when phi does (phi* capped at n); anything else goes through
NumericConjugate, which maximizes the concave map u -> u*v - phi(t,u) by
bracket expansion plus golden-section search, evaluating the domain boundary
explicitly because the supremum may be attained only there.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import BracketError
from .extreal import EXT_INF, EXT_ZERO, ExtReal, fin
from .generators import OrliczGenerator
from .solvers import golden_max, monotone_boundary, monotone_cap

__all__ = [
    "conjugate",
    "numeric_conjugate",
    "NumericConjugate",
    "young_gap",
    "biconjugate_residual",
]

GOLDEN_REL_TOL = 1e-10
_VALUE_CUTOFF = 1e14


class NumericConjugate(OrliczGenerator):
    """phi*(t, v) = sup_{u > 0} (u*v - phi(t, u)) computed numerically.

    Flagged as numeric: derivatives come from Richardson-stabilized
    one-sided difference quotients, the finite bound from the slope of the
    base generator at infinity.
    """

    family = "conjugate"
    finite_valued = False
    differentiable = False
    numeric = True

    def __init__(self, base: OrliczGenerator):
        self.base = base
        self._bound_cache: dict[float, ExtReal] = {}

    def __repr__(self) -> str:
        return f"NumericConjugate({self.base!r})"

    # -- evaluation -----------------------------------------------------------

    def _objective(self, t: float, v: float):
        base = self.base

        def g(u: float) -> float:
            e = base.phi(t, u)
            return u * v - e.value if e.is_finite else -math.inf

        return g

    def _phi(self, t: float, v: float) -> ExtReal:
        if v == 0.0:
            return EXT_ZERO
        base = self.base
        g = self._objective(t, v)
        b = base.finite_bound(t)
        if b.is_finite:
            hi = b.value
        else:
            # a power-of-two bracket for the maximizer, where phi'_- reaches
            # v; a value past the cutoff or no bracket in float range means
            # the supremum is infinite
            def stop(u: float) -> bool:
                return base.left_deriv(t, u) >= v or g(u) > _VALUE_CUTOFF

            try:
                _, hi = monotone_boundary(stop, rel_tol=math.inf, lo=0.0)
            except BracketError:
                return EXT_INF
            if base.left_deriv(t, hi) < v:
                return EXT_INF
        _, best = golden_max(g, 0.0, hi, rel_tol=GOLDEN_REL_TOL)
        # the sup may sit at the edge of the finite region
        edge = monotone_cap(
            lambda u: 0.0 if base.phi(t, u).is_finite else math.inf, 0.0, 0.0, hi
        )
        best = max(best, g(edge))
        if best > _VALUE_CUTOFF:
            return EXT_INF
        return fin(max(0.0, best))

    # -- derivatives (difference quotients, Richardson-stabilized) -------------

    def _quotient(self, t: float, v: float, side: int) -> ExtReal:
        vals = []
        h = 1e-4 if side > 0 else min(1e-4, v / 2.0)
        if h <= 0.0:
            return EXT_ZERO
        f0 = self._phi(t, v)
        if not f0.is_finite:
            return EXT_INF
        for _ in range(6):
            f1 = self._phi(t, v + side * h)
            if not f1.is_finite:
                return EXT_INF
            vals.append(side * (f1.value - f0.value) / h)
            h /= 2.0
        # first-order one-sided quotients: Richardson pair on the last halving
        est = 2.0 * vals[-1] - vals[-2]
        return fin(max(0.0, est))

    def _left(self, t: float, v: float) -> ExtReal:
        return self._quotient(t, v, -1)

    def _right(self, t: float, v: float) -> ExtReal:
        return self._quotient(t, v, +1)

    # -- structure --------------------------------------------------------------

    def zero_bound(self, t: float) -> float:
        d = self.base.right_deriv(t, 0.0)
        return d.value if d.is_finite else math.inf

    def finite_bound(self, t: float) -> ExtReal:
        cached = self._bound_cache.get(t)
        if cached is None:
            cached = self._slope_at_infinity(t)
            self._bound_cache[t] = cached
        return cached

    def _slope_at_infinity(self, t: float) -> ExtReal:
        base = self.base
        if base.finite_bound(t).is_finite:
            return EXT_INF  # bounded domain => conjugate finite everywhere
        u = 1.0
        prev = None
        for _ in range(500):
            e = base.phi(t, u)
            if not e.is_finite:
                return EXT_INF
            slope = e.value / u
            if slope > _VALUE_CUTOFF:
                return EXT_INF
            if prev is not None and abs(slope - prev) <= 1e-10 * max(1.0, slope):
                return fin(slope)
            prev = slope
            u *= 2.0
        return EXT_INF


#: the cache saves object construction and keeps one NumericConjugate (with
#: its bound cache) per generator within a computation; the size bound keeps
#: a long run over fresh generators from growing memory
CONJUGATE_CACHE_SIZE = 64


@lru_cache(maxsize=CONJUGATE_CACHE_SIZE)
def conjugate(gen: OrliczGenerator) -> OrliczGenerator:
    """The complementary generator: analytic when the family knows it
    (truncated generators included, whenever their base does), otherwise a
    NumericConjugate wrapper."""
    analytic = gen.analytic_conjugate()
    return analytic if analytic is not None else NumericConjugate(gen)


def numeric_conjugate(gen: OrliczGenerator) -> NumericConjugate:
    """Always the numeric wrapper, for cross-checking analytic conjugates."""
    return NumericConjugate(gen)


def young_gap(
    gen: OrliczGenerator,
    t: float,
    u: float,
    v: float,
    conj: OrliczGenerator | None = None,
) -> ExtReal:
    """phi(t,u) + phi*(t,v) - u*v, always >= 0; zero exactly when v lies in
    the subdifferential of phi(t, .) at u."""
    if conj is None:
        conj = conjugate(gen)
    a = gen.phi(t, u)
    b = conj.phi(t, v)
    if not (a.is_finite and b.is_finite):
        return EXT_INF
    gap = a.value + b.value - u * v
    if gap < 0.0:
        tol = (1e-8 if getattr(conj, "numeric", False) else 1e-12) * max(
            1.0, a.value + b.value, u * v
        )
        if gap < -tol:
            raise AssertionError(f"Young inequality violated: gap = {gap}")
        gap = 0.0
    return fin(gap)


def biconjugate_residual(gen: OrliczGenerator, t: float, u_grid) -> float:
    """max over the grid of |phi**(t,u) - phi(t,u)| via numeric double
    conjugation; a finiteness mismatch counts as an infinite residual."""
    second = NumericConjugate(NumericConjugate(gen))
    worst = 0.0
    for u in u_grid:
        a = gen.phi(t, float(u))
        b = second.phi(t, float(u))
        if a.is_finite != b.is_finite:
            return math.inf
        if a.is_finite:
            worst = max(worst, abs(a.value - b.value))
    return worst
