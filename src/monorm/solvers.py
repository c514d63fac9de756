"""The package's one-dimensional searches: every bracket, boundary and cap
goes through the three functions here.

- monotone_boundary brackets the threshold of a monotone predicate (false
  below, true above): the norms, k-interval ends and gap locations.
- monotone_cap finds the largest point where a nondecreasing function stays
  within a target: magnitude caps, derivative thresholds, domain edges.
- golden_max maximizes a unimodal function on an interval.

Both bracketing solvers grow an upper end by doubling.  monotone_boundary
then bisects its predicate; monotone_cap, which sees values and not only a
verdict, narrows by false position on g - target with bisection as the
fallback.  Run to the end (rel_tol = 0 for monotone_boundary, always for
monotone_cap) either stops at the pair of adjacent floats around the
threshold, whichever bracket it started from.  The search range is the
normal floats: a threshold below the smallest one reads as 0, and a
predicate that does not change within the range raises BracketError naming
the last bracket.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

from .errors import BracketError

__all__ = ["monotone_boundary", "golden_max", "monotone_cap"]

BISECT_REL_TOL = 1e-10
#: golden_max stops once its bracket is this fraction of max(1, |hi|)
GOLDEN_REL_TOL = 1e-10
#: refinement steps monotone_cap may spend beyond bisection's count
_SPARE_STEPS = 4

_TINY = sys.float_info.min
_INV_GOLD = (math.sqrt(5.0) - 1.0) / 2.0


def _grow(
    pred: Callable[[float], bool], lo: float, hi: float, top: float = math.inf
) -> tuple[float, float]:
    """Double hi, clipped at top, with lo trailing it, until pred(hi) holds;
    pred(lo) is false."""
    hi = min(hi, top)
    while not pred(hi):
        if hi == top or 2.0 * hi == math.inf:
            raise BracketError(
                f"predicate stayed false up to {hi!r} (last bracket [{lo!r}, {hi!r}])"
            )
        lo, hi = hi, min(2.0 * hi, top)
    return lo, hi


def _bisect(
    pred: Callable[[float], bool], lo: float, hi: float, rel_tol: float
) -> tuple[float, float]:
    while hi - lo > rel_tol * hi and hi > _TINY:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def monotone_boundary(
    pred: Callable[[float], bool],
    start: float = 1.0,
    rel_tol: float = BISECT_REL_TOL,
    lo: float | None = None,
) -> tuple[float, float]:
    """Bracket the boundary of the up-set {x > 0 : pred(x)}.

    pred must be monotone (false below some threshold, true above).  Returns
    (lo, hi) with pred(lo) false, pred(hi) true and hi - lo <= rel_tol * hi;
    rel_tol = 0 bisects to adjacent floats, rel_tol = inf skips bisection.

    Without lo, pred(start) picks the direction: halving down from start
    while pred holds, doubling up while it does not.  A given lo is a point
    known to fail pred (never evaluated, 0 allowed); the upper end then runs
    start, 2 start, ... from start > lo.
    """
    if lo is None:
        if pred(start):
            lo, hi = 0.5 * start, start
            while pred(lo):
                if lo < 2.0 * _TINY:
                    raise BracketError(
                        f"predicate stayed true down to {lo!r} (last bracket [0.0, {lo!r}])"
                    )
                lo, hi = 0.5 * lo, lo
            return _bisect(pred, lo, hi, rel_tol)
        lo, start = start, 2.0 * start
    return _bisect(pred, *_grow(pred, lo, start), rel_tol)


def golden_max(
    f: Callable[[float], float],
    lo: float,
    hi: float,
) -> tuple[float, float]:
    """Maximize a unimodal (concave or quasiconcave) f on [lo, hi].

    f may return -inf on part of the interval.  Returns (argmax, max) over
    all evaluated points, endpoints included.
    """
    best_x, best_f = lo, f(lo)
    fe = f(hi)
    if fe > best_f:
        best_x, best_f = hi, fe

    a, b = lo, hi
    x1 = b - _INV_GOLD * (b - a)
    x2 = a + _INV_GOLD * (b - a)
    f1, f2 = f(x1), f(x2)
    span = max(1.0, abs(hi))
    while b - a > GOLDEN_REL_TOL * span:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_GOLD * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_GOLD * (b - a)
            f1 = f(x1)
        if f1 > best_f:
            best_x, best_f = x1, f1
        if f2 > best_f:
            best_x, best_f = x2, f2
    return best_x, best_f


def monotone_cap(
    g: Callable[[float], float],
    target: float,
    lo: float,
    hi: float,
) -> float:
    """Largest x in [lo, hi] with g(x) <= target, for nondecreasing g, to the
    last float.

    g may return math.inf, and hi may be math.inf.  The upper end runs
    max(1, 2 lo), doubling, clipped at hi; hi itself is returned when g
    stays within target up to it, lo when g(lo) already exceeds target.
    The bracket is then narrowed by false position on g - target, with the
    safeguards _false_position describes: a smooth g needs a fifth to a
    third of bisection's evaluations, and no g more than about _SPARE_STEPS
    beyond them.
    """
    g_lo = g(lo)
    if g_lo > target:
        return lo
    x = min(max(1.0, 2.0 * lo), hi)
    g_x = g(x)
    while not g_x > target:
        if x == hi or 2.0 * x == math.inf:
            return hi
        lo, g_lo = x, g_x
        x = min(2.0 * x, hi)
        g_x = g(x)
    return _false_position(g, target, lo, x, g_lo - target, g_x - target)


def _false_position(
    g: Callable[[float], float],
    target: float,
    lo: float,
    hi: float,
    r_lo: float,
    r_hi: float,
) -> float:
    """Narrow g(lo) <= target < g(hi), with residuals r = g - target at the
    ends, to adjacent floats (or to hi <= _TINY, where lo is returned).

    Each step probes the false-position point, held two ulps inside the
    bracket and at or above _TINY.  An end kept for a second step in a row
    has its residual halved (Illinois), so the point cannot stall on one
    side.  The midpoint stands in when a residual is infinite, NaN or halved
    to 0, or when the point is not strictly inside.  After _SPARE_STEPS
    free steps, each step halves an allowance that starts at the first
    bracket's width and clamps the point so that the bracket it leaves is
    no wider, as in ITP (Oliveira & Takahashi 2020): the bracket never lags
    bisection's by more than _SPARE_STEPS halvings, and the count stays
    within about _SPARE_STEPS of bisection's.
    """
    allowance = hi - lo
    free = _SPARE_STEPS
    kept = 0  # +1: lo kept by the last step, -1: hi kept, 0: neither yet
    while hi > _TINY:
        mid = lo + 0.5 * (hi - lo)
        if not lo < mid < hi:
            break
        if free:
            free -= 1
        else:
            allowance *= 0.5
        x = mid
        if -math.inf < r_lo and 0.0 < r_hi < math.inf:
            x = lo + (hi - lo) * (r_lo / (r_lo - r_hi))
            x = min(max(x, lo + 2.0 * math.ulp(lo)), hi - 2.0 * math.ulp(hi))
            x = min(max(x, hi - allowance), lo + allowance)
            if not lo < x < hi:
                x = mid
        x = max(x, _TINY)
        r = g(x) - target
        if r > 0.0:
            hi, r_hi = x, r
            if kept == 1:
                r_lo *= 0.5
            kept = 1
        else:
            lo, r_lo = x, r
            if kept == -1:
                r_hi *= 0.5
            kept = -1
    return lo
