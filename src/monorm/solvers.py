"""The package's one-dimensional searches: every bracket, boundary and cap
goes through the three functions here.

- monotone_boundary brackets the threshold of a monotone predicate (false
  below, true above): the norms, k-interval ends and gap locations.
- monotone_cap finds the largest point where a nondecreasing function stays
  within a target: magnitude caps, derivative thresholds, domain edges.
- golden_max maximizes a unimodal function on an interval, by Brent's
  parabolic steps with golden section as the fallback.

Both bracketing solvers grow an upper end by doubling.  monotone_boundary
then bisects its predicate to a relative width of BISECT_REL_TOL.
monotone_cap, which sees values and not only a verdict, narrows by false
position on g - target with bisection as the fallback, and stops at the
pair of adjacent floats around the threshold, whichever bracket it started
from.  The search range is the normal floats: a threshold below the
smallest one reads as 0, and a predicate that does not change within the
range raises BracketError naming the last bracket.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

from .errors import BracketError, PreconditionError

__all__ = ["monotone_boundary", "golden_max", "monotone_cap"]

#: monotone_boundary stops once its bracket is this fraction of hi
BISECT_REL_TOL = 1e-10
#: golden_max stops once its bracket is this fraction of max(1, |hi|)
GOLDEN_REL_TOL = 1e-10
#: refinement steps monotone_cap may spend beyond bisection's count
_SPARE_STEPS = 4

_TINY = sys.float_info.min
#: the golden-section fraction 1 - 1/phi = (3 - sqrt 5) / 2
_GOLD_SECTION = (3.0 - math.sqrt(5.0)) / 2.0


def _grow(pred: Callable[[float], bool], lo: float, hi: float) -> tuple[float, float]:
    """Double hi, with lo trailing it, until pred(hi) holds; pred(lo) is
    false."""
    while not pred(hi):
        if 2.0 * hi == math.inf:
            raise BracketError(
                f"predicate stayed false up to {hi!r} (last bracket [{lo!r}, {hi!r}])"
            )
        lo, hi = hi, 2.0 * hi
    return lo, hi


def _bisect(pred: Callable[[float], bool], lo: float, hi: float) -> tuple[float, float]:
    while hi - lo > BISECT_REL_TOL * hi and hi > _TINY:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def monotone_boundary(
    pred: Callable[[float], bool], lo: float | None = None
) -> tuple[float, float]:
    """Bracket the boundary of the up-set {x > 0 : pred(x)}.

    pred must be monotone (false below some threshold, true above).  Returns
    (lo, hi) with pred(lo) false, pred(hi) true and
    hi - lo <= BISECT_REL_TOL * hi.

    Without lo, pred(1) picks the direction: bisection of [0, 1] when it
    holds (its probes halve until pred fails), doubling up from 2 when it
    does not.  A given lo > 0 is a point known to fail pred, never
    evaluated; the upper end then runs 2 lo, 4 lo, ...  Any other lo raises
    PreconditionError, since doubling 0 or a negative lo never brackets.
    """
    if lo is not None and not lo > 0.0:
        raise PreconditionError(f"known lower point must be > 0, got {lo!r}")
    if lo is None:
        if pred(1.0):
            lo, hi = _bisect(pred, 0.0, 1.0)
            if lo == 0.0:
                raise BracketError(
                    f"predicate stayed true down to {hi!r} (last bracket [0.0, {hi!r}])"
                )
            return lo, hi
        lo = 1.0
    return _bisect(pred, *_grow(pred, lo, 2.0 * lo))


def golden_max(
    f: Callable[[float], float],
    lo: float,
    hi: float,
) -> tuple[float, float]:
    """Maximize a unimodal (concave or quasiconcave) f on [lo, hi] by Brent's
    method (Brent, Algorithms for Minimization without Derivatives, 1973,
    ch. 5).

    Each step fits a parabola through the three best interior points and
    takes its vertex when that lies inside the bracket and moves less than
    half the step before the last; otherwise, or when one of the three
    values is not finite, it takes a golden-section step into the larger
    part of the bracket.  No step is shorter than a quarter of the final
    width.  The search stops once the bracket is at most
    GOLDEN_REL_TOL * max(1, |hi|) wide, the width at which golden section
    stopped.  A smooth f needs fewer evaluations, down to a third of golden
    section's (18 against 52 for 2x - x^3 on [0, 5]): the parabolic steps
    find the maximum within a few, but where rounding flattens the top,
    the far end of the bracket still closes by golden-section steps.  A
    kink or a maximum at an end takes about as many as golden section.

    A finite tie moves the best point to the new one and drops the part of
    the bracket beyond the old one, since the maximum lies between them.
    f may return -inf on part of the interval; a tie at -inf keeps the
    older point, so two -inf probes do not walk the bracket away from a
    finite region between them.
    Returns (argmax, max) over all evaluated points, endpoints included.
    """
    best_x, best_f = lo, f(lo)
    fe = f(hi)
    if fe > best_f:
        best_x, best_f = hi, fe

    width = GOLDEN_REL_TOL * max(1.0, abs(hi))
    step_min = 0.25 * width
    a, b = lo, hi
    # x holds the best interior value so far, w the second best and v the
    # previous w; d is the last step and e the one before it
    x = w = v = a + _GOLD_SECTION * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0
    while b - a > width:
        mid = 0.5 * (a + b)
        parabolic = False
        if abs(e) > step_min and math.isfinite(fx + fw + fv):
            # the parabola through (v, w, x) has its vertex at x + p / q
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            parabolic = abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x)
            e = d
        if parabolic:
            d = p / q
            if x + d - a < 2.0 * step_min or b - (x + d) < 2.0 * step_min:
                d = step_min if x < mid else -step_min
        else:
            e = (b if x < mid else a) - x
            d = _GOLD_SECTION * e
        u = x + d if abs(d) >= step_min else x + math.copysign(step_min, d)
        fu = f(u)
        if fu > fx or -math.inf < fu == fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
    if fx > best_f:
        best_x, best_f = x, fx
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
