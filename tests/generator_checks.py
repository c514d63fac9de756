"""The sampled check of a generator's defining properties.

validate_generator tests hand-built and extreme-parameter generators
against the axioms on a sample grid; the built-in families pass it.  Instance
files never go through it: each family's constructor checks its parameters
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from monorm import GridMeasureSpace, OrliczGenerator


@dataclass(frozen=True)
class Violation:
    check: str
    t: float
    detail: str


def validate_generator(gen: OrliczGenerator, space: GridMeasureSpace) -> list[Violation]:
    """Numerically assert the defining properties on a sample grid.

    Checks: phi(t,0) = 0 with the right limit 0 (by the chord bound at
    the grid's first point, so at any scale), values and one-sided
    derivatives neither NaN nor negative, monotonicity, midpoint convexity,
    lower semi-continuity at a finite b(t), ordered and nondecreasing
    one-sided derivatives, phi(t,inf) = inf.
    Returns an empty list for every built-in family.
    """
    out: list[Violation] = []
    ts = space.coords[:50]
    for t in ts:
        b = gen.finite_bound(t)
        top = min(b * 0.999, 50.0)
        grid = sorted(
            {0.0, top}
            | {top * j / 49.0 for j in range(1, 49)}
            | {top * 10.0**-k for k in range(1, 7)}
        )

        if gen.phi(t, 0.0) != 0.0:
            out.append(Violation("zero_at_origin", t, f"phi(t,0) = {gen.phi(t, 0.0)}"))
        # convexity and phi(t,0) = 0 give phi(t,h) <= (h/x) phi(t,x) for h < x,
        # at any scale of phi or u; a jump phi(t,0+) > 0 breaks it as h -> 0
        x = top * 1e-6  # the grid's first positive point
        small, chord = gen.phi(t, 1e-3 * x), 1e-3 * gen.phi(t, x)
        if small > chord * (1.0 + 1e-9):
            out.append(Violation("limit_at_origin", t, f"phi(t,{1e-3 * x}) = {small}"))
        if gen.phi(t, math.inf) != math.inf:
            out.append(Violation("infinite_at_infinity", t, "phi(t,inf) finite"))

        prev = 0.0
        for u in grid:
            cur = gen.phi(t, u)
            if not cur >= 0.0:
                out.append(Violation("nan_or_negative", t, f"phi(t,{u}) = {cur}"))
            if cur < prev:
                out.append(Violation("monotone", t, f"phi decreases at u = {u}"))
            prev = cur

        for i in range(len(grid) - 2):
            u1, u2 = grid[i], grid[i + 2]
            mid = 0.5 * (u1 + u2)
            f1, f2, fm = gen.phi(t, u1), gen.phi(t, u2), gen.phi(t, mid)
            if math.isfinite(f1) and math.isfinite(f2) and math.isfinite(fm):
                slack = 0.5 * (f1 + f2) - fm
                if slack < -1e-12 * max(1.0, f1 + f2):
                    out.append(
                        Violation(
                            "midpoint_convexity",
                            t,
                            f"witness ({u1}, {mid}, {u2}): slack {slack:.3e}",
                        )
                    )

        if math.isfinite(b):
            val_at_b = gen.phi(t, b)
            approach = gen.phi(t, b * (1.0 - 1e-9))
            if math.isfinite(val_at_b) != math.isfinite(approach) or (
                math.isfinite(val_at_b)
                and abs(val_at_b - approach) > 1e-6 * (1.0 + val_at_b)
            ):
                out.append(Violation("lower_semicontinuity", t, f"jump at b = {b}"))

        prev_lo, prev_hi = 0.0, 0.0
        for u in grid:
            if u > b:
                continue
            lo, hi = gen.left_deriv(t, u), gen.right_deriv(t, u)
            if not (lo >= 0.0 and hi >= 0.0):
                out.append(
                    Violation("nan_or_negative", t, f"derivatives ({lo}, {hi}) at u = {u}")
                )
            if lo > hi:
                out.append(Violation("derivative_order", t, f"lo > hi at u = {u}"))
            if u > 0 and (lo < prev_lo or hi < prev_hi):
                out.append(Violation("derivative_monotone", t, f"decrease at u = {u}"))
            prev_lo, prev_hi = lo, hi
    return out
