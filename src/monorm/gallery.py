"""Divergence gallery: grid analogues of functions whose modular is finite
up to a critical scaling and blows up beyond it.

The instance is the variable-exponent generator p(t) = 1 + 1/t on refining
midpoint grids of [0, 1].  Dyadic blocks A_n = (2^-n, 2^-(n-1)] get a
constant level c_n with block modular 1 and a damping factor
lambda_n = 2^(-n / min p) so that

    u_low  = lambda_n c_n on A_n   (modular bounded for scalings <= 1,
                                    exploding above 1 as the grid refines)
    u_high = c_n on A_n            (modular ~ block count already at 1).

This is a heuristic grid construction demonstrating the divergence trend,
not a theorem check; the blow-up becomes visible once the grid carries
exponents of a few thousand (resolutions around 2^12).
"""

from __future__ import annotations

import math

from .generators import VariableExponentGenerator, modular
from .solvers import monotone_cap
from .space import GridMeasureSpace, SimpleFunction, weighted_sum

__all__ = ["gallery_report"]

DEFAULT_LADDER = (256, 1024, 4096)
DEFAULT_SCALINGS = (0.0, 0.5, 0.99, 1.0, 1.01)


def _exponent(t: float) -> float:
    return 1.0 + 1.0 / t


def _blocks(space: GridMeasureSpace) -> list[list[int]]:
    """Dyadic blocks by coordinate; leftover deep atoms join the last block."""
    blocks: list[list[int]] = []
    n = 1
    assigned = [False] * len(space)
    while True:
        lo, hi = 2.0**-n, 2.0 ** -(n - 1)
        idx = [i for i, t in enumerate(space.coords) if lo < t <= hi]
        if not idx:
            break
        for i in idx:
            assigned[i] = True
        blocks.append(idx)
        n += 1
    rest = [i for i, a in enumerate(assigned) if not a]
    if rest:
        if blocks:
            blocks[-1].extend(rest)
        else:
            blocks.append(rest)
    return blocks


def _block_level(gen, space, idx) -> float:
    """The constant c with sum_{i in block} w_i phi(t_i, c) = 1."""
    coords = [space.coords[i] for i in idx]
    weights = [space.weights[i] for i in idx]

    def block_modular(c: float) -> float:
        return weighted_sum(weights, [gen.phi(t, c) for t in coords])

    # the largest float with block modular below 1; the modular is
    # nondecreasing in floats, so the level lies before the next one
    lo = monotone_cap(block_modular, math.nextafter(1.0, 0.0), 0.0, math.inf)
    return 0.5 * (lo + math.nextafter(lo, math.inf))


def _build(space: GridMeasureSpace):
    gen = VariableExponentGenerator.from_values(space, [_exponent(t) for t in space.coords])
    blocks = _blocks(space)
    low = [0.0] * len(space)
    high = [0.0] * len(space)
    for n, idx in enumerate(blocks, start=1):
        c = _block_level(gen, space, idx)
        p_min = min(_exponent(space.coords[i]) for i in idx)
        lam = 2.0 ** (-n / p_min)
        for i in idx:
            low[i] = lam * c
            high[i] = c
    return gen, len(blocks), SimpleFunction.on(space, low), SimpleFunction.on(space, high)


def gallery_report(resolutions: tuple[int, ...] = DEFAULT_LADDER) -> dict:
    """Modulars of the two gallery functions at DEFAULT_SCALINGS along the
    resolution ladder; values beyond float range appear as "inf"."""
    ladder = []
    for resolution in resolutions:
        space = GridMeasureSpace.uniform(resolution)
        gen, n_blocks, u_low, u_high = _build(space)
        entry: dict = {"resolution": resolution, "blocks": n_blocks}
        low: dict[str, object] = {}
        high: dict[str, object] = {}
        for lam in DEFAULT_SCALINGS:
            key = f"{lam:g}"
            low[key] = modular(gen, space, u_low * lam)
            high[key] = modular(gen, space, u_high * lam)
        entry["modular_low"] = low
        entry["modular_high"] = high
        ladder.append(entry)
    return {
        "note": (
            "heuristic grid construction; finite below the critical scaling, "
            "blowing up above it as the grid refines"
        ),
        "exponent": "p(t) = 1 + 1/t",
        "ladder": ladder,
    }
