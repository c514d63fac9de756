"""Discretized measure spaces and the simple functions living on them.

A non-atomic sigma-finite measure space is simulated by a finite list of
weighted atoms; statements relying on non-atomicity are tested along
ladders of finer grids.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import Sequence

from .errors import SpaceMismatchError

__all__ = ["GridMeasureSpace", "SimpleFunction", "pairing", "sgn", "weighted_sum"]


def weighted_sum(weights: Sequence[float], values: Sequence[float]) -> float:
    """sum_i w_i * x_i, correctly rounded (math.fsum), so the result does not
    depend on the atom order or on the interpreter.  Every per-atom float sum
    of the package goes through it, except the degenerate Orlicz norm
    (norms._l1_against_bound, which says why).

    When fsum raises (the finite terms sum past the float range, or the
    terms hold both +inf and -inf) the builtin sum of the same terms is
    returned: math.inf for terms in [0, inf], and +-inf or nan for the
    signed terms of pairing.

    Callers inside bisections build the value list with a plain loop: on
    CPython 3.11 a list comprehension closing over the generator made the
    brute-force oracles about 10% slower."""
    try:
        return math.fsum(map(operator.mul, weights, values))
    except (OverflowError, ValueError):
        return sum(map(operator.mul, weights, values))


def sgn(x: float) -> int:
    """Sign with sgn(0) = 0."""
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


@dataclass(frozen=True)
class GridMeasureSpace:
    """Ordered atoms (coordinate, weight > 0); each atom stands for a cell
    of width equal to its weight, centred at its coordinate.

    A weight must be a normal float: below sys.float_info.min a unit
    modular needs phi to reach 1/w, past the float range, so phi saturates
    before the weight scales it back and the norms come out wrong."""

    coords: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.coords:
            raise ValueError("measure space needs at least one atom")
        if len(self.coords) != len(self.weights):
            raise ValueError("coordinate/weight lists differ in length")
        for i, w in enumerate(self.weights):
            if not w > 0:
                raise ValueError(f"atom {i}: weight must be > 0, got {w}")
            if w < sys.float_info.min:
                raise ValueError(
                    f"atom {i}: weight must be a normal float "
                    f"(>= {sys.float_info.min!r}), got {w!r}"
                )
        for i in range(len(self.coords) - 1):
            if not self.coords[i] < self.coords[i + 1]:
                raise ValueError(
                    f"atom coordinates must be strictly increasing at index {i}"
                )

    @classmethod
    def uniform(cls, n: int) -> "GridMeasureSpace":
        """Midpoints of a uniform partition of [0, 1] into n cells."""
        if n < 1:
            raise ValueError("need at least one cell")
        h = 1.0 / n
        coords = tuple((j + 0.5) * h for j in range(n))
        return cls(coords, (h,) * n)

    def __len__(self) -> int:
        return len(self.coords)

    def items(self):
        return zip(self.coords, self.weights)


@dataclass(frozen=True)
class SimpleFunction:
    """Real values on the atoms of a grid measure space."""

    space: GridMeasureSpace
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.space):
            raise SpaceMismatchError(
                f"function has {len(self.values)} values for "
                f"{len(self.space)} atoms"
            )

    @classmethod
    def on(cls, space: GridMeasureSpace, values) -> "SimpleFunction":
        return cls(space, tuple(float(v) for v in values))

    @classmethod
    def constant(cls, space: GridMeasureSpace, c: float) -> "SimpleFunction":
        return cls(space, (float(c),) * len(space))

    def support(self) -> tuple[int, ...]:
        """Atom indices where the function is nonzero."""
        return tuple(i for i, v in enumerate(self.values) if v != 0.0)

    def is_zero(self) -> bool:
        return all(v == 0.0 for v in self.values)

    def __mul__(self, c: float) -> "SimpleFunction":
        return SimpleFunction(self.space, tuple(c * v for v in self.values))

    __rmul__ = __mul__

    def __add__(self, other: "SimpleFunction") -> "SimpleFunction":
        _check_same_space(self, other)
        return SimpleFunction(
            self.space, tuple(a + b for a, b in zip(self.values, other.values))
        )

    def __neg__(self) -> "SimpleFunction":
        return self * -1.0


def _check_same_space(u: SimpleFunction, v: SimpleFunction) -> None:
    if u.space != v.space:
        raise SpaceMismatchError("functions live on different spaces")


def pairing(u: SimpleFunction, v: SimpleFunction) -> float:
    """The duality pairing  sum_i w_i u_i v_i  (the integral of u*v)."""
    _check_same_space(u, v)
    return weighted_sum(u.space.weights, [a * b for a, b in zip(u.values, v.values)])
