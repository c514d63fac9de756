"""Musielak-Orlicz generator families and the modular.

A generator is a parametrized convex function phi(t, u) on [0, inf] with
phi(t, 0) = 0, phi(t, inf) = inf, lower semi-continuous in u.  Families are
closed forms so derivatives, the bounds

    a(t) = sup{u >= 0 : phi(t,u) = 0},   b(t) = sup{u >= 0 : phi(t,u) < inf},

the derivative jumps and the convex conjugate are exact.

Derivative conventions used throughout:

* the left derivative at 0 is 0;
* the right derivative at u >= b(t) is math.inf (the function jumps
  beyond its effective domain), which keeps the k-interval bisection
  predicates monotone.

Values, derivatives and bounds are plain floats in [0, inf], with math.inf
for "infinite".  The weighted sums never form 0 * inf, since every weight is
> 0 and phi(t, 0) = 0.  Each constructor checks its parameters once and
exactly, rejecting those whose closed form or conjugate leaves the float
range; evaluation never re-checks them, and its overflow saturates to
math.inf.

Every weighted per-atom sum (the modular, the conjugate modular of the
derivative, the degenerate masses) goes through space.weighted_sum, one
correctly rounded kernel.
"""

from __future__ import annotations

import math
import operator
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

from .errors import DomainError, SpaceMismatchError
from .space import GridMeasureSpace, SimpleFunction, weighted_sum

#: the smallest positive normal float
_MIN_NORMAL = sys.float_info.min

__all__ = [
    "OrliczGenerator",
    "PowerGenerator",
    "VariableExponentGenerator",
    "ExpMinusOneGenerator",
    "XLogXGenerator",
    "LinearGenerator",
    "IndicatorGenerator",
    "Piece",
    "PiecewiseGenerator",
    "TruncatedGenerator",
    "CappedGenerator",
    "subdiff",
    "modular",
    "truncate",
]


def _pow(x: float, p: float, coef: float = 1.0) -> float:
    """coef * x**p with overflow saturating to math.inf; where x**p alone
    leaves the normal floats, the product is formed from logarithms."""
    try:
        power = x**p
    except OverflowError:
        return _pow_from_logs(x, p, coef)
    if power < _MIN_NORMAL:  # x = 0, or x**p underflowed
        return 0.0 if x == 0.0 else _pow_from_logs(x, p, coef)
    return coef * power


def _pow_from_logs(x: float, p: float, coef: float) -> float:
    """coef * x**p for finite x > 0 where x**p leaves the normal floats,
    formed from base-2 logarithms: 0 or inf only where the product itself
    is out of range, not where the power alone is."""
    exponent = p * math.log2(x) + math.log2(coef)
    if exponent >= 1024.0:
        return math.inf
    whole = math.floor(exponent)
    return math.ldexp(2.0 ** (exponent - whole), whole)


def _expm1(x: float) -> float:
    """math.expm1(x) with overflow saturating to math.inf."""
    try:
        return math.expm1(x)
    except OverflowError:
        return math.inf


def _conjugate_power(p: float, c: float) -> tuple[float, float]:
    """(q, c*) = (p/(p-1), (cp)**(-1/(p-1)) * (p-1)/p), the conjugate of
    c * u**p being c* * v**q; ValueError unless q > 1 (q rounds to 1 from p
    of about 2**53 on) and 0 < c* < inf, so the conjugate can be built."""
    q = p / (p - 1.0)
    try:
        c_star = (c * p) ** (-1.0 / (p - 1.0)) * (p - 1.0) / p
    except OverflowError:
        c_star = math.inf
    if not (q > 1.0 and 0.0 < c_star < math.inf):
        raise ValueError(
            f"the conjugate of {c} * u**{p} leaves the float range (q = {q}, c* = {c_star})"
        )
    return q, c_star


class OrliczGenerator:
    """Base class: evaluation, one-sided derivatives, and structure.

    Families override every method that raises NotImplementedError here;
    the conjugate, the derivative jumps and the derivative threshold come in
    closed form."""

    family: str = "abstract"
    #: phi(t, u) < inf for every finite u
    finite_valued: bool = True
    #: phi(t, 2u) <= K phi(t, u) for some K and every u >= 1.25 a(t)
    doubling: bool = False

    # -- evaluation ----------------------------------------------------------

    def phi(self, t: float, u: float) -> float:
        if u < 0:
            raise DomainError(f"phi is defined for u >= 0, got {u}")
        if math.isinf(u):
            return math.inf
        return self._phi(t, u)

    def left_deriv(self, t: float, u: float) -> float:
        """Left derivative, with the convention phi'_-(t, 0) = 0.

        Beyond the effective domain the value is math.inf.
        """
        if u <= 0:
            return 0.0
        if u > self.finite_bound(t):
            return math.inf
        return self._left(t, u)

    def right_deriv(self, t: float, u: float) -> float:
        """Right derivative; math.inf at and beyond b(t)."""
        if u < 0:
            raise DomainError(f"derivative requested at u = {u} < 0")
        b = self.finite_bound(t)
        if math.isfinite(b) and u >= b:
            return math.inf
        return self._right(t, u)

    # -- structure -----------------------------------------------------------

    def zero_bound(self, t: float) -> float:
        return 0.0

    def finite_bound(self, t: float) -> float:
        return math.inf

    # -- to be provided by families -------------------------------------------

    def analytic_conjugate(self) -> "OrliczGenerator":
        """The convex conjugate phi*, in closed form."""
        raise NotImplementedError

    def derivative_jumps(self, t: float) -> list[tuple[float, float, float]]:
        """Jump discontinuities of the derivative as (location, lo, hi),
        with lo = phi'_-(t, location) and hi = phi'_+(t, location) exactly.

        Lists every jump of positive size, the convention gap
        (0, 0, phi'_+(t,0)) included when the right derivative at the origin
        is positive, so the list is empty exactly when phi(t, .) is
        continuously differentiable with phi'(t, 0) = 0.
        """
        raise NotImplementedError

    def derivative_threshold(self, t: float, n: float) -> float:
        """sup{x >= 0 : phi'_-(t, x) <= n} (may be math.inf)."""
        raise NotImplementedError

    def _phi(self, t: float, u: float) -> float:
        raise NotImplementedError

    def _left(self, t: float, u: float) -> float:
        raise NotImplementedError

    def _right(self, t: float, u: float) -> float:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# closed-form families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerGenerator(OrliczGenerator):
    """phi(t, u) = u**p / p with constant p > 1; conjugate is v**q / q."""

    p: float
    family = "power"
    finite_valued = True
    doubling = True

    def __post_init__(self) -> None:
        if not 1.0 < self.p < math.inf:
            raise ValueError(f"power family needs a finite p > 1, got {self.p}")
        _conjugate_power(self.p, 1.0 / self.p)

    def _phi(self, t, u):
        return _pow(u, self.p, 1.0 / self.p)

    def _left(self, t, u):
        return _pow(u, self.p - 1.0)

    def _right(self, t, u):
        return _pow(u, self.p - 1.0) if u > 0 else 0.0

    def analytic_conjugate(self):
        q = self.p / (self.p - 1.0)
        return PowerGenerator(q)

    def derivative_jumps(self, t):
        return []

    def derivative_threshold(self, t, n):
        return _pow(n, 1.0 / (self.p - 1.0))


@dataclass(frozen=True)
class VariableExponentGenerator(OrliczGenerator):
    """phi(t, u) = c(t) * u**p(t) with p(t) > 1, one (p, c) per coordinate.

    ``exponent`` and ``coef`` (None: c = 1) hold one value per entry of
    ``coords``; the generator is defined at exactly those coordinates.  With
    unbounded exponents the family leaves the doubling class, which is the
    interesting regime for the divergence gallery.
    """

    exponent: tuple[float, ...]
    coords: tuple[float, ...]
    coef: tuple[float, ...] | None = None
    family = "varexp"
    finite_valued = True
    doubling = True

    def __post_init__(self) -> None:
        n = len(self.coords)
        if len(self.exponent) != n or (self.coef is not None and len(self.coef) != n):
            raise ValueError("per-atom exponents and coefficients need one value per coordinate")
        if len(self._params) != n:
            raise ValueError("per-atom coordinates must be distinct")
        for t, (p, c) in self._params.items():
            if not (1.0 < p < math.inf and 0.0 < c < math.inf):
                raise ValueError(
                    f"varexp needs finite p > 1 and c > 0, got p = {p}, c = {c} at t = {t}"
                )
            _conjugate_power(p, c)

    @classmethod
    def from_values(
        cls,
        space: GridMeasureSpace,
        p_values: Sequence[float],
        c_values: Sequence[float] | None = None,
    ) -> "VariableExponentGenerator":
        return cls(
            exponent=tuple(float(p) for p in p_values),
            coef=None if c_values is None else tuple(float(c) for c in c_values),
            coords=space.coords,
        )

    @cached_property
    def _params(self) -> dict[float, tuple[float, float]]:
        """Coordinate -> (p, c), built once; evaluation matches t exactly."""
        coef = (1.0,) * len(self.coords) if self.coef is None else self.coef
        return dict(zip(self.coords, zip(self.exponent, coef)))

    def _at(self, t: float) -> tuple[float, float]:
        try:
            return self._params[t]
        except KeyError:
            raise DomainError(f"per-atom parameters are not defined at t = {t}") from None

    def _phi(self, t, u):
        p, c = self._at(t)
        return _pow(u, p, c)

    def _left(self, t, u):
        p, c = self._at(t)
        return _pow(u, p - 1.0, c * p)

    def _right(self, t, u):
        return self._left(t, u) if u > 0 else 0.0

    def analytic_conjugate(self):
        q, c_star = zip(*(_conjugate_power(*self._at(t)) for t in self.coords))
        return VariableExponentGenerator(exponent=q, coords=self.coords, coef=c_star)

    def derivative_jumps(self, t):
        return []

    def derivative_threshold(self, t, n):
        p, c = self._at(t)
        return _pow(n / (c * p), 1.0 / (p - 1.0))


@dataclass(frozen=True)
class ExpMinusOneGenerator(OrliczGenerator):
    """phi(t, u) = exp(u) - 1 - u; grows too fast for the doubling condition."""

    family = "expminusone"
    finite_valued = True

    def _phi(self, t, u):
        return _expm1(u) - u

    def _left(self, t, u):
        return _expm1(u)

    def _right(self, t, u):
        return _expm1(u)

    def analytic_conjugate(self):
        return XLogXGenerator()

    def derivative_jumps(self, t):
        return []

    def derivative_threshold(self, t, n):
        return math.log1p(n)


@dataclass(frozen=True)
class XLogXGenerator(OrliczGenerator):
    """phi(t, v) = (1+v)*log(1+v) - v, the convex conjugate of exp(u)-1-u."""

    family = "xlogx"
    finite_valued = True
    doubling = True

    def _phi(self, t, u):
        return (1.0 + u) * math.log1p(u) - u

    def _left(self, t, u):
        return math.log1p(u)

    def _right(self, t, u):
        return math.log1p(u)

    def analytic_conjugate(self):
        return ExpMinusOneGenerator()

    def derivative_jumps(self, t):
        return []

    def derivative_threshold(self, t, n):
        return _expm1(n)


@dataclass(frozen=True)
class LinearGenerator(OrliczGenerator):
    """phi(t, u) = slope * u; conjugate is the indicator of [0, slope]."""

    slope: float = 1.0
    family = "linear"
    finite_valued = True
    doubling = True

    def __post_init__(self) -> None:
        if not 0.0 < self.slope < math.inf:
            raise ValueError(f"linear family needs a finite slope > 0, got {self.slope}")

    def _phi(self, t, u):
        return self.slope * u

    def _left(self, t, u):
        return self.slope

    def _right(self, t, u):
        return self.slope

    def analytic_conjugate(self):
        return IndicatorGenerator(self.slope)

    def derivative_jumps(self, t):
        return [(0.0, 0.0, self.slope)]

    def derivative_threshold(self, t, n):
        return math.inf if self.slope <= n else 0.0


@dataclass(frozen=True)
class IndicatorGenerator(OrliczGenerator):
    """phi(t, u) = 0 for u <= c, infinity beyond; conjugate is c * v."""

    c: float = 1.0
    family = "indicator"
    finite_valued = False

    def __post_init__(self) -> None:
        if not 0.0 < self.c < math.inf:
            raise ValueError(f"indicator family needs a finite threshold c > 0, got {self.c}")

    def _phi(self, t, u):
        return 0.0 if u <= self.c else math.inf

    def _left(self, t, u):
        return 0.0

    def _right(self, t, u):
        # the base wrapper returns infinity at and beyond u = c
        return 0.0

    def zero_bound(self, t):
        return self.c

    def finite_bound(self, t):
        return self.c

    def analytic_conjugate(self):
        return LinearGenerator(self.c)

    def derivative_jumps(self, t):
        return [(self.c, 0.0, math.inf)]

    def derivative_threshold(self, t, n):
        return self.c


# ---------------------------------------------------------------------------
# piecewise linear-quadratic family
# ---------------------------------------------------------------------------


class Piece(NamedTuple):
    """One derivative segment: phi'(x) = (level at start) + slope*(x - start).

    width   length of the segment (None only for the final unbounded one)
    jump    derivative jump at the segment start (piece 0: the slope at 0+)
    slope   growth rate of the derivative on the segment
    """

    width: float | None
    jump: float
    slope: float


@dataclass(frozen=True)
class PiecewiseGenerator(OrliczGenerator):
    """Convex piecewise linear/quadratic generator with derivative jumps.

    The class is closed under conjugation: derivative jumps become flat
    derivative segments of the conjugate and vice versa; a linear tail
    becomes a bounded effective domain.
    """

    pieces: tuple[Piece, ...]
    bounded: bool = False
    family = "plq"

    def __post_init__(self) -> None:
        pieces = tuple(
            Piece(None if p.width is None else float(p.width), float(p.jump), float(p.slope))
            for p in self.pieces
        )
        object.__setattr__(self, "pieces", pieces)
        _check_pieces(pieces, self.bounded)
        try:
            _check_pieces(*_conjugate_pieces(pieces, self.bounded))
        except ValueError as exc:
            raise ValueError(f"the conjugate is not representable: {exc}") from None

    @cached_property
    def _table(self):
        """(starts, start_derivs, start_values, end, end_value, end_deriv)."""
        return _piece_table(self.pieces, self.bounded)

    @property
    def finite_valued(self):  # type: ignore[override]
        return not self.bounded

    @property
    def doubling(self):  # type: ignore[override]
        return not self.bounded

    def _locate_right(self, u: float) -> int:
        starts = self._table[0]
        return max(0, bisect_right(starts, u) - 1)

    def _phi(self, t, u):
        starts, derivs, values, end, end_value, _ = self._table
        if self.bounded and u > end:
            return math.inf
        if self.bounded and u == end:
            return end_value
        j = self._locate_right(u)
        du = u - starts[j]
        return values[j] + derivs[j] * du + 0.5 * self.pieces[j].slope * du * du

    def _left(self, t, u):
        starts, derivs, _, end, _, end_deriv = self._table
        if self.bounded and u >= end:
            return end_deriv
        j = bisect_left(starts, u) - 1
        return derivs[j] + self.pieces[j].slope * (u - starts[j])

    def _right(self, t, u):
        starts, derivs, _, _, _, _ = self._table
        j = self._locate_right(u)
        return derivs[j] + self.pieces[j].slope * (u - starts[j])

    def zero_bound(self, t):
        starts, derivs, _, end, _, _ = self._table
        for j, p in enumerate(self.pieces):
            if derivs[j] > 0 or p.slope > 0:
                return starts[j]
        return end

    def finite_bound(self, t):
        return self._table[3]

    def derivative_jumps(self, t):
        starts, derivs, _, end, _, end_deriv = self._table
        out: list[tuple[float, float, float]] = []
        if self.pieces[0].jump > 0:
            out.append((0.0, 0.0, derivs[0]))
        for j in range(1, len(self.pieces)):
            p = self.pieces[j]
            if p.jump > 0:
                out.append((starts[j], self._left(t, starts[j]), derivs[j]))
        if self.bounded:
            out.append((end, end_deriv, math.inf))
        return out

    def analytic_conjugate(self):
        return PiecewiseGenerator(*_conjugate_pieces(self.pieces, self.bounded))

    def derivative_threshold(self, t, n):
        starts, derivs, _, end, _, end_deriv = self._table
        for j, p in enumerate(self.pieces):
            if derivs[j] > n:
                return starts[j]
            if p.slope > 0:
                seg_end = derivs[j] + (
                    p.slope * p.width if p.width is not None else math.inf
                )
                if seg_end > n:
                    return starts[j] + (n - derivs[j]) / p.slope
        return end


def _piece_table(pieces: tuple[Piece, ...], bounded: bool):
    starts: list[float] = []
    derivs: list[float] = []
    values: list[float] = []
    x, val, d = 0.0, 0.0, 0.0
    for p in pieces:
        d += p.jump
        starts.append(x)
        derivs.append(d)
        values.append(val)
        if p.width is not None:
            val += d * p.width + 0.5 * p.slope * p.width**2
            d += p.slope * p.width
            x += p.width
    end = x if bounded else math.inf
    return tuple(starts), tuple(derivs), tuple(values), end, val, d


def _check_pieces(pieces: tuple[Piece, ...], bounded: bool) -> None:
    """ValueError unless the pieces define a generator whose piece table
    holds them: finite values and derivatives at every piece start and at the
    end, and starts that strictly increase (no width lost to rounding)."""
    if not pieces:
        raise ValueError("need at least one piece")
    for i, p in enumerate(pieces):
        if not (0.0 <= p.jump < math.inf and 0.0 <= p.slope < math.inf):
            raise ValueError(f"piece {i}: jumps and slopes must be finite and >= 0")
        if p.width is not None and not 0.0 < p.width < math.inf:
            raise ValueError(f"piece {i}: width must be finite and > 0")
        if p.width is None and i != len(pieces) - 1:
            raise ValueError("only the final piece may be unbounded")
    if (pieces[-1].width is None) == bounded:
        raise ValueError("the final piece needs a width exactly when phi is bounded")
    try:
        starts, derivs, values, end, end_value, end_deriv = _piece_table(pieces, bounded)
        xs = (*starts, end) if bounded else starts
        holds = all(map(math.isfinite, (*xs, *derivs, *values, end_value, end_deriv)))
        holds = holds and all(map(operator.lt, xs, xs[1:]))
    except OverflowError:  # a width**2 past the float range
        holds = False
    if not holds:
        raise ValueError("the piece table leaves the float range or loses a piece to rounding")
    if not bounded and end_deriv == 0.0 and pieces[-1].slope == 0.0:
        raise ValueError("phi must eventually grow (phi(inf) = inf)")


def _conjugate_pieces(pieces: tuple[Piece, ...], bounded: bool):
    """(pieces, bounded) of the convex conjugate."""
    conj: list[Piece] = []
    pending = 0.0
    d0 = pieces[0].jump
    if d0 > 0:
        conj.append(Piece(d0, 0.0, 0.0))
    conj_bounded = False
    for j, p in enumerate(pieces):
        if j >= 1 and p.jump > 0:
            conj.append(Piece(p.jump, pending, 0.0))
            pending = 0.0
        if p.slope > 0:
            width = None if p.width is None else p.slope * p.width
            conj.append(Piece(width, pending, 1.0 / p.slope))
            pending = 0.0
        else:
            if p.width is None:
                conj_bounded = True
            else:
                pending += p.width
    if bounded:
        conj.append(Piece(None, pending, 0.0))
    return tuple(conj), conj_bounded


# ---------------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruncatedGenerator(OrliczGenerator):
    """Derivative capped at n: phi_n(t,u) = integral of min(phi'_-(t,x), n).

    Finite-valued, below the base generator, and increasing to it as n grows.
    """

    base: OrliczGenerator
    n: float
    family = "truncated"
    finite_valued = True
    doubling = True

    _thresholds: dict = field(default_factory=dict, compare=False, hash=False)

    def __post_init__(self) -> None:
        if not self.n > 0:
            raise ValueError("truncation level must be > 0")

    def _threshold(self, t: float) -> float:
        u_n = self._thresholds.get(t)
        if u_n is None:
            u_n = min(self.base.derivative_threshold(t, self.n), self.base.finite_bound(t))
            self._thresholds[t] = u_n
        return u_n

    def _phi(self, t, u):
        u_n = self._threshold(t)
        if u <= u_n:
            return self.base.phi(t, u)
        head = self.base.phi(t, u_n)
        return head + self.n * (u - u_n)

    def _left(self, t, u):
        return min(self.base.left_deriv(t, u), self.n)

    def _right(self, t, u):
        return min(self.base.right_deriv(t, u), self.n)

    def zero_bound(self, t):
        return self.base.zero_bound(t)

    def derivative_jumps(self, t):
        out = []
        for x, lo, hi in self.base.derivative_jumps(t):
            lo2, hi2 = min(lo, self.n), min(hi, self.n)
            if lo2 < hi2:
                out.append((x, lo2, hi2))
        return out

    def derivative_threshold(self, t, n):
        if n >= self.n:
            return math.inf
        return self.base.derivative_threshold(t, n)

    def analytic_conjugate(self):
        # truncation is the infimal convolution phi # n|.|, so its conjugate
        # is phi* + the indicator of [0, n] (Rockafellar 1970, Thm 16.4)
        return CappedGenerator(self.base.analytic_conjugate(), self.n)


@dataclass(frozen=True)
class CappedGenerator(OrliczGenerator):
    """Domain capped at c: phi(t,u) for u <= c, infinity beyond.

    The conjugate of truncate(phi*, c); the pair is closed under
    conjugation.
    """

    base: OrliczGenerator
    cap: float
    family = "capped"
    finite_valued = False

    def __post_init__(self) -> None:
        if not self.cap > 0:
            raise ValueError("domain cap must be > 0")

    def _phi(self, t, u):
        return self.base.phi(t, u) if u <= self.cap else math.inf

    def _left(self, t, u):
        return self.base.left_deriv(t, u)

    def _right(self, t, u):
        return self.base.right_deriv(t, u)

    def zero_bound(self, t):
        return min(self.base.zero_bound(t), self.cap)

    def finite_bound(self, t):
        return min(self.base.finite_bound(t), self.cap)

    def analytic_conjugate(self):
        return truncate(self.base.analytic_conjugate(), self.cap)

    def derivative_jumps(self, t):
        b = self.finite_bound(t)
        out = [j for j in self.base.derivative_jumps(t) if j[0] < b]
        out.append((b, self.left_deriv(t, b), math.inf))
        return out

    def derivative_threshold(self, t, n):
        return min(self.base.derivative_threshold(t, n), self.finite_bound(t))


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def subdiff(gen: OrliczGenerator, t: float, u: float) -> tuple[float, float]:
    """The subdifferential interval [phi'_-(t,u), phi'_+(t,u)].

    Raises DomainError beyond b(t).  At u = 0 the lower end is 0 by
    convention; at u = b(t) the upper end is math.inf.
    """
    if u < 0:
        raise DomainError(f"subdifferential requested at u = {u} < 0")
    b = gen.finite_bound(t)
    if u > b:
        raise DomainError(f"u = {u} lies outside the effective domain (b = {b})")
    return gen.left_deriv(t, u), gen.right_deriv(t, u)


def modular(
    gen: OrliczGenerator, space: GridMeasureSpace, u: SimpleFunction
) -> float:
    """I(u) = sum_i w_i * phi(t_i, |u_i|); infinite if any atom is.

    The sum is correctly rounded (weighted_sum), so it does not depend on the
    atom order."""
    if u.space != space:
        raise SpaceMismatchError("function does not live on the given space")
    values = []
    for t, ui in zip(space.coords, u.values):
        values.append(gen.phi(t, abs(ui)))
    return weighted_sum(space.weights, values)


def truncate(gen: OrliczGenerator, n: float) -> TruncatedGenerator:
    """The derivative-capped generator; finite-valued and <= gen pointwise."""
    return TruncatedGenerator(gen, float(n))
