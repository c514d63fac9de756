"""The three norms on a Musielak-Orlicz space, the Amemiya minimizer
interval, the finiteness threshold theta, and the doubling-condition checker.

Norm conventions:

* Luxemburg:  ||u|| = inf{lambda > 0 : I(u/lambda) <= 1};
* Orlicz = Amemiya:  ||u||_0 = inf_{k>0} (1 + I(k u)) / k, with the infimum
  attained exactly on [k*, k**] unless the conjugate modular of
  b*(t) on the support of u is <= 1, in which case the norm degenerates to
  the weighted-L1 expression  integral of |u| b*.

All bisections run to relative bracket width 1e-10.  K(u) carries the
bisection brackets of its ends: k* lies in the first, and k** in a second
one when the quotient is flat past k*, or in the first one again when that
bracket already shows k** = k*.  The reported k* and k** are the bracket
midpoints; the Orlicz norm and the geometry read the bracket ends.
Downstream "= 1" tests use a 1e-7 equality band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .conjugate import conjugate
from .errors import DomainError, PreconditionError
from .generators import OrliczGenerator, modular
from .solvers import monotone_boundary
from .space import GridMeasureSpace, SimpleFunction, weighted_sum

__all__ = [
    "KSetNonEmpty",
    "KSetDegenerate",
    "KSet",
    "luxemburg_norm",
    "k_interval",
    "orlicz_amemiya_norm",
    "theta",
    "delta2_check",
    "Delta2Verdict",
    "Delta2Witness",
    "power_norm_closed_forms",
    "derivative_modular",
]

@dataclass(frozen=True)
class KSetNonEmpty:
    """Minimizer interval [k*, k**] of the Amemiya quotient, held as the
    (lo, hi) bisection brackets of its ends: k* in star, k** in dstar."""

    star: tuple[float, float]
    dstar: tuple[float, float]

    def __post_init__(self) -> None:
        (lo1, hi1), (lo2, hi2) = self.star, self.dstar
        if not (0 < lo1 <= hi1 and lo1 <= lo2 <= hi2 and hi1 <= hi2):
            raise ValueError("need 0 < k* <= k** with nested brackets")

    @property
    def k_star(self) -> float:
        return 0.5 * (self.star[0] + self.star[1])

    @property
    def k_double_star(self) -> float:
        return 0.5 * (self.dstar[0] + self.dstar[1])

    @property
    def is_degenerate(self) -> bool:
        return False


@dataclass(frozen=True)
class KSetDegenerate:
    """The infimum is not attained; the norm equals integral |u| b*."""

    l1_value: float

    @property
    def is_degenerate(self) -> bool:
        return True


KSet = KSetNonEmpty | KSetDegenerate


def luxemburg_norm(
    gen: OrliczGenerator, space: GridMeasureSpace, u: SimpleFunction
) -> float:
    """inf{lambda > 0 : I(u/lambda) <= 1} by bisection on the nonincreasing
    modular; an infinite modular counts as > 1.  Returns 0 for u = 0."""
    if u.is_zero():
        return 0.0

    def feasible(lam: float) -> bool:
        return modular(gen, space, u * (1.0 / lam)) <= 1.0

    _, hi = monotone_boundary(feasible)
    return hi


def derivative_modular(
    gen: OrliczGenerator,
    conj: OrliczGenerator,
    space: GridMeasureSpace,
    u: SimpleFunction,
    k: float,
) -> float:
    """I*(phi'_+(., k|u|)): the conjugate modular of the right derivative,
    treating arguments at or beyond b(t) as infinite."""
    values = []
    for t, ui in zip(space.coords, u.values):
        values.append(conj.phi(t, gen.right_deriv(t, k * abs(ui))))
    return weighted_sum(space.weights, values)


def _degenerate_mass(
    conj: OrliczGenerator, space: GridMeasureSpace, u: SimpleFunction
) -> float:
    """I*(b* chi_supp u)."""
    return weighted_sum(
        space.weights,
        [
            conj.phi(t, conj.finite_bound(t)) if ui != 0.0 else 0.0
            for t, ui in zip(space.coords, u.values)
        ],
    )


def _l1_against_bound(
    conj: OrliczGenerator, space: GridMeasureSpace, u: SimpleFunction
) -> float:
    """The degenerate Orlicz norm, the integral of |u| b*.

    The one per-atom sum that does not go through weighted_sum: it is the
    builtin sum of the terms w_i |u_i| b*(t_i) in atom order.  Selftest
    criterion 5 compares this norm for the linear family with == against the
    builtin sum of the same terms.  That sum is left to right on CPython
    3.10-3.11 and compensated from 3.12 on, and a correctly rounded sum
    differs from both on some inputs, so only the builtin sum matches the
    check on every interpreter.  The result therefore depends on the atom
    order (and, in the last bits, on the interpreter).

    Each term is formed by _product, which scales only by powers of two, so
    it has the bits of the left-to-right product wherever that product and
    w_i |u_i| are normal floats, and stays finite where w |u| alone would
    overflow."""
    terms = []
    for (t, w), ui in zip(space.items(), u.values):
        if ui == 0.0:
            continue
        b = conj.finite_bound(t)
        if math.isinf(b):
            raise DomainError("degenerate norm requires finite b* on the support")
        terms.append(_product(w, abs(ui), b))
    return sum(terms)


def _product(*factors: float) -> float:
    """The product of finite factors, rounded as in left-to-right order
    but with no overflow or underflow before the last step: the mantissas
    are multiplied, and the exponents added, apart."""
    mantissa, exponent = 1.0, 0
    for x in factors:
        f, e = math.frexp(x)
        mantissa *= f
        exponent += e
    try:
        return math.ldexp(mantissa, exponent)
    except OverflowError:
        return math.inf


def k_interval(gen: OrliczGenerator, space: GridMeasureSpace, u: SimpleFunction) -> KSet:
    """The Amemiya minimizer set.

    Tests the degenerate branch I*(b* chi_supp) <= 1 first (otherwise the
    upper bisection would not terminate), then brackets the nondecreasing
    map k -> I*(phi'_+(., k|u|)) against level 1 from below; a second
    bracket for k** runs only when the map equals 1 at the top of the
    first one, i.e. when the minimizer set may be a proper interval.
    """
    if u.is_zero():
        raise DomainError("K(u) is undefined for u = 0")
    conj = conjugate(gen)
    if _degenerate_mass(conj, space, u) <= 1.0:
        return KSetDegenerate(_l1_against_bound(conj, space, u))

    def at_least_one(k: float) -> bool:
        return derivative_modular(gen, conj, space, u, k) >= 1.0

    def above_one(k: float) -> bool:
        return derivative_modular(gen, conj, space, u, k) > 1.0

    star = monotone_boundary(at_least_one)
    if above_one(star[1]):
        # k* <= k** <= hi1: the first bracket already pins k** = k*
        return KSetNonEmpty(star, star)
    dstar = monotone_boundary(above_one, lo=star[1])
    return KSetNonEmpty(star, dstar)


def _amemiya_objective(
    gen: OrliczGenerator, space: GridMeasureSpace, u: SimpleFunction, k: float
) -> float:
    return (1.0 + modular(gen, space, u * k)) / k


def orlicz_amemiya_norm(
    gen: OrliczGenerator, space: GridMeasureSpace, u: SimpleFunction
) -> tuple[float, KSet]:
    """The Orlicz norm via the Amemiya expression, together with K(u).

    On the non-degenerate branch the quotient is evaluated at both ends of
    the k* bracket and at its midpoint, since the modular may jump to
    infinity across the true minimizer.  The quotient falls before K(u) and
    rises after it, so no probe outside the bracket could do better."""
    if u.is_zero():
        return 0.0, KSetDegenerate(0.0)
    ks = k_interval(gen, space, u)
    if isinstance(ks, KSetDegenerate):
        return ks.l1_value, ks
    best = min(
        _amemiya_objective(gen, space, u, k)
        for k in (ks.star[0], ks.k_star, ks.star[1])
    )
    if math.isinf(best):
        raise DomainError("Amemiya quotient infinite on the whole k* bracket")
    return best, ks


def theta(gen: OrliczGenerator, space: GridMeasureSpace, u: SimpleFunction) -> float:
    """inf{lambda > 0 : I(u/lambda) < inf}; zero for finite-valued families.

    Computed atomwise: the constraint |u_i|/lambda <= b(t_i) binds exactly
    where the generator is extended-valued, so theta = max_i |u_i|/b(t_i).
    """
    if gen.finite_valued:
        return 0.0
    worst = 0.0
    for (t, _), ui in zip(space.items(), u.values):
        if ui == 0.0:
            continue
        worst = max(worst, abs(ui) / gen.finite_bound(t))
    return worst


#: log-spaced steps per atom in delta2_check's scan
DELTA2_SAMPLES = 48


@dataclass(frozen=True)
class Delta2Witness:
    t: float
    u: float
    lhs: float
    rhs: float
    ratio: float | None


@dataclass(frozen=True)
class Delta2Verdict:
    holds: bool
    witness: Delta2Witness | None
    checked: int


def delta2_check(
    gen: OrliczGenerator,
    space: GridMeasureSpace,
    K: float,
    f: SimpleFunction | float | None = None,
    u_max: float = 16.0,
) -> Delta2Verdict:
    """Sampled falsifier for phi(t, 2u) <= K phi(t, u) for all u >= f(t).

    Scans DELTA2_SAMPLES log-spaced steps per atom up to a horizon plus
    probes at b(t); a "holds" verdict is over the sample only.  Requires
    K > 1, a horizon u_max > 0 and a threshold f with finite modular, that
    is f <= b at every atom (phi is finite at a finite b).  A probe u with 2u <= b(t) at which
    both sides overflow the floats cannot be ordered; unless a witness turns
    up elsewhere, such a probe raises PreconditionError rather than pass.
    Past b(t), phi(t, 2u) = inf is exact and a witness even when K phi(t, u)
    overflows.
    """
    if not K > 1:
        raise PreconditionError("doubling constant must exceed 1")
    if not u_max > 0:
        raise PreconditionError("horizon must be > 0")
    if f is None:
        f = SimpleFunction.constant(space, 0.0)
    elif isinstance(f, (int, float)):
        f = SimpleFunction.constant(space, float(f))
    if any(v < 0 for v in f.values):
        raise PreconditionError("threshold function must be nonnegative")
    if any(fi > gen.finite_bound(t) for t, fi in zip(space.coords, f.values)):
        raise PreconditionError("threshold function must have finite modular")

    checked = 0
    undecided = None
    for (t, _), fi in zip(space.items(), f.values):
        b = gen.finite_bound(t)
        probes = {fi}
        lo = max(fi, 1e-3)
        hi = max(u_max, 2.0 * fi + 1.0)
        step = (hi / lo) ** (1.0 / DELTA2_SAMPLES)
        x = lo
        for _ in range(DELTA2_SAMPLES + 1):
            # past b both sides are inf, and inf <= K inf says nothing
            if fi <= x <= b:
                probes.add(x)
            x *= step
        if math.isfinite(b):
            for cand in (b, b * 0.999, b * 0.5):
                if cand >= fi:
                    probes.add(cand)
        for uu in sorted(probes):
            lhs = gen.phi(t, 2.0 * uu)
            rhs = gen.phi(t, uu) * K
            checked += 1
            # relative slack absorbs float rounding in exactly-homogeneous cases
            bound = rhs + 1e-12 * rhs
            if lhs >= bound:
                if lhs == bound < math.inf:
                    continue
                if lhs == bound and 2.0 * uu <= b:
                    # both sides are finite reals past the float range
                    undecided = undecided or (t, uu)
                    continue
                base = gen.phi(t, uu)
                ratio = (
                    lhs / base
                    if math.isfinite(lhs) and math.isfinite(base) and base > 0
                    else None
                )
                return Delta2Verdict(False, Delta2Witness(t, uu, lhs, rhs, ratio), checked)
    if undecided is not None:
        t, uu = undecided
        raise PreconditionError(
            f"phi(t, 2u) and K phi(t, u) both overflow the floats at t = {t!r}, "
            f"u = {uu!r}, so the sample cannot decide the doubling inequality there"
        )
    return Delta2Verdict(True, None, checked)


def power_norm_closed_forms(
    p: float, space: GridMeasureSpace, u: SimpleFunction
) -> tuple[float, float]:
    """Single-variable calculus oracle for the power family phi = u**p / p:

        Luxemburg = p**(-1/p) * (integral |u|**p)**(1/p)
        Orlicz    = q**( 1/q) * (integral |u|**p)**(1/p),  1/p + 1/q = 1.
    """
    if u.is_zero():
        return 0.0, 0.0
    q = p / (p - 1.0)
    mass = weighted_sum(space.weights, [abs(ui) ** p for ui in u.values])
    return p ** (-1.0 / p) * mass ** (1.0 / p), q ** (1.0 / q) * mass ** (1.0 / p)
