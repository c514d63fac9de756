"""Support functionals, smooth-point classification, and space smoothness.

On the non-degenerate branch a support functional at u is built from the
subdifferential of the generator along k* u: densities take values in
[phi'_-(t, k*|u(t)|), phi'_+(t, k*|u(t)|)], and the conjugate modular of the
selection must reach 1, any shortfall being singular mass.  K(u) holds k*
and k** as bisection brackets; each derivative is read at the end of its
bracket that gives the wider interval, so a derivative jump at the true k*
is seen whole.  On the degenerate branch the density is pinned to b* on the
support.

Finite grids carry no genuinely singular functionals, so constructions that
need singular mass are flagged as non-atomic-limit constructs; their
singular clause cannot be realized atom-by-atom.

The "= 1" modular clauses and the density clauses of verification use the
fixed equality band EPS_EQ = 1e-7, absorbing the 1e-10 width of the K(u)
brackets.  The structural clauses (derivative jumps, the conjugate's bounds,
theta) are read exactly from the closed forms, and the doubling condition
from the family's flag, so the space-smoothness criterion evaluates no
generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .conjugate import conjugate
from .errors import DomainError, PostconditionError
from .generators import OrliczGenerator, modular
from .norms import (
    KSetDegenerate,
    KSetNonEmpty,
    _degenerate_mass,
    k_interval,
    theta,
)
from .duality import DualDensity, dual_functional_norm, magnitude_cap
from .solvers import monotone_cap
from .space import GridMeasureSpace, SimpleFunction, pairing, sgn, weighted_sum

__all__ = [
    "SupportFunctional",
    "ClauseCheck",
    "VerifyReport",
    "SmoothnessReport",
    "SpaceSmoothnessReport",
    "GapProfile",
    "DensitySurvey",
    "construct_support_functional",
    "verify_support_functional",
    "classify_smooth_point",
    "check_space_smoothness",
    "smoothness_gap_function",
    "support_density_survey",
]

EPS_EQ = 1e-7


@dataclass(frozen=True)
class SupportFunctional:
    """A norm-one dual element attaining the Orlicz norm at its function,
    with the clause report verify_support_functional would give for it."""

    density: SimpleFunction
    s_norm: float
    norm_value: float
    achieved: float
    limit_construct: bool
    report: VerifyReport


@dataclass(frozen=True)
class ClauseCheck:
    name: str
    value: float
    target: float
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class VerifyReport:
    branch: str
    clauses: tuple[ClauseCheck, ...]
    passed: bool


@dataclass(frozen=True)
class SmoothnessReport:
    smooth: bool
    branch: str
    conditions: dict[str, ClauseCheck]
    witnesses: tuple[SimpleFunction, SimpleFunction] | None
    note: str = ""


@dataclass(frozen=True)
class SpaceSmoothnessReport:
    smooth: bool
    cond_a: ClauseCheck
    cond_b: ClauseCheck
    cond_c: ClauseCheck

    def failing(self) -> set[str]:
        out = set()
        if not self.cond_a.passed:
            out.add("a")
        if not self.cond_b.passed:
            out.add("b")
        if not self.cond_c.passed:
            out.add("c")
        return out


@dataclass(frozen=True)
class GapProfile:
    """Per-atom first location where the derivative gap reaches delta."""

    locations: tuple[float, ...]

    @property
    def finite_mask(self) -> tuple[bool, ...]:
        return tuple(math.isfinite(x) for x in self.locations)


def _gap(hi: float, lo: float) -> float:
    """The derivative gap hi - lo, and math.inf when either end is infinite
    (where IEEE arithmetic would give NaN or -inf)."""
    return hi - lo if math.isfinite(hi) and math.isfinite(lo) else math.inf


def _conjugate_and_k(gen, space, u, zero_message: str):
    """(phi*, K(u)) for an entry point that is undefined at u = 0."""
    if u.is_zero():
        raise DomainError(zero_message)
    return conjugate(gen), k_interval(gen, space, u)


# ---------------------------------------------------------------------------
# subdifferential segments along the k-interval
# ---------------------------------------------------------------------------


def _segments(
    gen: OrliczGenerator,
    space: GridMeasureSpace,
    u: SimpleFunction,
    k_lo: float,
    k_hi: float,
) -> list[tuple[float, float, float, float]]:
    """Per atom: (t, w, phi'_-(t, k_lo|u_i|), phi'_+(t, k_hi|u_i|)).  Given
    the ends of a bracket around k, this holds the subdifferential at k|u_i|
    whole, a derivative jump at k included.  An atom off the support gets
    lo = 0 and hi = phi'_+(t, 0)."""
    return [
        (t, w, gen.left_deriv(t, k_lo * abs(ui)), gen.right_deriv(t, k_hi * abs(ui)))
        for (t, w), ui in zip(space.items(), u.values)
    ]


def _with_conjugate(conj: OrliczGenerator, segs):
    """_segments rows extended by the conjugate at both ends:
    (t, w, lo, hi, phi*(lo), phi*(hi))."""
    return [(t, w, lo, hi, conj.phi(t, lo), conj.phi(t, hi)) for t, w, lo, hi in segs]


def _boxes(
    gen: OrliczGenerator,
    space: GridMeasureSpace,
    u: SimpleFunction,
    ks: KSetNonEmpty,
) -> list[tuple[float, float, float, float]]:
    """Per atom: (t, w, lo, hi) bounding the subdifferential at k|u_i| for
    every k in K(u).  One-sided derivatives are nondecreasing, so the boxes
    at k* and k** settle every k between, and their intersection is
    [phi'_-(t, k**|u_i|), phi'_+(t, k*|u_i|)]: each end is read at the
    permissive end of its bracket, and returned unclamped (hi < lo when no
    magnitude fits both)."""
    return _segments(gen, space, u, ks.dstar[0], ks.star[1])


def _excess(lo: float, hi: float, ui: float, vi: float) -> float:
    """How far vi lies outside the sign-and-subdifferential clause at one
    atom (sign of ui, magnitude in [lo, hi]); 0.0 when the clause holds."""
    mag = abs(vi)
    if ui == 0.0:
        return mag if mag > EPS_EQ else 0.0
    if mag <= EPS_EQ:
        # a zero value is admissible exactly when 0 lies in the
        # subdifferential (sgn 0 is compatible with either sign)
        return lo if math.isfinite(lo) and lo > EPS_EQ else 0.0
    if sgn(vi) != sgn(ui):
        return mag + 1.0
    # an infinite lower end is no shortfall (IEEE would give +inf)
    below = lo - mag if math.isfinite(lo) else -math.inf
    excess = max(below, mag - hi)
    return excess if excess > EPS_EQ else 0.0


def _pinned_density(
    conj: OrliczGenerator, space: GridMeasureSpace, u: SimpleFunction
) -> list[float]:
    """The degenerate-branch density: sgn(u_i) b*(t_i) on the support of u,
    0 off it."""
    return [
        sgn(ui) * conj.finite_bound(t) if ui != 0.0 else 0.0
        for t, ui in zip(space.coords, u.values)
    ]


def _select_density(
    conj: OrliczGenerator,
    space: GridMeasureSpace,
    u: SimpleFunction,
    segs,
    order,
) -> tuple[list[float], float]:
    """Raise magnitudes from the lower derivative toward the upper one in
    the given atom order until the conjugate modular reaches 1.

    Off-support atoms stay at zero (the sign condition pins them).  Returns
    the signed values and the final modular."""
    mags = [seg[2] for seg in segs]  # start at phi'_-, which is 0 off the support
    total = weighted_sum(space.weights, [seg[4] for seg in segs])
    for i in order:
        t, w, lo, hi, c_lo, c_hi = segs[i]
        if u.values[i] == 0.0:
            continue
        budget = 1.0 - total
        if budget <= 0.0:
            break
        if math.isfinite(hi) and math.isfinite(c_hi) and w * (c_hi - c_lo) <= budget:
            mags[i] = hi
            total += w * (c_hi - c_lo)
            continue
        # fractional atom: cap inside the segment at the exact level
        def cost(m: float, t=t, w=w, c_lo=c_lo) -> float:
            c = conj.phi(t, m)
            return w * (c - c_lo) if math.isfinite(c) else math.inf

        m = monotone_cap(cost, budget, lo, hi)
        gained = cost(m)
        if math.isfinite(gained) and gained > 0.0:
            mags[i] = m
            total += gained
    values = [sgn(ui) * m for ui, m in zip(u.values, mags)]
    return values, total


def construct_support_functional(
    gen: OrliczGenerator,
    space: GridMeasureSpace,
    u: SimpleFunction,
) -> SupportFunctional:
    """Build the support functional at u.

    Non-degenerate branch: signed selection inside the subdifferential at
    k* u, raised atomwise (lowest index first, final fractional atom) until
    the conjugate modular reaches 1; any remaining slack becomes singular
    mass and flags the result as a non-atomic-limit construct.  Degenerate
    branch: the density is sgn(u) b* on the support.
    """
    conj, ks = _conjugate_and_k(gen, space, u, "support functionals are defined for u != 0")
    if isinstance(ks, KSetDegenerate):
        v = SimpleFunction(space, tuple(_pinned_density(conj, space, u)))
        d = DualDensity(v, 0.0)
        return SupportFunctional(
            density=v,
            s_norm=0.0,
            norm_value=dual_functional_norm(gen, space, d),
            achieved=pairing(u, v),
            limit_construct=False,
            report=_verify(gen, conj, space, u, ks, d),
        )

    segs = _with_conjugate(conj, _segments(gen, space, u, *ks.star))
    values, total = _select_density(conj, space, u, segs, range(len(space)))
    s_norm = max(0.0, 1.0 - total)
    if s_norm < EPS_EQ:
        s_norm = 0.0
    v = SimpleFunction(space, tuple(values))
    d = DualDensity(v, s_norm)
    achieved = pairing(u, v) + s_norm / ks.k_star
    return SupportFunctional(
        density=v,
        s_norm=s_norm,
        norm_value=dual_functional_norm(gen, space, d),
        achieved=achieved,
        limit_construct=s_norm > 0.0,
        report=_verify(gen, conj, space, u, ks, d),
    )


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def verify_support_functional(
    gen: OrliczGenerator,
    space: GridMeasureSpace,
    u: SimpleFunction,
    f: DualDensity,
) -> VerifyReport:
    """Check the support-functional conditions clause by clause.

    Non-degenerate branch: (i) the conjugate modular of the density plus the
    singular mass equals 1; (ii) the singular clause, which has no grid
    realization and is vacuous only with zero singular mass; (iii) signs
    match u and magnitudes lie in the subdifferential at k|u| for every k
    in [k*, k**] (the _boxes bounds), its value the largest excess over
    the atoms.  Degenerate branch: the modular is at most 1 and the density
    equals sgn(u) b* on the support.
    """
    conj, ks = _conjugate_and_k(gen, space, u, "support functionals are defined for u != 0")
    return _verify(gen, conj, space, u, ks, f)


def _verify(gen, conj, space, u, ks, f) -> VerifyReport:
    """verify_support_functional's clauses, given phi* and K(u)."""
    total = modular(conj, space, f.v) + f.s_norm
    if isinstance(ks, KSetNonEmpty):
        branch = "k_nonempty"
        if f.s_norm <= EPS_EQ:
            singular = ClauseCheck(
                "singular_attainment", f.s_norm, 0.0, True, "vacuous: no singular mass"
            )
        else:
            singular = ClauseCheck(
                "singular_attainment",
                f.s_norm,
                0.0,
                False,
                "singular mass has no realization on a finite grid "
                "(non-atomic-limit construct)",
            )
        worst = max(
            _excess(lo, hi, ui, vi)
            for (_, _, lo, hi), ui, vi in zip(_boxes(gen, space, u, ks), u.values, f.v.values)
        )
        clauses = (
            ClauseCheck("modular_plus_singular", total, 1.0, abs(total - 1.0) <= EPS_EQ),
            singular,
            ClauseCheck("sign_and_subdifferential", worst, 0.0, worst == 0.0),
        )
    else:
        branch = "k_empty"
        worst = max(
            abs(vi - want)
            for ui, vi, want in zip(u.values, f.v.values, _pinned_density(conj, space, u))
            if ui != 0.0
        )
        clauses = (
            ClauseCheck("modular_plus_singular_leq", total, 1.0, total <= 1.0 + EPS_EQ),
            ClauseCheck("density_pinned_to_bound", worst, 0.0, worst <= EPS_EQ),
        )
    return VerifyReport(branch, clauses, all(c.passed for c in clauses))


# ---------------------------------------------------------------------------
# smooth points
# ---------------------------------------------------------------------------


def classify_smooth_point(
    gen: OrliczGenerator,
    space: GridMeasureSpace,
    u: SimpleFunction,
) -> SmoothnessReport:
    """Decide whether u is a smooth point.

    Non-degenerate branch: smooth iff the conjugate modular of the left
    derivative at k*|u| equals 1, or that of the right derivative equals 1
    with the modular of lambda*u finite for some lambda > k*, that is
    k* theta(u) < 1 (the extended-valued families are finite at b), read
    at the top of the k* bracket.  Degenerate branch: smooth iff
    the mass of b* on the support equals 1 with a* = 0 off the support
    (read exactly), or the full-space mass of b* is < 1 and u has full
    support.  Non-smooth verdicts come with two distinct support densities
    whenever the subdifferential slack admits them.
    """
    conj, ks = _conjugate_and_k(gen, space, u, "smoothness is classified for u != 0")
    conditions: dict[str, ClauseCheck] = {}

    if isinstance(ks, KSetNonEmpty):
        branch = "k_nonempty"
        segs = _with_conjugate(conj, _segments(gen, space, u, *ks.star))
        i_lo = weighted_sum(space.weights, [seg[4] for seg in segs])
        i_hi = weighted_sum(space.weights, [seg[5] for seg in segs])
        cond_i = abs(i_lo - 1.0) <= EPS_EQ
        conditions["left_modular_at_one"] = ClauseCheck(
            "left_modular_at_one", i_lo, 1.0, cond_i
        )
        # theta first: theta = 0 (finite-valued) never meets an inf; the top
        # of the k* bracket is at least the true k*, so no factor is needed
        finite_beyond = theta(gen, space, u) * ks.star[1] < 1.0
        cond_ii_eq = abs(i_hi - 1.0) <= EPS_EQ
        cond_ii = cond_ii_eq and finite_beyond
        conditions["right_modular_at_one"] = ClauseCheck(
            "right_modular_at_one", i_hi, 1.0, cond_ii_eq
        )
        conditions["finite_beyond_k_star"] = ClauseCheck(
            "finite_beyond_k_star", 1.0 if finite_beyond else 0.0, 1.0, finite_beyond
        )
        smooth = cond_i or cond_ii
        witnesses = None
        note = ""
        if not smooth:
            fwd, tf = _select_density(conj, space, u, segs, range(len(space)))
            bwd, tb = _select_density(
                conj, space, u, segs, range(len(space) - 1, -1, -1)
            )
            if (
                abs(tf - 1.0) <= math.sqrt(EPS_EQ)
                and abs(tb - 1.0) <= math.sqrt(EPS_EQ)
                and max(abs(a - b) for a, b in zip(fwd, bwd)) > 1e-6
            ):
                witnesses = (
                    SimpleFunction(space, tuple(fwd)),
                    SimpleFunction(space, tuple(bwd)),
                )
            else:
                note = (
                    "multiplicity arises only through singular mass in the "
                    "non-atomic limit; no distinct grid densities"
                )
        return SmoothnessReport(smooth, branch, conditions, witnesses, note)

    branch = "k_empty"
    supp = set(u.support())
    mass_supp = _degenerate_mass(conj, space, u)
    mass_all = _degenerate_mass(conj, space, SimpleFunction.constant(space, 1.0))
    off_a_max = max(
        (conj.zero_bound(t) for i, t in enumerate(space.coords) if i not in supp),
        default=0.0,
    )
    off_mass = weighted_sum(
        space.weights, [0.0 if i in supp else 1.0 for i in range(len(space))]
    )
    cond_i = abs(mass_supp - 1.0) <= EPS_EQ and off_a_max == 0.0
    cond_ii = mass_all < 1.0 - EPS_EQ and off_mass == 0.0
    conditions["support_mass_at_one"] = ClauseCheck(
        "support_mass_at_one", mass_supp, 1.0, abs(mass_supp - 1.0) <= EPS_EQ
    )
    conditions["conjugate_zero_bound_off_support"] = ClauseCheck(
        "conjugate_zero_bound_off_support", off_a_max, 0.0, off_a_max == 0.0
    )
    conditions["full_mass_below_one"] = ClauseCheck(
        "full_mass_below_one", mass_all, 1.0, mass_all < 1.0 - EPS_EQ
    )
    conditions["full_support"] = ClauseCheck(
        "full_support", off_mass, 0.0, off_mass == 0.0
    )
    smooth = cond_i or cond_ii
    witnesses = None
    if not smooth:
        witnesses = _degenerate_witnesses(conj, space, u, mass_supp)
    return SmoothnessReport(smooth, branch, conditions, witnesses, "")


def _degenerate_witnesses(conj, space, u, mass_supp):
    """Two distinct support densities in the degenerate branch: pin b* on
    the support, then either spend modular slack off the support or use the
    conjugate zero bound there."""
    base = _pinned_density(conj, space, u)
    off = [i for i, ui in enumerate(u.values) if ui == 0.0]
    if not off:
        return None
    i = off[0]
    t, w = space.coords[i], space.weights[i]
    second = list(base)
    budget = 1.0 - mass_supp
    a_star = conj.zero_bound(t)
    if a_star > 0.0:
        second[i] = a_star
    elif budget > EPS_EQ:

        def cost(m: float) -> float:
            return w * conj.phi(t, m)

        second[i] = monotone_cap(cost, budget * 0.5, 0.0, math.inf)
    if second[i] == 0.0:
        return None
    return (
        SimpleFunction(space, tuple(base)),
        SimpleFunction(space, tuple(second)),
    )


# ---------------------------------------------------------------------------
# space smoothness
# ---------------------------------------------------------------------------


def check_space_smoothness(
    gen: OrliczGenerator, space: GridMeasureSpace
) -> SpaceSmoothnessReport:
    """The three-part smoothness criterion for the whole space:

    (a) the conjugate is infinite at its own bound b*, at every atom.  Every
        family a constructor accepts is finite at a finite bound (lower
        semi-continuity), so phi*(t, b*) = inf exactly when b* = inf; the
        test reads b* and evaluates nothing, so no overflow can fake a pass;
    (b) the generator satisfies the doubling condition: the family's
        doubling flag;
    (c) the generator is continuously differentiable with zero right
        derivative at the origin: no atom's closed-form jump list has an
        entry (the lists hold every jump of positive size, the one at the
        origin included).
    """
    conj = conjugate(gen)

    a_ok = all(math.isinf(conj.finite_bound(t)) for t in space.coords)
    cond_a = ClauseCheck(
        "conjugate_infinite_at_bound", 1.0 if a_ok else 0.0, 1.0, a_ok
    )

    b_ok = gen.doubling
    note = "family doubling flag holds" if b_ok else "family leaves the doubling class"
    cond_b = ClauseCheck("doubling_condition", 1.0 if b_ok else 0.0, 1.0, b_ok, note)

    c_ok = not any(gen.derivative_jumps(t) for t in space.coords)
    cond_c = ClauseCheck(
        "continuously_differentiable", 1.0 if c_ok else 0.0, 1.0, c_ok
    )

    return SpaceSmoothnessReport(
        smooth=a_ok and b_ok and c_ok,
        cond_a=cond_a,
        cond_b=cond_b,
        cond_c=cond_c,
    )


# ---------------------------------------------------------------------------
# derivative-gap function
# ---------------------------------------------------------------------------


def smoothness_gap_function(
    gen: OrliczGenerator, space: GridMeasureSpace, delta: float
) -> GapProfile:
    """Per atom, the first u where phi'_+ - phi'_- reaches delta (the left
    derivative at 0 counting as 0); math.inf where no such gap exists.
    Read from the family's closed-form jump list."""
    if not delta > 0:
        raise DomainError("delta must be > 0")
    locations: list[float] = []
    for t, _ in space.items():
        loc = math.inf
        for x, lo, hi in gen.derivative_jumps(t):
            if _gap(hi, lo) >= delta:
                loc = x
                break
        locations.append(loc)
    _assert_gap_postcondition(gen, space, delta, locations)
    return GapProfile(tuple(locations))


def _assert_gap_postcondition(gen, space, delta, locations) -> None:
    for (t, _), x in zip(space.items(), locations):
        if math.isinf(x):
            continue
        lo = gen.left_deriv(t, x) if x > 0 else 0.0
        gap = _gap(gen.right_deriv(t, x), lo)
        if gap < delta - 1e-9:
            raise PostconditionError(
                f"gap postcondition failed at t={t}, u={x}: gap={gap} < {delta}"
            )


# ---------------------------------------------------------------------------
# brute-force density survey (the smooth-point oracle)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DensitySurvey:
    """Feasible support densities found by grid enumeration.

    unique=True means the feasible set has negligible diameter (one density
    class); None means nothing was found (multiplicity lives in singular
    mass, outside the grid)."""

    found: int
    diameter: float
    unique: bool | None
    representatives: tuple[SimpleFunction, ...]


def support_density_survey(
    gen: OrliczGenerator,
    space: GridMeasureSpace,
    u: SimpleFunction,
    resolution: int = 400,
) -> DensitySurvey:
    """Enumerate candidate densities satisfying the sign/subdifferential
    clause (inside the _boxes bounds over K(u)) with the conjugate modular
    at 1, or, degenerate branch, sgn(u) b* on the support and the modular
    at most 1.

    Independent of the classifier: a point is smooth exactly when the
    enumeration finds a single density class (diameter ~ grid step)."""
    conj, ks = _conjugate_and_k(gen, space, u, "survey is defined for u != 0")
    n = max(2, resolution)
    axes: list[list[float]] = []
    costs: list[list[float]] = []
    if isinstance(ks, KSetNonEmpty):
        # the support is free inside the boxes over K(u), off it pinned to 0
        free = [i for i, ui in enumerate(u.values) if ui != 0.0]
        base = [0.0] * len(space)
        boxes = _boxes(gen, space, u, ks)
        step_cost = 0.0
        for i in free:
            t, w, lo, hi = boxes[i]
            hi = max(hi, lo)
            if math.isfinite(hi) and hi - lo <= 1e-8 * max(1.0, hi):
                pts = [lo]
            else:
                top = min(hi, magnitude_cap(conj, t, (1.0 + EPS_EQ) / w, lo))
                pts = [lo + (top - lo) * j / (n - 1) for j in range(n)]
            cvals = [w * conj.phi(t, m) for m in pts]
            finite_steps = [
                abs(b - a) for a, b in zip(cvals, cvals[1:]) if math.isfinite(a) and math.isfinite(b)
            ]
            if finite_steps:
                step_cost = max(step_cost, max(finite_steps))
            axes.append(pts)
            costs.append(cvals)
        band = 0.75 * step_cost + EPS_EQ
        passing = _enumerate_level(axes, costs, 1.0, band)
    else:
        # degenerate: support pinned to b*, off-support free below the budget
        free = [i for i, ui in enumerate(u.values) if ui == 0.0]
        base = _pinned_density(conj, space, u)
        base_cost = _degenerate_mass(conj, space, u)
        for i in free:
            t, w = space.coords[i], space.weights[i]
            top = magnitude_cap(conj, t, max(0.0, 1.0 + EPS_EQ - base_cost) / w)
            pts = [top * j / (n - 1) for j in range(n)]
            axes.append(pts)
            costs.append([w * conj.phi(t, m) for m in pts])
        half = 0.5 * (1.0 + EPS_EQ - base_cost)
        passing = _enumerate_level(axes, costs, half, half)

    if not passing:
        return DensitySurvey(0, 0.0, None, ())

    diameter = 0.0
    for j in range(len(passing[0])):
        col = [row[j] for row in passing]
        diameter = max(diameter, max(col) - min(col))
    steps = [
        (axis[1] - axis[0]) if len(axis) > 1 else 0.0 for axis in _survey_axes(passing)
    ]
    tol = 2.0 * max(steps) + 1e-6 if steps else 1e-6
    unique = diameter <= tol

    reps = []
    for row in (passing[0], passing[-1]):
        vals = list(base)
        for pos, i in enumerate(free):
            vals[i] = sgn(u.values[i]) * row[pos] if u.values[i] != 0.0 else row[pos]
        reps.append(SimpleFunction(space, tuple(vals)))
    return DensitySurvey(len(passing), diameter, unique, tuple(reps))


def _survey_axes(passing):
    cols = len(passing[0])
    for j in range(cols):
        vals = sorted({row[j] for row in passing})
        yield vals


def _enumerate_level(axes, costs, level, band):
    """Grid combinations whose summed costs land within band of level.

    Costs are >= 0, so level = band = b / 2 keeps every combination costing
    at most b."""
    out = []

    def rec(idx, acc, combo):
        if acc > level + band:
            return
        if idx == len(axes):
            if abs(acc - level) <= band:
                out.append(tuple(combo))
            return
        for m, c in zip(axes[idx], costs[idx]):
            if not math.isfinite(c) or acc + c > level + band:
                break
            combo.append(m)
            rec(idx + 1, acc + c, combo)
            combo.pop()

    rec(0, 0.0, [])
    return out
