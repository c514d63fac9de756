"""Brute-force dual oracles, Holder diagnostics, dual-functional norms, and
the truncation convergence test.

The oracles stay independent of the analytic norms and k-interval machinery
they validate; each reports a certified lower bound that converges from
below as the resolution (>= 2) grows.

- orlicz_norm_bruteforce: ||u||_0 = sup <u, v> over I*(v) <= 1, by a scan
  of per-atom magnitude grids (best_grid_point) and a coordinate polish
  (golden_max, one magnitude cap per probe, started from the bracket its
  neighbouring probes give); on two atoms one pass when it ends with both
  magnitudes positive.
- luxemburg_norm_bruteforce: ||u|| = sup <u, v> over ||v||_{*,0} <= 1, as
  a fractional program over the same grids, solved by Dinkelbach's
  iteration; each step searches a grid by index (_concave_argmax), the
  call's one unit grid scaled to the step's cap.  It solves no norm.
- dual_functional_norm: inf{lambda : I*(v/lambda) + s/lambda <= 1}, as
  the cap of a load rescaled by max(max |v_i|, s) (monotone_cap), to
  adjacent floats.
"""

from __future__ import annotations

import bisect
import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable

from .conjugate import conjugate
from .errors import BracketError, OracleScaleError, PreconditionError
from .generators import OrliczGenerator, modular, truncate
from .norms import luxemburg_norm, orlicz_amemiya_norm
from .solvers import golden_max, monotone_cap
from .space import GridMeasureSpace, SimpleFunction, pairing, sgn, weighted_sum

__all__ = [
    "DualDensity",
    "orlicz_norm_bruteforce",
    "luxemburg_norm_bruteforce",
    "holder_gap",
    "dual_functional_norm",
    "truncated_norm_sequence",
]

#: the Orlicz oracle's grid scan visits up to resolution ** (atoms - 1) nodes
MAX_ORACLE_ATOMS = 4
#: magnitude ceiling of the Luxemburg oracle (see luxemburg_norm_bruteforce)
LUX_MAGNITUDE_CEILING = 2.0**40
#: a stop for the Dinkelbach iteration, which converges in a few steps
_DINKELBACH_MAX_STEPS = 100
#: nextafter steps dual_functional_norm takes from its first candidate, in
#: either direction; a load monotone to the last ulp needs one or two
_DUAL_STEPS = 16
_TINY = sys.float_info.min


@dataclass(frozen=True)
class DualDensity:
    """A dual element: order-continuous density v plus an abstract
    nonnegative singular mass (never synthesized from data)."""

    v: SimpleFunction
    s_norm: float = 0.0

    def __post_init__(self) -> None:
        if not self.s_norm >= 0:
            raise PreconditionError(f"singular mass must be >= 0, got {self.s_norm}")
        if any(math.isnan(x) or math.isinf(x) for x in self.v.values):
            raise PreconditionError("density values must be finite")


def _check_oracle_args(space: GridMeasureSpace, resolution: int) -> None:
    if len(space) > MAX_ORACLE_ATOMS:
        raise OracleScaleError(
            f"brute-force oracle limited to {MAX_ORACLE_ATOMS} atoms, "
            f"got {len(space)}"
        )
    if resolution < 2:
        raise PreconditionError(f"oracle resolution must be >= 2, got {resolution}")


def _lower_bound(value: float, oracle: str) -> float:
    """An oracle's result, which must be finite: a gain w_i |u_i| past the
    float range makes the bound inf, which bounds nothing."""
    if not math.isfinite(value):
        raise BracketError(f"the {oracle} oracle's lower bound is {value!r}, not a finite float")
    return value


def _magnitude_grid(cap: float, resolution: int) -> list[float]:
    """log+linear hybrid grid on [0, cap]."""
    if cap <= 0:
        return [0.0]
    half = max(2, resolution // 2)
    pts = {0.0, cap}
    for j in range(1, half):
        pts.add(cap * j / half)
    for j in range(half):
        pts.add(cap * 10.0 ** (-6.0 * (half - 1 - j) / max(1, half - 1)))
    return sorted(pts)


def _scaled_grid(cap: float, unit: list[float], resolution: int) -> tuple[float, list[float]]:
    """(scale, grid) with scale * grid[k] the magnitude grid on [0, cap]:
    the unit grid _magnitude_grid(1.0, resolution) scaled by cap while every
    scaled point is a normal float, and so strictly increasing as the grid
    built for cap is; that grid itself below (cap = 0 included)."""
    if cap * unit[1] >= sys.float_info.min:
        return cap, unit
    return 1.0, _magnitude_grid(cap, resolution)


def _concave_argmax(value: Callable[[int], float], n: int) -> int:
    """First index of the largest of value(0), ..., value(n - 1), for values
    that rise strictly up to it and never rise after it: the first k with
    value(k) >= value(k + 1), or n - 1, found by bisection in about
    2 log2(n) calls of value.

    A concave function on increasing points has such values: two equal
    values below the maximum would put a point between them and the
    maximum under their chord.  A -inf tail (past the domain) keeps them so.
    """
    return bisect.bisect_left(range(n - 1), True, key=lambda k: value(k) >= value(k + 1))


def magnitude_cap(conj: OrliczGenerator, t: float, budget: float, lo: float = 0.0) -> float:
    """Largest magnitude m >= lo with phi*(t, m) <= budget (at most b*(t));
    lo itself when the budget is not positive."""
    if budget <= 0.0:
        return lo
    return monotone_cap(lambda m: conj.phi(t, m), budget, lo, conj.finite_bound(t))


def best_grid_point(
    grids: list[list[tuple[float, float]]], gains: list[float]
) -> tuple[float, list[float]]:
    """Grid optimum of sum_i gains[i] * m_i over one (m, c) entry per grid
    with total cost at most 1 (1e-12 slack), as (value, magnitudes).

    Grids list increasing magnitudes.  The result is that of a depth-first
    scan which stops each level at its first entry over budget and keeps the
    first strictly better leaf; the last level is solved in closed form.
    There the pairing grows with the magnitude, so the best leaf is the
    largest affordable entry, or the first magnitude giving its float value.
    """
    last = len(grids) - 1
    last_mags = [m for m, _ in grids[last]]
    # running maxima of the last costs: the first entry over budget is where
    # the running maximum first is, whatever the order of the costs
    last_peaks = []
    peak = -math.inf
    for _, c in grids[last]:
        peak = max(peak, c)
        last_peaks.append(peak)
    gain = gains[last]

    best_val = 0.0
    best_mags = [0.0] * len(grids)
    mags = [0.0] * len(grids)

    def scan(idx: int, cost: float, val: float) -> None:
        nonlocal best_val, best_mags
        if idx == last:
            k = bisect.bisect_left(
                last_peaks, True, key=lambda c: cost + c > 1.0 + 1e-12
            )
            if k == 0:
                return
            top = val + gain * last_mags[k - 1]
            if top > best_val:
                j = bisect.bisect_left(
                    last_mags, top, hi=k - 1, key=lambda m: val + gain * m
                )
                best_val = top
                best_mags = mags.copy()
                best_mags[last] = last_mags[j]
            return
        for m, c in grids[idx]:
            if cost + c > 1.0 + 1e-12:
                break  # grids are sorted, larger magnitudes only cost more
            mags[idx] = m
            scan(idx + 1, cost + c, val + gains[idx] * m)
        mags[idx] = 0.0

    scan(0, 0.0, 0.0)
    return best_val, best_mags


def orlicz_norm_bruteforce(
    gen: OrliczGenerator,
    space: GridMeasureSpace,
    u: SimpleFunction,
    resolution: int = 200,
) -> float:
    """sup of integral u*v over I*(v) <= 1 by per-atom grid search with
    rejection (best_grid_point), then coordinate polish to the constraint
    boundary, one pass per atom.  Every candidate is feasible, so the result
    is a lower bound.

    A pass varies one magnitude m_j by golden_max and spends the budget
    left, 1 - w_j phi*(t_j, m_j), by scaling the others with the largest
    affordable factor s (a monotone_cap).  The cap's upper end is the
    conjugate's domain edge min_r b*(t_r) / m_r, beyond which the cost is
    infinite, so a conjugate that jumps to infinity there (linear) ends its
    cap in a few evaluations instead of bisecting towards the jump.  Within
    a pass s does not increase with m_j, so each cap starts from the bracket
    of the probes next to m_j: the s of the nearest larger one (affordable)
    to that of the nearest smaller one.  A warm lower end found over budget
    (phi* not monotone in its last ulps) is capped again from [0, edge].
    The rescale after golden_max caps from [0, edge].

    On two atoms the boundary w_0 phi*(m_0) + w_1 phi*(m_1) = 1 is one
    curve, and the first pass maximizes g_0 m_0 + g_1 M_1(1 - w_0 phi*(m_0))
    over all of it: M_1, the largest affordable m_1, inverts a convex
    increasing map, so the map is concave.  The second pass is skipped
    unless the first ended with a zero magnitude: a pass that starts from
    one (the grid's best point can) moves along one axis only.

    Signs of v are matched to u atomwise (optimal, since the pairing is
    monotone in each |v_i| under the modular constraint)."""
    _check_oracle_args(space, resolution)
    if u.is_zero():
        return 0.0
    conj = conjugate(gen)
    supp = [i for i, ui in enumerate(u.values) if ui != 0.0]
    coords = space.coords
    weights = space.weights

    # per-atom candidate magnitudes with their conjugate-modular costs
    caps = [magnitude_cap(conj, coords[i], 1.0 / weights[i]) for i in supp]
    grids: list[list[tuple[float, float]]] = []
    for i, cap in zip(supp, caps):
        pts = _magnitude_grid(cap, resolution)
        entries = []
        for m in pts:
            c = weights[i] * conj.phi(coords[i], m)
            if c <= 1.0 + 1e-12:
                entries.append((m, c))
        grids.append(entries)

    gains = [weights[i] * abs(u.values[i]) for i in supp]
    best_val, best_mags = best_grid_point(grids, gains)

    # coordinate polish (golden_max) along the constraint manifold: vary one
    # magnitude, rescale the rest to keep the conjugate modular at 1 (the
    # resulting map is concave in the varied coordinate)
    mags = best_mags
    n = len(supp)

    def polish(j: int) -> None:
        i = supp[j]
        # the pass's invariants: the other magnitudes stay fixed during it
        others = [r for r in range(n) if r != j and mags[r] > 0.0]
        w_others = [weights[supp[r]] for r in others]
        points = [(coords[supp[r]], mags[r]) for r in others]
        # the cost is infinite once some s * m passes its atom's b*(t)
        edge = min((conj.finite_bound(t) / m for t, m in points), default=0.0)
        rest_gain = weighted_sum([gains[r] for r in others], [mags[r] for r in others])

        def cost(s: float) -> float:
            values = []
            for t, m in points:
                values.append(conj.phi(t, s * m))
            return weighted_sum(w_others, values)

        def fill_scale(budget: float, lo: float = 0.0, hi: float = edge) -> float:
            if not points or budget <= 0.0:
                return 0.0
            # a cap on [lo, lo] returns lo, affordable or not (checked below)
            s = monotone_cap(cost, budget, lo, hi) if lo < hi else lo
            if s == lo > 0.0 and cost(lo) > budget:
                # the warm lower end was over budget (phi* not monotone in
                # its last ulps): cap from scratch
                s = monotone_cap(cost, budget, 0.0, edge)
            return s

        # the pass's probes by magnitude, with their scales: s does not
        # increase with m_j, so the neighbours of a new probe bracket its s
        probe_m: list[float] = []
        probe_s: list[float] = []

        def h(mj: float) -> float:
            c = conj.phi(coords[i], mj)
            if math.isinf(c):
                return -math.inf
            budget = 1.0 - weights[i] * c
            if budget < -1e-12:
                return -math.inf
            k = bisect.bisect_left(probe_m, mj)
            hi = probe_s[k - 1] if k else edge
            lo = min(probe_s[k], hi) if k < len(probe_s) else 0.0
            s = fill_scale(max(0.0, budget), lo, hi)
            probe_m.insert(k, mj)
            probe_s.insert(k, s)
            return gains[j] * mj + s * rest_gain

        m_best, val = golden_max(h, 0.0, caps[j])
        if val > weighted_sum(gains, mags):
            c = conj.phi(coords[i], m_best)
            s = fill_scale(max(0.0, 1.0 - weights[i] * c))
            for r in range(n):
                if r != j:
                    mags[r] *= s
            mags[j] = m_best

    for j in range(n):
        if j == 1 and n == 2 and mags[0] > 0.0 and mags[1] > 0.0:
            # pass 0 moved along the whole boundary curve, a concave map
            break
        polish(j)
    val = weighted_sum(gains, mags)
    return _lower_bound(max(best_val, val), "Orlicz")


def luxemburg_norm_bruteforce(
    gen: OrliczGenerator,
    space: GridMeasureSpace,
    u: SimpleFunction,
    resolution: int = 200,
) -> float:
    """sup of integral u*v over ||v||_{*,0} <= 1, as a separable fractional
    program solved by Dinkelbach's iteration (Dinkelbach 1967).

    Substituting w = k v in the Amemiya form of ||v||_{*,0} gives the norm
    as sup over magnitudes m >= 0 of N(m) / D(m), with signs matched to u,

        N(m) = sum_i g_i m_i,  g_i = w_i |u_i|,
        D(m) = 1 + sum_i w_i phi*(t_i, m_i),

    and by Young's inequality every m gives a lower bound.  Each step sets
    lambda = N(m) / D(m) and maximizes the concave g_i m - lambda w_i
    phi*(t_i, m) atom by atom: the best point of a magnitude grid on
    [0, cap_i], refined by golden_max between that point's grid neighbours.
    The maximizer has w_i phi*(t_i, m) / m <= g_i / lambda, a ratio
    nondecreasing in m, which gives cap_i.  The grid is the call's one unit
    grid _magnitude_grid(1.0, resolution) scaled by cap_i (_scaled_grid)
    and read point by point.  The objective is concave, so _concave_argmax
    finds the grid point a full scan would take in about 2 log2(resolution)
    evaluations.  The iteration stops when lambda stops increasing.  No
    norm is solved on the way.

    When phi has a finite bound, phi* grows linearly and the sup may be
    reached only as a magnitude goes to infinity (always so for indicator
    families, where the norm is max |u_i| / c); magnitudes stop at
    LUX_MAGNITUDE_CEILING, which costs a relative gap of about
    1 / (w_i b_i LUX_MAGNITUDE_CEILING)."""
    _check_oracle_args(space, resolution)
    if u.is_zero():
        return 0.0
    conj = conjugate(gen)
    supp = [i for i, ui in enumerate(u.values) if ui != 0.0]
    coords = [space.coords[i] for i in supp]
    weights = [space.weights[i] for i in supp]
    gains = [w * abs(u.values[i]) for w, i in zip(weights, supp)]
    tops = [min(conj.finite_bound(t), LUX_MAGNITUDE_CEILING) for t in coords]
    unit = _magnitude_grid(1.0, resolution)

    def ratio(mags: list[float]) -> float:
        costs = []
        for t, m in zip(coords, mags):
            costs.append(conj.phi(t, m))
        return weighted_sum(gains, mags) / (1.0 + weighted_sum(weights, costs))

    def step(t: float, w: float, g: float, top: float, lam: float) -> float:
        def objective(m: float) -> float:
            return g * m - lam * w * conj.phi(t, m)

        def slope(m: float) -> float:
            return w * conj.phi(t, m) / m if m > 0.0 else w * conj.right_deriv(t, 0.0)

        scale, grid = _scaled_grid(monotone_cap(slope, g / lam, 0.0, top), unit, resolution)
        value = functools.cache(lambda k: objective(scale * grid[k]))
        j = _concave_argmax(value, len(grid))
        m_best, f_best = golden_max(
            objective, scale * grid[max(j - 1, 0)], scale * grid[min(j + 1, len(grid) - 1)]
        )
        return m_best if f_best > value(j) else scale * grid[j]

    n = len(supp)
    # a start cap that underflows to 0 starts at the smallest normal float;
    # one past the float range (a budget 1 / (n w) near it) stops at the top,
    # as the steps do, so no gain that underflows to 0 meets an inf
    starts = [
        min(magnitude_cap(conj, t, 1.0 / (n * w)) or _TINY, top)
        for t, w, top in zip(coords, weights, tops)
    ]
    best = ratio(starts)
    if not best > 0.0:
        # every gain underflows, or no start is affordable: no step divides by 0
        return _lower_bound(best, "Luxemburg")
    for _ in range(_DINKELBACH_MAX_STEPS):
        trial = [step(*atom, best) for atom in zip(coords, weights, gains, tops)]
        val = ratio(trial)
        if not val > best:
            break
        best = val
    return _lower_bound(best, "Luxemburg")


def holder_gap(
    gen: OrliczGenerator,
    space: GridMeasureSpace,
    u: SimpleFunction,
    v: SimpleFunction,
) -> float:
    """||u|| * ||v||_{*,0} - |integral u*v|  (Holder; always >= -1e-9)."""
    lux = luxemburg_norm(gen, space, u)
    orl, _ = orlicz_amemiya_norm(conjugate(gen), space, v)
    return lux * orl - abs(pairing(u, v))


def holder_equality_pair(
    gen: OrliczGenerator,
    space: GridMeasureSpace,
    u: SimpleFunction,
) -> SimpleFunction | None:
    """A density making Holder an equality at u, when one exists on the grid.

    Take v in the subdifferential of phi at the Luxemburg-normalized u; the
    pointwise Young equalities then sum to   integral (u/||u||) v
    = I(u/||u||) + I*(v),  which equals ||v||_{*,0} when the Luxemburg
    scaling attains modular 1.  Returns None when it does not (the
    equality pair then lives outside the grid, e.g. indicator families)."""
    if u.is_zero():
        return None
    lux = luxemburg_norm(gen, space, u)
    scaled = u * (1.0 / lux)
    if abs(modular(gen, space, scaled) - 1.0) > 1e-9:
        return None
    vals = []
    for (t, _), ui in zip(space.items(), scaled.values):
        if ui == 0.0:
            vals.append(0.0)
            continue
        d = gen.right_deriv(t, abs(ui))
        if math.isinf(d):
            d = gen.left_deriv(t, abs(ui))
            if math.isinf(d):
                return None
        vals.append(sgn(ui) * d)
    return SimpleFunction(space, tuple(vals))


def _dual_load(
    conj: OrliczGenerator, space: GridMeasureSpace, d: DualDensity
) -> tuple[float, Callable[[float], float], float]:
    """The dual norm's problem rescaled, for a density v != 0: (M, load,
    edge) with M = max(max |v_i|, s),

        load(x) = I*(x v / M) + x s / M,

    nondecreasing, and edge = min b*(t_i) M / |v_i|, where some x |v_i| / M
    reaches the end of its conjugate's domain (the load is infinite
    beyond, up to rounding).  A lambda > 0 is feasible exactly when
    load(M / lambda) <= 1."""
    scale = max(max(map(abs, d.v.values)), d.s_norm)
    v = SimpleFunction(space, tuple(x / scale for x in d.v.values))
    s = d.s_norm / scale
    edge = min(
        (conj.finite_bound(t) / abs(x) for t, x in zip(space.coords, v.values) if x != 0.0),
        default=math.inf,
    )

    def load(x: float) -> float:
        return modular(conj, space, v * x) + x * s

    return scale, load, edge


def dual_functional_norm(
    gen: OrliczGenerator, space: GridMeasureSpace, d: DualDensity
) -> float:
    """Norm of the functional with density v and singular mass s:

        inf{lambda > 0 : I*(v/lambda) + s/lambda <= 1},

    to the last float: a lambda at which the rescaled predicate
    load(M / lambda) <= 1 of _dual_load holds and fails one float below.
    With v = 0 it is s exactly; with s = 0 it is the Luxemburg norm of v
    under the conjugate.

    The cap x* of the load at 1 (monotone_cap, up to the conjugate's domain
    edge) gives lambda = M / x*.  Where the predicate holds there, lambda
    steps down by nextafter while it still holds one float below; where it
    fails (M / x* rounds past x*), lambda steps up until it holds.  Either
    walk takes at most _DUAL_STEPS steps; a load monotone to the last ulp
    needs one or two.  Dividing by M keeps x* near 1, so a norm close to the
    largest float is found rather than overflowed; a norm past it, or below
    the normal floats, raises BracketError."""
    if d.v.is_zero():
        return d.s_norm
    scale, load, edge = _dual_load(conjugate(gen), space, d)

    def feasible(lam: float) -> bool:
        return load(scale / lam) <= 1.0

    x = monotone_cap(load, 1.0, 0.0, edge)
    lam = scale / x if x > 0.0 else math.inf
    if _TINY <= lam < math.inf and feasible(lam):
        for _ in range(_DUAL_STEPS):
            below = math.nextafter(lam, 0.0)
            if below < _TINY or not feasible(below):
                break
            lam = below
        return lam
    for _ in range(_DUAL_STEPS):
        lam = math.nextafter(lam, math.inf)
        if not _TINY <= lam < math.inf:
            break
        if feasible(lam):
            return lam
    raise BracketError(
        f"no dual norm among the normal floats: the load of scale {scale!r} "
        f"stays within 1 up to {x!r}"
    )


def truncated_norm_sequence(
    gen: OrliczGenerator,
    space: GridMeasureSpace,
    u: SimpleFunction,
    n_list,
) -> list[tuple[float, float]]:
    """Luxemburg norms under the derivative-capped generators, one per level;
    nondecreasing and converging to the untruncated norm from below."""
    levels = [float(n) for n in n_list]
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise PreconditionError("truncation levels must be increasing")
    out = []
    for n in levels:
        out.append((n, luxemburg_norm(truncate(gen, n), space, u)))
    return out
