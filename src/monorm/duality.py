"""Brute-force dual oracles, Holder diagnostics, dual-functional norms, and
the truncation convergence test.

The oracles stay independent of the analytic k-interval machinery they
validate: they search per-atom grids of candidate densities and report a
certified lower bound that converges from below as the resolution grows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .conjugate import conjugate
from .errors import OracleScaleError, PreconditionError
from .generators import OrliczGenerator, modular, truncate, weighted_sum
from .norms import luxemburg_norm, orlicz_amemiya_norm
from .solvers import golden_max, monotone_boundary, monotone_cap
from .space import GridMeasureSpace, SimpleFunction, pairing, sgn

__all__ = [
    "DualDensity",
    "orlicz_norm_bruteforce",
    "luxemburg_norm_bruteforce",
    "holder_gap",
    "dual_functional_norm",
    "truncated_norm_sequence",
]

MAX_ORACLE_ATOMS = 4


@dataclass(frozen=True)
class DualDensity:
    """A dual element: order-continuous density v plus an abstract
    nonnegative singular mass (never synthesized from data)."""

    v: SimpleFunction
    s_norm: float = 0.0

    def __post_init__(self) -> None:
        if self.s_norm < 0:
            raise ValueError("singular mass must be >= 0")
        if any(math.isnan(x) or math.isinf(x) for x in self.v.values):
            raise ValueError("density values must be finite")


def _check_oracle_scale(space: GridMeasureSpace) -> None:
    if len(space) > MAX_ORACLE_ATOMS:
        raise OracleScaleError(
            f"brute-force oracle limited to {MAX_ORACLE_ATOMS} atoms, "
            f"got {len(space)}"
        )


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


def magnitude_cap(conj: OrliczGenerator, t: float, budget: float, lo: float = 0.0) -> float:
    """Largest magnitude m >= lo with phi*(t, m) <= budget (at most b*(t));
    lo itself when the budget is not positive."""
    if budget <= 0.0:
        return lo
    return monotone_cap(lambda m: conj.phi(t, m), budget, lo, conj.finite_bound(t))


def orlicz_norm_bruteforce(
    gen: OrliczGenerator,
    space: GridMeasureSpace,
    u: SimpleFunction,
    resolution: int = 200,
) -> float:
    """sup of integral u*v over I*(v) <= 1 by per-atom grid search with
    rejection, then one pass of coordinate polish to the constraint boundary.

    Signs of v are matched to u atomwise (optimal, since the pairing is
    monotone in each |v_i| under the modular constraint)."""
    _check_oracle_scale(space)
    if u.is_zero():
        return 0.0
    conj = conjugate(gen)
    supp = [i for i, ui in enumerate(u.values) if ui != 0.0]
    coords = space.coords
    weights = space.weights

    # per-atom candidate magnitudes with their conjugate-modular costs
    grids: list[list[tuple[float, float]]] = []
    for i in supp:
        cap = magnitude_cap(conj, coords[i], 1.0 / weights[i])
        pts = _magnitude_grid(cap, resolution)
        entries = []
        for m in pts:
            c = weights[i] * conj.phi(coords[i], m)
            if c <= 1.0 + 1e-12:
                entries.append((m, c))
        grids.append(entries)

    gains = [weights[i] * abs(u.values[i]) for i in supp]

    best_val = 0.0
    best_mags = [0.0] * len(supp)

    def scan(idx: int, cost: float, val: float, mags: list[float]) -> None:
        nonlocal best_val, best_mags
        if idx == len(supp):
            if val > best_val:
                best_val = val
                best_mags = mags.copy()
            return
        for m, c in grids[idx]:
            if cost + c > 1.0 + 1e-12:
                break  # grids are sorted, larger magnitudes only cost more
            mags[idx] = m
            scan(idx + 1, cost + c, val + gains[idx] * m, mags)
        mags[idx] = 0.0

    scan(0, 0.0, 0.0, [0.0] * len(supp))

    # one coordinate pass of golden-section polish along the constraint
    # manifold: vary one magnitude, rescale the rest to keep the conjugate
    # modular at 1 (the resulting map is concave in the varied coordinate)
    mags = best_mags
    caps = [magnitude_cap(conj, coords[i], 1.0 / weights[i]) for i in supp]

    def fill_scale(j: int, budget: float) -> float:
        others = [r for r in range(len(supp)) if r != j and mags[r] > 0.0]
        if not others or budget <= 0.0:
            return 0.0
        w_others = [weights[supp[r]] for r in others]
        points = [(coords[supp[r]], mags[r]) for r in others]

        def cost(s: float) -> float:
            values = []
            for t, m in points:
                values.append(conj.phi(t, s * m))
            return weighted_sum(w_others, values)

        return monotone_cap(cost, budget, 0.0, math.inf)

    for j, i in enumerate(supp):
        rest_gain = sum(gains[r] * mags[r] for r in range(len(supp)) if r != j)

        def h(mj: float, j=j, i=i, rest_gain=rest_gain) -> float:
            c = conj.phi(coords[i], mj)
            if math.isinf(c):
                return -math.inf
            budget = 1.0 - weights[i] * c
            if budget < -1e-12:
                return -math.inf
            s = fill_scale(j, max(0.0, budget))
            return gains[j] * mj + s * rest_gain

        m_best, val = golden_max(h, 0.0, caps[j], rel_tol=1e-10)
        if val > sum(g * m for g, m in zip(gains, mags)):
            c = conj.phi(coords[i], m_best)
            budget = 1.0 - weights[i] * c
            s = fill_scale(j, max(0.0, budget))
            for r in range(len(supp)):
                if r != j:
                    mags[r] *= s
            mags[j] = m_best
    val = sum(g * m for g, m in zip(gains, mags))
    best_val = max(best_val, val)
    return best_val


def luxemburg_norm_bruteforce(
    gen: OrliczGenerator,
    space: GridMeasureSpace,
    u: SimpleFunction,
    resolution: int = 200,
) -> float:
    """sup of integral u*v over ||v||_{*,0} <= 1, via sign-matched direction
    grids normalized by their Orlicz norm under the conjugate generator.

    Every candidate is feasible, so the estimate is a lower bound converging
    from below; one golden-section pass per coordinate polishes the ratio."""
    _check_oracle_scale(space)
    if u.is_zero():
        return 0.0
    conj = conjugate(gen)
    supp = [i for i, ui in enumerate(u.values) if ui != 0.0]

    def ratio(mags: list[float]) -> float:
        if all(m == 0.0 for m in mags):
            return 0.0
        vals = [0.0] * len(space)
        for j, i in enumerate(supp):
            vals[i] = sgn(u.values[i]) * mags[j]
        v = SimpleFunction(space, tuple(vals))
        norm, _ = orlicz_amemiya_norm(conj, space, v)
        return pairing(u, v) / norm

    steps = [j / (resolution - 1) for j in range(resolution)]
    n_free = len(supp) - 1
    total = len(supp) * len(steps) ** n_free
    if total > 2_000_000:
        raise OracleScaleError(
            f"direction grid of {total} candidates is too large; "
            "lower the resolution or the atom count"
        )
    best_val = 0.0
    best_mags = [0.0] * len(supp)
    for lead in range(len(supp)):
        free = [j for j in range(len(supp)) if j != lead]
        for combo in itertools.product(steps, repeat=n_free):
            trial = [0.0] * len(supp)
            trial[lead] = 1.0
            for pos, s in zip(free, combo):
                trial[pos] = s
            val = ratio(trial)
            if val > best_val:
                best_val = val
                best_mags = trial

    mags = best_mags
    for j in range(len(supp)):
        def coord(m: float, j=j) -> float:
            trial = mags.copy()
            trial[j] = m
            return ratio(trial)

        top = max(2.0, 4.0 * max(mags))
        m_best, val = golden_max(coord, 0.0, top, rel_tol=1e-9)
        if val > best_val:
            best_val = val
            mags[j] = m_best
    return best_val


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


def dual_functional_norm(
    gen: OrliczGenerator, space: GridMeasureSpace, d: DualDensity
) -> float:
    """Norm of the functional with density v and singular mass s:

        inf{lambda > 0 : I*(v/lambda) + s/lambda <= 1}.

    With s = 0 this is the Luxemburg norm of v under the conjugate."""
    if d.s_norm < 0:
        raise PreconditionError("singular mass must be >= 0")
    conj = conjugate(gen)
    if d.v.is_zero() and d.s_norm == 0.0:
        return 0.0

    def feasible(lam: float) -> bool:
        return modular(conj, space, d.v * (1.0 / lam)) + d.s_norm / lam <= 1.0

    _, hi = monotone_boundary(feasible)
    return hi


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
