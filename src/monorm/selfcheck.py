"""Acceptance criteria, runnable as the CLI selftest and as pytest cases.

Each criterion is a function returning a CheckResult; tolerances are pinned
here, not configurable.  Randomness is seeded so every run sees the same
instances.  The random-instance builders (random_space, random_generator,
random_function) are shared with the tests and scripts.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from .conjugate import biconjugate_residual, conjugate, young_gap
from .duality import (
    holder_equality_pair,
    holder_gap,
    luxemburg_norm_bruteforce,
    orlicz_norm_bruteforce,
    truncated_norm_sequence,
)
from .generators import (
    ExpMinusOneGenerator,
    IndicatorGenerator,
    LinearGenerator,
    OrliczGenerator,
    Piece,
    PiecewiseGenerator,
    PowerGenerator,
    VariableExponentGenerator,
    XLogXGenerator,
    modular,
    subdiff,
)
from .geometry import (
    check_space_smoothness,
    classify_smooth_point,
    construct_support_functional,
    support_density_survey,
)
from .norms import (
    KSetDegenerate,
    KSetNonEmpty,
    delta2_check,
    k_interval,
    luxemburg_norm,
    orlicz_amemiya_norm,
    power_norm_closed_forms,
    theta,
)
from .space import GridMeasureSpace, SimpleFunction

__all__ = [
    "CheckResult",
    "CRITERIA",
    "run_all",
    "kink_linear",
    "kink_quadratic",
    "plateau",
    "random_space",
    "random_generator",
    "random_function",
]

SEED = 20240811


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def kink_linear() -> PiecewiseGenerator:
    """u^2/2 on [0,1], then slope 2: one derivative jump, linear tail."""
    return PiecewiseGenerator((Piece(1.0, 0.0, 1.0), Piece(None, 1.0, 0.0)))


def kink_quadratic() -> PiecewiseGenerator:
    """u^2/2 on [0,1], jump to slope 2, then curvature again: quadratic tail."""
    return PiecewiseGenerator((Piece(1.0, 0.0, 1.0), Piece(None, 1.0, 1.0)))


def plateau() -> PiecewiseGenerator:
    """Derivative x, then flat 1 on [1,2], then rising: K(u) is an interval."""
    return PiecewiseGenerator(
        (Piece(1.0, 0.0, 1.0), Piece(1.0, 0.0, 0.0), Piece(None, 0.0, 1.0))
    )


def _two_atom_space() -> GridMeasureSpace:
    return GridMeasureSpace.uniform(2)


def random_space(rng: random.Random, n_atoms: int) -> GridMeasureSpace:
    """Sorted coordinates in [0, 1] (nudged 1e-4 apart when closer than
    1e-6) and weights in [0.2, 1.2]."""
    coords = sorted(rng.uniform(0.0, 1.0) for _ in range(n_atoms))
    for i in range(1, n_atoms):
        if coords[i] - coords[i - 1] < 1e-6:
            coords[i] = coords[i - 1] + 1e-4
    weights = tuple(rng.uniform(0.2, 1.2) for _ in range(n_atoms))
    return GridMeasureSpace(tuple(coords), weights)


def random_generator(rng: random.Random, space: GridMeasureSpace) -> OrliczGenerator:
    """One of the seven built-in families with random parameters."""
    pick = rng.randrange(7)
    if pick == 0:
        return PowerGenerator(rng.uniform(1.3, 3.5))
    if pick == 1:
        return VariableExponentGenerator.from_values(
            space, [rng.uniform(1.3, 3.0) for _ in space.coords]
        )
    if pick == 2:
        return ExpMinusOneGenerator()
    if pick == 3:
        return XLogXGenerator()
    if pick == 4:
        return LinearGenerator(rng.uniform(0.5, 2.0))
    if pick == 5:
        return IndicatorGenerator(rng.uniform(0.5, 2.0))
    kink = rng.uniform(0.5, 1.5)
    jump = rng.uniform(0.2, 1.0)
    return PiecewiseGenerator(
        (Piece(kink, 0.0, 1.0), Piece(None, jump, rng.choice((0.0, 0.5, 1.0))))
    )


def random_function(rng: random.Random, space: GridMeasureSpace) -> SimpleFunction:
    """Values in [-2.5, 2.5], never all below 1e-3 in magnitude."""
    values = [rng.uniform(-2.5, 2.5) for _ in space.coords]
    if all(abs(v) < 1e-3 for v in values):
        values[0] = 1.0
    return SimpleFunction.on(space, values)


def _gallery_instances():
    """Curated two-atom instances, one per family plus piecewise variants."""
    sp = _two_atom_space()
    items = [
        ("power2_flat", PowerGenerator(2.0), (1.0, 1.0)),
        ("power2_slope", PowerGenerator(2.0), (1.0, 2.0)),
        ("power3", PowerGenerator(3.0), (1.0, 1.0)),
        ("expminusone", ExpMinusOneGenerator(), (1.0, 1.0)),
        ("xlogx", XLogXGenerator(), (1.0, 2.0)),
        ("linear", LinearGenerator(1.0), (1.0, 2.0)),
        ("indicator", IndicatorGenerator(1.0), (1.0, 2.0)),
        ("kink_linear", kink_linear(), (1.0, 1.0)),
        ("kink_quadratic", kink_quadratic(), (1.0, 1.0)),
    ]
    return [(name, gen, sp, SimpleFunction.on(sp, vals)) for name, gen, vals in items]


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def c01_norm_equivalence() -> CheckResult:
    """Luxemburg <= Orlicz <= 2 Luxemburg within 1e-9 on 1000 random
    instances; the flat power-2 instance achieves ratio 2 within 1e-9."""
    rng = random.Random(SEED)
    worst = 0.0
    for _ in range(1000):
        space = random_space(rng, rng.randint(2, 8))
        gen = random_generator(rng, space)
        u = random_function(rng, space)
        lux = luxemburg_norm(gen, space, u)
        orl, _ = orlicz_amemiya_norm(gen, space, u)
        worst = max(worst, lux - orl, orl - 2.0 * lux)
    sp = _two_atom_space()
    u = SimpleFunction.on(sp, (1.0, 1.0))
    lux = luxemburg_norm(PowerGenerator(2.0), sp, u)
    orl, _ = orlicz_amemiya_norm(PowerGenerator(2.0), sp, u)
    ratio_err = abs(orl / lux - 2.0)
    ok = worst <= 1e-9 and ratio_err <= 1e-9
    return CheckResult(
        "norm_equivalence",
        ok,
        f"worst chain violation {worst:.2e}, ratio-2 error {ratio_err:.2e}",
    )


def c02_orlicz_equals_amemiya() -> CheckResult:
    """Brute-force Orlicz norm within 5e-3 of the Amemiya expression at
    resolution 400 on every curated two-atom instance."""
    worst = 0.0
    for name, gen, space, u in _gallery_instances():
        bf = orlicz_norm_bruteforce(gen, space, u, 400)
        an, _ = orlicz_amemiya_norm(gen, space, u)
        worst = max(worst, abs(bf - an))
    return CheckResult(
        "orlicz_equals_amemiya", worst <= 5e-3, f"worst |bf - analytic| = {worst:.2e}"
    )


def c03_power_closed_forms() -> CheckResult:
    """Luxemburg and Orlicz norms match the one-variable calculus oracle
    within 1e-9 for p in {1.5, 2, 3} on 100 random functions each."""
    rng = random.Random(SEED + 3)
    worst = 0.0
    for p in (1.5, 2.0, 3.0):
        gen = PowerGenerator(p)
        for _ in range(100):
            space = random_space(rng, rng.randint(2, 6))
            u = SimpleFunction.on(
                space, [rng.uniform(-1.5, 1.5) for _ in space.coords]
            )
            if u.is_zero():
                continue
            lux_ref, orl_ref = power_norm_closed_forms(p, space, u)
            lux = luxemburg_norm(gen, space, u)
            orl, _ = orlicz_amemiya_norm(gen, space, u)
            worst = max(worst, abs(lux - lux_ref), abs(orl - orl_ref))
    return CheckResult(
        "power_closed_forms", worst <= 1e-9, f"worst deviation {worst:.2e}"
    )


def c04_conjugation() -> CheckResult:
    """Biconjugation residual <= 1e-8 on all built-ins; Young gap >= -1e-12
    on 10^4 samples and = 0 within 1e-9 on subdifferential pairs."""
    t = 0.25
    grids = {
        "power2": (PowerGenerator(2.0), [0.0, 1.0, 2.0, 3.0]),
        "power3": (PowerGenerator(3.0), [0.0, 0.5, 1.5]),
        "expminusone": (ExpMinusOneGenerator(), [0.0, 0.7, 2.0]),
        "xlogx": (XLogXGenerator(), [0.0, 1.0, 4.0]),
        "linear": (LinearGenerator(1.0), [0.0, 0.5, 1.0]),
        "indicator": (IndicatorGenerator(1.0), [0.5, 1.0]),
        "kink_linear": (kink_linear(), [0.0, 0.5, 1.0, 1.7]),
        "kink_quadratic": (kink_quadratic(), [0.0, 0.5, 1.0, 3.0]),
    }
    worst_res = 0.0
    for name, (gen, grid) in grids.items():
        worst_res = max(worst_res, biconjugate_residual(gen, t, grid))

    rng = random.Random(SEED + 4)
    gens = [g for g, _ in grids.values()]
    min_gap = math.inf
    worst_eq = 0.0
    for i in range(10_000):
        gen = gens[i % len(gens)]
        b = gen.finite_bound(t)
        top = b if math.isfinite(b) else 8.0
        u = rng.uniform(0.0, top)
        v = rng.uniform(0.0, 6.0)
        gap = young_gap(gen, t, u, v)
        if math.isfinite(gap):
            min_gap = min(min_gap, gap)
        if i % 4 == 0:
            lo, hi = subdiff(gen, t, u)
            vv = None
            if math.isfinite(hi):
                vv = lo + (hi - lo) * rng.random()
            elif math.isfinite(lo):
                vv = lo + rng.uniform(0.0, 3.0)
            if vv is not None:
                eq = young_gap(gen, t, u, vv)
                if math.isfinite(eq):
                    worst_eq = max(worst_eq, eq)
    ok = worst_res <= 1e-8 and min_gap >= -1e-12 and worst_eq <= 1e-9
    return CheckResult(
        "conjugation",
        ok,
        f"biconj residual {worst_res:.2e}, min gap {min_gap:.2e}, "
        f"worst equality gap {worst_eq:.2e}",
    )


def c05_k_interval_attainment() -> CheckResult:
    """20 probes inside [k*, k**] match the Amemiya value within 1e-8;
    probes 1e-3 outside strictly exceed it; the degenerate branch returns
    the weighted-L1 expression exactly on linear instances."""
    sp = _two_atom_space()
    plat_sp = GridMeasureSpace((0.25, 0.75), (1.0, 1.0))
    cases = [
        (PowerGenerator(2.0), sp, SimpleFunction.on(sp, (1.0, 1.0))),
        (PowerGenerator(3.0), sp, SimpleFunction.on(sp, (1.0, 2.0))),
        (IndicatorGenerator(1.0), sp, SimpleFunction.on(sp, (1.0, 2.0))),
        (kink_linear(), sp, SimpleFunction.on(sp, (1.0, 1.0))),
        (plateau(), plat_sp, SimpleFunction.on(plat_sp, (1.0, 1.0))),
    ]
    worst_in = 0.0
    exterior_ok = True
    for gen, space, u in cases:
        value, ks = orlicz_amemiya_norm(gen, space, u)
        assert isinstance(ks, KSetNonEmpty)

        def quotient(k: float) -> float:
            return (1.0 + modular(gen, space, u * k)) / k

        for j in range(20):
            k = ks.k_star + (ks.k_double_star - ks.k_star) * j / 19.0
            worst_in = max(worst_in, abs(quotient(k) - value))
        if not quotient(ks.k_star * (1.0 - 1e-3)) > value:
            exterior_ok = False
        if not quotient(ks.k_double_star * (1.0 + 1e-3)) > value:
            exterior_ok = False

    lin_exact = True
    rng = random.Random(SEED + 5)
    for _ in range(20):
        space = random_space(rng, rng.randint(2, 5))
        slope = rng.uniform(0.5, 2.0)
        u = random_function(rng, space)
        value, ks = orlicz_amemiya_norm(LinearGenerator(slope), space, u)
        expected = sum(
            w * abs(ui) * slope for (_, w), ui in zip(space.items(), u.values)
        )
        if not (isinstance(ks, KSetDegenerate) and value == expected):
            lin_exact = False
    ok = worst_in <= 1e-8 and exterior_ok and lin_exact
    return CheckResult(
        "k_interval_attainment",
        ok,
        f"worst interior gap {worst_in:.2e}, exterior strict: {exterior_ok}, "
        f"degenerate exact: {lin_exact}",
    )


def c06_duality_expressions() -> CheckResult:
    """Brute-force Luxemburg norm within 5e-3 of the bisection value; the
    Holder gap is >= -1e-9 on 1000 random pairs and <= 1e-6 on normalized
    support pairs."""
    worst_bf = 0.0
    for name, gen, space, u in _gallery_instances()[:6]:
        bf = luxemburg_norm_bruteforce(gen, space, u, 400)
        lux = luxemburg_norm(gen, space, u)
        worst_bf = max(worst_bf, abs(bf - lux))

    rng = random.Random(SEED + 6)
    min_gap = math.inf
    for _ in range(1000):
        space = random_space(rng, rng.randint(2, 5))
        gen = random_generator(rng, space)
        u = random_function(rng, space)
        v = random_function(rng, space)
        min_gap = min(min_gap, holder_gap(gen, space, u, v))

    worst_eq = 0.0
    pairs = 0
    sp = _two_atom_space()
    for gen, vals in [
        (PowerGenerator(2.0), (1.0, 1.0)),
        (PowerGenerator(3.0), (1.0, 2.0)),
        (kink_linear(), (1.0, 1.0)),
        (ExpMinusOneGenerator(), (1.0, 2.0)),
        (XLogXGenerator(), (0.5, 2.0)),
    ]:
        u = SimpleFunction.on(sp, vals)
        v = holder_equality_pair(gen, sp, u)
        if v is None:
            continue
        norm_v, _ = orlicz_amemiya_norm(conjugate(gen), sp, v)
        v_hat = v * (1.0 / norm_v)
        worst_eq = max(worst_eq, abs(holder_gap(gen, sp, u, v_hat)))
        pairs += 1
    ok = worst_bf <= 5e-3 and min_gap >= -1e-9 and pairs >= 4 and worst_eq <= 1e-6
    return CheckResult(
        "duality_expressions",
        ok,
        f"worst |bf - lux| {worst_bf:.2e}, min holder gap {min_gap:.2e}, "
        f"equality gap {worst_eq:.2e} over {pairs} pairs",
    )


def c07_support_functionals() -> CheckResult:
    """Constructed support functionals with zero singular mass attain the
    Orlicz norm and have dual norm 1, each within 1e-7."""
    rng = random.Random(SEED + 7)
    sp = _two_atom_space()
    plat_sp = GridMeasureSpace((0.25, 0.75), (1.0, 1.0))
    cases = [
        (PowerGenerator(2.0), sp, SimpleFunction.on(sp, (1.0, 1.0))),
        (PowerGenerator(2.0), sp, SimpleFunction.on(sp, (1.0, 2.0))),
        (kink_linear(), sp, SimpleFunction.on(sp, (1.0, 1.0))),
        (IndicatorGenerator(1.0), sp, SimpleFunction.on(sp, (1.0, 1.0))),
        (plateau(), plat_sp, SimpleFunction.on(plat_sp, (1.0, 1.0))),
    ]
    for _ in range(40):
        space = random_space(rng, rng.randint(2, 6))
        gen = rng.choice(
            [
                PowerGenerator(rng.uniform(1.3, 3.0)),
                ExpMinusOneGenerator(),
                XLogXGenerator(),
                kink_quadratic(),
            ]
        )
        cases.append((gen, space, random_function(rng, space)))
    worst_attain = 0.0
    worst_norm = 0.0
    checked = 0
    for gen, space, u in cases:
        ks = k_interval(gen, space, u)
        if not isinstance(ks, KSetNonEmpty):
            continue
        sf = construct_support_functional(gen, space, u)
        if sf.s_norm > 0:
            continue
        checked += 1
        value, _ = orlicz_amemiya_norm(gen, space, u)
        worst_attain = max(worst_attain, abs(sf.achieved - value))
        worst_norm = max(worst_norm, abs(sf.norm_value - 1.0))
    ok = checked >= 5 and worst_attain <= 1e-7 and worst_norm <= 1e-7
    return CheckResult(
        "support_functionals",
        ok,
        f"{checked} instances, worst attainment gap {worst_attain:.2e}, "
        f"worst dual-norm gap {worst_norm:.2e}",
    )


def c08_classifier_vs_bruteforce() -> CheckResult:
    """Smooth-point classifier agrees with the density-enumeration oracle
    on the curated two-atom suite at resolution 400."""
    sp = _two_atom_space()
    plat_sp = GridMeasureSpace((0.25, 0.75), (1.0, 1.0))
    suite = [
        ("power_smooth", PowerGenerator(2.0), sp, (1.0, 1.0)),
        ("power_slope", PowerGenerator(2.0), sp, (1.0, 2.0)),
        ("power3", PowerGenerator(3.0), sp, (0.5, 2.0)),
        ("kink_not_smooth", kink_linear(), sp, (1.0, 1.0)),
        ("linear_off_support", LinearGenerator(1.0), sp, (0.0, 2.0)),
        ("linear_full_support", LinearGenerator(1.0), sp, (1.0, 2.0)),
        ("indicator_tie", IndicatorGenerator(1.0), sp, (1.0, 1.0)),
        ("expminusone", ExpMinusOneGenerator(), sp, (1.0, 2.0)),
        ("plateau", plateau(), plat_sp, (1.0, 1.0)),
    ]
    disagreements = []
    for name, gen, space, vals in suite:
        u = SimpleFunction.on(space, vals)
        verdict = classify_smooth_point(gen, space, u)
        survey = support_density_survey(gen, space, u, 400)
        if survey.unique is None or verdict.smooth != survey.unique:
            disagreements.append(name)
    kink_ok = True
    rep = classify_smooth_point(kink_linear(), sp, SimpleFunction.on(sp, (1.0, 1.0)))
    if rep.witnesses is None:
        kink_ok = False
    else:
        vals = sorted(tuple(w.values) for w in rep.witnesses)
        kink_ok = all(abs(sum(v) - 3.0) <= 1e-6 for v in vals)
    ok = not disagreements and kink_ok
    return CheckResult(
        "classifier_vs_bruteforce",
        ok,
        f"disagreements: {disagreements or 'none'}; kink witnesses on a+b=3: {kink_ok}",
    )


def c09_space_smoothness() -> CheckResult:
    """Verdicts and failing-clause sets for the five families."""
    sp = _two_atom_space()
    expected = {
        "power1.5": (PowerGenerator(1.5), set()),
        "power2": (PowerGenerator(2.0), set()),
        "power3": (PowerGenerator(3.0), set()),
        "linear": (LinearGenerator(1.0), {"a", "c"}),
        "indicator": (IndicatorGenerator(1.0), {"b", "c"}),
        "plq": (kink_quadratic(), {"c"}),
        "expminusone": (ExpMinusOneGenerator(), {"b"}),
    }
    bad = []
    for name, (gen, want) in expected.items():
        rep = check_space_smoothness(gen, sp)
        if rep.failing() != want or rep.smooth != (not want):
            bad.append(f"{name}: got {sorted(rep.failing())}, want {sorted(want)}")
    return CheckResult(
        "space_smoothness", not bad, "; ".join(bad) if bad else "all five families match"
    )


def c10_truncation_convergence() -> CheckResult:
    """The truncated Luxemburg sequence for the indicator instance is
    nondecreasing and within 2e-3 (relative) of 2 at level 1000."""
    sp = _two_atom_space()
    u = SimpleFunction.on(sp, (1.0, 2.0))
    seq = truncated_norm_sequence(IndicatorGenerator(1.0), sp, u, [1, 10, 100, 1000])
    values = [v for _, v in seq]
    nondecreasing = all(b >= a for a, b in zip(values, values[1:]))
    rel_gap = abs(values[-1] - 2.0) / 2.0
    ok = nondecreasing and rel_gap <= 2e-3
    return CheckResult(
        "truncation_convergence",
        ok,
        f"values {['%.6f' % v for v in values]}, relative end gap {rel_gap:.2e}",
    )


def c11_theta() -> CheckResult:
    """theta = 2 within 1e-10 on the indicator instance; theta = 0 for all
    finite-valued families."""
    sp = _two_atom_space()
    u = SimpleFunction.on(sp, (1.0, 2.0))
    v = theta(IndicatorGenerator(1.0), sp, u)
    finite_ok = all(
        theta(gen, sp, u) == 0.0
        for gen in (
            PowerGenerator(2.0),
            ExpMinusOneGenerator(),
            XLogXGenerator(),
            LinearGenerator(1.0),
            kink_linear(),
        )
    )
    ok = abs(v - 2.0) <= 1e-10 and finite_ok
    return CheckResult("theta", ok, f"indicator theta = {v!r}, finite families zero: {finite_ok}")


def c12_delta2_classification() -> CheckResult:
    """Power holds at K = 2^p with zero threshold; the exponential family is
    violated with a witness ratio above 100; the indicator family is
    violated at its threshold."""
    sp = _two_atom_space()
    ok_power = all(
        delta2_check(PowerGenerator(p), sp, 2.0**p, 0.0).holds for p in (1.5, 2.0, 3.0)
    )
    v_exp = delta2_check(ExpMinusOneGenerator(), sp, 100.0, 0.0)
    exp_ok = (
        not v_exp.holds
        and v_exp.witness is not None
        and v_exp.witness.ratio is not None
        and v_exp.witness.ratio > 100.0
    )
    v_ind = delta2_check(IndicatorGenerator(1.0), sp, 1000.0, 1.0)
    ind_ok = (
        not v_ind.holds
        and v_ind.witness is not None
        and v_ind.witness.u == 1.0
        and math.isinf(v_ind.witness.lhs)
        and v_ind.witness.rhs == 0.0
    )
    detail = (
        f"power holds: {ok_power}; exp witness ratio "
        f"{v_exp.witness.ratio if v_exp.witness else None}; indicator at threshold: {ind_ok}"
    )
    return CheckResult("delta2_classification", ok_power and exp_ok and ind_ok, detail)


CRITERIA: list[tuple[str, Callable[[], CheckResult]]] = [
    ("1 norm equivalence", c01_norm_equivalence),
    ("2 orlicz = amemiya", c02_orlicz_equals_amemiya),
    ("3 power closed forms", c03_power_closed_forms),
    ("4 conjugation", c04_conjugation),
    ("5 k-interval attainment", c05_k_interval_attainment),
    ("6 duality expressions", c06_duality_expressions),
    ("7 support functionals", c07_support_functionals),
    ("8 classifier vs brute force", c08_classifier_vs_bruteforce),
    ("9 space smoothness", c09_space_smoothness),
    ("10 truncation convergence", c10_truncation_convergence),
    ("11 theta", c11_theta),
    ("12 delta2 classification", c12_delta2_classification),
]


def run_all(verbose: bool = True) -> list[CheckResult]:
    results = []
    for label, fn in CRITERIA:
        result = fn()
        results.append(result)
        if verbose:
            status = "PASS" if result.passed else "FAIL"
            print(f"{status}  criterion {label}: {result.detail}")
    return results
