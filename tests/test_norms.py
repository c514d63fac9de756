import math
import random

import pytest
from hypothesis import given, strategies as st

from monorm import (
    ExpMinusOneGenerator,
    GridMeasureSpace,
    IndicatorGenerator,
    KSetDegenerate,
    KSetNonEmpty,
    LinearGenerator,
    Piece,
    PiecewiseGenerator,
    PowerGenerator,
    SimpleFunction,
    delta2_check,
    k_interval,
    luxemburg_norm,
    modular,
    orlicz_amemiya_norm,
    power_norm_closed_forms,
    theta,
)
from monorm import norms
from monorm.conjugate import conjugate
from monorm.errors import DomainError, PreconditionError
from monorm.solvers import monotone_boundary
from conftest import random_instance


def test_luxemburg_examples(two_atoms):
    u = SimpleFunction.on(two_atoms, (1.0, 1.0))
    assert luxemburg_norm(PowerGenerator(2.0), two_atoms, u) == pytest.approx(
        1.0 / math.sqrt(2.0), abs=1e-9
    )
    u12 = SimpleFunction.on(two_atoms, (1.0, 2.0))
    assert luxemburg_norm(IndicatorGenerator(1.0), two_atoms, u12) == pytest.approx(
        2.0, abs=1e-10
    )
    zero = SimpleFunction.on(two_atoms, (0.0, 0.0))
    assert luxemburg_norm(PowerGenerator(2.0), two_atoms, zero) == 0.0


def test_derivative_modular_is_order_independent():
    # terms 5e15, 0.5, 0.5: adding left to right drops both halves
    gen = PowerGenerator(2.0)
    conj = conjugate(gen)
    space = GridMeasureSpace((0.2, 0.5, 0.8), (1.0, 1.0, 1.0))
    first = SimpleFunction.on(space, (1e8, 1.0, 1.0))
    last = SimpleFunction.on(space, (1.0, 1.0, 1e8))
    a = norms.derivative_modular(gen, conj, space, first, 1.0)
    b = norms.derivative_modular(gen, conj, space, last, 1.0)
    assert a == b == 5e15 + 1.0


def test_k_interval_examples(two_atoms):
    u = SimpleFunction.on(two_atoms, (1.0, 1.0))
    ks = k_interval(PowerGenerator(2.0), two_atoms, u)
    assert isinstance(ks, KSetNonEmpty)
    assert ks.k_star == pytest.approx(math.sqrt(2.0), abs=1e-9)
    assert ks.k_double_star == pytest.approx(math.sqrt(2.0), abs=1e-9)
    # k* is the midpoint of its bisection bracket, which K(u) carries
    lo, hi = ks.star
    assert lo < ks.k_star < hi and hi - lo <= 1e-10 * hi

    u12 = SimpleFunction.on(two_atoms, (1.0, 2.0))
    ks = k_interval(IndicatorGenerator(1.0), two_atoms, u12)
    assert isinstance(ks, KSetNonEmpty)
    assert ks.k_star == pytest.approx(0.5, abs=1e-9)
    assert ks.k_double_star == pytest.approx(0.5, abs=1e-9)

    ks = k_interval(LinearGenerator(1.0), two_atoms, u12)
    assert isinstance(ks, KSetDegenerate)
    assert ks.l1_value == pytest.approx(1.5, abs=1e-12)


@pytest.mark.parametrize(
    "w, ui, slope, norm",
    [
        # w |u| = 1.7e318 is past the float range, w |u| b* is not
        (1e10, 1.7e308, 1e-300, 1.7e18),
        # w |u| = 2.6e-344 underflows to 0, w |u| b* does not
        (1.873441763065546e-71, 1.3956756640413769e-273, 3.2451807865524273e227,
         8.4852296196e-117),
    ],
)
def test_degenerate_norm_when_weight_times_entry_leaves_the_float_range(w, ui, slope, norm):
    # for a linear phi the Orlicz and Luxemburg norms are equal
    space = GridMeasureSpace((0.5,), (w,))
    u = SimpleFunction.on(space, (ui,))
    gen = LinearGenerator(slope)
    orl, ks = orlicz_amemiya_norm(gen, space, u)
    assert isinstance(ks, KSetDegenerate)
    assert orl == pytest.approx(norm, rel=1e-10, abs=0.0)
    assert orl == pytest.approx(luxemburg_norm(gen, space, u), rel=1e-10, abs=0.0)


def test_k_interval_one_bracket_when_strictly_convex(monkeypatch):
    # for a strictly convex generator k* = k**, which the k* bracket already
    # shows, so one evaluation replaces the second bisection
    orig = norms.derivative_modular
    calls = []

    def counted(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(norms, "derivative_modular", counted)
    space = GridMeasureSpace.uniform(3)
    u = SimpleFunction.on(space, (1.0, -2.0, 0.5))
    for p in (1.5, 2.0, 3.0):
        gen = PowerGenerator(p)
        calls.clear()
        ks = k_interval(gen, space, u)
        bracket = []
        monotone_boundary(
            lambda k: bracket.append(k) or orig(gen, conjugate(gen), space, u, k) >= 1.0
        )
        assert isinstance(ks, KSetNonEmpty) and ks.k_star == ks.k_double_star
        assert len(calls) == len(bracket) + 1


def test_k_interval_flat_branch_reuses_known_point(monkeypatch, plateau):
    # on a flat interval the k** bracket starts from hi1, already known to
    # fail above_one, instead of probing it a second time
    gen, space, u = plateau
    conj = conjugate(gen)
    orig = norms.derivative_modular
    calls = []

    def counted(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(norms, "derivative_modular", counted)
    ks = k_interval(gen, space, u)

    def probe(evals, level_test):
        return lambda k: evals.append(k) or level_test(orig(gen, conj, space, u, k))

    first, second = [], []
    lo1, hi1 = monotone_boundary(probe(first, lambda d: d >= 1.0))
    # the second bracket as it was run before: probing hi1 first, then
    # growing from it as the known lower point
    above = probe(second, lambda d: d > 1.0)
    assert not above(hi1)
    lo2, hi2 = monotone_boundary(above, lo=hi1)
    assert ks.k_star == 0.5 * (lo1 + hi1) < ks.k_double_star == 0.5 * (lo2 + hi2)
    assert len(calls) == len(first) + 1 + len(second) - 1


def test_k_interval_rejects_zero(two_atoms):
    with pytest.raises(DomainError):
        k_interval(PowerGenerator(2.0), two_atoms, SimpleFunction.on(two_atoms, (0, 0)))


def test_orlicz_examples(two_atoms, kink_linear):
    u = SimpleFunction.on(two_atoms, (1.0, 1.0))
    val, _ = orlicz_amemiya_norm(PowerGenerator(2.0), two_atoms, u)
    assert val == pytest.approx(math.sqrt(2.0), abs=1e-9)

    # K(u) = {1/max|u|}, a power of two here, so the top of the k* bracket
    # (bisected down from 1) lands on it; the modular is still 0 there and
    # the quotient 1/k* is max|u| exactly
    indicator = IndicatorGenerator(1.0)
    assert orlicz_amemiya_norm(indicator, two_atoms, u)[0] == 1.0
    u1m2 = SimpleFunction.on(two_atoms, (1.0, -2.0))
    assert orlicz_amemiya_norm(indicator, two_atoms, u1m2)[0] == 2.0

    u12 = SimpleFunction.on(two_atoms, (1.0, 2.0))
    val, _ = orlicz_amemiya_norm(PowerGenerator(2.0), two_atoms, u12)
    assert val == pytest.approx(math.sqrt(5.0), abs=1e-9)

    val, ks = orlicz_amemiya_norm(kink_linear, two_atoms, u)
    # the top of the k* bracket is the true k* = 1, where the bisection
    # starts, and the quotient is probed there
    assert val == 1.5
    assert isinstance(ks, KSetNonEmpty)
    assert ks.k_star == pytest.approx(1.0, abs=1e-9)
    assert ks.k_double_star == pytest.approx(1.0, abs=1e-9)


def test_orlicz_zero(two_atoms):
    val, ks = orlicz_amemiya_norm(PowerGenerator(2.0), two_atoms, SimpleFunction.on(two_atoms, (0, 0)))
    assert val == 0.0 and isinstance(ks, KSetDegenerate)


def test_plateau_interval(plateau):
    gen, space, u = plateau
    val, ks = orlicz_amemiya_norm(gen, space, u)
    assert isinstance(ks, KSetNonEmpty)
    assert ks.k_star == pytest.approx(1.0, abs=1e-8)
    assert ks.k_double_star == pytest.approx(2.0, abs=1e-8)
    assert val == pytest.approx(2.0, abs=1e-9)
    # the quotient is flat on the whole interval
    for k in (1.0, 1.3, 1.7, 2.0):
        m = modular(gen, space, u * k)
        assert (1.0 + m) / k == pytest.approx(val, abs=1e-9)


def test_power_closed_forms_match():
    rng = random.Random(7)
    for p in (1.5, 2.0, 3.0):
        gen = PowerGenerator(p)
        for _ in range(20):
            n = rng.randint(2, 6)
            space = GridMeasureSpace.uniform(n)
            u = SimpleFunction.on(space, [rng.uniform(-1.5, 1.5) for _ in range(n)])
            if u.is_zero():
                continue
            lux_ref, orl_ref = power_norm_closed_forms(p, space, u)
            assert luxemburg_norm(gen, space, u) == pytest.approx(lux_ref, abs=1e-9)
            val, _ = orlicz_amemiya_norm(gen, space, u)
            assert val == pytest.approx(orl_ref, abs=1e-9)


@given(st.integers())
def test_equivalence_chain(seed):
    gen, space, u = random_instance(random.Random(seed))
    lux = luxemburg_norm(gen, space, u)
    orl, _ = orlicz_amemiya_norm(gen, space, u)
    assert lux <= orl + 1e-9
    assert orl <= 2.0 * lux + 1e-9


@given(st.integers(), st.floats(min_value=0.1, max_value=4.0))
def test_homogeneity(seed, c):
    gen, space, u = random_instance(random.Random(seed))
    lux = luxemburg_norm(gen, space, u)
    orl, _ = orlicz_amemiya_norm(gen, space, u)
    lux_c = luxemburg_norm(gen, space, u * c)
    orl_c, _ = orlicz_amemiya_norm(gen, space, u * c)
    assert lux_c == pytest.approx(c * lux, abs=1e-9 * max(1.0, c))
    assert orl_c == pytest.approx(c * orl, abs=1e-9 * max(1.0, c))


@given(st.integers(), st.integers())
def test_triangle_inequality(seed1, seed2):
    rng = random.Random(seed1)
    gen, space, u = random_instance(rng)
    v = SimpleFunction.on(
        space, [random.Random(seed2 + i).uniform(-2, 2) for i in range(len(space))]
    )
    assert luxemburg_norm(gen, space, u + v) <= (
        luxemburg_norm(gen, space, u) + luxemburg_norm(gen, space, v) + 1e-9
    )
    s, _ = orlicz_amemiya_norm(gen, space, u + v)
    a, _ = orlicz_amemiya_norm(gen, space, u)
    b, _ = orlicz_amemiya_norm(gen, space, v)
    assert s <= a + b + 1e-9


@given(st.integers())
def test_luxemburg_attainment(seed):
    gen, space, u = random_instance(random.Random(seed))
    lux = luxemburg_norm(gen, space, u)
    if lux == 0.0:
        return
    m = modular(gen, space, u * (1.0 / lux))
    if math.isfinite(m):
        assert m <= 1.0 + 1e-12


@given(st.integers())
def test_theta_below_luxemburg(seed):
    gen, space, u = random_instance(random.Random(seed))
    assert theta(gen, space, u) <= luxemburg_norm(gen, space, u) + 1e-12


def test_theta_examples(two_atoms):
    u12 = SimpleFunction.on(two_atoms, (1.0, 2.0))
    assert theta(IndicatorGenerator(1.0), two_atoms, u12) == 2.0
    assert theta(PowerGenerator(2.0), two_atoms, u12) == 0.0
    zero = SimpleFunction.on(two_atoms, (0.0, 0.0))
    assert theta(IndicatorGenerator(1.0), two_atoms, zero) == 0.0


def test_delta2_examples(two_atoms):
    assert delta2_check(PowerGenerator(2.0), two_atoms, 4.0, 0.0).holds
    v = delta2_check(ExpMinusOneGenerator(), two_atoms, 100.0, 0.0)
    assert not v.holds and v.witness.ratio > 100.0
    # the spec's hand witness: ratio at u = 6 is about 410.5
    ratio6 = (math.expm1(12.0) - 12.0) / (math.expm1(6.0) - 6.0)
    assert ratio6 == pytest.approx(410.52, abs=0.01)
    v = delta2_check(IndicatorGenerator(1.0), two_atoms, 1000.0, 1.0)
    assert not v.holds and v.witness.u == 1.0


@pytest.mark.parametrize(
    "gen, K, f", [(ExpMinusOneGenerator(), 100.0, 708.0), (PowerGenerator(2.0), 4.0, 1e200)]
)
def test_delta2_overflowing_probe_is_not_a_verdict(two_atoms, gen, K, f):
    # phi(1e200) = 5e399 and e^708 * 100 ~ 3e309 overflow, and so does
    # phi(2u): u^2 / 2 is doubling and e^u - 1 - u is not, so inf <= K inf
    # can decide neither way
    with pytest.raises(PreconditionError, match="both overflow"):
        delta2_check(gen, two_atoms, K, f)


def test_delta2_witness_past_an_undecided_probe(two_atoms):
    # atom 0 overflows at u = 708; atom 1 still fails at u = 700, where
    # phi(1400) = inf exceeds 100 phi(700) ~ 1e306
    _, t1 = two_atoms.coords
    f = SimpleFunction(two_atoms, (708.0, 700.0))
    v = delta2_check(ExpMinusOneGenerator(), two_atoms, 100.0, f)
    assert not v.holds
    assert (v.witness.t, v.witness.u, v.witness.ratio) == (t1, 700.0, None)


def test_delta2_witness_past_the_domain_edge(two_atoms):
    # phi = 1e154 u on [0, b = 1e154]: 4 phi(u) overflows from u ~ 4.5e153,
    # but past b phi(2u) = inf is exact, so inf against inf is a witness
    gen = PiecewiseGenerator((Piece(1e154, 1e154, 0.0),), bounded=True)
    v = delta2_check(gen, two_atoms, 4.0)
    assert not v.holds
    assert v.witness.u == 0.999e154 and v.witness.ratio is None
    assert math.isinf(v.witness.lhs) and math.isinf(v.witness.rhs)


def test_delta2_preconditions(two_atoms):
    with pytest.raises(PreconditionError):
        delta2_check(PowerGenerator(2.0), two_atoms, 1.0, 0.0)
    with pytest.raises(PreconditionError):
        # threshold beyond the effective domain has infinite modular
        delta2_check(IndicatorGenerator(1.0), two_atoms, 4.0, 2.0)
    for horizon in (0.0, -1.0, math.nan):
        with pytest.raises(PreconditionError, match="horizon"):
            delta2_check(PowerGenerator(2.0), two_atoms, 4.0, 0.0, u_max=horizon)
