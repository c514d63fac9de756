import math

import pytest
from hypothesis import given, strategies as st

from monorm import (
    CappedGenerator,
    ExpMinusOneGenerator,
    IndicatorGenerator,
    LinearGenerator,
    NumericConjugate,
    OrliczGenerator,
    Piece,
    PiecewiseGenerator,
    PowerGenerator,
    TruncatedGenerator,
    VariableExponentGenerator,
    XLogXGenerator,
    biconjugate_residual,
    conjugate,
    subdiff,
    truncate,
    young_gap,
)
from monorm.errors import InstanceError
from monorm.instance import build_generator
from conftest import all_families
from generator_checks import validate_generator
from test_extreme_parameters import VALUES, _family_specs

T = 0.25


def test_power_conjugate_closed_form():
    conj = conjugate(PowerGenerator(3.0))
    assert conj.phi(T, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
    # 1/p + 1/q = 1
    assert isinstance(conj, PowerGenerator) and conj.p == pytest.approx(1.5)


def test_indicator_conjugate_is_linear():
    conj = conjugate(IndicatorGenerator(1.0))
    assert conj.phi(T, 2.0) == pytest.approx(2.0, abs=1e-15)
    assert isinstance(conj, LinearGenerator)


def test_linear_conjugate_is_indicator():
    conj = conjugate(LinearGenerator(1.0))
    assert conj.phi(T, 0.5) == 0.0
    assert math.isinf(conj.phi(T, 1.5))


def test_exp_conjugate_value():
    conj = conjugate(ExpMinusOneGenerator())
    # (1+v) log(1+v) - v at v = e - 1 equals 1
    assert conj.phi(T, math.e - 1.0) == pytest.approx(1.0, abs=1e-12)
    assert isinstance(conj, XLogXGenerator)


def test_varexp_conjugate_closed_form(two_atoms):
    gen = VariableExponentGenerator.from_values(two_atoms, [2.0, 3.0])
    conj = conjugate(gen)
    # phi(u) = u^2 at the first atom: conjugate is v^2/4
    t = two_atoms.coords[0]
    assert conj.phi(t, 3.0) == pytest.approx(2.25, abs=1e-12)


def test_conjugate_of_zero_is_zero(two_atoms):
    for gen in all_families(two_atoms):
        assert conjugate(gen).phi(T, 0.0) == 0.0
        assert NumericConjugate(gen).phi(T, 0.0) == 0.0


def test_kink_conjugate_values(kink_linear):
    conj = conjugate(kink_linear)
    # v^2/2 below 1, v - 1/2 on the derivative jump [1, 2], infinite beyond
    assert conj.phi(T, 0.6) == pytest.approx(0.18, abs=1e-14)
    assert conj.phi(T, 1.5) == pytest.approx(1.0, abs=1e-14)
    assert conj.phi(T, 2.0) == pytest.approx(1.5, abs=1e-14)
    assert math.isinf(conj.phi(T, 2.0 + 1e-9))


BOUNDED_PLQ = PiecewiseGenerator((Piece(1.0, 0.0, 1.0), Piece(1.0, 0.5, 0.0)), bounded=True)
TRUNCATION_LEVELS = (0.5, 3.0)


def _truncated_families(space):
    """truncate(g, n) for every family, the bounded plq included; linear
    (slope 1) at n = 3 is an inactive truncation."""
    return [
        truncate(g, n) for g in all_families(space) + [BOUNDED_PLQ] for n in TRUNCATION_LEVELS
    ]


def test_analytic_vs_numeric_agreement(two_atoms):
    for gen in all_families(two_atoms) + [BOUNDED_PLQ] + _truncated_families(two_atoms):
        ana = conjugate(gen)
        num = NumericConjugate(gen)
        b_star = ana.finite_bound(T)
        top = min(b_star, 6.0)
        probes = [top * j / 12.0 for j in range(13)]
        if isinstance(gen, TruncatedGenerator):
            assert isinstance(ana, CappedGenerator)
            probes += [gen.n, gen.n * (1.0 + 1e-6)]
        for v in probes:
            a = ana.phi(T, v)
            n = num.phi(T, v)
            assert math.isfinite(a) == math.isfinite(n), (gen, v)
            if math.isfinite(a):
                assert abs(a - n) <= 1e-8 * max(1.0, a), (gen, v)


def _extreme_generators(space):
    """Every generator the extreme-parameter files build, truncated or not."""
    gens = []
    for x in VALUES:
        for spec in _family_specs(x):
            for phi in (spec, dict(spec, truncate=x)):
                try:
                    gens.append(build_generator(phi, space))
                except InstanceError:
                    pass
    return gens


def test_jump_lists_match_the_one_sided_derivatives(two_atoms):
    # jump lists are the only source of gap locations and of clause (c): each
    # listed (x, lo, hi) is (phi'_-(x), phi'_+(x)), and off the list the two
    # one-sided derivatives agree
    gens = all_families(two_atoms) + [BOUNDED_PLQ] + _truncated_families(two_atoms)
    gens += _extreme_generators(two_atoms)
    for gen in gens + [conjugate(g) for g in gens]:
        for t in two_atoms.coords:
            jumps = gen.derivative_jumps(t)
            for x, lo, hi in jumps:
                assert (gen.left_deriv(t, x), gen.right_deriv(t, x)) == (lo, hi), (gen, t, x)
            listed = {x for x, _, _ in jumps}
            top = min(gen.finite_bound(t), 8.0)
            for j in range(1, 200):
                x = top * j / 200.0
                if x in listed:
                    continue
                lo, hi = gen.left_deriv(t, x), gen.right_deriv(t, x)
                assert lo == hi or abs(hi - lo) <= 1e-12 * max(1.0, hi), (gen, t, x, lo, hi)


class _NoClosedForm(OrliczGenerator):
    """u**4 / 4 with values and derivatives only."""

    def _phi(self, t, u):
        return u**4 / 4.0

    def _left(self, t, u):
        return u**3

    def _right(self, t, u):
        return u**3


def test_conjugate_needs_a_closed_form():
    gen = _NoClosedForm()
    with pytest.raises(NotImplementedError):
        conjugate(gen)
    with pytest.raises(NotImplementedError):
        gen.derivative_jumps(T)
    # the numeric reference still conjugates it
    assert NumericConjugate(gen).phi(T, 1.0) == pytest.approx(0.75, abs=1e-8)


def test_truncated_conjugate_is_a_generator(two_atoms):
    for gen in _truncated_families(two_atoms):
        assert validate_generator(conjugate(gen), two_atoms) == [], gen


def test_truncated_conjugate_structure(two_atoms):
    # bounds, derivative jumps and thresholds agree with phi* and its
    # one-sided derivatives
    for gen in _truncated_families(two_atoms):
        conj = conjugate(gen)
        b = conj.finite_bound(T)
        assert b <= gen.n and math.isfinite(conj.phi(T, b)), gen
        assert math.isinf(conj.phi(T, b * (1.0 + 1e-9))), gen
        a = conj.zero_bound(T)
        assert conj.phi(T, a) == 0.0, gen
        assert a == b or conj.phi(T, a + 1e-6) > 0.0, gen
        jumps = conj.derivative_jumps(T)
        assert jumps[-1][0] == b and math.isinf(jumps[-1][2]), gen
        for x, lo, hi in jumps:
            assert (conj.left_deriv(T, x), conj.right_deriv(T, x)) == (lo, hi), (gen, x)
        for m in (0.25, 1.0):
            x = conj.derivative_threshold(T, m)
            assert conj.left_deriv(T, x) <= m * (1.0 + 1e-12), (gen, m)
            assert x == b or conj.left_deriv(T, x + 1e-6) > m, (gen, m)


def test_truncated_conjugation_is_closed(two_atoms):
    # conjugate(truncate(phi, n)) = phi* capped at n, whose conjugate is
    # truncate(phi**, n) = truncate(phi, n)
    for gen in _truncated_families(two_atoms):
        back = conjugate(conjugate(gen))
        assert isinstance(back, TruncatedGenerator) and back.n == gen.n
        for t in two_atoms.coords:
            for j in range(25):
                u = 0.25 * j
                a, b = gen.phi(t, u), back.phi(t, u)
                assert math.isfinite(a) and math.isfinite(b)
                assert abs(a - b) <= 1e-12 * max(1.0, a), (gen, t, u)


def test_biconjugate_examples():
    assert biconjugate_residual(PowerGenerator(2.0), T, [0, 1, 2, 3]) <= 1e-9
    assert biconjugate_residual(LinearGenerator(1.0), T, [0, 0.5, 1]) <= 1e-9
    assert biconjugate_residual(IndicatorGenerator(1.0), T, [0.5, 1]) <= 1e-9


def test_young_examples():
    assert young_gap(PowerGenerator(2.0), T, 3.0, 3.0) == 0.0
    assert young_gap(PowerGenerator(2.0), T, 3.0, 2.0) == pytest.approx(0.5)
    assert young_gap(IndicatorGenerator(1.0), T, 1.0, 7.0) == 0.0


@given(
    st.floats(min_value=0.0, max_value=6.0),
    st.floats(min_value=0.0, max_value=6.0),
    st.integers(min_value=0, max_value=8),
)
def test_young_nonnegative(u, v, pick):
    from monorm import GridMeasureSpace

    gen = all_families(GridMeasureSpace.uniform(2))[pick]
    gap = young_gap(gen, T, u, v)
    assert gap >= 0.0


@given(st.floats(min_value=0.0, max_value=6.0), st.integers(min_value=0, max_value=8))
def test_young_equality_on_subdifferential(u, pick):
    from monorm import GridMeasureSpace

    gen = all_families(GridMeasureSpace.uniform(2))[pick]
    u = min(u, gen.finite_bound(T))
    lo, hi = subdiff(gen, T, u)
    if math.isinf(lo):
        return
    gap = young_gap(gen, T, u, lo)
    assert math.isfinite(gap) and gap <= 1e-9
    if math.isfinite(hi):
        gap = young_gap(gen, T, u, hi)
        assert math.isfinite(gap) and gap <= 1e-9


@given(st.floats(min_value=0.05, max_value=5.0), st.integers(min_value=0, max_value=8))
def test_derivative_inversion(u, pick):
    # if v in subdiff phi(u) then u in subdiff phi*(v), within 1e-8
    from monorm import GridMeasureSpace

    gen = all_families(GridMeasureSpace.uniform(2))[pick]
    u = min(u, gen.finite_bound(T))
    lo, hi = subdiff(gen, T, u)
    conj = conjugate(gen)
    for v in {lo, hi}:
        if math.isinf(v):
            continue
        c_lo, c_hi = subdiff(conj, T, v)
        lower = c_lo - 1e-8 if math.isfinite(c_lo) else -math.inf
        upper = c_hi + 1e-8
        assert lower <= u <= upper, (gen, u, v)
