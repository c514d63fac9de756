import math

import pytest
from hypothesis import given, strategies as st

from monorm import (
    ExpMinusOneGenerator,
    GridMeasureSpace,
    IndicatorGenerator,
    LinearGenerator,
    OrliczGenerator,
    Piece,
    PiecewiseGenerator,
    PowerGenerator,
    SimpleFunction,
    VariableExponentGenerator,
    XLogXGenerator,
    conjugate,
    modular,
    subdiff,
    truncate,
)
from monorm.errors import DomainError
from conftest import all_families, masked
from generator_checks import validate_generator


def test_eval_examples():
    assert PowerGenerator(2.0).phi(0.0, 3.0) == 4.5
    assert IndicatorGenerator(1.0).phi(0.0, 1.0) == 0.0
    assert IndicatorGenerator(1.0).phi(0.0, 1.5) == math.inf
    # series oracle for exp(1) - 2
    series = sum(1.0 / math.factorial(k) for k in range(2, 25))
    got = ExpMinusOneGenerator().phi(0.0, 1.0)
    assert got == pytest.approx(series, abs=1e-12)


def test_eval_rejects_negative():
    with pytest.raises(DomainError):
        PowerGenerator(2.0).phi(0.0, -1.0)


def test_phi_at_infinity_is_infinite(two_atoms):
    for gen in all_families(two_atoms):
        assert gen.phi(two_atoms.coords[0], math.inf) == math.inf


def test_subdiff_examples(kink_linear):
    assert subdiff(PowerGenerator(2.0), 0.0, 3.0) == (3.0, 3.0)
    assert subdiff(kink_linear, 0.0, 1.0) == (1.0, 2.0)
    assert subdiff(IndicatorGenerator(1.0), 0.0, 1.0) == (0.0, math.inf)


def test_subdiff_zero_convention(two_atoms):
    # left derivative at the origin is 0 even for linear growth
    lo, hi = subdiff(LinearGenerator(1.0), 0.0, 0.0)
    assert lo == 0.0 and hi == 1.0


def test_subdiff_outside_domain_errors():
    with pytest.raises(DomainError):
        subdiff(IndicatorGenerator(1.0), 0.0, 1.5)


def test_generator_bounds():
    power = PowerGenerator(2.0)
    assert power.zero_bound(0.0) == 0.0 and power.finite_bound(0.0) == math.inf
    indicator = IndicatorGenerator(1.0)
    assert indicator.zero_bound(0.0) == 1.0 and indicator.finite_bound(0.0) == 1.0
    # conjugate of linear growth: zero up to the slope, infinite beyond
    conj = conjugate(LinearGenerator(1.0))
    assert conj.zero_bound(0.0) == 1.0 and conj.finite_bound(0.0) == 1.0


def test_modular_examples(two_atoms):
    u = SimpleFunction.on(two_atoms, (1.0, 1.0))
    assert modular(PowerGenerator(2.0), two_atoms, u) == 0.5
    zero = SimpleFunction.on(two_atoms, (0.0, 0.0))
    for gen in all_families(two_atoms):
        assert modular(gen, two_atoms, zero) == 0.0
    u12 = SimpleFunction.on(two_atoms, (1.0, 2.0))
    assert modular(IndicatorGenerator(1.0), two_atoms, u12) == math.inf


def test_modular_additive_over_disjoint_support_exact():
    # dyadic weights and values: every part is exactly representable
    space = GridMeasureSpace.uniform(4)
    u = SimpleFunction.on(space, (0.25, -1.5, 0.0, 2.0))
    for gen in (PowerGenerator(2.0), LinearGenerator(1.0), IndicatorGenerator(4.0)):
        total = modular(gen, space, u)
        left = modular(gen, space, masked(u, [0, 1]))
        right = modular(gen, space, masked(u, [2, 3]))
        assert left + right == total


def test_modular_additive_over_disjoint_support_general():
    space = GridMeasureSpace.uniform(5)
    u = SimpleFunction.on(space, (0.3, -1.2, 0.0, 2.0, 0.7))
    for gen in all_families(space):
        total = modular(gen, space, u)
        left = modular(gen, space, masked(u, [0, 1]))
        right = modular(gen, space, masked(u, [2, 3, 4]))
        got = left + right
        assert math.isfinite(got) == math.isfinite(total)
        if math.isfinite(total):
            assert abs(got - total) <= 4e-16 * max(1.0, total)


def test_truncate_examples():
    t5 = truncate(IndicatorGenerator(1.0), 5.0)
    assert t5.phi(0.0, 0.7) == 0.0
    assert t5.phi(0.0, 2.0) == 5.0
    # piecewise integral: int_0^3 min(x, 1) dx = 0.5 + 2
    assert truncate(PowerGenerator(2.0), 1.0).phi(0.0, 3.0) == 2.5
    # inactive truncation
    big = truncate(PowerGenerator(2.0), 100.0)
    for u in (0.0, 0.5, 2.0, 7.0):
        assert big.phi(0.0, u) == PowerGenerator(2.0).phi(0.0, u)


def test_truncate_monotone_in_level(two_atoms):
    grid = [0.0, 0.3, 0.9, 1.0, 1.7, 4.0]
    for gen in all_families(two_atoms):
        t = two_atoms.coords[0]
        for n1, n2 in [(0.5, 2.0), (2.0, 8.0)]:
            g1, g2 = truncate(gen, n1), truncate(gen, n2)
            for u in grid:
                a, b, c = g1.phi(t, u), g2.phi(t, u), gen.phi(t, u)
                assert a <= b <= c


def test_truncated_generators_are_finite_valued(two_atoms):
    for gen in all_families(two_atoms):
        g = truncate(gen, 3.0)
        assert g.finite_valued
        assert math.isfinite(g.phi(two_atoms.coords[0], 50.0))


@given(st.floats(min_value=0.01, max_value=8.0))
def test_difference_quotients_bracket_derivatives(u):
    # (phi(u) - phi(u-h))/h <= phi'_- + 0.01 and phi'_+ <= (phi(u+h)-phi(u))/h + 0.01
    space = GridMeasureSpace.uniform(2)
    t = space.coords[0]
    for gen in all_families(space):
        if u >= gen.finite_bound(t):
            continue
        lo, hi = subdiff(gen, t, u)
        for h in (1e-3, 1e-4, 1e-5):
            if u - h <= 0:
                continue
            f_m = gen.phi(t, u - h)
            f_0 = gen.phi(t, u)
            f_p = gen.phi(t, u + h)
            if not (math.isfinite(f_m) and math.isfinite(f_0) and math.isfinite(f_p)):
                continue
            if math.isfinite(lo):
                assert (f_0 - f_m) / h <= lo + 0.01
            if math.isfinite(hi):
                assert hi <= (f_p - f_0) / h + 0.01


def test_validate_builtins_clean(two_atoms):
    for gen in all_families(two_atoms):
        assert validate_generator(gen, two_atoms) == []


class _SqrtGenerator(OrliczGenerator):
    """Deliberately concave: used to exercise the validator."""

    family = "sqrt-test"

    def _phi(self, t, u):
        return math.sqrt(u)

    def _left(self, t, u):
        return 0.5 / math.sqrt(u)

    def _right(self, t, u):
        return 0.5 / math.sqrt(u) if u > 0 else math.inf


def test_validator_catches_concavity(two_atoms):
    violations = validate_generator(_SqrtGenerator(), two_atoms)
    assert any(v.check == "midpoint_convexity" for v in violations)


class _BrokenPower(OrliczGenerator):
    """u**2 / 2, except that phi (broken = "phi") or both one-sided
    derivatives (broken = "deriv") read `out` beyond u = 1."""

    family = "broken-test"

    def __init__(self, broken: str, out: float = 0.0):
        self.broken, self.out = broken, out

    def _phi(self, t, u):
        return self.out if self.broken == "phi" and u > 1.0 else 0.5 * u * u

    def _left(self, t, u):
        return self.out if self.broken == "deriv" and u > 1.0 else u

    _right = _left


@pytest.mark.parametrize("broken", ["phi", "deriv"])
@pytest.mark.parametrize("out", [math.nan, -1.0])
def test_validator_rejects_nan_and_negative(two_atoms, broken, out):
    assert validate_generator(_BrokenPower("none"), two_atoms) == []
    violations = validate_generator(_BrokenPower(broken, out), two_atoms)
    assert any(v.check == "nan_or_negative" for v in violations), violations


class _JumpAtOrigin(OrliczGenerator):
    """0 at u = 0 and c + u beyond: phi(t, 0+) = c > 0."""

    family = "jump-test"

    def __init__(self, c: float):
        self.c = c

    def _phi(self, t, u):
        return self.c + u if u > 0 else 0.0

    def _left(self, t, u):
        return 1.0

    _right = _left


@pytest.mark.parametrize("c", [1e-12, 1.0, 1e12])
def test_validator_flags_a_jump_at_the_origin(two_atoms, c):
    violations = validate_generator(_JumpAtOrigin(c), two_atoms)
    assert any(v.check == "limit_at_origin" for v in violations), violations


def test_plq_validation():
    with pytest.raises(ValueError):
        PiecewiseGenerator(())
    with pytest.raises(ValueError):
        # never grows: phi(inf) would be 0
        PiecewiseGenerator((Piece(None, 0.0, 0.0),))
    with pytest.raises(ValueError):
        # bounded needs a final width
        PiecewiseGenerator((Piece(None, 1.0, 0.0),), bounded=True)


@pytest.mark.parametrize(
    "p_values, c_values",
    [
        ([1.0, 2.0], None),
        ([0.5, 2.0], None),
        ([math.nan, 2.0], None),
        ([math.inf, 2.0], None),
        ([2.0, 2.0], [0.0, 1.0]),
        ([2.0, 2.0], [-1.0, 1.0]),
        ([2.0, 2.0], [math.nan, 1.0]),
        ([2.0, 2.0], [math.inf, 1.0]),
        ([2.0], None),
        ([2.0, 2.0, 2.0], None),
        ([2.0, 2.0], [1.0]),
        # the conjugate coefficient (cp)**(-1/(p-1)) overflows
        ([1.0001, 2.0], [0.5, 1.0]),
    ],
)
def test_varexp_constructor_rejects(two_atoms, p_values, c_values):
    with pytest.raises(ValueError):
        VariableExponentGenerator.from_values(two_atoms, p_values, c_values)


def test_varexp_is_defined_exactly_at_its_coordinates(two_atoms):
    gen = VariableExponentGenerator.from_values(two_atoms, [2.0, 3.0], [1.0, 0.5])
    t0, t1 = two_atoms.coords
    assert gen.phi(t0, 2.0) == 4.0 and gen.phi(t1, 2.0) == 4.0
    for t in (0.0, 0.5, t0 + 1e-15, t1 - 1e-15):
        with pytest.raises(DomainError):
            gen.phi(t, 1.0)
        with pytest.raises(DomainError):
            gen.right_deriv(t, 1.0)


@pytest.mark.parametrize("p", [1.0, math.nan, math.inf, 1e300])
def test_power_constructor_rejects(p):
    # from about 2**53 on, the conjugate exponent p/(p-1) rounds to 1
    with pytest.raises(ValueError):
        PowerGenerator(p)


@pytest.mark.parametrize(
    "pieces, bounded",
    [
        ((Piece(1e200, 0.0, 1.0), Piece(None, 1.0, 0.0)), False),  # width**2 overflows
        ((Piece(0.5, 0.0, 5e-324), Piece(None, 1.0, 0.0)), False),  # conjugate slope 1/s
        ((Piece(1.0, 0.0, 1.0), Piece(1e-300, 1.0, 0.0)), True),  # 1 + 1e-300 == 1
        ((Piece(math.inf, 0.0, 1.0), Piece(None, 1.0, 0.0)), False),
        ((Piece(1.0, math.nan, 1.0), Piece(None, 1.0, 0.0)), False),
    ],
)
def test_plq_constructor_rejects_what_the_table_cannot_hold(pieces, bounded):
    with pytest.raises(ValueError):
        PiecewiseGenerator(pieces, bounded=bounded)


def test_overflow_during_evaluation_saturates(two_atoms):
    t = two_atoms.coords[0]
    varexp = VariableExponentGenerator.from_values(two_atoms, [1.0001, 2.0])
    assert PowerGenerator(1.0001).derivative_threshold(t, 1.5) == math.inf
    assert varexp.derivative_threshold(t, 1.5) == math.inf
    assert XLogXGenerator().derivative_threshold(t, 1e9) == math.inf
    assert truncate(XLogXGenerator(), 1e9).phi(t, 1e300) == XLogXGenerator().phi(t, 1e300)


def test_plq_matches_named_families():
    ind = PiecewiseGenerator((Piece(1.0, 0.0, 0.0),), bounded=True)
    lin = PiecewiseGenerator((Piece(None, 1.0, 0.0),))
    named_ind = IndicatorGenerator(1.0)
    named_lin = LinearGenerator(1.0)
    for u in (0.0, 0.5, 1.0, 1.5, 3.0):
        assert ind.phi(0.0, u) == named_ind.phi(0.0, u)
        assert lin.phi(0.0, u) == named_lin.phi(0.0, u)


def test_plq_zero_bound():
    flat_then_quad = PiecewiseGenerator(
        (Piece(0.5, 0.0, 0.0), Piece(None, 0.0, 1.0))
    )
    assert flat_then_quad.zero_bound(0.0) == 0.5
    assert flat_then_quad.phi(0.0, 0.5) == 0.0
    assert flat_then_quad.phi(0.0, 0.6) == pytest.approx(0.005, abs=1e-12)


def test_monotone_and_convex_on_grid(two_atoms):
    # 50 x 50 sample: monotone exactly, midpoint convexity with tiny slack
    us = [0.08 * j for j in range(50)]
    for gen in all_families(two_atoms):
        for t in two_atoms.coords:
            vals = [gen.phi(t, u) for u in us]
            for a, b in zip(vals, vals[1:]):
                assert a <= b
            for i in range(len(us) - 2):
                f1, f2 = vals[i], vals[i + 2]
                fm = gen.phi(t, 0.5 * (us[i] + us[i + 2]))
                if math.isfinite(f1) and math.isfinite(f2) and math.isfinite(fm):
                    assert 0.5 * (f1 + f2) - fm >= -1e-12
