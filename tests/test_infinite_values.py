"""The spots where an infinite generator value needs more than IEEE
arithmetic.  Values are plain floats with math.inf for "infinite"; these
tests pin the places where inf - inf, a negated infinity or 0 * inf would
otherwise leak into a result."""

import math

import pytest

from monorm import (
    DualDensity,
    ExpMinusOneGenerator,
    GridMeasureSpace,
    IndicatorGenerator,
    LinearGenerator,
    PowerGenerator,
    SimpleFunction,
    conjugate,
    k_interval,
    luxemburg_norm,
    modular,
    pairing,
    truncate,
    verify_support_functional,
)
from monorm.space import weighted_sum
from monorm.geometry import _gap


def test_gap_with_an_infinite_end_is_infinite():
    assert _gap(math.inf, math.inf) == math.inf
    assert _gap(math.inf, 1.0) == math.inf
    assert _gap(1.0, math.inf) == math.inf
    assert _gap(3.0, 1.0) == 2.0


class _InfiniteLeft(PowerGenerator):
    """u**2 / 2 whose left derivative reads infinite for u > 0."""

    def left_deriv(self, t, u):
        return math.inf if u > 0 else 0.0


def test_infinite_lower_derivative_is_no_excess(two_atoms):
    # every magnitude sits at the upper end phi'_+ of its subdifferential;
    # a lower end of inf must not count as a shortfall of inf
    gen = _InfiniteLeft(2.0)
    u = SimpleFunction.on(two_atoms, (1.0, 2.0))
    k = k_interval(gen, two_atoms, u).k_star
    v = SimpleFunction.on(
        two_atoms, [gen.right_deriv(t, k * ui) for t, ui in zip(two_atoms.coords, u.values)]
    )
    report = verify_support_functional(gen, two_atoms, u, DualDensity(v))
    clause = {c.name: c for c in report.clauses}["sign_and_subdifferential"]
    assert clause.passed and clause.value == 0.0


def test_modular_of_zero_is_zero_for_extended_valued(two_atoms):
    zero = SimpleFunction.on(two_atoms, (0.0, 0.0))
    gens = (
        IndicatorGenerator(1.0),
        conjugate(truncate(PowerGenerator(2.0), 3.0)),
        conjugate(truncate(LinearGenerator(2.0), 0.5)),
    )
    for gen in gens:
        assert not gen.finite_valued, gen
        assert modular(gen, two_atoms, zero) == 0.0, gen


def test_overflow_saturates_to_inf(two_atoms):
    t = two_atoms.coords[0]
    assert PowerGenerator(3.0).phi(t, 1e200) == math.inf
    assert ExpMinusOneGenerator().phi(t, 1e3) == math.inf
    assert ExpMinusOneGenerator().right_deriv(t, 1e3) == math.inf
    big = SimpleFunction.on(two_atoms, (1e200, 1.0))
    assert modular(PowerGenerator(3.0), two_atoms, big) == math.inf


def test_finite_terms_summing_past_the_float_range_give_inf():
    assert weighted_sum([2.0, 2.0], [1e308, 1e308]) == math.inf
    # signed terms, where fsum raises: the builtin sum's -inf and nan
    space = GridMeasureSpace((0.25, 0.75), (1.0, 1.0))
    u = SimpleFunction.on(space, (1e308, 1e308))
    assert pairing(u, SimpleFunction.on(space, (-1.5, -1.5))) == -math.inf
    assert math.isnan(pairing(u, SimpleFunction.on(space, (1e308, -1e308))))
    # the first Luxemburg probe, lambda = 1, has such a modular
    space = GridMeasureSpace((0.25, 0.75), (2.0, 2.0))
    u = SimpleFunction.on(space, (1.3e154, 1.3e154))
    norm = luxemburg_norm(PowerGenerator(2.0), space, u)
    assert norm == pytest.approx(1.3e154 * math.sqrt(2.0), rel=1e-9)
