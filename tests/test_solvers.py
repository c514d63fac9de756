import bisect
import math
import sys

import pytest
from hypothesis import given, strategies as st

from monorm import solvers
from monorm.errors import BracketError, PreconditionError
from monorm.solvers import GOLDEN_REL_TOL, golden_max, monotone_boundary, monotone_cap


def counted(fn):
    calls = []

    def wrapper(x):
        calls.append(x)
        return fn(x)

    return wrapper, calls


def test_exports_three_solvers():
    assert solvers.__all__ == ["monotone_boundary", "golden_max", "monotone_cap"]


@pytest.mark.parametrize("threshold", [math.sqrt(2.0), 3e-7, 12345.678, 1e200])
def test_adjacent_pair_independent_of_start(threshold):
    # the cap solver lands on the float just below the threshold from any
    # upper end
    lo = math.nextafter(threshold, 0.0)
    for top in (math.inf, 2.0 * threshold, 1e300):
        assert monotone_cap(lambda x: x, lo, 0.0, top) == lo


def test_bracket_error_names_last_bracket_when_never_true():
    with pytest.raises(
        BracketError,
        match=r"stayed false up to 8\.98846567431158e\+307 "
        r"\(last bracket \[4\.49423283715579e\+307, 8\.98846567431158e\+307\]\)",
    ):
        monotone_boundary(lambda x: False)


def test_bracket_error_names_last_bracket_when_never_false():
    # the range ends at the smallest normal float
    with pytest.raises(BracketError, match=r"stayed true .*\[0\.0, 2\.2250738585072014e-308\]"):
        monotone_boundary(lambda x: True)


def test_bracket_error_from_known_lower_point():
    with pytest.raises(BracketError, match="stayed false"):
        monotone_boundary(lambda x: False, lo=1.0)


@pytest.mark.parametrize("lo", [0.0, -1.0, math.nan])
def test_known_lower_point_must_be_positive(lo):
    # doubling 0 stays at 0 and doubling a negative lo ends at -inf: either
    # would loop forever, so the value is refused before any probe
    probes = []
    with pytest.raises(PreconditionError, match="must be > 0"):
        monotone_boundary(lambda x: probes.append(x) or False, lo=lo)
    assert probes == []


def test_monotone_cap_with_infinite_values():
    # finite up to 2, infinite beyond: the cap is the domain edge itself
    def g(x):
        return x * x if x <= 2.0 else math.inf

    assert monotone_cap(g, 100.0, 0.0, math.inf) == 2.0
    assert monotone_cap(g, 100.0, 0.0, 8.0) == 2.0
    assert monotone_cap(g, 1.0, 0.0, math.inf) == 1.0
    # infinite right after the origin: nothing beyond lo fits
    assert monotone_cap(lambda x: 0.0 if x == 0.0 else math.inf, 1.0, 0.0, math.inf) == 0.0
    # never over the target: the supremum is infinite
    assert monotone_cap(lambda x: 0.0, 1.0, 0.0, math.inf) == math.inf
    # over the target already at lo
    assert monotone_cap(lambda x: math.inf, 1.0, 0.5, math.inf) == 0.5


def test_evaluation_counts_for_fixed_predicate():
    pred, calls = counted(lambda x: x >= 3.0)
    lo, hi = monotone_boundary(pred)
    # 1, 2, 4 bracket [2, 4]; 33 halvings bring the width 2 under 1e-10 * hi
    assert len(calls) == 3 + 33
    assert hi - lo <= 1e-10 * hi and lo < 3.0 <= hi

    # a threshold below 1: 1, then halvings to 2**-22, the first point
    # that fails, then bisection of [2**-22, 2**-21]
    pred, calls = counted(lambda x: x >= 3e-7)
    assert monotone_boundary(pred) == (2.999999999808711e-07, 3.000000000086267e-07)
    assert calls[:23] == [2.0**-i for i in range(23)]
    assert calls[23:] == [
        3.5762786865234375e-07, 2.980232238769531e-07, 3.2782554626464844e-07,
        3.129243850708008e-07, 3.0547380447387695e-07, 3.0174851417541504e-07,
        2.998858690261841e-07, 3.0081719160079956e-07, 3.003515303134918e-07,
        3.0011869966983795e-07, 3.00002284348011e-07, 2.9994407668709755e-07,
        2.999731805175543e-07, 2.9998773243278265e-07, 2.9999500839039683e-07,
        2.999986463692039e-07, 3.0000046535860747e-07, 2.999995558639057e-07,
        3.000000106112566e-07, 2.9999978323758114e-07, 2.9999989692441886e-07,
        2.999999537678377e-07, 2.9999998218954715e-07, 2.9999999640040187e-07,
        3.0000000350582923e-07, 2.9999999995311555e-07, 3.000000017294724e-07,
        3.0000000084129397e-07, 3.0000000039720476e-07, 3.0000000017516015e-07,
        3.0000000006413785e-07, 3.000000000086267e-07, 2.999999999808711e-07,
    ]

    g, calls = counted(lambda x: x)
    monotone_cap(g, 3.0, 0.0, math.inf)
    # g(0), then upper ends 1, 2, 4; false position hits 3 itself, then
    # 3 + 2 ulp (over) and the float between close the bracket
    assert calls[1:] == [1.0, 2.0, 4.0, 3.0, 3.0 + 2 * math.ulp(3.0), math.nextafter(3.0, 4.0)]
    assert len(calls) == 1 + 3 + 3


def test_threshold_below_normal_floats_reads_zero():
    # the probes stop at the smallest normal float instead of walking the
    # subnormals, where difference quotients divide by zero
    g, calls = counted(lambda x: 0.0 if x == 0.0 else 1.0)
    assert monotone_cap(g, 0.5, 0.0, math.inf) == 0.0
    assert min(x for x in calls if x > 0.0) == sys.float_info.min
    # g(0), the upper end 1, then 47 steps that bring hi down to the
    # smallest normal float (bisection took 1022 halvings of [0, 1]):
    # halving the residual kept at lo (Illinois) shrinks hi superlinearly
    assert len(calls) == 2 + 47


# -- golden_max ----------------------------------------------------------------


def test_golden_max_smooth_maximum_in_few_evaluations():
    def f(x):
        return 2.0 * x - x**3

    counted_f, calls = counted(f)
    x, fx = golden_max(counted_f, 0.0, 5.0)
    # golden section took 52 evaluations to the same final width
    assert len(calls) <= 25
    assert x == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-7)
    assert fx == pytest.approx(4.0 / 3.0 * math.sqrt(2.0 / 3.0), rel=1e-15)
    # the best of all evaluated points
    assert x in calls and fx == f(x) == max(map(f, calls))


def test_golden_max_kink_within_tolerance():
    x, fx = golden_max(lambda x: min(x, 2.0 - 2.0 * x), 0.0, 1.0)
    assert abs(x - 2.0 / 3.0) <= GOLDEN_REL_TOL
    assert fx >= 2.0 / 3.0 - 2.0 * GOLDEN_REL_TOL


def test_golden_max_at_an_endpoint():
    # the endpoints are evaluated first and returned exactly
    assert golden_max(lambda x: x, 0.0, 3.0) == (3.0, 3.0)
    assert golden_max(lambda x: 1.0 - x, 0.5, 3.0) == (0.5, 0.5)


def test_golden_max_with_infinite_values():
    # -inf past an edge on either side, and a finite window that both first
    # probes miss
    x, _ = golden_max(lambda x: -((x - 1.0) ** 2) if x <= 2.0 else -math.inf, 0.0, 5.0)
    assert x == pytest.approx(1.0, abs=1e-7)
    x, _ = golden_max(lambda x: -((x - 4.0) ** 2) if x >= 3.0 else -math.inf, 0.0, 5.0)
    assert x == pytest.approx(4.0, abs=1e-7)
    x, fx = golden_max(lambda x: -((x - 1.1) ** 2) if 1.0 <= x <= 1.2 else -math.inf, 0.0, 5.0)
    assert x == pytest.approx(1.1, abs=1e-7) and fx > -1e-14
    assert golden_max(lambda x: -math.inf, 0.0, 1.0) == (0.0, -math.inf)


@st.composite
def concave_on_interval(draw):
    """(f, lo, hi, slope): a concave f on [lo, hi] whose slope there is at
    most slope in absolute value, a kink, a parabola or an exponential."""
    lo = draw(st.floats(min_value=-10.0, max_value=10.0))
    hi = lo + draw(_scales)
    c = draw(st.floats(min_value=lo - 1.0, max_value=hi + 1.0))
    a, b = draw(_scales), draw(_scales)
    far = max(abs(lo - c), abs(hi - c))
    kind = draw(st.sampled_from(("kink", "parabola", "exp")))
    if kind == "kink":
        return (lambda x: min(a * (x - c), -b * (x - c))), lo, hi, max(a, b)
    if kind == "parabola":
        return (lambda x: -a * (x - c) ** 2), lo, hi, 2.0 * a * far
    c = max(c, hi - 30.0)  # keeps exp(x - c) in range
    return (lambda x: b * (x - c) - math.exp(x - c)), lo, hi, b + math.exp(hi - c)


@given(concave_on_interval())
def test_golden_max_beats_a_fine_scan(case):
    f, lo, hi, slope = case
    x, fx = golden_max(f, lo, hi)
    assert lo <= x <= hi and fx == f(x)
    scan = max(f(lo + (hi - lo) * k / 999) for k in range(1000))
    assert fx >= scan - slope * GOLDEN_REL_TOL * max(1.0, abs(hi)) - 4.0 * math.ulp(scan)


# -- monotone_cap on nondecreasing families ------------------------------------

#: the cap may take this many evaluations beyond plain bisection's: its
#: four spare steps, one more from float rounding (5 was the largest excess
#: over 20,000 draws of the strategies below), and one of slack
CAP_EXTRA_EVALS = 6


def bisection_cap_evals(g, target, lo, hi):
    """Evaluations of the cap by doubling, then bisection to adjacent floats
    above the smallest normal float: the reference count."""
    n = 1
    if g(lo) > target:
        return n
    x = min(max(1.0, 2.0 * lo), hi)
    while True:
        n += 1
        if g(x) > target:
            break
        if x == hi or 2.0 * x == math.inf:
            return n
        lo, x = x, min(2.0 * x, hi)
    hi = x
    while hi > sys.float_info.min:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        n += 1
        if g(mid) > target:
            hi = mid
        else:
            lo = mid
    return n


def _saturating(f):
    def g(x):
        try:
            return f(x)
        except OverflowError:
            return math.inf

    return g


_scales = st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0**e)


@st.composite
def smooth_convex(draw):
    s = draw(_scales)
    if draw(st.booleans()):
        p = draw(st.floats(min_value=1.0, max_value=8.0))
        return _saturating(lambda x: (s * x) ** p)
    return _saturating(lambda x: math.expm1(s * x))


@st.composite
def piecewise_linear(draw):
    """Slopes 0 (plateaus) or positive between sorted knots; each piece is
    evaluated as its left value plus slope times offset, so g is
    nondecreasing float by float."""
    knots = sorted(draw(st.lists(_scales, min_size=1, max_size=5, unique=True)))
    slopes = draw(
        st.lists(
            st.one_of(st.just(0.0), _scales), min_size=len(knots) + 1, max_size=len(knots) + 1
        )
    )
    starts, values = [0.0], [0.0]
    for k, slope in zip(knots, slopes):
        values.append(values[-1] + slope * (k - starts[-1]))
        starts.append(k)

    def g(x):
        j = bisect.bisect_right(starts, x) - 1
        return values[j] + slopes[j] * (x - starts[j])

    return g


@st.composite
def finite_then_infinite(draw):
    s = draw(st.one_of(st.just(0.0), _scales))
    edge = draw(_scales)
    return lambda x: s * x if x <= edge else math.inf


@st.composite
def unit_step(draw):
    c = draw(st.one_of(_scales, st.just(0.0), st.just(sys.float_info.min)))
    return lambda x: 1.0 if x >= c and x > 0.0 else 0.0


@given(
    st.one_of(smooth_convex(), piecewise_linear(), finite_then_infinite(), unit_step()),
    st.one_of(st.floats(min_value=0.0, max_value=0.999), _scales),
    st.one_of(st.just(0.0), _scales),
    st.one_of(st.just(math.inf), _scales),
)
def test_cap_is_adjacent_float_crossing(g, target, lo, hi):
    hi = max(hi, lo)
    counted_g, calls = counted(g)
    x = monotone_cap(counted_g, target, lo, hi)
    if g(lo) > target:
        assert x == lo
    elif x == hi:
        assert hi == math.inf or g(hi) <= target
    elif x == 0.0:
        # a crossing below the normal floats reads as 0
        assert g(sys.float_info.min) > target
    else:
        assert lo <= x < hi
        assert g(x) <= target < g(math.nextafter(x, math.inf))
    assert all(p == 0.0 or p >= sys.float_info.min for p in calls)
    assert len(calls) <= bisection_cap_evals(g, target, lo, hi) + CAP_EXTRA_EVALS
