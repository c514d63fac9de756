import math
import sys

import pytest

from monorm import solvers
from monorm.errors import BracketError
from monorm.solvers import monotone_boundary, monotone_cap


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
    def pred(x):
        return x >= threshold

    pairs = {monotone_boundary(pred, start=s, rel_tol=0.0) for s in (1e-3, 0.7, 1.0, 9.0, 1e6)}
    pairs.add(monotone_boundary(pred, start=1.0, rel_tol=0.0, lo=0.0))
    pairs.add(monotone_boundary(pred, start=threshold * 0.75, rel_tol=0.0, lo=threshold / 3.0))
    assert len(pairs) == 1
    lo, hi = pairs.pop()
    assert not pred(lo) and pred(hi)
    assert hi == math.nextafter(lo, math.inf)
    # the cap solver lands on the same float from any upper end
    for top in (math.inf, 2.0 * threshold, 1e300):
        assert monotone_cap(lambda x: x, math.nextafter(threshold, 0.0), 0.0, top) == lo


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
        monotone_boundary(lambda x: False, start=1.0, lo=0.0)


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

    pred, calls = counted(lambda x: x >= 3.0)
    monotone_boundary(pred, rel_tol=0.0)
    # floats in [2, 4) are 2**-51 apart: 52 halvings from width 2
    assert len(calls) == 3 + 52

    pred, calls = counted(lambda x: x >= 3.0)
    monotone_boundary(pred, start=4.0, rel_tol=math.inf, lo=2.0)
    assert calls == [4.0]

    g, calls = counted(lambda x: x)
    monotone_cap(g, 3.0, 0.0, math.inf)
    # g(0), then upper ends 1, 2, 4, then 52 halvings of [2, 4]
    assert len(calls) == 1 + 3 + 52


def test_threshold_below_normal_floats_reads_zero():
    # the probes stop at the smallest normal float instead of walking the
    # subnormals, where difference quotients divide by zero
    g, calls = counted(lambda x: 0.0 if x == 0.0 else 1.0)
    assert monotone_cap(g, 0.5, 0.0, math.inf) == 0.0
    assert min(x for x in calls if x > 0.0) == sys.float_info.min
    # g(0), the upper end 1, then 1022 halvings of [0, 1]
    assert len(calls) == 2 + 1022

