import sys

import pytest
from hypothesis import given, strategies as st

from monorm import GridMeasureSpace, SimpleFunction, pairing, sgn
from monorm.errors import SpaceMismatchError
from conftest import masked, refine, total_mass


def test_construction_validates():
    with pytest.raises(ValueError):
        GridMeasureSpace((), ())
    with pytest.raises(ValueError):
        GridMeasureSpace((0.1, 0.2), (1.0, 0.0))
    with pytest.raises(ValueError):
        GridMeasureSpace((0.2, 0.1), (1.0, 1.0))


@pytest.mark.parametrize("w", [1e-310, 5e-324])
def test_subnormal_weight_is_rejected(w):
    # a unit modular would need phi to reach 1 / w, past the float range
    with pytest.raises(ValueError, match=r"^atom 0: weight must be a normal float"):
        GridMeasureSpace((0.5,), (w,))
    assert GridMeasureSpace((0.5,), (sys.float_info.min,)).weights == (sys.float_info.min,)


def test_uniform_midpoints():
    sp = GridMeasureSpace.uniform(4)
    assert sp.coords == (0.125, 0.375, 0.625, 0.875)
    assert sp.weights == (0.25,) * 4
    assert total_mass(sp) == pytest.approx(1.0, abs=1e-15)


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=5))
def test_refine_preserves_mass(n, k):
    sp = GridMeasureSpace.uniform(n)
    refined = refine(sp, k)
    assert len(refined) == k * n
    assert abs(total_mass(refined) - total_mass(sp)) <= 1e-12


def test_refine_splits_cells():
    sp = refine(GridMeasureSpace.uniform(2), 2)
    assert sp.coords == GridMeasureSpace.uniform(4).coords


def test_function_length_checked(two_atoms):
    with pytest.raises(SpaceMismatchError):
        SimpleFunction.on(two_atoms, (1.0,))


def test_support_and_masking(two_atoms):
    u = SimpleFunction.on(two_atoms, (0.0, 2.0))
    assert u.support() == (1,)
    assert masked(u, [0]).values == (0.0, 0.0)
    assert masked(u, [1]).values == (0.0, 2.0)


def test_arithmetic(two_atoms):
    u = SimpleFunction.on(two_atoms, (1.0, -2.0))
    assert (2.0 * u).values == (2.0, -4.0)
    assert (u + u).values == (2.0, -4.0)
    assert (-u).values == (-1.0, 2.0)


def test_pairing(two_atoms):
    u = SimpleFunction.on(two_atoms, (1.0, 2.0))
    v = SimpleFunction.on(two_atoms, (3.0, -1.0))
    assert pairing(u, v) == pytest.approx(0.5 * 3.0 - 0.5 * 2.0)


def test_sgn_convention():
    assert sgn(0.0) == 0
    assert sgn(2.5) == 1
    assert sgn(-0.1) == -1
