"""Results that must not depend on the order of the atoms.

For a family whose generator does not depend on t, moving the (weight,
value) pairs to other coordinates changes no norm, modular or pairing:
each is a weighted per-atom sum, and every such sum is correctly rounded
(weighted_sum), so the bits stay the same too.
"""

import random

from hypothesis import assume, given, settings, strategies as st

from monorm import (
    GridMeasureSpace,
    SimpleFunction,
    VariableExponentGenerator,
    luxemburg_norm,
    modular,
    orlicz_amemiya_norm,
    pairing,
)
from monorm.selfcheck import random_function
from conftest import random_instance


def _permuted(space: GridMeasureSpace, perm: list[int], *functions: SimpleFunction):
    """The space with weight i moved to coordinate perm.index(i), and the
    functions' values moved with it."""
    moved = GridMeasureSpace(space.coords, tuple(space.weights[i] for i in perm))
    return moved, [SimpleFunction(moved, tuple(f.values[i] for i in perm)) for f in functions]


@settings(max_examples=80)
@given(st.integers(0, 2**32 - 1))
def test_results_do_not_depend_on_the_atom_order(seed):
    rng = random.Random(seed)
    gen, space, u = random_instance(rng)
    # a varexp draw ties its exponents to the coordinates
    assume(not isinstance(gen, VariableExponentGenerator))
    v = random_function(rng, space)
    perm = list(range(len(space)))
    rng.shuffle(perm)
    moved, (pu, pv) = _permuted(space, perm, u, v)

    assert pairing(pu, pv) == pairing(u, v)
    assert modular(gen, moved, pu) == modular(gen, space, u)
    assert luxemburg_norm(gen, moved, pu) == luxemburg_norm(gen, space, u)
    norm, ks = orlicz_amemiya_norm(gen, space, u)
    # The degenerate norm, the integral of |u| b*, is the one builtin sum
    # (norms._l1_against_bound): selftest criterion 5 compares it with == to
    # the builtin sum, which is left to right before CPython 3.12, so its
    # last bits may follow the atom order.
    if not ks.is_degenerate:
        assert orlicz_amemiya_norm(gen, moved, pu) == (norm, ks)
