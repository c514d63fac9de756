import functools
import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

from monorm import (
    DualDensity,
    ExpMinusOneGenerator,
    GridMeasureSpace,
    IndicatorGenerator,
    LinearGenerator,
    Piece,
    PiecewiseGenerator,
    PowerGenerator,
    SimpleFunction,
    conjugate,
    dual_functional_norm,
    holder_gap,
    luxemburg_norm,
    luxemburg_norm_bruteforce,
    orlicz_amemiya_norm,
    orlicz_norm_bruteforce,
    truncate,
    truncated_norm_sequence,
)
from monorm import duality, selfcheck
from monorm.duality import best_grid_point, holder_equality_pair
from monorm.errors import OracleScaleError, PreconditionError
from monorm.selfcheck import random_space
from conftest import all_families, random_instance


def test_orlicz_bruteforce_examples(two_atoms):
    u = SimpleFunction.on(two_atoms, (1.0, 1.0))
    bf = orlicz_norm_bruteforce(PowerGenerator(2.0), two_atoms, u, 200)
    assert bf == pytest.approx(math.sqrt(2.0), abs=1e-4)
    zero = SimpleFunction.on(two_atoms, (0.0, 0.0))
    assert orlicz_norm_bruteforce(PowerGenerator(2.0), two_atoms, zero, 50) == 0.0
    u12 = SimpleFunction.on(two_atoms, (1.0, 2.0))
    bf = orlicz_norm_bruteforce(LinearGenerator(1.0), two_atoms, u12, 200)
    assert bf == pytest.approx(1.5, abs=1e-6)


def test_oracle_is_lower_bound(two_atoms):
    rng = random.Random(11)
    for _ in range(10):
        gen, space, u = random_instance(rng, max_atoms=3)
        bf = orlicz_norm_bruteforce(gen, space, u, 60)
        an, _ = orlicz_amemiya_norm(gen, space, u)
        assert bf <= an + 1e-9


def test_oracle_scale_guard():
    space = GridMeasureSpace.uniform(5)
    u = SimpleFunction.on(space, (1.0,) * 5)
    with pytest.raises(OracleScaleError):
        orlicz_norm_bruteforce(PowerGenerator(2.0), space, u, 10)


def test_luxemburg_bruteforce_examples(two_atoms):
    u = SimpleFunction.on(two_atoms, (1.0, 1.0))
    bf = luxemburg_norm_bruteforce(PowerGenerator(2.0), two_atoms, u, 200)
    assert bf == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-4)
    u12 = SimpleFunction.on(two_atoms, (1.0, 2.0))
    bf = luxemburg_norm_bruteforce(IndicatorGenerator(1.0), two_atoms, u12, 200)
    assert bf == pytest.approx(2.0, abs=1e-3)
    zero = SimpleFunction.on(two_atoms, (0.0, 0.0))
    assert luxemburg_norm_bruteforce(PowerGenerator(2.0), two_atoms, zero, 50) == 0.0


def _oracle_families(space):
    """Every built-in family, a bounded plq, and each of them truncated."""
    bounded = PiecewiseGenerator(
        (Piece(1.0, 0.0, 1.0), Piece(2.0, 0.5, 0.5)), bounded=True
    )
    plain = all_families(space) + [bounded]
    return plain + [truncate(gen, n) for gen, n in zip(plain, itertools.cycle((0.5, 2.0, 8.0)))]


def test_luxemburg_oracle_brackets_analytic_norm():
    rng = random.Random(53)
    for _ in range(3):
        space = random_space(rng, rng.randint(2, 4))
        for gen in _oracle_families(space):
            u = SimpleFunction.on(space, [rng.uniform(-2.0, 2.0) for _ in range(len(space))])
            an = luxemburg_norm(gen, space, u)
            slack = 1e-9 * max(1.0, an)
            bf = luxemburg_norm_bruteforce(gen, space, u, 400)
            assert bf <= an + slack, (gen, u.values)
            assert an - bf <= 5e-3, (gen, u.values)
            # a coarse grid still gives a certified lower bound
            assert luxemburg_norm_bruteforce(gen, space, u, 12) <= an + slack


def test_luxemburg_oracle_solves_no_norm(monkeypatch, two_atoms):
    def refuse(*args, **kwargs):
        raise AssertionError("the Luxemburg oracle must not solve a norm")

    monkeypatch.setattr(duality, "orlicz_amemiya_norm", refuse)
    monkeypatch.setattr(duality, "luxemburg_norm", refuse)
    u = SimpleFunction.on(two_atoms, (1.0, -2.0))
    for gen in _oracle_families(two_atoms):
        assert luxemburg_norm_bruteforce(gen, two_atoms, u, 24) > 0.0


def test_oracle_resolution_must_be_at_least_two(two_atoms):
    u = SimpleFunction.on(two_atoms, (1.0, 1.0))
    for oracle in (orlicz_norm_bruteforce, luxemburg_norm_bruteforce):
        for resolution in (1, 0, -3):
            with pytest.raises(PreconditionError, match="resolution"):
                oracle(PowerGenerator(2.0), two_atoms, u, resolution)
        assert oracle(PowerGenerator(2.0), two_atoms, u, 2) > 0.0


def _exhaustive_grid_point(grids, gains):
    """Every combination in depth-first order; the first strictly better
    feasible one wins."""
    best_val, best_mags = 0.0, [0.0] * len(grids)
    for combo in itertools.product(*grids):
        cost = val = 0.0
        for (m, c), g in zip(combo, gains):
            cost = cost + c
            val = val + g * m
        if cost <= 1.0 + 1e-12 and val > best_val:
            best_val, best_mags = val, [m for m, _ in combo]
    return best_val, best_mags


def _random_grid(rng, size, tie_costs):
    mags = sorted({0.0} | {rng.uniform(0.0, 3.0) for _ in range(size - 1)})
    top = rng.uniform(0.3, 1.0)
    costs = sorted(
        round(rng.uniform(0.0, top), 1) if tie_costs else rng.uniform(0.0, top)
        for _ in mags[1:]
    )
    return list(zip(mags, [0.0] + costs))


def test_grid_scan_matches_exhaustive_search():
    rng = random.Random(61)
    for trial in range(300):
        n = rng.randint(1, 4)
        grids = [_random_grid(rng, rng.randint(1, 7), trial % 2 == 0) for _ in range(n)]
        gains = [rng.uniform(0.0, 2.0) for _ in range(n)]
        if trial % 3 == 0:
            # the last gain vanishes next to the running value, so several
            # last magnitudes give the same float pairing
            gains[-1] = rng.choice((1e-17, 2.0**-54, 2.0**-53, 0.0))
        assert best_grid_point(grids, gains) == _exhaustive_grid_point(grids, gains)


def test_grid_scan_takes_the_first_of_equal_values():
    grids = [[(0.0, 0.0), (1.0, 0.5)], [(0.0, 0.0), (0.25, 0.1), (0.5, 0.2), (4.0, 0.9)]]
    # 1 + 1e-17 * m rounds to 1 for every m, so the last magnitude is the first
    assert best_grid_point(grids, [1.0, 1e-17]) == (1.0, [1.0, 0.0])
    assert best_grid_point(grids, [1.0, 0.2]) == (1.0 + 0.2 * 0.5, [1.0, 0.5])


def test_holder_examples(two_atoms):
    u = SimpleFunction.on(two_atoms, (1.0, 1.0))
    v = SimpleFunction.on(two_atoms, (math.sqrt(2.0), math.sqrt(2.0)))
    assert holder_gap(PowerGenerator(2.0), two_atoms, u, v) == pytest.approx(0.0, abs=1e-8)
    v_cancel = SimpleFunction.on(two_atoms, (1.0, -1.0))
    assert holder_gap(PowerGenerator(2.0), two_atoms, u, v_cancel) == pytest.approx(
        1.0, abs=1e-9
    )
    zero = SimpleFunction.on(two_atoms, (0.0, 0.0))
    assert holder_gap(PowerGenerator(2.0), two_atoms, zero, v) == pytest.approx(0.0, abs=1e-12)


def test_holder_nonnegative_random():
    rng = random.Random(23)
    for _ in range(200):
        gen, space, u = random_instance(rng, max_atoms=5)
        v = SimpleFunction.on(space, [rng.uniform(-2, 2) for _ in range(len(space))])
        assert holder_gap(gen, space, u, v) >= -1e-9


def test_holder_equality_pair(two_atoms, kink_linear):
    for gen, vals in [
        (PowerGenerator(3.0), (1.0, 2.0)),
        (kink_linear, (1.0, 1.0)),
        (ExpMinusOneGenerator(), (0.5, 2.0)),
    ]:
        u = SimpleFunction.on(two_atoms, vals)
        v = holder_equality_pair(gen, two_atoms, u)
        assert v is not None
        norm_v, _ = orlicz_amemiya_norm(conjugate(gen), two_atoms, v)
        gap = holder_gap(gen, two_atoms, u, v * (1.0 / norm_v))
        assert abs(gap) <= 1e-6


def test_dual_functional_norm_examples(two_atoms):
    r2 = math.sqrt(2.0)
    v = SimpleFunction.on(two_atoms, (r2, r2))
    p2 = PowerGenerator(2.0)
    assert dual_functional_norm(p2, two_atoms, DualDensity(v, 0.0)) == pytest.approx(
        1.0, abs=1e-9
    )
    zero = SimpleFunction.on(two_atoms, (0.0, 0.0))
    assert dual_functional_norm(p2, two_atoms, DualDensity(zero, 0.5)) == pytest.approx(
        0.5, abs=1e-10
    )
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    assert dual_functional_norm(p2, two_atoms, DualDensity(v, 1.0)) == pytest.approx(
        golden, abs=1e-9
    )
    assert dual_functional_norm(p2, two_atoms, DualDensity(zero, 0.0)) == 0.0


def test_dual_norm_matches_luxemburg_of_conjugate():
    rng = random.Random(31)
    for _ in range(25):
        gen, space, u = random_instance(rng, max_atoms=5)
        got = dual_functional_norm(gen, space, DualDensity(u, 0.0))
        want = luxemburg_norm(conjugate(gen), space, u)
        assert got == pytest.approx(want, abs=1e-9 * max(1.0, want))


@given(st.integers(), st.one_of(st.just(0.0), st.floats(1e-3, 4.0)))
def test_dual_norm_is_the_first_float_of_its_predicate(seed, s_norm):
    gen, space, v = random_instance(random.Random(seed))
    d = DualDensity(v, s_norm)
    lam = dual_functional_norm(gen, space, d)
    scale, load, _ = duality._dual_load(conjugate(gen), space, d)
    assert load(scale / lam) <= 1.0
    assert load(scale / math.nextafter(lam, 0.0)) > 1.0


def test_dual_norm_of_a_zero_density_is_the_singular_mass(two_atoms, monkeypatch):
    zero = SimpleFunction.on(two_atoms, (0.0, 0.0))
    monkeypatch.setattr(duality, "modular", None)  # no modular is evaluated
    for s_norm in (0.0, 5e-324, 0.1, 1.0 / 3.0, 1.7e308):
        d = DualDensity(zero, s_norm)
        assert dual_functional_norm(PowerGenerator(2.0), two_atoms, d) == s_norm


def test_dual_norm_evaluation_count(two_atoms, monkeypatch):
    # one cap of the load and a step or two; bisecting the predicate to a
    # width of 1e-10 took 35 modulars here
    calls = []
    real = duality.modular
    monkeypatch.setattr(duality, "modular", lambda *args: calls.append(1) or real(*args))
    v = SimpleFunction.on(two_atoms, (1.0, -2.0))
    norm = dual_functional_norm(PowerGenerator(2.0), two_atoms, DualDensity(v, 0.25))
    assert norm == pytest.approx(0.125 + math.sqrt(0.125**2 + 1.25), rel=1e-15)
    assert len(calls) <= 18


def test_density_must_be_finite(two_atoms):
    # PreconditionError is a MonormError, so the CLI exits 2 on these
    with pytest.raises(PreconditionError):
        DualDensity(SimpleFunction.on(two_atoms, (1.0, math.inf)), 0.0)
    for s_norm in (-0.1, math.nan):
        with pytest.raises(PreconditionError):
            DualDensity(SimpleFunction.on(two_atoms, (1.0, 1.0)), s_norm)


def test_truncated_sequence_oracle(two_atoms):
    u = SimpleFunction.on(two_atoms, (1.0, 2.0))
    seq = truncated_norm_sequence(IndicatorGenerator(1.0), two_atoms, u, [1, 10, 100, 1000])
    # hand-solved per level: n(2/l - 1)/2 + n*max(0, 1/l - 1)/2 = 1
    expected = {1: 0.75, 10: 2.0 / 1.2, 100: 2.0 / 1.02, 1000: 2.0 / 1.002}
    for n, val in seq:
        assert val == pytest.approx(expected[n], abs=1e-9)
    values = [v for _, v in seq]
    assert all(b >= a for a, b in zip(values, values[1:]))
    lux = luxemburg_norm(IndicatorGenerator(1.0), two_atoms, u)
    assert values[-1] <= lux + 1e-9


def test_truncated_sequence_inactive(two_atoms):
    u = SimpleFunction.on(two_atoms, (1.0, 1.0))
    p2 = PowerGenerator(2.0)
    lux = luxemburg_norm(p2, two_atoms, u)
    seq = truncated_norm_sequence(p2, two_atoms, u, [50, 100])
    for _, val in seq:
        assert val == pytest.approx(lux, abs=1e-10)
    zero = SimpleFunction.on(two_atoms, (0.0, 0.0))
    assert all(v == 0.0 for _, v in truncated_norm_sequence(p2, two_atoms, zero, [1, 2]))


def test_truncated_sequence_requires_increasing(two_atoms):
    u = SimpleFunction.on(two_atoms, (1.0, 1.0))
    with pytest.raises(PreconditionError):
        truncated_norm_sequence(PowerGenerator(2.0), two_atoms, u, [2, 1])


def test_nondecreasing_toward_untruncated():
    rng = random.Random(41)
    for _ in range(8):
        gen, space, u = random_instance(rng, max_atoms=4)
        seq = truncated_norm_sequence(gen, space, u, [0.5, 2.0, 8.0, 32.0])
        values = [v for _, v in seq]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] <= luxemburg_norm(gen, space, u) + 1e-9


def _count_conjugate_phi(monkeypatch, gen):
    """The arguments of every phi* evaluation of gen's conjugate."""
    conj = conjugate(gen)
    cls = type(conj)
    phi = cls.phi
    calls = []

    def counted_phi(self, t, v):
        if self is conj:
            calls.append(v)
        return phi(self, t, v)

    monkeypatch.setattr(cls, "phi", counted_phi)
    return calls


def test_orlicz_oracle_conjugate_evaluations_stay_low(monkeypatch):
    # a cost guard: the oracle's polish caps (fill_scale) dominate its
    # conjugate evaluations.  With bisection to adjacent floats this
    # instance took 17697 evaluations of phi*, with false position 3882;
    # Brent steps in golden_max take 1955, caps started from the bracket
    # of their neighbouring probes 1297
    gen = PowerGenerator(3.0)
    space = GridMeasureSpace.uniform(3)
    u = SimpleFunction.on(space, (1.0, -2.0, 0.5))
    calls = _count_conjugate_phi(monkeypatch, gen)
    # a lower bound of the analytic 1.8985908295...
    bf = orlicz_norm_bruteforce(gen, space, u, 12)
    assert bf == pytest.approx(1.8985608317162543, rel=1e-12)
    assert len(calls) <= 1360


@pytest.mark.parametrize(
    "gen, oracle, norm, most",
    [
        # the polish caps end at the conjugate's domain edge instead of
        # bisecting towards the jump to infinity: 6628 evaluations before;
        # 1110 with a second polish pass on two atoms and every cap cold
        (LinearGenerator(1.0), orlicz_norm_bruteforce, 1.5, 950),
        # the grid search by index: 892 and 4523 evaluations with a full scan
        (LinearGenerator(1.0), luxemburg_norm_bruteforce, 1.5, 130),
        (PowerGenerator(2.0), luxemburg_norm_bruteforce, math.sqrt(5.0) / 2.0, 570),
    ],
    ids=["linear-orlicz", "linear-luxemburg", "power-luxemburg"],
)
def test_oracle_conjugate_evaluations_at_default_resolution(
    monkeypatch, two_atoms, gen, oracle, norm, most
):
    u = SimpleFunction.on(two_atoms, (1.0, -2.0))
    calls = _count_conjugate_phi(monkeypatch, gen)
    assert oracle(gen, two_atoms, u, 400) == pytest.approx(norm, rel=1e-12)
    assert len(calls) <= most


def test_concave_grid_search_matches_full_scan():
    rng = random.Random(67)
    for trial in range(400):
        n = rng.randint(1, 40)
        peak = rng.uniform(-0.5, 1.5)
        grid = sorted(rng.uniform(0.0, 1.0) for _ in range(n))
        curvature = rng.uniform(0.1, 5.0)
        values = [-curvature * (m - peak) ** 2 for m in grid]
        if trial % 2 == 1:
            # a plateau at the maximum (concave min(f, level)): the first
            # of the equal values wins
            level = rng.choice(values)
            values = [min(v, level) for v in values]
        if trial % 3 == 2:
            # a -inf tail: past the conjugate's domain
            cut = rng.randint(1, n)
            values = values[:cut] + [-math.inf] * (n - cut)
        # the full scan's index: the first of the largest values
        scanned = max(range(n), key=values.__getitem__)
        assert duality._concave_argmax(values.__getitem__, n) == scanned


def _boundary_scan(gen, space, u, points):
    """Best pairing over `points` magnitudes m0 evenly spaced on
    [0, cap0], each with the largest affordable m1: a scan of the two-atom
    boundary w0 phi*(m0) + w1 phi*(m1) = 1."""
    conj = conjugate(gen)
    (t0, t1), (w0, w1) = space.coords, space.weights
    g0, g1 = w0 * abs(u.values[0]), w1 * abs(u.values[1])
    cap0 = duality.magnitude_cap(conj, t0, 1.0 / w0)
    best = 0.0
    for k in range(points):
        m0 = cap0 * k / (points - 1)
        budget = 1.0 - w0 * conj.phi(t0, m0)
        if budget >= 0.0:
            best = max(best, g0 * m0 + g1 * duality.magnitude_cap(conj, t1, budget / w1))
    return best


_TWO_ATOMS = GridMeasureSpace.uniform(2)


@pytest.mark.parametrize(
    "gen", _oracle_families(_TWO_ATOMS)[:10], ids=lambda gen: type(gen).__name__
)
def test_two_atom_orlicz_oracle_tops_a_fine_boundary_scan(gen):
    # on two atoms one polish pass searches the whole boundary curve
    u = SimpleFunction.on(_TWO_ATOMS, (1.0, -2.0))
    bf = orlicz_norm_bruteforce(gen, _TWO_ATOMS, u, 400)
    assert bf >= _boundary_scan(gen, _TWO_ATOMS, u, 20_000) * (1.0 - 1e-12)
    an, _ = orlicz_amemiya_norm(gen, _TWO_ATOMS, u)
    assert bf <= an + 1e-9


@pytest.mark.parametrize("small", [3e-4, 1e-3, 1e-2])
def test_two_atom_orlicz_oracle_polishes_twice_after_a_zero_magnitude(small):
    # the grid scan gives the small atom magnitude 0, so the first pass moves
    # along one axis only; without the second the oracle falls 2e-8 to
    # 2.5e-5 short
    u = SimpleFunction.on(_TWO_ATOMS, (1.0, small))
    gen = ExpMinusOneGenerator()
    an, _ = orlicz_amemiya_norm(gen, _TWO_ATOMS, u)
    assert orlicz_norm_bruteforce(gen, _TWO_ATOMS, u, 400) == pytest.approx(an, rel=1e-12)


def test_orlicz_oracle_caps_are_affordable(monkeypatch):
    # a cap started from its neighbours' bracket still ends within budget
    cap = duality.monotone_cap
    checked = []

    def checked_cap(g, target, lo, hi):
        s = cap(g, target, lo, hi)
        assert g(s) <= target, (target, lo, hi, s)
        checked.append(lo > 0.0)
        return s

    monkeypatch.setattr(duality, "monotone_cap", checked_cap)
    rng = random.Random(71)
    for _ in range(12):
        space = random_space(rng, 3)
        gen = selfcheck.random_generator(rng, space)
        orlicz_norm_bruteforce(gen, space, selfcheck.random_function(rng, space), 12)
    assert any(checked)  # some caps started warm


@pytest.mark.parametrize("resolution", [2, 3, 12, 400])
def test_scaled_unit_grid_matches_the_grid_built_for_the_cap(resolution):
    unit = duality._magnitude_grid(1.0, resolution)
    rng = random.Random(resolution)
    caps = [1e-290, 1e300, 1.0, 3.0] + [10.0 ** rng.uniform(-290.0, 300.0) for _ in range(200)]
    for cap in caps:
        assert duality._scaled_grid(cap, unit, resolution) == (cap, unit)
        scaled = [cap * x for x in unit]
        built = duality._magnitude_grid(cap, resolution)
        assert len(scaled) == len(built)
        assert all(a < b for a, b in zip(scaled, scaled[1:])), cap
        assert all(abs(a - b) <= 2.0 * math.ulp(b) for a, b in zip(scaled, built)), cap
    # below, where the smallest scaled points are not normal floats, the
    # grid is built for the cap
    for cap in (0.0, 5e-324, 1e-310, 1e-303):
        assert duality._scaled_grid(cap, unit, resolution) == (
            1.0, duality._magnitude_grid(cap, resolution))


class _JitteredConjugate:
    """A conjugate whose phi* is raised by a relative 1e-7 on floats with an
    odd last mantissa bit: not monotone on the scale of the polish's last
    probes."""

    def __init__(self, conj):
        self._conj = conj

    def phi(self, t, v):
        value = self._conj.phi(t, v)
        odd = math.isfinite(v) and int(math.frexp(v)[0] * 2.0**53) % 2
        return value * (1.0 + 1e-7) if odd else value

    def __getattr__(self, name):
        return getattr(self._conj, name)


def test_a_warm_cap_over_budget_is_redone_from_scratch(monkeypatch):
    cap = duality.monotone_cap
    calls = []

    def recording_cap(g, target, lo, hi):
        s = cap(g, target, lo, hi)
        calls.append((target, lo, g(s) <= target))
        return s

    jittered = functools.lru_cache(maxsize=None)(lambda gen: _JitteredConjugate(conjugate(gen)))
    monkeypatch.setattr(duality, "conjugate", jittered)
    monkeypatch.setattr(duality, "monotone_cap", recording_cap)
    space = GridMeasureSpace.uniform(3)
    u = SimpleFunction.on(space, (1.0, -2.0, 0.5))
    for gen in (PowerGenerator(3.0), ExpMinusOneGenerator(), PowerGenerator(1.5)):
        orlicz_norm_bruteforce(gen, space, u, 12)
    over = [k for k, (_, lo, affordable) in enumerate(calls) if not affordable]
    assert over  # the jitter put some warm lower ends over budget
    for k in over:
        # only a warm cap can end over budget, and the next cap redoes it
        assert calls[k][1] > 0.0
        assert calls[k + 1][:2] == (calls[k][0], 0.0) and calls[k + 1][2]


def test_luxemburg_bruteforce_with_an_underflowing_gain():
    # w |u| = 1e-400 is 0 as a float: no Dinkelbach step, 0 is the bound
    space = GridMeasureSpace((0.5,), (1e-200,))
    u = SimpleFunction.on(space, (1e-200,))
    assert luxemburg_norm_bruteforce(PowerGenerator(2.0), space, u, 8) == 0.0
