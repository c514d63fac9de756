import math
import random

import pytest
from hypothesis import assume, example, given, strategies as st

from monorm import (
    DualDensity,
    ExpMinusOneGenerator,
    GridMeasureSpace,
    IndicatorGenerator,
    KSetNonEmpty,
    LinearGenerator,
    Piece,
    PiecewiseGenerator,
    PowerGenerator,
    SimpleFunction,
    VariableExponentGenerator,
    XLogXGenerator,
    check_space_smoothness,
    classify_smooth_point,
    construct_support_functional,
    delta2_check,
    dual_functional_norm,
    k_interval,
    orlicz_amemiya_norm,
    smoothness_gap_function,
    support_density_survey,
    truncate,
    verify_support_functional,
)
from monorm import geometry, selfcheck
from monorm.conjugate import conjugate
from monorm.errors import DomainError
from conftest import all_families, random_instance, refine


def test_construct_power(two_atoms):
    u = SimpleFunction.on(two_atoms, (1.0, 1.0))
    sf = construct_support_functional(PowerGenerator(2.0), two_atoms, u)
    r2 = math.sqrt(2.0)
    assert sf.s_norm == 0.0
    assert sf.density.values[0] == pytest.approx(r2, abs=1e-8)
    assert sf.density.values[1] == pytest.approx(r2, abs=1e-8)
    assert sf.achieved == pytest.approx(r2, abs=1e-9)
    assert sf.norm_value == pytest.approx(1.0, abs=1e-9)


def test_construct_kink_selection(two_atoms, kink_linear):
    # sequential raise: the first atom absorbs the slack, so (2, 1)
    u = SimpleFunction.on(two_atoms, (1.0, 1.0))
    sf = construct_support_functional(kink_linear, two_atoms, u)
    assert sf.s_norm == 0.0
    assert sf.density.values[0] == pytest.approx(2.0, abs=1e-7)
    assert sf.density.values[1] == pytest.approx(1.0, abs=1e-7)
    assert sf.achieved == pytest.approx(1.5, abs=1e-9)
    assert sf.norm_value == pytest.approx(1.0, abs=1e-7)


def test_construct_degenerate_linear(two_atoms):
    u = SimpleFunction.on(two_atoms, (1.0, 2.0))
    sf = construct_support_functional(LinearGenerator(1.0), two_atoms, u)
    assert sf.density.values == (1.0, 1.0)
    assert sf.s_norm == 0.0
    assert sf.achieved == pytest.approx(1.5, abs=1e-12)
    assert sf.norm_value == pytest.approx(1.0, abs=1e-9)


def test_construct_respects_sign(two_atoms):
    u = SimpleFunction.on(two_atoms, (-1.0, 1.0))
    sf = construct_support_functional(PowerGenerator(2.0), two_atoms, u)
    assert sf.density.values[0] < 0 < sf.density.values[1]
    assert sf.achieved == pytest.approx(math.sqrt(2.0), abs=1e-9)


def test_construct_rejects_zero(two_atoms):
    with pytest.raises(DomainError):
        construct_support_functional(
            PowerGenerator(2.0), two_atoms, SimpleFunction.on(two_atoms, (0, 0))
        )


def test_verify_examples(two_atoms):
    r2 = math.sqrt(2.0)
    u = SimpleFunction.on(two_atoms, (1.0, 1.0))
    good = DualDensity(SimpleFunction.on(two_atoms, (r2, r2)), 0.0)
    rep = verify_support_functional(PowerGenerator(2.0), two_atoms, u, good)
    assert rep.passed and rep.branch == "k_nonempty"

    bad = DualDensity(SimpleFunction.on(two_atoms, (2.0, 0.9)), 0.0)
    rep = verify_support_functional(PowerGenerator(2.0), two_atoms, u, bad)
    assert not rep.passed
    clause = {c.name: c for c in rep.clauses}["sign_and_subdifferential"]
    assert not clause.passed

    u02 = SimpleFunction.on(two_atoms, (0.0, 2.0))
    off = DualDensity(SimpleFunction.on(two_atoms, (0.5, 1.0)), 0.0)
    rep = verify_support_functional(LinearGenerator(1.0), two_atoms, u02, off)
    assert rep.passed and rep.branch == "k_empty"


def test_verify_flags_singular_mass(two_atoms):
    # grids carry no singular functionals: any claimed singular mass fails
    # the attainment clause, with an explanatory note
    u = SimpleFunction.on(two_atoms, (1.0, 1.0))
    r2 = math.sqrt(2.0)
    scaled = SimpleFunction.on(two_atoms, (0.8 * r2, 0.8 * r2))
    d = DualDensity(scaled, 1.0 - 0.64)
    rep = verify_support_functional(PowerGenerator(2.0), two_atoms, u, d)
    clause = {c.name: c for c in rep.clauses}["singular_attainment"]
    assert not clause.passed
    assert "grid" in clause.note


def test_constructed_functionals_verify():
    rng = random.Random(5)
    checked = 0
    for _ in range(25):
        gen, space, u = random_instance(rng, max_atoms=5)
        sf = construct_support_functional(gen, space, u)
        rep = verify_support_functional(gen, space, u, DualDensity(sf.density, sf.s_norm))
        # the constructor reports the verifier's clauses for its own output
        assert sf.report == rep
        if sf.s_norm > 0:
            continue
        assert rep.passed, (gen, u.values, [c for c in rep.clauses if not c.passed])
        value, _ = orlicz_amemiya_norm(gen, space, u)
        assert sf.achieved == pytest.approx(value, abs=1e-7 * max(1.0, value))
        checked += 1
    assert checked >= 15


def test_classify_power_smooth(two_atoms):
    u = SimpleFunction.on(two_atoms, (1.0, 1.0))
    rep = classify_smooth_point(PowerGenerator(2.0), two_atoms, u)
    assert rep.smooth and rep.branch == "k_nonempty"
    assert rep.conditions["left_modular_at_one"].passed


def test_classify_kink_not_smooth(two_atoms, kink_linear):
    u = SimpleFunction.on(two_atoms, (1.0, 1.0))
    rep = classify_smooth_point(kink_linear, two_atoms, u)
    assert not rep.smooth
    assert rep.conditions["left_modular_at_one"].value == pytest.approx(0.5, abs=1e-7)
    assert rep.conditions["right_modular_at_one"].value == pytest.approx(1.5, abs=1e-7)
    assert rep.witnesses is not None
    v1, v2 = rep.witnesses
    assert sorted(v1.values) != sorted(v2.values) or v1.values != v2.values
    for w in rep.witnesses:
        assert sum(w.values) == pytest.approx(3.0, abs=1e-6)
        rv = verify_support_functional(kink_linear, two_atoms, u, DualDensity(w, 0.0))
        assert rv.passed


def test_classify_linear_off_support(two_atoms):
    u = SimpleFunction.on(two_atoms, (0.0, 2.0))
    rep = classify_smooth_point(LinearGenerator(1.0), two_atoms, u)
    assert not rep.smooth and rep.branch == "k_empty"
    assert rep.witnesses is not None
    for w in rep.witnesses:
        rv = verify_support_functional(LinearGenerator(1.0), two_atoms, u, DualDensity(w, 0.0))
        assert rv.passed

    full = SimpleFunction.on(two_atoms, (1.0, 2.0))
    rep = classify_smooth_point(LinearGenerator(1.0), two_atoms, full)
    assert rep.smooth


def test_classify_zero_bound_off_support_is_exact(two_atoms):
    # a* = slope of the conjugate indicator: any a* > 0 off the support
    # fails the clause, however small, and serves as the second witness
    for slope in (1e-8, 2.0):
        u = SimpleFunction.on(two_atoms, (0.0, 0.5))
        rep = classify_smooth_point(LinearGenerator(slope), two_atoms, u)
        clause = rep.conditions["conjugate_zero_bound_off_support"]
        assert (clause.value, clause.passed) == (slope, False)
        assert not rep.smooth
        assert rep.witnesses is not None
        assert [w.values[0] for w in rep.witnesses] == [0.0, slope]


def test_classify_finite_beyond_k_star_near_theta():
    # bounded plq with b = 1 and u = (1, 1): I(lambda u) < inf exactly for
    # lambda <= 1/theta = 1, and k* = 1 - 1e-8 sits just below it
    w = (1.0 - 1e-8) ** -2
    space = GridMeasureSpace((0.25, 0.75), (w, w))
    gen = PiecewiseGenerator((Piece(1.0, 0.0, 1.0),), bounded=True)
    u = SimpleFunction.on(space, (1.0, 1.0))
    assert k_interval(gen, space, u).k_star == pytest.approx(1.0 - 1e-8, abs=1e-10)
    rep = classify_smooth_point(gen, space, u)
    clause = rep.conditions["finite_beyond_k_star"]
    assert (clause.value, clause.passed) == (1.0, True)
    assert rep.smooth


def test_classify_rejects_zero(two_atoms):
    with pytest.raises(DomainError):
        classify_smooth_point(PowerGenerator(2.0), two_atoms, SimpleFunction.on(two_atoms, (0, 0)))


def test_unique_functional_on_wide_interval(plateau):
    # when K(u) has more than one element there is exactly one support
    # functional, with no singular mass, and the point is smooth
    gen, space, u = plateau
    ks = k_interval(gen, space, u)
    assert isinstance(ks, KSetNonEmpty)
    assert ks.k_double_star - ks.k_star > 1e-6
    sf = construct_support_functional(gen, space, u)
    assert sf.s_norm == 0.0
    rep = classify_smooth_point(gen, space, u)
    assert rep.smooth
    survey = support_density_survey(gen, space, u, 200)
    assert survey.unique is True
    value, _ = orlicz_amemiya_norm(gen, space, u)
    assert sf.achieved == pytest.approx(value, abs=1e-9)
    assert dual_functional_norm(gen, space, DualDensity(sf.density, 0.0)) == pytest.approx(
        1.0, abs=1e-7
    )


def test_verify_on_wide_interval(plateau):
    # K(u) = [1, 2]: the sign/subdifferential clause must hold at every k in
    # it, and the boxes at k* and k** meet only in the density (1, 1)
    gen, space, u = plateau
    sf = construct_support_functional(gen, space, u)
    rep = verify_support_functional(gen, space, u, DualDensity(sf.density, 0.0))
    assert rep.passed
    assert rep.clauses[2].name == "sign_and_subdifferential"
    assert rep.clauses[2].value == 0.0
    for vals, excess in (((0.9, 1.0), 0.1), ((1.1, 1.0), 0.1), ((1.0, -1.0), 2.0)):
        f = DualDensity(SimpleFunction.on(space, vals), 0.0)
        clause = verify_support_functional(gen, space, u, f).clauses[2]
        assert not clause.passed, vals
        assert clause.value == pytest.approx(excess, abs=1e-12), vals


class _CountingConjugate:
    """Delegates to a conjugate and counts its phi evaluations."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def phi(self, t, v):
        self.calls += 1
        return self.inner.phi(t, v)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def test_verify_evaluates_the_conjugate_only_for_the_modular(plateau, monkeypatch):
    # the boxes at k* and k** need one-sided derivatives only; the one
    # conjugate value per atom is the modular of the density
    gen, space, u = plateau
    sf = construct_support_functional(gen, space, u)
    counting = _CountingConjugate(conjugate(gen))
    monkeypatch.setattr(geometry, "conjugate", lambda g: counting)
    rep = verify_support_functional(gen, space, u, DualDensity(sf.density, 0.0))
    assert rep.passed
    assert counting.calls == len(space)


def test_space_smoothness_families(two_atoms, kink_quadratic):
    assert check_space_smoothness(PowerGenerator(1.5), two_atoms).smooth
    assert check_space_smoothness(PowerGenerator(2.0), two_atoms).smooth
    assert check_space_smoothness(PowerGenerator(3.0), two_atoms).smooth
    assert check_space_smoothness(LinearGenerator(1.0), two_atoms).failing() == {"a", "c"}
    assert check_space_smoothness(IndicatorGenerator(1.0), two_atoms).failing() == {"b", "c"}
    assert check_space_smoothness(kink_quadratic, two_atoms).failing() == {"c"}
    assert check_space_smoothness(ExpMinusOneGenerator(), two_atoms).failing() == {"b"}
    # the verdicts read the closed forms, so a small jump or a tiny scale
    # changes nothing: b* = inf for the conjugate of indicator(1e-300), and
    # linear(1e-300) still jumps at the origin
    small_jump = PiecewiseGenerator((Piece(1.0, 0.0, 1.0), Piece(None, 0.005, 1.0)))
    assert check_space_smoothness(small_jump, two_atoms).failing() == {"c"}
    assert check_space_smoothness(IndicatorGenerator(1e-300), two_atoms).failing() == {"b", "c"}
    assert check_space_smoothness(LinearGenerator(1e-300), two_atoms).failing() == {"a", "c"}
    # clause (a) reads b* itself: the conjugate of a truncation is capped at
    # n, and phi*(b*) = exp(1e9) - 1 - 1e9 overflowing must not pass it;
    # clause (b) evaluates nothing, so a threshold at 1e300 is no input error
    assert check_space_smoothness(truncate(XLogXGenerator(), 1e9), two_atoms).failing() == {"a"}
    truncated_indicator = truncate(IndicatorGenerator(1e300), 1e300)
    assert check_space_smoothness(truncated_indicator, two_atoms).failing() == {"a", "c"}


def test_family_flags_agree_with_sampled_checks(two_atoms):
    # check_space_smoothness trusts the doubling flag for clause (b), and
    # for clause (a) that phi(t, b(t)) < inf wherever b(t) < inf
    bounded_plq = PiecewiseGenerator((Piece(1.0, 0.0, 1.0), Piece(1.0, 0.5, 0.0)), bounded=True)
    gens = all_families(two_atoms) + [bounded_plq, selfcheck.plateau()]
    gens += [truncate(g, 3.0) for g in gens]
    gens += [conjugate(g) for g in gens]
    assert len(gens) == 44
    for gen in gens:
        if gen.doubling:
            f = 1.25 * max(gen.zero_bound(t) for t in two_atoms.coords)
            assert delta2_check(gen, two_atoms, 256.0, f).holds, gen
        else:
            assert not delta2_check(gen, two_atoms, 256.0).holds, gen
        for t in two_atoms.coords:
            b = gen.finite_bound(t)
            assert math.isinf(b) or math.isfinite(gen.phi(t, b)), gen


def _failing(gen, space):
    return check_space_smoothness(gen, space).failing()


#: (width, jump, slope) rows of a plq; the last width is dropped unless bounded
PLQ_ROWS = st.lists(
    st.tuples(
        st.sampled_from((0.25, 1.0, 4.0)),
        st.sampled_from((0.0, 0.005, 0.02, 1.0)),
        st.sampled_from((0.0, 0.5, 2.0)),
    ),
    min_size=1,
    max_size=3,
)
SCALES = st.floats(1e-3, 1e3)


def _plq(rows, bounded, a=1.0):
    """a * phi for the plq with the given rows (jumps and slopes times a)."""
    pieces = [Piece(w, a * j, a * s) for w, j, s in rows]
    if not bounded:
        pieces[-1] = pieces[-1]._replace(width=None)
    try:
        return PiecewiseGenerator(tuple(pieces), bounded)
    except ValueError:
        assume(False)


@given(PLQ_ROWS, st.booleans(), SCALES)
@example([(1.0, 0.0, 1.0), (1.0, 0.02, 1.0)], False, 0.1)
def test_space_smoothness_is_scale_invariant_plq(rows, bounded, a):
    space = GridMeasureSpace.uniform(2)
    assert _failing(_plq(rows, bounded, a), space) == _failing(_plq(rows, bounded), space)


@given(SCALES, st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
def test_space_smoothness_is_scale_invariant(a, x, y):
    # phi -> a phi scales the linear slope and the varexp coefficients; the
    # indicator is unchanged by it, so scale its threshold instead
    space = GridMeasureSpace.uniform(2)
    for make in (
        lambda s: LinearGenerator(s * x),
        lambda s: IndicatorGenerator(s * x),
        lambda s: VariableExponentGenerator.from_values(space, [1.5, 3.0], [s * x, s * y]),
    ):
        assert _failing(make(a), space) == _failing(make(1.0), space)


@given(PLQ_ROWS, st.booleans(), st.integers(1, 4), st.integers(1, 3))
def test_space_smoothness_is_invariant_under_refinement(rows, bounded, k, n):
    space = GridMeasureSpace.uniform(n)
    fine = refine(space, k)
    plain = [g for g in all_families(space) if not isinstance(g, VariableExponentGenerator)]
    gens = plain + [_plq(rows, bounded)]
    for gen in gens + [truncate(g, 0.5) for g in gens]:
        assert _failing(gen, fine) == _failing(gen, space), gen


def test_gap_function_examples(two_atoms, kink_linear):
    prof = smoothness_gap_function(kink_linear, two_atoms, 0.5)
    assert all(prof.finite_mask)
    assert all(loc == pytest.approx(1.0, abs=1e-9) for loc in prof.locations)

    prof = smoothness_gap_function(kink_linear, two_atoms, 1.5)
    assert not any(prof.finite_mask)
    assert all(loc == math.inf for loc in prof.locations)

    prof = smoothness_gap_function(PowerGenerator(2.0), two_atoms, 0.01)
    assert not any(prof.finite_mask)


def test_gap_function_postcondition(two_atoms, kink_linear):
    for delta in (0.25, 0.5, 1.0):
        prof = smoothness_gap_function(kink_linear, two_atoms, delta)
        for t, loc in zip(two_atoms.coords, prof.locations):
            if math.isinf(loc):
                continue
            lo = kink_linear.left_deriv(t, loc)
            hi = kink_linear.right_deriv(t, loc)
            assert hi - lo >= delta - 1e-9
            # probes below the location stay below the gap threshold
            for j in range(1, 11):
                x = loc * j / 11.0
                l2 = kink_linear.left_deriv(t, x)
                h2 = kink_linear.right_deriv(t, x)
                assert h2 - l2 < delta


def test_survey_matches_classifier(two_atoms, kink_linear, plateau):
    gen_p, space_p, u_p = plateau
    cases = [
        (PowerGenerator(2.0), two_atoms, (1.0, 1.0)),
        (PowerGenerator(3.0), two_atoms, (0.5, 2.0)),
        (kink_linear, two_atoms, (1.0, 1.0)),
        (LinearGenerator(1.0), two_atoms, (0.0, 2.0)),
        (LinearGenerator(1.0), two_atoms, (1.0, 2.0)),
        (IndicatorGenerator(1.0), two_atoms, (1.0, 1.0)),
        (ExpMinusOneGenerator(), two_atoms, (1.0, 2.0)),
    ]
    for gen, space, vals in cases:
        u = SimpleFunction.on(space, vals)
        verdict = classify_smooth_point(gen, space, u)
        survey = support_density_survey(gen, space, u, 300)
        assert survey.unique is not None
        assert verdict.smooth == survey.unique, (gen, vals)
    verdict = classify_smooth_point(gen_p, space_p, u_p)
    survey = support_density_survey(gen_p, space_p, u_p, 300)
    assert verdict.smooth == survey.unique is True
