import random

import pytest
from hypothesis import HealthCheck, settings

from monorm import (
    ExpMinusOneGenerator,
    GridMeasureSpace,
    IndicatorGenerator,
    LinearGenerator,
    PiecewiseGenerator,
    PowerGenerator,
    SimpleFunction,
    VariableExponentGenerator,
    XLogXGenerator,
)
from monorm import selfcheck

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def two_atoms() -> GridMeasureSpace:
    return GridMeasureSpace.uniform(2)


@pytest.fixture
def kink_linear() -> PiecewiseGenerator:
    """The canonical non-smooth instance."""
    return selfcheck.kink_linear()


@pytest.fixture
def kink_quadratic() -> PiecewiseGenerator:
    return selfcheck.kink_quadratic()


@pytest.fixture
def plateau():
    """On a mass-2 space the Amemiya minimizer set is the whole interval
    [1, 2]."""
    space = GridMeasureSpace((0.25, 0.75), (1.0, 1.0))
    return selfcheck.plateau(), space, SimpleFunction.on(space, (1.0, 1.0))


def all_families(space: GridMeasureSpace):
    """One representative per built-in family, bound to the space."""
    return [
        PowerGenerator(2.0),
        PowerGenerator(1.5),
        VariableExponentGenerator.from_values(
            space, [1.5 + 0.5 * i for i in range(len(space))]
        ),
        ExpMinusOneGenerator(),
        XLogXGenerator(),
        LinearGenerator(1.0),
        IndicatorGenerator(1.0),
        selfcheck.kink_linear(),
        selfcheck.kink_quadratic(),
    ]


def total_mass(space: GridMeasureSpace) -> float:
    return sum(space.weights)


def refine(space: GridMeasureSpace, k: int) -> GridMeasureSpace:
    """Split every cell into k equal subcells (k*n atoms, same mass)."""
    if k < 1:
        raise ValueError("refinement factor must be >= 1")
    coords: list[float] = []
    weights: list[float] = []
    for t, w in space.items():
        left = t - w / 2.0
        sub = w / k
        for j in range(k):
            coords.append(left + (j + 0.5) * sub)
            weights.append(sub)
    return GridMeasureSpace(tuple(coords), tuple(weights))


def masked(u: SimpleFunction, indices) -> SimpleFunction:
    """Restriction u * chi_A: keep the listed atoms, zero elsewhere."""
    keep = set(indices)
    return SimpleFunction(
        u.space, tuple(v if i in keep else 0.0 for i, v in enumerate(u.values))
    )


def random_instance(rng: random.Random, max_atoms: int = 6):
    """(generator, space, function) on 2 to max_atoms atoms, drawn through
    selfcheck's builders, the ones the acceptance criteria use."""
    space = selfcheck.random_space(rng, rng.randint(2, max_atoms))
    gen = selfcheck.random_generator(rng, space)
    return gen, space, selfcheck.random_function(rng, space)
