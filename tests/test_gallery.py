import json

import pytest

from monorm import gallery
from monorm.cli import run
from monorm.gallery import gallery_report
from monorm.generators import VariableExponentGenerator
from monorm.space import GridMeasureSpace, weighted_sum


def test_gallery_trend():
    report = gallery_report((256, 1024, 4096))
    ladder = report["ladder"]
    assert [e["resolution"] for e in ladder] == [256, 1024, 4096]

    # scaling 0 gives modular 0; scalings <= 1 stay bounded for the low function
    for entry in ladder:
        low = entry["modular_low"]
        assert low["0"] == 0.0
        assert low["0.5"] < 1.0
        assert low["1"] <= 1.5

    # above the critical scaling the low-function modular grows along the
    # ladder and ends far beyond 1e3
    blow = [e["modular_low"]["1.01"] for e in ladder]
    assert all(b >= a for a, b in zip(blow, blow[1:]))
    assert blow[-1] > 1e3

    # the high function diverges already at scaling 1 (one unit per block)
    at_one = [e["modular_high"]["1"] for e in ladder]
    blocks = [e["blocks"] for e in ladder]
    for got, want in zip(at_one, blocks):
        assert abs(got - want) <= 1e-6 * want
    assert all(b >= a for a, b in zip(at_one, at_one[1:]))
    # but stays bounded below the critical scaling
    below = [e["modular_high"]["0.99"] for e in ladder]
    assert all(x < 10.0 for x in below)


def test_gallery_command(capsys):
    code = run(["gallery", "--ladder", "64,128", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert len(report["ladder"]) == 2
    assert report["ladder"][0]["resolution"] == 64


def _bisected_level(gen, space, idx):
    """The block level by bisection of "block modular >= 1" to adjacent
    floats, and the number of block modulars it evaluated."""
    coords = [space.coords[i] for i in idx]
    weights = [space.weights[i] for i in idx]
    evals = 0

    def reached(c):
        nonlocal evals
        evals += 1
        return weighted_sum(weights, [gen.phi(t, c) for t in coords]) >= 1.0

    lo, hi = 0.0, 1.0
    while not reached(hi):
        lo, hi = hi, 2.0 * hi
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if reached(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi), evals


@pytest.mark.parametrize("resolution", [16, 32, 256, 1024, 4096])
def test_block_level_matches_adjacent_float_bisection(resolution, monkeypatch):
    evals = 0

    def counted(*args):
        nonlocal evals
        evals += 1
        return weighted_sum(*args)

    monkeypatch.setattr(gallery, "weighted_sum", counted)
    space = GridMeasureSpace.uniform(resolution)
    gen = VariableExponentGenerator.from_values(
        space, [gallery._exponent(t) for t in space.coords]
    )
    reference_evals = 0
    for idx in gallery._blocks(space):
        want, n = _bisected_level(gen, space, idx)
        reference_evals += n
        assert gallery._block_level(gen, space, idx) == want
    assert 0 < evals < reference_evals
