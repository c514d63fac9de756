"""Every built-in family at extreme parameter values, with and without
truncation: each instance file ends in a documented exit code (0, 2 or 3),
never in a traceback.  Parameters a closed form cannot hold are rejected by
the family's constructor (exit 2); overflow during evaluation saturates.
The space-smoothness verdict of a scale parameter does not depend on x."""

import json
import math

import pytest

from monorm import (
    GridMeasureSpace,
    SimpleFunction,
    VariableExponentGenerator,
    conjugate,
    luxemburg_norm,
    orlicz_amemiya_norm,
)
from monorm.cli import run
from monorm.errors import InstanceError
from monorm.generators import _pow
from monorm.instance import build_generator
from generator_checks import validate_generator

VALUES = [5e-324, 1e-300, 1e-9, 1.0 + 2.0**-52, 1.0001, 1.5, 1e9, 1e154, 1e300, 1.7e308]


def _family_specs(x: float) -> list[dict]:
    return [
        {"family": "power", "p": x},
        {"family": "varexp", "p_values": [x, 2.0]},
        {"family": "varexp", "p_values": [1.5, 2.0], "c_values": [x, 1.0]},
        {"family": "expminusone"},
        {"family": "xlogx"},
        {"family": "linear", "slope": x},
        {"family": "indicator", "c": x},
        {
            "family": "plq",
            "pieces": [{"width": x, "jump": 0.0, "slope": 1.0}, {"jump": 1.0, "slope": 0.0}],
        },
        {
            "family": "plq",
            "pieces": [{"width": 1.0, "jump": x, "slope": 1.0}, {"jump": 1.0, "slope": x}],
        },
        {
            "family": "plq",
            "pieces": [
                {"width": 1.0, "jump": 0.0, "slope": x},
                {"width": x, "jump": 1.0, "slope": 0.5},
            ],
            "bounded": True,
        },
    ]


def _write_instance(path, phi) -> None:
    path.write_text(json.dumps({
        "space": {"atoms": [{"t": 0.25, "w": 0.5}, {"t": 0.75, "w": 0.5}]},
        "phi": phi,
        "functions": {"u1": [1.0, 2.0]},
    }))


@pytest.mark.parametrize("x", VALUES)
def test_extreme_parameters_map_to_exit_codes(tmp_path, capsys, x):
    path = tmp_path / "inst.json"
    for spec in _family_specs(x):
        for phi in (spec, dict(spec, truncate=x)):
            _write_instance(path, phi)
            for argv in (["norm", "--function", "u1"], ["smooth-space"]):
                code = run([argv[0], "--instance", str(path), *argv[1:], "--json"])
                assert code in (0, 2, 3), (argv[0], phi, capsys.readouterr().err)
            capsys.readouterr()


def test_built_generators_and_conjugates_validate_clean():
    # the sampled validator's checks hold at every scale the constructors accept
    space = GridMeasureSpace((0.25, 0.75), (0.5, 0.5))
    built = 0
    for x in VALUES:
        for spec in _family_specs(x):
            for phi in (spec, dict(spec, truncate=x)):
                try:
                    gen = build_generator(phi, space)
                except InstanceError:
                    continue
                built += 1
                assert validate_generator(gen, space) == [], phi
                assert validate_generator(conjugate(gen), space) == [], phi
    assert built == 144


def test_smooth_space_verdicts_do_not_depend_on_the_scale(tmp_path, capsys):
    # the linear slope, the indicator threshold and the varexp coefficient
    # scale phi or its argument, and a truncation at the same x moves with
    # them: every file that is accepted gets the verdict of x = 1.5; the
    # truncated expminusone and xlogx have the truncation level alone
    path = tmp_path / "inst.json"

    def failing(x):
        out = []
        for spec in _family_specs(x):
            if spec["family"] in ("expminusone", "xlogx"):
                phis = [dict(spec, truncate=x)]
            elif spec["family"] in ("linear", "indicator") or "c_values" in spec:
                phis = [spec, dict(spec, truncate=x)]
            else:
                continue
            for phi in phis:
                _write_instance(path, phi)
                code = run(["smooth-space", "--instance", str(path), "--json"])
                report = capsys.readouterr().out
                out.append((phi, json.loads(report)["failing"] if code == 0 else None))
        return out

    reference = [verdict for _, verdict in failing(1.5)]
    assert None not in reference
    accepted = 0
    for x in VALUES:
        for (phi, verdict), want in zip(failing(x), reference):
            if verdict is not None:
                assert verdict == want, phi
                accepted += 1
    assert accepted == 72


@pytest.mark.parametrize(
    "x, p, coef, want",
    [
        (1e-200, 2.0, 1e300, 1e-100),  # x**p underflows to 0
        (1e-160, 2.0, 1e300, 1e-20),  # x**p is subnormal
        (1e200, 2.0, 1e-300, 1e100),  # x**p overflows
        (1e200, 2.0, 1e10, math.inf),  # so does the product
        (1e-200, 2.0, 1e-300, 0.0),  # the product underflows
    ],
)
def test_pow_is_out_of_range_only_where_the_product_is(x, p, coef, want):
    got = _pow(x, p, coef)
    assert got == want or abs(got - want) <= 1e-12 * want


def test_pow_keeps_the_bits_of_an_in_range_product():
    for x, p, coef in [(3.7, 2.303, 1e300), (1e-100, 2.5, 7.0), (2.0, 1.5, 1.0 / 1.5)]:
        assert _pow(x, p, coef) == coef * x**p


def test_varexp_norm_where_the_power_underflows():
    # one atom: phi(u / lam) = c (u / lam)**p underflows in (u / lam)**p
    # while w c (u / lam)**p = 1, so the Luxemburg norm is (w c)**(1/p)
    w, p, c = 2.31e111, 2.303, 1e300
    space = GridMeasureSpace((0.5,), (w,))
    gen = VariableExponentGenerator.from_values(space, [p], [c])
    u = SimpleFunction.on(space, (1.0,))
    lux = luxemburg_norm(gen, space, u)
    orl, _ = orlicz_amemiya_norm(gen, space, u)
    want = math.exp((math.log(w) + math.log(c)) / p)  # w * c overflows
    assert lux == pytest.approx(want, rel=1e-9)
    assert lux <= orl <= 2 * lux
