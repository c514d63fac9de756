import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings, strategies as st

from monorm import PowerGenerator, cli, geometry, selfcheck, truncate
from monorm.cli import run
from monorm.errors import InstanceError, PostconditionError
from monorm.instance import instance_digest, parse_instance
from monorm.jsonio import jsonable, to_json

INSTANCE = {
    "space": {"atoms": [{"t": 0.25, "w": 0.5}, {"t": 0.75, "w": 0.5}]},
    "phi": {"family": "power", "p": 2.0},
    "functions": {"u1": [1.0, 1.0], "u2": [1.0, 2.0]},
}


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(INSTANCE))
    return str(path)


def _write(tmp_path, payload, name="bad.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _no_constant(name):
    # json.loads takes NaN, Infinity and -Infinity, which are not JSON
    raise ValueError(f"{name} is not JSON")


def test_parse_instance(instance_file):
    inst = parse_instance(instance_file)
    assert len(inst.space) == 2
    assert set(inst.functions) == {"u1", "u2"}
    assert inst.digest


def test_parse_zero_weight(tmp_path):
    payload = {
        "space": {"atoms": [{"t": 0.25, "w": 0.0}]},
        "phi": {"family": "power", "p": 2.0},
        "functions": {},
    }
    with pytest.raises(InstanceError, match=r"^atom 0: weight must be > 0, got 0\.0$"):
        parse_instance(_write(tmp_path, payload))


def test_parse_shape_error(tmp_path):
    payload = {
        "space": {"atoms": [{"t": 0.25, "w": 0.5}, {"t": 0.75, "w": 0.5}]},
        "phi": {"family": "varexp", "p_values": [2.0]},
        "functions": {},
    }
    with pytest.raises(InstanceError, match="p_values"):
        parse_instance(_write(tmp_path, payload))


def test_varexp_exponent_one_is_an_input_error(tmp_path, capsys):
    payload = dict(INSTANCE, phi={"family": "varexp", "p_values": [1.0, 2.0]})
    path = _write(tmp_path, payload)
    with pytest.raises(InstanceError, match="p > 1"):
        parse_instance(path)
    assert run(["norm", "--instance", path, "--function", "u1"]) == 2
    assert "p > 1" in capsys.readouterr().err


def test_parse_function_length(tmp_path):
    payload = dict(INSTANCE, functions={"u1": [1.0]})
    with pytest.raises(InstanceError, match="u1"):
        parse_instance(_write(tmp_path, payload))


def test_parse_unknown_family(tmp_path):
    payload = dict(INSTANCE, phi={"family": "mystery"})
    with pytest.raises(InstanceError, match="mystery"):
        parse_instance(_write(tmp_path, payload))


def test_parse_all_families(tmp_path):
    specs = [
        {"family": "power", "p": 2.5},
        {"family": "varexp", "p_values": [1.5, 2.5], "c_values": [1.0, 0.5]},
        {"family": "expminusone"},
        {"family": "xlogx"},
        {"family": "linear", "slope": 0.5},
        {"family": "indicator", "c": 2.0},
        {
            "family": "plq",
            "pieces": [{"width": 1.0, "jump": 0.0, "slope": 1.0}, {"jump": 1.0, "slope": 0.0}],
        },
        {"family": "plq", "pieces": [{"width": 1.0, "jump": 0.0, "slope": 0.0}], "bounded": True},
    ]
    for spec in specs:
        payload = dict(INSTANCE, phi=spec)
        inst = parse_instance(_write(tmp_path, payload, f"{spec['family']}.json"))
        assert inst.phi.family in {spec["family"], "plq"}


def test_norm_command_json(instance_file, capsys):
    code = run(["norm", "--instance", instance_file, "--function", "u1", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    entry = report["functions"]["u1"]
    assert entry["luxemburg"] == pytest.approx(1 / math.sqrt(2), abs=1e-9)
    assert entry["orlicz"] == pytest.approx(math.sqrt(2), abs=1e-9)
    assert entry["k_star"] == pytest.approx(math.sqrt(2), abs=1e-8)
    assert entry["degenerate"] is False
    assert entry["theta"] == 0


def test_norm_fan_out(instance_file, capsys):
    code = run(["norm", "--instance", instance_file, "--function", "all", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert list(report["functions"]) == ["u1", "u2"]


@pytest.mark.parametrize(
    "which, keys",
    [
        ("luxemburg", {"luxemburg"}),
        ("orlicz", {"orlicz", "degenerate", "k_star", "k_double_star"}),
        ("amemiya", {"amemiya", "degenerate", "k_star", "k_double_star"}),
    ],
)
def test_norm_which_keeps_its_keys(instance_file, capsys, which, keys):
    base = ["norm", "--instance", instance_file, "--function", "all", "--json"]
    assert run(base) == 0
    full = json.loads(capsys.readouterr().out)["functions"]
    assert run(base + ["--which", which]) == 0
    picked = json.loads(capsys.readouterr().out)["functions"]
    assert list(picked) == list(full)
    for name, entry in picked.items():
        assert set(entry) == keys
        for key, value in entry.items():
            assert json.dumps(value) == json.dumps(full[name][key])


def test_norm_which_computes_only_what_it_reports(instance_file, tmp_path, capsys, monkeypatch):
    # u = (1e308, 1e308): the Luxemburg norm, 1e308 / sqrt(2), is a float,
    # while k* of the Orlicz norm lies below the normal floats
    payload = {**INSTANCE, "functions": {"u1": [1e308, 1e308]}}
    argv = ["norm", "--instance", _write(tmp_path, payload), "--function", "u1", "--json"]
    assert run(argv + ["--which", "luxemburg"]) == 0
    lux = json.loads(capsys.readouterr().out)["functions"]["u1"]["luxemburg"]
    assert lux == pytest.approx(1e308 / math.sqrt(2.0), rel=1e-9)
    for which in ("orlicz", "all"):
        assert run(argv + ["--which", which]) == 3
        assert capsys.readouterr().err.startswith("numerical bracket failure: ")

    def unused(*args):
        raise AssertionError("computed a quantity the report leaves out")

    monkeypatch.setattr(cli, "luxemburg_norm", unused)
    monkeypatch.setattr(cli, "theta", unused)
    for which in ("orlicz", "amemiya"):
        assert run(["norm", "--instance", instance_file, "--function", "all", "--which", which]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("weight", [1.0, 1e100, 1e200, 1e300])
def test_oracle_when_the_start_magnitude_underflows(tmp_path, capsys, weight):
    # indicator c = 1e300 and u = (2): the norm is 2 / c for every weight, and
    # the Luxemburg oracle's start magnitude 1 / (w c) underflows to 0 for
    # w >= 1e100
    payload = {
        "space": {"atoms": [{"t": 0.5, "w": weight}]},
        "phi": {"family": "indicator", "c": 1e300},
        "functions": {"u1": [2.0]},
    }
    argv = ["oracle", "--instance", _write(tmp_path, payload), "--function", "u1"]
    assert run(argv + ["--resolution", "8", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["luxemburg_bruteforce"] <= report["luxemburg"]
    assert report["luxemburg_bruteforce"] == pytest.approx(2e-300, rel=1e-9)


def test_oracle_start_past_the_float_range(tmp_path, capsys):
    # atom 0's start budget 1 / (3 w) makes its magnitude cap inf while its
    # gain w |u| underflows to 0: the start stops at the magnitude ceiling,
    # so no 0 * inf gives NaN
    payload = {
        "space": {"atoms": [
            {"t": 0.1, "w": 1.37e-300}, {"t": 0.5, "w": 1e-100}, {"t": 0.9, "w": 1e-10},
        ]},
        "phi": {"family": "indicator", "c": 1.37e-10},
        "functions": {"u1": [-1.37e-100, 1e100, 0.0]},
    }
    argv = ["oracle", "--instance", _write(tmp_path, payload), "--function", "u1"]
    assert run(argv + ["--resolution", "8", "--json"]) == 0
    report = json.loads(capsys.readouterr().out, parse_constant=_no_constant)
    for key in ("luxemburg", "orlicz"):
        assert 0.0 < report[f"{key}_bruteforce"] <= report[key]


def test_oracle_with_an_overflowing_gain_exits_3(tmp_path, capsys):
    # w |u| = 1.7e318: every grid point's pairing is inf, which bounds
    # nothing, while both norms are 1.7e18
    payload = {
        "space": {"atoms": [{"t": 0.5, "w": 1e10}]},
        "phi": {"family": "linear", "slope": 1e-300},
        "functions": {"u1": [1.7e308]},
    }
    path = _write(tmp_path, payload)
    argv = ["oracle", "--instance", path, "--function", "u1", "--resolution", "8", "--json"]
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "oracle's lower bound is inf" in captured.err
    assert run(["norm", "--instance", path, "--function", "u1", "--json"]) == 0
    entry = json.loads(capsys.readouterr().out)["functions"]["u1"]
    assert entry["orlicz"] == pytest.approx(entry["luxemburg"], rel=1e-10)


def test_json_determinism(instance_file, capsys):
    run(["norm", "--instance", instance_file, "--function", "all", "--json"])
    first = capsys.readouterr().out
    run(["norm", "--instance", instance_file, "--function", "all", "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_to_json_stringifies_and_sorts_keys_in_one_pass():
    report = {2: (1.5, math.inf), "10": {"b": None, "a": True}, 1: [0, "x"]}
    expected = '{"1":[0,"x"],"10":{"a":true,"b":null},"2":[1.5,"inf"]}'
    assert to_json(report) == to_json(jsonable(report)) == expected


def test_infinities_keep_their_sign():
    report = {"a": -math.inf, "b": [math.inf, -0.5]}
    assert to_json(report) == '{"a":"-inf","b":["inf",-0.5]}'
    assert jsonable(report) == {"a": "-inf", "b": ["inf", -0.5]}


def test_a_nan_leaf_names_its_key():
    report = {"z": math.nan, "functions": {"u1": {"orlicz": 1.0, "gaps": [0.0, math.nan]}}}
    for convert in (to_json, jsonable):
        with pytest.raises(PostconditionError, match=r"NaN at functions\.u1\.gaps\[1\]$"):
            convert(report)
    with pytest.raises(PostconditionError, match="NaN at its top level"):
        to_json(math.nan)


@pytest.mark.parametrize("as_json", [True, False])
def test_a_nan_report_exits_3_with_nothing_on_stdout(instance_file, capsys, monkeypatch, as_json):
    monkeypatch.setitem(
        cli.COMMANDS, "gap", (lambda args, inst: {"locations": [math.nan]}, *cli.COMMANDS["gap"][1:])
    )
    argv = ["gap", "--instance", instance_file, "--delta", "0.5"]
    assert run(argv + ["--json"] * as_json) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "NaN at locations[0]" in captured.err


def test_report_round_trip(instance_file, capsys):
    from monorm import luxemburg_norm
    from monorm.instance import parse_instance as parse

    run(["norm", "--instance", instance_file, "--function", "u2", "--json"])
    report = json.loads(capsys.readouterr().out)
    inst = parse(instance_file)
    recomputed = luxemburg_norm(inst.phi, inst.space, inst.functions["u2"])
    assert report["functions"]["u2"]["luxemburg"] == recomputed


def test_function_names_with_control_characters_print_valid_json(tmp_path, capsys):
    names = ["a\nb", 'q"\\', "tab\there", "\x00", "é€"]
    payload = dict(INSTANCE, functions={name: [1.0, 2.0] for name in names})
    argv = ["norm", "--instance", _write(tmp_path, payload), "--function", "all", "--json"]
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert sorted(json.loads(out)["functions"]) == sorted(names)
    # a name without control characters keeps its bytes
    assert '"é€":' in out


def test_exit_codes(instance_file, tmp_path, capsys):
    assert run(["norm", "--instance", str(tmp_path / "nope.json"), "--function", "u1"]) == 2
    capsys.readouterr()
    assert run(["norm", "--instance", instance_file, "--function", "zz"]) == 2
    capsys.readouterr()
    bad = tmp_path / "invalid.json"
    bad.write_text("{not json")
    assert run(["norm", "--instance", str(bad), "--function", "u1"]) == 2
    capsys.readouterr()
    # a directory or bytes that are not text: an input error, not a traceback
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe")
    for path in (str(tmp_path), "", str(binary)):
        assert run(["norm", f"--instance={path}", "--function", "u1"]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read instance file"), path


_READ_FILES = {
    "inst.json": json.dumps(INSTANCE).encode(),
    "sub/b.json": json.dumps(INSTANCE).encode(),
    "bad.json": b"{not json",
    "nonutf8.json": b'{"a": "\xff"}',
    "bom.json": b"\xef\xbb\xbf" + json.dumps(INSTANCE).encode(),
    "utf16.json": json.dumps(INSTANCE).encode("utf-16"),
    "nan.json": json.dumps(INSTANCE).replace("[1.0, 1.0]", "[NaN, 1.0]").encode(),
}
_CANNOT_READ = "error: cannot read instance file "
#: (--instance value, exit code, stderr), relative to a directory holding
#: _READ_FILES; a message names the path as pathlib prints it
READ_PATH_CASES = [
    ("", 2, _CANNOT_READ + ".: [Errno 21] Is a directory: '.'\n"),
    ("sub", 2, _CANNOT_READ + "sub: [Errno 21] Is a directory: 'sub'\n"),
    ("sub/", 2, _CANNOT_READ + "sub: [Errno 21] Is a directory: 'sub'\n"),
    ("inst.json/", 0, ""),
    ("inst.json/x", 2, _CANNOT_READ + "inst.json/x: [Errno 20] Not a directory: 'inst.json/x'\n"),
    ("./inst.json", 0, ""),
    ("./bad.json", 2, "error: malformed JSON in bad.json: Expecting property name enclosed "
                      "in double quotes: line 1 column 2 (char 1)\n"),
    ("sub//b.json", 0, ""),
    ("sub//missing.json", 2, "error: instance file not found: sub/missing.json\n"),
    ("missing.json", 2, "error: instance file not found: missing.json\n"),
    ("missing.json/", 2, "error: instance file not found: missing.json\n"),
    ("nonutf8.json", 2, _CANNOT_READ + "nonutf8.json: 'utf-8' codec can't decode byte 0xff "
                        "in position 7: invalid start byte\n"),
    ("bom.json", 2, "error: malformed JSON in bom.json: Unexpected UTF-8 BOM (decode using "
                    "utf-8-sig): line 1 column 1 (char 0)\n"),
    ("utf16.json", 2, _CANNOT_READ + "utf16.json: 'utf-8' codec can't decode byte 0xff "
                      "in position 0: invalid start byte\n"),
    ("nan.json", 2, "error: function 'u1'[0] must be finite, got nan\n"),
]


@pytest.mark.parametrize(
    "value,code,err", READ_PATH_CASES, ids=[c[0] or "-" for c in READ_PATH_CASES]
)
def test_instance_read_path_exit_codes_and_messages(
    value, code, err, tmp_path, capsys, monkeypatch
):
    for name, data in _READ_FILES.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_bytes(data)
    monkeypatch.chdir(tmp_path)
    assert run(["norm", f"--instance={value}", "--function", "u1", "--json"]) == code
    out, got = capsys.readouterr()
    assert got == err
    if code == 0:
        assert json.loads(out)["digest"] == instance_digest(INSTANCE)


def test_to_json_keeps_the_bytes_of_every_string():
    # control characters escaped, non-ASCII text and lone surrogates as they are
    texts = ["a\x00\x1f\x7f\n\t\"\\/", "é€𝄞", "\ud800", "x\udfffy"]
    expected = ['"a\\u0000\\u001f\x7f\\n\\t\\"\\\\/"', '"é€𝄞"', '"\ud800"', '"x\udfffy"']
    assert [to_json(t) for t in texts] == expected
    assert to_json({t: t for t in texts}) == (
        "{" + ",".join(f"{e}:{e}" for e, _ in sorted(zip(expected, texts), key=lambda p: p[1]))
        + "}"
    )


def test_smooth_space_command(instance_file, capsys):
    code = run(["smooth-space", "--instance", instance_file, "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["smooth"] is True
    assert report["failing"] == []


def test_support_command(instance_file, capsys):
    code = run(["support", "--instance", instance_file, "--function", "u1", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["verified"] is True
    assert report["s_norm"] == 0


def test_support_command_brackets_k_once(instance_file, capsys, monkeypatch):
    calls = []
    orig = geometry.k_interval

    def counted(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(geometry, "k_interval", counted)
    assert run(["support", "--instance", instance_file, "--function", "u2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["verified"] is True
    assert len(calls) == 1


def test_smooth_point_command(instance_file, capsys):
    code = run(["smooth-point", "--instance", instance_file, "--function", "u2", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["smooth"] is True


def test_dual_command(instance_file, capsys):
    code = run(
        ["dual", "--instance", instance_file, "--density", "u1", "--singular", "0.25", "--json"]
    )
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    # I*(u1/l) + 0.25/l = 1 with I* = (1/2) l^-2:  l = (1 + sqrt(33))/8
    expected = (0.25 + math.sqrt(0.25**2 + 4 * 0.5)) / 2.0
    assert report["norm"] == pytest.approx(expected, abs=1e-9)


def test_oracle_command(instance_file, capsys):
    code = run(
        ["oracle", "--instance", instance_file, "--function", "u1", "--resolution", "120", "--json"]
    )
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert abs(report["orlicz_gap"]) <= 5e-3
    assert abs(report["luxemburg_gap"]) <= 5e-3


@pytest.mark.parametrize("resolution", ["1", "0", "-3"])
def test_oracle_resolution_below_two_is_an_input_error(instance_file, capsys, resolution):
    argv = ["oracle", "--instance", instance_file, "--function", "u1"]
    assert run(argv + ["--resolution", resolution, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "resolution must be >= 2" in captured.err
    assert run(argv + ["--resolution", "2", "--json"]) == 0


def test_delta2_command(instance_file, capsys):
    code = run(["delta2", "--instance", instance_file, "--K", "4.0", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["holds_on_sample"] is True


def test_delta2_threshold_with_overflowing_modular(tmp_path, capsys):
    # f lies inside the domain (b = inf), so its modular is finite, though
    # the float sum 2 * 1e10 * phi(f) ~ 2e310 overflows; every probe stays
    # in float range, so the sample decides
    payload = {
        "space": {"atoms": [{"t": 0.25, "w": 1e10}, {"t": 0.75, "w": 1e10}]},
        "phi": {"family": "power", "p": 2.0},
        "functions": {},
    }
    argv = ["delta2", "--instance", _write(tmp_path, payload), "--K", "4", "--json"]
    assert run(argv + ["--f-const", "1.4e150"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["holds_on_sample"] is True
    assert report["checked"] == 98


def test_delta2_refuses_probes_past_the_float_range(tmp_path, capsys):
    # phi(f) = 1e300 (f - c) = 2.5e599 and phi(2f) = 1.5e600: the true ratio
    # is 6 > 4, but both sides overflow at every probe, and inf <= 4 inf
    # must not read as a pass
    payload = {
        "space": {"atoms": [{"t": 0.25, "w": 0.5}, {"t": 0.75, "w": 0.5}]},
        "phi": {"family": "indicator", "c": 1e300, "truncate": 1e300},
        "functions": {},
    }
    argv = ["delta2", "--instance", _write(tmp_path, payload), "--K", "4", "--json"]
    assert run(argv + ["--f-const", "1.25e300"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "both overflow the floats at t = 0.25, u = 1.25e+300" in captured.err


def test_gap_command(tmp_path, capsys):
    payload = dict(
        INSTANCE,
        phi={
            "family": "plq",
            "pieces": [{"width": 1.0, "jump": 0.0, "slope": 1.0}, {"jump": 1.0, "slope": 0.0}],
        },
    )
    path = _write(tmp_path, payload, "plq.json")
    code = run(["gap", "--instance", path, "--delta", "0.5", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["locations"] == [1.0, 1.0]
    assert report["finite_mask"] == [True, True]


def test_conjugate_command(instance_file, capsys):
    code = run(
        ["conjugate", "--instance", instance_file, "--atom", "1", "--v-max", "2.0", "--points", "3", "--json"]
    )
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [row["phi_star"] for row in report["table"]] == [0, 0.5, 2]


def test_conjugate_atom_out_of_range_is_an_input_error(instance_file, capsys):
    # the instance has two atoms, so index 2 is one past the end
    code = run(["conjugate", "--instance", instance_file, "--atom", "2", "--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "atom index 2 out of range" in captured.err


def test_text_output_has_wall_time(instance_file, capsys):
    code = run(["norm", "--instance", instance_file, "--function", "u1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "wall_time_s" in out


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "where",
    ["function", "atom t", "atom w", "power p", "varexp c_values", "plq jump"],
)
def test_non_finite_numbers_are_input_errors(tmp_path, capsys, bad, where):
    payload = json.loads(json.dumps(INSTANCE))
    if where == "function":
        payload["functions"]["u1"] = [bad, 1.0]
    elif where == "atom t":
        payload["space"]["atoms"][0]["t"] = bad
    elif where == "atom w":
        payload["space"]["atoms"][1]["w"] = bad
    elif where == "power p":
        payload["phi"]["p"] = bad
    elif where == "varexp c_values":
        payload["phi"] = {"family": "varexp", "p_values": [2.0, 3.0], "c_values": [1.0, bad]}
    else:
        payload["phi"] = {
            "family": "plq",
            "pieces": [{"width": 1.0, "jump": 0.0, "slope": 1.0}, {"jump": bad, "slope": 0.0}],
        }
    path = _write(tmp_path, payload)  # json.dumps writes NaN / Infinity literals
    with pytest.raises(InstanceError, match="finite"):
        parse_instance(path)
    assert run(["norm", "--instance", path, "--function", "u2"]) == 2
    assert "must be finite" in capsys.readouterr().err


DATA = Path(__file__).resolve().parent / "data"
EXIT_CODES = json.loads((DATA / "exit_codes.json").read_text())


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_instance_corpus_exit_codes(name, capsys):
    # every instance maps to a documented exit code, never to a traceback
    code = run(["norm", "--instance", str(DATA / name), "--function", "u1", "--json"])
    assert code == EXIT_CODES[name], capsys.readouterr().err


#: `dual --density v` with v = (1.7e308, 1) on two atoms of weight 0.5: the
#: exit code and the closed-form norm, where there is one
DUAL_NEAR_MAX = {
    "dual_near_max_linear.json": (0, 1.7e308),  # max |v_i| / slope
    "dual_near_max_power.json": (0, 1.7e308 / 2.0),  # (sum w v^2 / 2)^(1/2)
    "dual_near_max_indicator.json": (0, 0.5 * 1.7e308 + 0.5),  # c sum w |v|
    # phi' ends at 1.5, where the conjugate's domain ends; w phi*(1.5) = 0.5
    "dual_near_max_plq.json": (0, 1.7e308 / 1.5),
    "dual_near_max_xlogx.json": (0, None),
    "dual_near_max_expminusone.json": (0, None),
    # slope 0.5: the norm max |v_i| / 0.5 is past the float range
    "dual_past_max_linear.json": (3, None),
}


@pytest.mark.parametrize("name", sorted(DUAL_NEAR_MAX))
def test_dual_norm_near_the_float_maximum(name, capsys):
    code, expected = DUAL_NEAR_MAX[name]
    assert run(["dual", "--instance", str(DATA / name), "--density", "v", "--json"]) == code
    out, err = capsys.readouterr()
    if code:
        assert err.startswith("numerical bracket failure: ")
        return
    norm = json.loads(out)["norm"]
    assert 1.7e308 / 4.0 < norm < math.inf
    if expected is not None:
        assert norm == pytest.approx(expected, rel=4 * sys.float_info.epsilon)


HELP = json.loads((DATA / "cli_help.json").read_text())


@pytest.mark.parametrize("case", HELP, ids=[" ".join(c["argv"]) or "-" for c in HELP])
def test_help_and_usage_texts_are_unchanged(case, capsys, monkeypatch):
    # the reference texts were printed when every subparser was built with all
    # its arguments; building only the invoked one must not change a byte
    monkeypatch.setenv("COLUMNS", "80")
    assert run(case["argv"]) == case["code"]
    assert capsys.readouterr() == (case["stdout"], case["stderr"])


def test_only_the_invoked_subcommand_gets_a_parser(instance_file, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    # a valid line is read from the COMMANDS row, without a parser
    assert run(["gap", "--instance", instance_file, "--delta", "0.5"]) == 0
    assert built == []
    for argv in (["bogus"], ["--help"]):
        built.clear()
        run(argv)
        assert len(built) <= 2, argv


def _outcome(argv):
    """(exit code, stdout without the wall time line, stderr) of run(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    lines = out.getvalue().split("\n")
    return code, [line for line in lines if not line.startswith("wall_time_s:")], err.getvalue()


def _assert_paths_agree(words, path):
    # "F" stands for the instance path, alone or after "="; the reference
    # parses every line with the top-level parser
    argv = [path if w == "F" else w.replace("=F", "=" + path) for w in words]
    fast = _outcome(argv)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_parse", lambda argv, command: cli.build_parser(command).parse_args(argv))
        full = _outcome(argv)
    assert fast == full, argv


@pytest.fixture(scope="module")
def shared_instance(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "inst.json"
    path.write_text(json.dumps(INSTANCE))
    return str(path)


PARSE_CASES = [
    ["norm", "--instance", "F", "--function", "u1"],
    ["norm", "--inst", "F", "--func", "u1", "--wh", "orlicz"],
    ["norm", "--instance=F", "--function=all", "--json"],
    ["norm", "--instance", "F", "--function", "u1", "stray"],
    ["norm", "--instance", "F", "--function", "u1", "--"],
    ["norm", "--", "--instance", "F", "--function", "u1"],
    ["norm", "-h", "stray"],
    ["norm", "stray", "-h"],
    ["norm", "--instance", "F", "--instance", "F", "--function", "u2", "--function", "u1"],
    ["norm", "--instance", "F", "--function", "u1", "--json", "--json"],
    ["norm", "--instance", "F", "--function", "u1", "--which", "bogus"],
    ["norm", "--instance", "F", "--function"],
    ["norm", "--in", "F", "--function", "u1"],
    ["norm", "--instance", "F", "--function", "u1", "--json=1"],
    ["norm", "--instance", "F", "--function="],
    ["norm", "--instance", "F", "--function", "--json"],
    ["norm", "--instance", "-1", "--function", "u1"],
    ["norm", "--instance", "F", "--function", "-x y"],
    ["norm", "--instance", "F", "--function", "u1", "--which=bogus"],
    ["gallery", "--ladder="],
    ["conjugate", "--instance", "F", "--points", "2.5"],
    ["delta2", "--instance", "F", "--K", "4", "--f", "1"],
    ["gap", "--instance", "F", "--delta", "-1"],
    ["gap", "--instance", "F", "--delta", "-0.5", "-1"],
    ["delta2", "--instance", "F", "--K", "-1e3"],
    ["delta2", "--instance", "F", "--K=4", "--f-const", "-inf"],
    ["conjugate", "--instance", "F", "--points", "3", "-x"],
    ["selftest", "extra"],
    ["selftest", "-h"],
    ["gallery", "--ladder", "8", "stray"],
    ["gallery", "--lad=8", "--", "x"],
    ["--json", "norm", "--instance", "F", "--function", "u1"],
    ["-h", "norm"],
    ["bogus", "norm"],
    ["stray"],
    [],
]


@pytest.mark.parametrize("argv", PARSE_CASES, ids=[" ".join(a) or "-" for a in PARSE_CASES])
def test_command_parser_alone_agrees_with_the_top_level_parser(argv, shared_instance):
    _assert_paths_agree(argv, shared_instance)


_WORDS = [
    "norm", "gap", "delta2", "conjugate", "bogus", "stray", "u1", "all", "0.5", "4",
    "-1", "-0.5", "-1e3", "-inf", "--", "-h", "--help", "-x", "--json",
    "--instance", "--inst", "F", "--instance=F", "--function", "--func", "--function=u2",
    "--which", "--wh=orlicz", "--delta", "--delta=0.5", "--K", "--K=4", "--f-const",
    "--atom", "--points=3", "--v-max", "--json=1", "--function=", "--which=bogus",
]


@settings(max_examples=200)
@given(
    head=st.sampled_from([
        [], ["norm"], ["gap"],
        ["norm", "--instance", "F", "--function", "u1"],
        ["gap", "--instance", "F", "--delta", "0.5"],
        ["delta2", "--instance=F", "--K", "4"],
        ["conjugate", "--instance", "F"],
        ["smooth-space", "--instance", "F"],
    ]),
    tail=st.lists(st.sampled_from(_WORDS), max_size=7),
)
def test_parse_paths_agree_on_drawn_command_lines(head, tail, shared_instance):
    _assert_paths_agree(head + tail, shared_instance)


GOLDEN_CASES = json.loads((DATA.parent / "golden" / "cases.json").read_text())


def test_the_line_reader_agrees_with_argparse_on_every_golden_line():
    for case in GOLDEN_CASES:
        command = case["argv"][0]
        argv = cli._join_negative_values([*case["argv"], "--json"], cli.COMMANDS[command][3])
        args = cli._read_line(argv[1:], command)
        assert args is not None, case["name"]
        assert vars(args) == vars(cli.build_parser(command).parse_args(argv)), case["name"]


def test_the_line_reader_reads_a_double_dash_value_as_argparse_does():
    argv = ["norm", "--instance=--", "--function", "u1"]
    args = cli._read_line(argv[1:], "norm")
    assert args.instance == "--"
    assert vars(args) == vars(cli.build_parser("norm").parse_args(argv))


#: `--flag=--` for every valued flag, with the last stderr line CPython
#: 3.13 prints; 3.10-3.12 drop such a "--" without a type check, and the
#: CLI reads it as 3.13 does on each of them
DOUBLE_DASH = {
    "norm --instance=-- --function u1": "error: instance file not found: --",
    "norm --instance F --function=--":
        "error: instance has no function '--' (available: ['u1', 'u2'])",
    "norm --instance F --function u1 --which=--":
        "monorm norm: error: argument --which: invalid choice: '--' "
        "(choose from 'luxemburg', 'orlicz', 'amemiya', 'all')",
    "conjugate --instance F --atom=--":
        "monorm conjugate: error: argument --atom: invalid int value: '--'",
    "conjugate --instance F --v-max=--":
        "monorm conjugate: error: argument --v-max: invalid finite value: '--'",
    "conjugate --instance F --points=--":
        "monorm conjugate: error: argument --points: invalid positive_int value: '--'",
    "dual --instance F --density=--":
        "error: instance has no function '--' (available: ['u1', 'u2'])",
    "dual --instance F --density u1 --singular=--":
        "monorm dual: error: argument --singular: invalid finite value: '--'",
    "oracle --instance F --function u1 --resolution=--":
        "monorm oracle: error: argument --resolution: invalid int value: '--'",
    "support --instance F --function=--":
        "error: instance has no function '--' (available: ['u1', 'u2'])",
    "smooth-point --instance F --function=--":
        "error: instance has no function '--' (available: ['u1', 'u2'])",
    "delta2 --instance F --K=--": "monorm delta2: error: argument --K: invalid finite value: '--'",
    "delta2 --instance F --K 4 --f-const=--":
        "monorm delta2: error: argument --f-const: invalid finite value: '--'",
    "delta2 --instance F --K 4 --f-function=--":
        "error: instance has no function '--' (available: ['u1', 'u2'])",
    "delta2 --instance F --K 4 --horizon=--":
        "monorm delta2: error: argument --horizon: invalid finite value: '--'",
    "gap --instance F --delta=--": "monorm gap: error: argument --delta: invalid finite value: '--'",
    "gap --delta=--": "monorm gap: error: argument --delta: invalid finite value: '--'",
    "gap --instance F --del=-- stray":
        "monorm gap: error: argument --delta: invalid finite value: '--'",
    "gallery --ladder=--": "monorm gallery: error: argument --ladder: invalid ladder value: '--'",
}


@pytest.mark.parametrize("line", list(DOUBLE_DASH))
def test_a_double_dash_value_is_an_input_error(line, shared_instance):
    words = [shared_instance if w == "F" else w for w in line.split()]
    code, _, err = _outcome([*words, "--json"])
    assert (code, err.splitlines()[-1]) == (2, DOUBLE_DASH[line])
    _assert_paths_agree(line.split(), shared_instance)


def test_commands_use_only_the_keywords_the_line_reader_knows():
    # an nargs or an action would change how argparse reads the line
    for name, (_, _, _, arguments) in cli.COMMANDS.items():
        for flag, keywords in arguments.items():
            assert set(keywords) <= {"required", "help", "choices", "default", "type"}, flag


def test_negative_option_values_reach_the_type_check(instance_file, capsys):
    # argparse reads only "-1", "-.5" and the like as negative numbers; the
    # CLI joins "-1e3" or "-inf" to its flag, so the message names the value
    # and not a missing argument
    assert run(["delta2", "--instance", instance_file, "--K", "-1e3"]) == 2
    assert capsys.readouterr().err == "error: doubling constant must exceed 1\n"
    assert run(["conjugate", "--instance", instance_file, "--v-max", "-inf"]) == 2
    assert capsys.readouterr().err.endswith(
        "error: argument --v-max: invalid finite value: '-inf'\n"
    )
    for argv in (["--f-const", "-1e3"], ["--f-const=-1e3"]):
        assert run(["delta2", "--instance", instance_file, "--K", "4", *argv]) == 2
        assert capsys.readouterr().err == "error: threshold function must be nonnegative\n"


#: the start of a command line that reaches each float option
_OPTION_COMMANDS = {
    "--v-max": ["conjugate"],
    "--singular": ["dual", "--density", "v1"],
    "--K": ["delta2"],
    "--f-const": ["delta2", "--K", "4"],
    "--horizon": ["delta2", "--K", "4"],
    "--delta": ["gap"],
}
BAD_VALUES = {
    **{
        f"{flag}={value}": [*argv, f"{flag}={value}"]
        for flag, argv in _OPTION_COMMANDS.items()
        for value in ("nan", "inf", "-inf")
    },
    "--singular=-1": ["dual", "--density", "v1", "--singular=-1"],
    **{
        f"--horizon={value}": ["delta2", "--K", "4", f"--horizon={value}"]
        for value in ("0", "-1")
    },
    **{
        f"--ladder={value}": ["gallery", f"--ladder={value}"]
        for value in ("abc", "0", "-3", "", "256,,1024", "2.5")
    },
    **{
        f"--points={value}": ["conjugate", f"--points={value}"]
        for value in ("0", "-5", "2.5")
    },
}


@pytest.mark.parametrize("name", list(BAD_VALUES))
def test_bad_option_values_are_input_errors(name, tmp_path, capsys):
    argv = BAD_VALUES[name]
    if argv[0] != "gallery":
        payload = dict(INSTANCE, functions={**INSTANCE["functions"], "v1": [0.5, -1.0]})
        argv = argv[:1] + ["--instance", _write(tmp_path, payload)] + argv[1:]
    assert run(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_gap_postcondition_failure_exits_3(instance_file, capsys, monkeypatch):
    # a jump list the derivatives contradict: no gap at u = 1 for p = 2
    monkeypatch.setattr(PowerGenerator, "derivative_jumps", lambda self, t: [(1.0, 0.0, 5.0)])
    assert run(["gap", "--instance", instance_file, "--delta", "0.5"]) == 3
    assert "gap postcondition failed" in capsys.readouterr().err


class _ZeroConjugate:
    """A wrong conjugate, 0 everywhere, so phi(u) - u v breaks Young's
    inequality."""

    def phi(self, t, v):
        return 0.0


def test_young_inequality_failure_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(
        importlib.import_module("monorm.conjugate"), "conjugate", lambda gen: _ZeroConjugate()
    )
    # only the criterion that calls young_gap
    monkeypatch.setattr(selfcheck, "CRITERIA", [selfcheck.CRITERIA[3]])
    assert selfcheck.CRITERIA[0][0] == "4 conjugation"
    assert run(["selftest"]) == 3
    assert "Young inequality violated" in capsys.readouterr().err


def test_truncate_field_builds_truncated_generator(tmp_path):
    payload = dict(INSTANCE, phi={"family": "power", "p": 2.0, "truncate": 3.0})
    inst = parse_instance(_write(tmp_path, payload))
    assert inst.phi == truncate(PowerGenerator(2.0), 3.0)


def test_broken_pipe_exits_without_traceback(instance_file):
    proc = subprocess.Popen(
        [sys.executable, "-m", "monorm", "conjugate", "--instance", instance_file,
         "--points", "20000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 141
    assert "Traceback" not in err and "BrokenPipeError" not in err


GOLDEN_INSTANCES = sorted((DATA.parent / "golden" / "instances").glob("*.json"))


@pytest.mark.parametrize("path", GOLDEN_INSTANCES, ids=[p.name for p in GOLDEN_INSTANCES])
def test_instance_digest_is_the_sha256_prefix(path):
    raw = json.loads(path.read_text())
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    assert instance_digest(raw) == hashlib.sha256(canonical).hexdigest()[:16]


def _fresh_stdout(code: str) -> str:
    """The last line of stdout of `code` run in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


@pytest.mark.skipif(
    not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")),
    reason="no builtin SHA-256 module",
)
def test_parse_instance_does_not_load_openssl(instance_file):
    # hashlib's OpenSSL binding costs every CLI process memory and import time
    code = (
        "import sys; from monorm.instance import parse_instance; "
        f"parse_instance({instance_file!r}); print('_hashlib' in sys.modules)"
    )
    assert _fresh_stdout(code) == "False"


def test_a_valid_call_does_not_load_argparse(instance_file):
    # argparse (with gettext) is imported only for a usage, help or error text
    code = (
        "import sys; from monorm.cli import run; "
        f"run(['gap', '--instance', {instance_file!r}, '--delta', '0.5', '--json']); "
        "before = 'argparse' in sys.modules; run(['norm', '-h']); "
        "print(before, 'argparse' in sys.modules)"
    )
    assert _fresh_stdout(code) == "False True"


# ---------------------------------------------------------------------------
# the fuzzed CLI contract: every instance ends in exit 0, 2 or 3
# ---------------------------------------------------------------------------

#: magnitudes from the smallest subnormal to near the largest float
_MAGNITUDES = st.one_of(
    st.sampled_from([5e-324, 1e-310, 1e-300, 1e-10, 0.5, 1.0, 2.0, 1e10, 1e300, 1.7e308]),
    st.floats(min_value=5e-324, max_value=1.7e308),
)
_ENTRIES = st.one_of(st.just(0.0), _MAGNITUDES, _MAGNITUDES.map(lambda x: -x))
_PIECE = st.fixed_dictionaries({"width": _MAGNITUDES, "jump": _MAGNITUDES, "slope": _MAGNITUDES})


@st.composite
def _fuzz_instances(draw):
    n = draw(st.integers(1, 4))
    family = draw(st.sampled_from(
        ["power", "varexp", "expminusone", "xlogx", "linear", "indicator", "plq"]
    ))
    phi = {"family": family}
    if family == "power":
        phi["p"] = 1.0 + draw(_MAGNITUDES)
    elif family == "varexp":
        phi["p_values"] = [1.0 + draw(_MAGNITUDES) for _ in range(n)]
        if draw(st.booleans()):
            phi["c_values"] = [draw(_MAGNITUDES) for _ in range(n)]
    elif family == "linear":
        phi["slope"] = draw(_MAGNITUDES)
    elif family == "indicator":
        phi["c"] = draw(_MAGNITUDES)
    elif family == "plq":
        pieces = draw(st.lists(_PIECE, min_size=1, max_size=3))
        del pieces[-1]["width"]
        phi["pieces"] = pieces
        phi["bounded"] = draw(st.booleans())
    if draw(st.booleans()):
        phi["truncate"] = draw(_MAGNITUDES)
    vector = st.lists(_ENTRIES, min_size=n, max_size=n)
    return {
        "space": {"atoms": [
            {"t": (j + 0.5) / n, "w": draw(_MAGNITUDES)} for j in range(n)
        ]},
        "phi": phi,
        "functions": {"u1": draw(vector), "v1": draw(vector)},
    }


_FUZZ_FLAGS = {
    "norm": st.tuples(st.just("--function"), st.sampled_from(["u1", "all"]),
                      st.just("--which"), st.sampled_from(["luxemburg", "orlicz", "all"])),
    "conjugate": st.tuples(st.just("--atom"), st.integers(0, 3).map(str),
                           st.just("--v-max"), _ENTRIES.map(repr),
                           st.just("--points"), st.integers(1, 4).map(str)),
    "dual": st.tuples(st.just("--density"), st.just("v1"),
                      st.just("--singular"), _ENTRIES.map(repr)),
    "oracle": st.tuples(st.just("--function"), st.just("u1"),
                        st.just("--resolution"), st.integers(2, 8).map(str)),
    "support": st.just(("--function", "u1")),
    "smooth-point": st.just(("--function", "u1")),
    "smooth-space": st.just(()),
    "delta2": st.tuples(st.just("--K"), _ENTRIES.map(repr),
                        st.sampled_from([("--f-const", "0.0"), ("--f-function", "u1")]),
                        st.just("--horizon"), _ENTRIES.map(repr)).map(
        lambda f: f[:2] + f[2] + f[3:]
    ),
    "gap": st.tuples(st.just("--delta"), _ENTRIES.map(repr)),
}


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "inst.json"


def _fuzz_run(path, payload, line):
    """(exit code, stdout, stderr) of `line` with --json on `payload`."""
    path.write_text(json.dumps(payload))
    argv = [line[0], "--instance", str(path), *line[1:], "--json"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=600, derandomize=True)
@given(
    payload=_fuzz_instances(),
    line=st.sampled_from(sorted(_FUZZ_FLAGS)).flatmap(
        lambda command: _FUZZ_FLAGS[command].map(lambda flags: (command, *flags))
    ),
)
def test_fuzzed_instances_keep_the_cli_contract(payload, line, fuzz_path):
    code, out, err = _fuzz_run(fuzz_path, payload, line)
    assert code in (0, 2, 3), (line, payload)
    assert "Traceback" not in err
    if code == 0:
        json.loads(out, parse_constant=_no_constant)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="at extreme scales the chain fails (CHANGES.md FOUND: generator "
    "cancellation, norms below the normal floats, products that underflow)",
)
@settings(max_examples=300, derandomize=True, phases=[Phase.generate])
@given(payload=_fuzz_instances())
def test_fuzzed_norms_keep_the_criterion_1_chain(payload, fuzz_path):
    # luxemburg <= orlicz <= 2 luxemburg wherever both norms are finite
    code, out, _ = _fuzz_run(fuzz_path, payload, ("norm", "--function", "u1"))
    if code != 0:
        return
    entry = json.loads(out)["functions"]["u1"]
    lux, orl = entry["luxemburg"], entry["orlicz"]
    if isinstance(lux, float) and isinstance(orl, float):
        assert lux <= orl * (1 + 1e-9) and orl <= 2 * lux * (1 + 1e-9), (payload, entry)
