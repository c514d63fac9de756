"""What each entry point imports, checked in fresh interpreters: `import
monorm` loads only the numeric core, the names of `duality`, `geometry` and
`instance` resolve on first access, and a CLI subcommand loads only the
modules its handler calls."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SAMPLE = ROOT / "scripts" / "sample_instance.json"

CORE = ("monorm.errors", "monorm.space", "monorm.generators", "monorm.solvers",
        "monorm.conjugate", "monorm.norms")
LAZY = ("monorm.geometry", "monorm.duality", "monorm.gallery", "monorm.instance",
        "monorm.selfcheck")
#: modules that only some subcommands call
ORACLES_AND_GEOMETRY = ("monorm.geometry", "monorm.duality", "monorm.gallery")

#: every public name `import monorm` bound when it imported every module:
#: the package's submodules, and the names each submodule defines
SUBMODULES = ("duality", "errors", "generators", "geometry", "instance", "norms",
              "solvers", "space")
DEFINED_IN = {
    "space": ("GridMeasureSpace", "SimpleFunction", "pairing", "sgn"),
    "generators": (
        "CappedGenerator", "ExpMinusOneGenerator", "IndicatorGenerator",
        "LinearGenerator", "OrliczGenerator", "Piece", "PiecewiseGenerator",
        "PowerGenerator", "TruncatedGenerator", "VariableExponentGenerator",
        "XLogXGenerator", "modular", "subdiff", "truncate",
    ),
    "conjugate": ("NumericConjugate", "biconjugate_residual", "conjugate", "young_gap"),
    "norms": (
        "KSet", "KSetDegenerate", "KSetNonEmpty", "delta2_check", "k_interval",
        "luxemburg_norm", "orlicz_amemiya_norm", "power_norm_closed_forms", "theta",
    ),
    "duality": (
        "DualDensity", "dual_functional_norm", "holder_gap", "luxemburg_norm_bruteforce",
        "orlicz_norm_bruteforce", "truncated_norm_sequence",
    ),
    "geometry": (
        "check_space_smoothness", "classify_smooth_point", "construct_support_functional",
        "smoothness_gap_function", "support_density_survey", "verify_support_functional",
    ),
    "instance": ("Instance", "parse_instance"),
}


def _fresh(code: str) -> object:
    """What `code` prints as JSON on its last line, run in a new interpreter
    that reads the package from this checkout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_only_the_numeric_core():
    # the module list is taken before the json import that prints it
    loaded = set(_fresh("import sys, monorm\n"
                        "loaded = sorted(sys.modules)\n"
                        "import json\n"
                        "print(json.dumps(loaded))\n"))
    assert set(CORE) <= loaded
    assert not loaded & {*LAZY, "json"}


def test_every_public_name_resolves_to_its_defining_modules_object():
    code = (
        "import json, sys, monorm\n"
        f"submodules, defined_in = {SUBMODULES!r}, {DEFINED_IN!r}\n"
        "out = {m: getattr(monorm, m) is sys.modules['monorm.' + m] for m in submodules}\n"
        "for module, names in defined_in.items():\n"
        "    for name in names:\n"
        "        value = getattr(monorm, name)\n"
        "        out[name] = value is vars(sys.modules['monorm.' + module])[name]\n"
        "        out[name] = out[name] and vars(monorm)[name] is value\n"
        "names = [*submodules, *(n for names in defined_in.values() for n in names)]\n"
        "out['__all__'] = monorm.__all__ == sorted(names)\n"
        "out['dir'] = set(names) <= set(dir(monorm))\n"
        "print(json.dumps(out))\n"
    )
    resolved = _fresh(code)
    assert [name for name, same in resolved.items() if not same] == []


def test_an_unknown_name_raises_attribute_error():
    code = (
        "import json, monorm\n"
        "out = []\n"
        "for name in ('no_such_name', 'gallery_report', 'selfcheck_results'):\n"
        "    try:\n"
        "        getattr(monorm, name)\n"
        "    except AttributeError as exc:\n"
        "        out.append(str(exc))\n"
        "print(json.dumps(out))\n"
    )
    assert _fresh(code) == [
        "module 'monorm' has no attribute 'no_such_name'",
        "module 'monorm' has no attribute 'gallery_report'",
        "module 'monorm' has no attribute 'selfcheck_results'",
    ]


@pytest.mark.parametrize(
    "argv, loads_geometry",
    [
        (["norm", "--function", "u1"], False),
        (["conjugate"], False),
        (["delta2", "--K", "4"], False),
        (["support", "--function", "u1"], True),
    ],
    ids=lambda value: value[0] if isinstance(value, list) else None,
)
def test_a_subcommand_loads_what_its_handler_calls(argv, loads_geometry):
    line = [argv[0], "--instance", str(SAMPLE), *argv[1:], "--json"]
    code = (
        "import contextlib, io, json, sys\n"
        "from monorm.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = run({line!r})\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )
    exit_code, loaded = _fresh(code)
    assert exit_code == 0
    found = set(ORACLES_AND_GEOMETRY) & set(loaded)
    assert found == ({"monorm.geometry", "monorm.duality"} if loads_geometry else set())
