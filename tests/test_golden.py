"""Byte-level gate on the CLI: every case in tests/golden/cases.json must
reproduce its stored `--json` report exactly.

Regenerate with `python scripts/regen_golden.py` only when a change moves
numbers on purpose, and quote its `--check` summary in CHANGES.md.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

_SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, _SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = _load("regen_golden")

CASES = golden.load_cases()


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_report(case):
    summary = golden.check_case(case)
    assert summary is None, f"{case['name']} moved:\n{summary}"


def test_every_golden_report_is_json():
    broken = []
    for case in CASES:
        try:
            json.loads(golden.report_path(case).read_text())
        except json.JSONDecodeError:
            broken.append(case["name"])
    assert broken == []


def test_check_names_a_report_that_is_not_json(monkeypatch):
    case = CASES[0]
    monkeypatch.setattr(golden, "render", lambda case: (0, '{"name":"a\nb"}\n'))
    assert golden.check_case(case).startswith("  not valid JSON: Invalid control character")


def test_field_diffs_reports_largest_relative_difference():
    old = '{"a":[1,2],"b":"inf","c":true,"d":3}'
    new = '{"a":[1,2.002],"b":5,"c":false,"d":3}'
    diffs = golden.field_diffs(old, new)
    assert diffs["a[]"] == pytest.approx(0.001, rel=1e-3)
    assert diffs["b"] == float("inf")
    assert diffs["c"] == "changed"
    assert "d" not in diffs


def test_check_summary_quotes_absolute_and_relative_differences():
    old = '{"gap":1e-10,"norm":2.0,"name":"x","rows":[{"ok":true},{"ok":true}]}'
    new = '{"gap":0,"norm":2.0,"name":"y","rows":[{"ok":true},{"ok":false}]}'
    gaps = golden.field_diffs(old, new, golden._abs_diff)
    assert gaps == {"gap": 1e-10, "name": "changed", "rows[].ok": "changed"}
    assert golden.format_diffs(old, new).splitlines() == [
        "  gap: max abs diff 1e-10, max rel diff 1",
        "  name: changed",
        '    "x" -> "y"',
        "  rows[].ok: changed",
        "    true -> false",
    ]


def test_cli_stages_times_each_stage_of_a_golden_line():
    stages = _load("cli_stages")
    seconds = stages.stage_seconds(golden.case_argv(CASES[0]), stages._cache_clearers())
    assert list(seconds) == list(stages.STAGES)
    assert all(value > 0 for value in seconds.values())


def test_cli_stages_times_the_short_ops_of_a_workload(tmp_path):
    stages = _load("cli_stages")
    lines = stages.workload_lines(1, 21, tmp_path)
    # op 19 is a brute-force oracle, the rest are short ops
    assert len(lines) == 20 and all(line[0] != "oracle" for line in lines)
    seconds = stages.stage_seconds(lines[0], stages._cache_clearers())
    assert list(seconds) == list(stages.STAGES)
    assert all(value > 0 for value in seconds.values())


def test_oracle_costs_times_and_counts_an_oracle_op(tmp_path):
    costs = _load("oracle_costs")
    op = costs.oracle_ops(1, 1)[0]
    row = costs.op_costs(op, costs._cache_clearers(), tmp_path / "instance.json")
    assert all(row[name] > 0 for name in costs.TIMED)
    assert all(row[f"{oracle} {count}"] > 0 for oracle in costs.ORACLES for count in costs.COUNTS)


def test_cross_python_passes_on_the_running_interpreter():
    done = subprocess.run(
        [sys.executable, str(_SCRIPTS / "cross_python.py"), sys.executable],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    version = "%d.%d.%d" % sys.version_info[:3]
    [line] = done.stdout.splitlines()
    assert line.split()[:2] == [version, "ok"]
    assert f"selftest passed, golden {len(CASES)}/{len(CASES)} reports match" in line
