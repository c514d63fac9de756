#!/usr/bin/env python3
"""Rewrite or check the golden `--json` reports under tests/golden/.

Each case in tests/golden/cases.json is one CLI command line (instance paths
relative to tests/golden/); its report is the exact stdout of
`monorm <argv> --json`, kept in tests/golden/reports/<name>.json.

    python scripts/regen_golden.py            # rewrite every report
    python scripts/regen_golden.py --check    # compare, print per-field diffs

`--check` exits 1 when any fresh report is not valid JSON or differs from
the stored one.  It names each such case and prints, per numeric field, the
largest absolute and the largest relative difference between the stored and
the fresh report (list indices folded into `[]`), and, under each other field
that changed, every differing old -> new value (booleans and strings), so a
flipped verdict shows as such.  That is the summary to quote whenever a
change moves numbers on purpose.  For a value near 0 (a gap,
say) any change reads as relative difference 1, so the absolute one is the
informative one there.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
REPORTS = GOLDEN / "reports"

sys.path.insert(0, str(ROOT / "src"))
from monorm.cli import run  # noqa: E402


def load_cases() -> list[dict]:
    return json.loads((GOLDEN / "cases.json").read_text())


def case_argv(case: dict) -> list[str]:
    """The case's command line with --json, its instance path made absolute."""
    argv = list(case["argv"])
    for j in range(len(argv) - 1):
        if argv[j] == "--instance":
            argv[j + 1] = str(GOLDEN / argv[j + 1])
    return argv + ["--json"]


def render(case: dict) -> tuple[int, str]:
    """(exit code, stdout) of the case's command line with --json."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(case_argv(case))
    return code, out.getvalue()


def report_path(case: dict) -> Path:
    return REPORTS / f"{case['name']}.json"


def _abs_diff(a, b) -> float:
    if a == b:
        return 0.0
    if a == "inf" or b == "inf":
        return math.inf
    return abs(a - b)


def _rel_diff(a, b) -> float:
    gap = _abs_diff(a, b)
    return gap / max(abs(a), abs(b)) if 0.0 < gap < math.inf else gap


def _is_number(x) -> bool:
    return x == "inf" or (isinstance(x, (int, float)) and not isinstance(x, bool))


def _leaf_pairs(a, b, path: str = ""):
    """(path, old, new) per pair of leaves, walking both reports while their
    shapes agree; list indices fold into `[]`, the top level is <report>."""
    if isinstance(a, dict) and isinstance(b, dict) and set(a) == set(b):
        for key in a:
            yield from _leaf_pairs(a[key], b[key], f"{path}.{key}" if path else key)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            yield from _leaf_pairs(x, y, f"{path}[]")
    else:
        yield path or "<report>", a, b


def field_diffs(
    expected: str, actual: str, measure: Callable = _rel_diff
) -> dict[str, float | str]:
    """Largest difference per numeric field (relative by default, or by the
    given measure), "changed" for other fields that differ; fields that
    agree are left out."""
    try:
        old, new = json.loads(expected), json.loads(actual)
    except json.JSONDecodeError:
        return {"<report>": "not JSON"}
    diffs: dict[str, float | str] = {}
    for path, a, b in _leaf_pairs(old, new):
        if _is_number(a) and _is_number(b):
            prev = diffs.get(path, 0.0)
            if prev != "changed":
                diffs[path] = max(prev, measure(a, b))
        elif a != b:
            diffs[path] = "changed"
    return {k: v for k, v in diffs.items() if v != 0.0}


def _changed_values(old, new) -> dict[str, list[str]]:
    """Per field, the differing old -> new pairs of booleans and strings."""
    pairs: dict[str, list[str]] = {}
    for path, a, b in _leaf_pairs(old, new):
        if a != b and all(isinstance(x, (bool, str)) for x in (a, b)):
            pairs.setdefault(path, []).append(f"{json.dumps(a)} -> {json.dumps(b)}")
    return pairs


def format_diffs(expected: str, actual: str) -> str:
    try:
        values = _changed_values(json.loads(expected), json.loads(actual))
    except json.JSONDecodeError:
        values = {}
    rel = field_diffs(expected, actual)
    gaps = field_diffs(expected, actual, _abs_diff)
    lines = []
    for path, v in sorted(rel.items()):
        if isinstance(v, str):
            lines.append(f"  {path}: {v}")
            lines.extend(f"    {pair}" for pair in values.get(path, []))
        else:
            lines.append(
                f"  {path}: max abs diff {gaps[path]:.3g}, max rel diff {v:.3g}"
            )
    return "\n".join(lines)


def check_case(case: dict) -> str | None:
    """None when the fresh report is JSON and matches the stored bytes,
    else a summary."""
    code, text = render(case)
    if code != 0:
        return f"exit code {code}"
    try:
        json.loads(text)
    except json.JSONDecodeError as exc:
        return f"  not valid JSON: {exc}"
    expected = report_path(case).read_text()
    if text == expected:
        return None
    return format_diffs(expected, text) or "  bytes differ, values equal"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true", help="compare instead of rewriting"
    )
    args = parser.parse_args()
    cases = load_cases()
    if args.check:
        failed = 0
        for case in cases:
            summary = check_case(case)
            if summary is not None:
                failed += 1
                print(f"{case['name']}:\n{summary}")
        print(f"{len(cases) - failed}/{len(cases)} reports match")
        return 1 if failed else 0
    REPORTS.mkdir(parents=True, exist_ok=True)
    for case in cases:
        code, text = render(case)
        if code != 0:
            print(f"{case['name']}: exit code {code}", file=sys.stderr)
            return 1
        report_path(case).write_text(text)
    print(f"wrote {len(cases)} reports to {REPORTS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
