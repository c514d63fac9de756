#!/usr/bin/env python3
"""Smoke check of the harness itself: every workload (grid-large too, which
BENCHMARK.json does not gate), untraced and traced, at tiny sizes (16-atom
grids, oracle resolution 20, six traced ops) and one second of
measurement; about ten seconds in all.

    python3 perfbench/smoke.py

Checks the result line against BENCHMARK.json (keys, metric names and
units, correct = true, positive end-to-end values and per-layer times), and
that the benchmark refuses to run, with a non-zero exit code and no result
line, from a directory that holds only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(proc, expected: dict[str, str], trace: int) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"correct={result['correct']} failed={result['failed']}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append(f"attempted={result['attempted']}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(expected))}")
    for name, m in result["metrics"].items():
        # every end-to-end metric and every per-layer time must be measured
        must_be_positive = not trace or m["unit"] == "s"
        if not isinstance(m["value"], (int, float)) or (must_be_positive and not m["value"] > 0):
            problems.append(f"{name} = {m['value']!r}")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            problems = check_result(run(ROOT, workload, trace), expected[trace], trace)
            failures += bool(problems)
            print(f"{workload:12s} trace={trace}: {'ok' if not problems else '; '.join(problems)}")

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, WORKLOADS[0], 0)
        refused = proc.returncode != 0 and '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    failures += not refused
    print(f"without src/: {'refused' if refused else 'RAN ANYWAY'} (exit {proc.returncode})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
