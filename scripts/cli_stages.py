#!/usr/bin/env python3
"""Where a short CLI call spends its time: microseconds per stage and
subcommand over the command lines of tests/golden/cases.json (selftest
left out), or over the short ops of the `atoms-small` benchmark workload,
each with --json.

    python scripts/cli_stages.py              # golden lines, three rounds
    python scripts/cli_stages.py --rounds 5
    python scripts/cli_stages.py --workload atoms-small --seed 7 --ops 660
    python scripts/cli_stages.py --fresh      # whole calls, import included

With --workload, the lines are those of workload ops 0 to --ops - 1 that
are neither a brute-force oracle nor an op that must fail, read from
perfbench/workloads.py, each with its instance in a file of its own.

The stages are those of `monorm.cli.run`, timed in process one by one:

    line read       the argv to a namespace (`_join_negative_values`, `_parse`)
    parse_instance  the instance file to an Instance (none for gallery)
    handler         the subcommand's COMMANDS handler
    to_json         the report to its --json text
    run             the whole `run(argv)`, printing included

Every lru cache of the package is cleared before each stage pass and
before each `run`, so every call pays its cold cost, as it would in a
fresh process.  A row gives the mean over its lines and every round; the
last line gives the `run` mean of each round.  State the machine and the
bytecode setting next to numbers quoted from here.

With --fresh, every line instead runs as `python -m monorm <line>` in a
fresh interpreter (PYTHONPATH=src, the environment otherwise as
given), and a row gives the median wall time in
milliseconds of its subcommand's calls over every round: the time a
one-shot call costs, import included.  The header names the Python
version and the bytecode setting (whether bytecode is written, and whether
a cache already sits under src/monorm).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))
sys.path.insert(0, str(ROOT / "perfbench"))
import regen_golden  # noqa: E402  (puts src/ on sys.path)
import workloads  # noqa: E402

from monorm import cli  # noqa: E402
from monorm.instance import parse_instance  # noqa: E402
from monorm.jsonio import to_json  # noqa: E402

STAGES = ("line read", "parse_instance", "handler", "to_json", "run")


def _cache_clearers() -> list:
    """cache_clear of every lru_cache-wrapped function in the package."""
    found = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "monorm" or name.startswith("monorm.")):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    found[id(value)] = value.cache_clear
    return list(found.values())


def stage_seconds(argv: list[str], clearers: list) -> dict[str, float]:
    """Seconds per stage of one command line, as `run` goes through them."""
    for clear in clearers:
        clear()
    t0 = time.perf_counter()
    command = next((a for a in argv if not a.startswith("-")), None)
    args = cli._parse(cli._join_negative_values(argv, cli.COMMANDS[command][3]), command)
    t1 = time.perf_counter()
    handler, _, takes_instance, _ = cli.COMMANDS[command]
    report = {"command": command}
    inst = None
    if takes_instance:
        inst = parse_instance(args.instance)
        report["digest"] = inst.digest
    t2 = time.perf_counter()
    report.update(handler(args, inst))
    t3 = time.perf_counter()
    to_json(report)
    t4 = time.perf_counter()
    for clear in clearers:
        clear()
    with contextlib.redirect_stdout(io.StringIO()):
        t5 = time.perf_counter()
        code = cli.run(argv)
        t6 = time.perf_counter()
    if code != 0:
        raise SystemExit(f"{' '.join(argv)}: exit code {code}")
    return dict(zip(STAGES, (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t6 - t5)))


def workload_lines(seed: int, count: int, directory: Path) -> list[list[str]]:
    """The command lines of the short ops among atoms-small ops 0 to
    count - 1 (no oracle, no op that must fail), each instance written to
    its own file in directory."""
    lines = []
    for k in range(count):
        op = workloads.atoms_small_op(seed, k)
        if op.kind == "oracle" or op.expect != 0:
            continue
        path = directory / f"op{k}.json"
        if op.instance is not None:
            path.write_text(json.dumps(op.instance))
        lines.append(op.argv(str(path)))
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--workload", choices=("atoms-small",), default=None,
                        help="time the workload's short ops instead of the golden lines")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--ops", type=int, default=660,
                        help="workload ops to draw from (default 660, ten periods)")
    parser.add_argument("--fresh", action="store_true",
                        help="time each whole call in a fresh interpreter, import included")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        if args.workload is None:
            lines = [regen_golden.case_argv(c) for c in regen_golden.load_cases()
                     if c["argv"][0] != "selftest"]
            source = "golden"
        else:
            lines = workload_lines(args.seed, args.ops, Path(tmp))
            source = f"{args.workload} seed {args.seed}"
        report = _report_fresh if args.fresh else _report
        return report(lines, args.rounds, source)


def _report(lines: list[list[str]], rounds: int, source: str) -> int:
    """Time every line `rounds` times and print the table."""
    clearers = _cache_clearers()
    totals: dict[str, dict[str, float]] = {}
    counts: dict[str, int] = {}
    round_run = []
    for _ in range(rounds):
        run_sum = 0.0
        for argv in lines:
            seconds = stage_seconds(argv, clearers)
            row = totals.setdefault(argv[0], dict.fromkeys(STAGES, 0.0))
            for stage, value in seconds.items():
                row[stage] += value
            counts[argv[0]] = counts.get(argv[0], 0) + 1
            run_sum += seconds["run"]
        round_run.append(run_sum / len(lines))

    print(f"# CPython {platform.python_version()}, {source}, {len(lines)} lines, "
          f"{rounds} rounds; microseconds per call")
    print(f"{'command':14s} {'lines':>5s}" + "".join(f" {s:>14s}" for s in STAGES))
    every = dict.fromkeys(STAGES, 0.0)
    for command, row in totals.items():
        n = counts[command]
        print(f"{command:14s} {n // rounds:5d}"
              + "".join(f" {1e6 * row[s] / n:14.0f}" for s in STAGES))
        for stage in STAGES:
            every[stage] += row[stage]
    n = len(lines) * rounds
    print(f"{'all':14s} {len(lines):5d}" + "".join(f" {1e6 * every[s] / n:14.0f}" for s in STAGES))
    print("run per round: " + " / ".join(f"{1e6 * r:.0f}" for r in round_run))
    return 0


def _report_fresh(lines: list[list[str]], rounds: int, source: str) -> int:
    """Run every line `rounds` times, each in a fresh interpreter, and
    print the median wall time per subcommand."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times: dict[str, list[float]] = {}
    for _ in range(rounds):
        for argv in lines:
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "monorm", *argv], env=env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
            elapsed = time.perf_counter() - t0
            if proc.returncode != 0:
                raise SystemExit(f"{' '.join(argv)}: exit code {proc.returncode}")
            times.setdefault(argv[0], []).append(elapsed)

    written = "not written" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "written"
    cached = "a" if (ROOT / "src" / "monorm" / "__pycache__").exists() else "no"
    print(f"# CPython {platform.python_version()}, {source}, {len(lines)} lines, "
          f"{rounds} rounds, fresh interpreters; bytecode {written}, {cached} cache "
          "under src/monorm; median milliseconds per call")
    print(f"{'command':14s} {'lines':>5s} {'median':>8s}")
    for command, values in times.items():
        print(f"{command:14s} {len(values) // rounds:5d} {1e3 * statistics.median(values):8.1f}")
    every = [t for values in times.values() for t in values]
    print(f"{'all':14s} {len(lines):5d} {1e3 * statistics.median(every):8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
