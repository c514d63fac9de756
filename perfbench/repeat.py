#!/usr/bin/env python3
"""Run the benchmark on several seeds and report, per end-to-end metric, the
median and the spread between the first and third quartile as a share of
the median, next to the bound BENCHMARK.json fixes for it.

    python3 perfbench/repeat.py --workload sweep --seeds 1-10
    python3 perfbench/repeat.py --workload atoms-small --seeds 11-20

A claim about a change should hold on a seed not used while writing it:
pass a fresh range here.  Each run measures for BENCHMARK.json's
run_seconds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
from workloads import parse_ranges  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in parse_ranges(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        info = next((line for line in lines if line.startswith("# ")), "")
        values_line = " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {values_line}\n  {info[2:]}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]

    print(f"\n{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        flag = "" if spread < bounds[name] / 3 else "  <-- above bound/3"
        print(f"{name:34s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{bounds[name]:>6} {units[name]}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
