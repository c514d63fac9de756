#!/usr/bin/env python3
"""monorm benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload atoms-small --seed 1 --seconds 55 --trace 0

Workloads (see DESIGN.md for why each exists; BENCHMARK.json gates the
last two):

* ``grid-large``  CLI commands on 512-4096-atom grids, all families;
* ``atoms-small`` every instance subcommand on 2-3-atom instances, 5% of
                  them brute-force oracles;
* ``sweep``       library calls (Luxemburg + Orlicz norm) on random 2-8-atom
                  instances, 15% of them truncated generators.

``--trace 0`` measures the end-to-end metrics: set-up time in fresh
interpreters, then a timed closed loop (one client, next op after the last
returns) in a worker process.  ``--trace 1`` runs a fixed op list three
times in fresh workers, untraced once and traced twice, checks that both
traced passes give the same counts, and reports the per-layer metrics.

Every op is checked (see checks.py); the last line of stdout is the JSON
result.  Runs from the root of a monorm checkout and reads the package from
its ``src`` directory; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

WORKLOADS = ("grid-large", "atoms-small", "sweep")
#: op indices of the fixed list a traced run executes, about 5 s untraced
#: at seed; grid-large takes one op of each command plus the gallery
TRACE_OPS = {
    "grid-large": f"0-{len(workloads.GRID_COMMANDS) - 1},{workloads.GRID_PERIOD - 1}",
    "atoms-small": "0-99",
    "sweep": "0-799",
}
SMOKE_TRACE_OPS = "0-5"
#: fresh-interpreter set-ups per run; the median is reported
SETUP_REPEATS = 9
#: op_tail_ms percentile per workload: the highest of 75, 90, 95, 97.5,
#: 99, 99.5 and 99.9 with at least ten samples beyond it even in a run
#: that reaches only half the ops of the slowest 55-s run at the commit
#: that added the benchmark (about 140, 1340 and 6600 ops).  It is fixed,
#: not recomputed per run, so runs at different speeds (and commits)
#: compare the same percentile; each run reports how many samples lie
#: beyond it.
TAIL_PERCENTILE = {"grid-large": 75.0, "atoms-small": 97.5, "sweep": 99.5}
#: every worker must finish within this many seconds of the run's start
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = (
    "cli.self_s",
    "instance.parse_s", "instance.parse_calls", "instance.self_s",
    "jsonio.to_json_s", "jsonio.bytes", "jsonio.self_s",
    "generators.phi_calls", "generators.phi_ext_calls", "generators.deriv_calls",
    "generators.right_deriv_calls", "generators.modular_calls", "generators.modular_atoms",
    "generators.modular_s", "generators.validate_s", "generators.self_s",
    "extreal.objects",
    "space.function_objects",
    "solvers.boundary_calls", "solvers.boundary_evals", "solvers.evals_per_solve",
    "solvers.golden_calls", "solvers.golden_evals", "solvers.cap_calls", "solvers.cap_evals",
    "solvers.self_s",
    "norms.luxemburg_calls", "norms.luxemburg_s", "norms.k_interval_s", "norms.orlicz_calls",
    "norms.orlicz_s", "norms.derivative_modular_calls", "norms.phi_per_luxemburg_atom",
    "norms.self_s",
    "conjugate.numeric_evals", "conjugate.numeric_s", "conjugate.self_s",
    "duality.luxemburg_bf_s", "duality.orlicz_bf_s", "duality.inner_norm_calls",
    "duality.dual_norm_s", "duality.self_s",
    "geometry.support_s", "geometry.verify_s", "geometry.smooth_point_s",
    "geometry.smooth_space_s", "geometry.gap_s", "geometry.self_s",
    "gallery.report_s", "gallery.self_s",
    "probe.lux512_phi_calls", "probe.lux512_extreal_objects",
    "probe.orlicz512_phi_calls", "probe.orlicz512_right_deriv_calls",
    "probe.orlicz512_extreal_objects",
    "trace.overhead_ratio",
)

#: counts of the fixed 512-atom power probe at the commit that added the
#: benchmark; the traced run prints its own counts next to them
SEED_PROBE = {
    "probe.lux512_phi_calls": 17920,
    "probe.lux512_extreal_objects": 17955,
    "probe.orlicz512_right_deriv_calls": 35840,
    "probe.orlicz512_extreal_objects": 73292,
}


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "jsonio.bytes":
        return "B"
    if name.endswith(("_ratio", "_per_solve", "_per_luxemburg_atom")):
        return "ratio"
    return "count"


class BenchError(Exception):
    """The benchmark itself could not run (missing program, worker crash)."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("MO_TOL_OVERRIDE", None)
    return env


def _remaining(started: float) -> float:
    left = DEADLINE_S - (time.monotonic() - started)
    if left <= 0:
        raise BenchError("run exceeded its time limit")
    return left


def measure_setup(workload: str, seed: int, smoke: bool, started: float) -> float:
    """Median wall time of a fresh interpreter that imports the package and
    parses the workload's instance files, validation included."""
    paths = []
    for i, inst in enumerate(workloads.setup_instances(workload, seed, smoke)):
        path = WORK / f"setup-{os.getpid()}-{i}.json"
        path.write_text(json.dumps(inst))
        paths.append(str(path))
    if workload == "sweep":
        code = "import monorm"
    else:
        code = ("import sys, monorm.cli\n"
                "from monorm.instance import parse_instance\n"
                "for p in sys.argv[1:]:\n"
                "    parse_instance(p)\n")
    cmd = [sys.executable, "-c", code, *paths]
    times = []
    try:
        for i in range(1 + (1 if smoke else SETUP_REPEATS)):  # the first one warms the disk cache
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True,
                                  timeout=_remaining(started))
            elapsed = time.perf_counter() - t0
            if proc.returncode != 0:
                raise BenchError(f"set-up failed: {proc.stderr.decode()[-400:]}")
            if i:
                times.append(elapsed)
    finally:
        for p in paths:
            Path(p).unlink(missing_ok=True)
    return statistics.median(times)


def run_worker(workload: str, seed: int, started: float, *, seconds=None, ops=None,
               trace=0, smoke=False, tag="timed", spans=None) -> dict:
    out = WORK / f"{workload}-{seed}-{tag}-{os.getpid()}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--work", str(WORK), "--out", str(out)]
    cmd += ["--seconds", repr(seconds)] if ops is None else ["--ops", ops]
    if smoke:
        cmd.append("--smoke")
    if spans:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True,
                          timeout=_remaining(started))
    if proc.returncode != 0:
        raise BenchError(f"worker failed: {proc.stderr.decode()[-800:]}")
    result = json.loads(out.read_text())
    out.unlink()
    return result


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def end_to_end(workload, seed, seconds, smoke, started, info) -> tuple[dict, dict]:
    setup = measure_setup(workload, seed, smoke, started)
    res = run_worker(workload, seed, started, seconds=seconds, smoke=smoke)
    lat = sorted(res["latencies"])
    n = len(lat)
    p_tail = TAIL_PERCENTILE[workload]
    failed = len(res["failures"])
    busy = math.fsum(lat)
    metrics = {
        "setup_s": setup,
        "op_p50_ms": 1e3 * percentile(lat, 50.0),
        "op_tail_ms": 1e3 * percentile(lat, p_tail),
        "ops_per_s": n / busy,
        "ok_ratio": (n - failed) / n,
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
    }
    info.update({
        "samples": n,
        "tail_percentile": p_tail,
        "beyond_tail": n - math.ceil(p_tail / 100.0 * n),
        "fail_ratio": failed / n,
        "busy_s": busy,
        "wall_s": res["wall_s"],
    })
    return metrics, {"attempted": n, "failures": res["failures"]}


def traced(workload, seed, smoke, started, info) -> tuple[dict, dict]:
    ops = SMOKE_TRACE_OPS if smoke else TRACE_OPS[workload]
    base = run_worker(workload, seed, started, ops=ops, smoke=smoke, tag="untraced")
    # one span file per workload, overwritten by each traced run
    spans = WORK / f"spans-{workload}.jsonl"
    first = run_worker(workload, seed, started, ops=ops, trace=1, smoke=smoke, tag="trace-a",
                       spans=spans)
    second = run_worker(workload, seed, started, ops=ops, trace=1, smoke=smoke, tag="trace-b")
    counts_a = {k: v for k, v in first["metrics"].items() if not k.endswith("_s")}
    counts_b = {k: v for k, v in second["metrics"].items() if not k.endswith("_s")}
    mismatched = sorted(k for k in counts_a if counts_a[k] != counts_b.get(k))
    metrics = dict(first["metrics"])
    metrics["trace.overhead_ratio"] = math.fsum(first["latencies"]) / math.fsum(base["latencies"])
    info.update({
        "samples": len(base["latencies"]),
        "spans": first["spans"],
        "span_file": str(spans.relative_to(ROOT)),
        "counts_repeat": not mismatched,
        "mismatched_counts": mismatched,
        "missing_names": first["missing"],
        "probe_vs_seed": {k: (metrics[k], v) for k, v in SEED_PROBE.items()},
    })
    failures = base["failures"] + first["failures"] + second["failures"]
    res = {"attempted": 3 * len(base["latencies"]), "failures": failures}
    return {name: metrics.get(name, 0) for name in PER_LAYER}, res


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and short runs, to check the harness itself")
    args = parser.parse_args()
    started = time.monotonic()

    if not (SRC / "monorm" / "__init__.py").is_file():
        print(f"error: no monorm package under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)

    info: dict = {}
    try:
        if args.trace:
            metrics, res = traced(args.workload, args.seed, args.smoke, started, info)
            units = {name: unit(name) for name in metrics}
        else:
            metrics, res = end_to_end(args.workload, args.seed, args.seconds, args.smoke,
                                      started, info)
            units = END_TO_END
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    failures = res["failures"]
    correct = not failures and info.get("counts_repeat", True)
    for f in failures[:20]:
        print(f"FAILED op {f['op']} ({f['label']}): {f['reason']}")
    if not info.get("counts_repeat", True):
        print(f"FAILED: traced counts differ between two passes: {info['mismatched_counts']}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} " + json.dumps(info))
    for name, value in metrics.items():
        print(f"{name:40s} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": res["attempted"],
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
