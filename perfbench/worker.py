"""Runs one pass of a workload in its own process and writes the raw
results as JSON; ``run.py`` starts it and turns the results into metrics.

A pass is either timed (ops until ``--seconds`` have passed) or fixed
(exactly ``--ops`` ops, for the traced runs and their untraced baseline).
With ``--trace 1`` the monorm modules are instrumented before the first op.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import sys
import time
from pathlib import Path

import checks
import workloads


def _cache_clearers() -> list:
    """cache_clear of every lru_cache-wrapped function in monorm, found by
    scanning module attributes (before any instrumentation rebinds them)."""
    seen, out = set(), []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "monorm" or name.startswith("monorm.")):
            continue
        for value in vars(mod).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear) and id(value) not in seen:
                seen.add(id(value))
                out.append(clear)
    return out


def _clear(clearers) -> None:
    for clear in clearers:
        clear()


def _cli_op(run, op, path: Path):
    """Run one CLI op in process; returns (seconds, failure reason or None)."""
    if op.instance is not None:
        path.write_text(json.dumps(op.instance))
    argv = op.argv(str(path))
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    except Exception as exc:  # an escaped exception is a failed op, not a crash
        return time.perf_counter() - start, f"exception {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return elapsed, checks.check_cli(op, code, out.getvalue())


def _sweep_op(monorm, op):
    start = time.perf_counter()
    try:
        lux = monorm.luxemburg_norm(op.gen, op.space, op.u)
        orl, _ = monorm.orlicz_amemiya_norm(op.gen, op.space, op.u)
    except Exception as exc:  # an escaped exception is a failed op, not a crash
        return time.perf_counter() - start, f"exception {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return elapsed, checks.check_sweep(op, lux, orl)


def _label(op) -> str:
    if isinstance(op, workloads.SweepOp):
        return f"{'truncated ' if op.truncated else ''}{op.family} n={op.atoms}"
    return f"{op.kind} {op.family or ''} n={op.atoms}".replace("  ", " ")


def _layer_probe(monorm, path: Path) -> list[dict]:
    """Every layer once (workloads.layer_probe_ops), plus an Orlicz norm
    under a truncated generator, which goes through NumericConjugate."""
    failures = []
    for op in workloads.layer_probe_ops():
        _, reason = _cli_op(monorm.cli.run, op, path)
        if reason is not None:
            failures.append({"op": -1, "label": "probe " + _label(op), "reason": reason})
    space = monorm.GridMeasureSpace.uniform(2)
    u = monorm.SimpleFunction.on(space, (1.0, 2.0))
    monorm.orlicz_amemiya_norm(monorm.truncate(monorm.PowerGenerator(2.0), 3.0), space, u)
    return failures


def _count_probe(monorm, tracer) -> dict:
    """Counts for one 512-atom power (p = 2) Luxemburg norm and one Orlicz
    norm of the constant function 1: fixed inputs, so the counts compare
    across seeds and commits."""
    space = monorm.GridMeasureSpace.uniform(512)
    gen = monorm.PowerGenerator(2.0)
    u = monorm.SimpleFunction.constant(space, 1.0)
    out = {}
    for key, call in (("lux512", lambda: monorm.luxemburg_norm(gen, space, u)),
                      ("orlicz512", lambda: monorm.orlicz_amemiya_norm(gen, space, u))):
        before = (tracer.method_calls("phi"), tracer.method_calls("right_deriv"),
                  tracer.counts["extreal.objects"])
        call()
        out[f"probe.{key}_phi_calls"] = tracer.method_calls("phi") - before[0]
        out[f"probe.{key}_right_deriv_calls"] = tracer.method_calls("right_deriv") - before[1]
        out[f"probe.{key}_extreal_objects"] = tracer.counts["extreal.objects"] - before[2]
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=["grid-large", "atoms-small", "sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--ops", type=workloads.parse_ranges, default=None,
                        help="fixed op indices, e.g. 0-7,56")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None, help="write the traced spans here")
    args = parser.parse_args()

    os.environ.pop("MO_TOL_OVERRIDE", None)
    import monorm
    import monorm.cli

    work = Path(args.work)
    path = work / f"instance-{os.getpid()}.json"
    clearers = _cache_clearers()
    is_cli = args.workload in workloads.CLI_OPS

    def make(k):
        if is_cli:
            return workloads.CLI_OPS[args.workload](args.seed, k, args.smoke)
        return workloads.sweep_op(monorm, args.seed, k)

    # warm-up outside the measurement: first-call costs a one-shot user
    # pays are in setup_s, not in op latency
    warm = workloads.atoms_small_op(args.seed, 0) if is_cli else make(0)
    if is_cli:
        _cli_op(monorm.cli.run, warm, path)
    else:
        _sweep_op(monorm, warm)
    _clear(clearers)

    tracer = None
    missing: list[str] = []
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        missing = tracing.install(tracer)

    latencies, failures = [], []
    started = time.perf_counter()
    indices = iter(args.ops) if args.ops is not None else itertools.count()
    for n_done, k in enumerate(indices):
        if args.ops is None and n_done and time.perf_counter() - started >= args.seconds:
            break
        op = make(k)
        if is_cli or k % workloads.SWEEP_BATCH == 0:
            _clear(clearers)
        if tracer is not None:
            tracer.op = k
        if is_cli:
            elapsed, reason = _cli_op(monorm.cli.run, op, path)
        else:
            elapsed, reason = _sweep_op(monorm, op)
        latencies.append(elapsed)
        if reason is not None:
            failures.append({"op": k, "label": _label(op), "reason": reason})
    wall = time.perf_counter() - started
    if tracer is not None:
        tracer.op = -1
        failures += _layer_probe(monorm, path)
    path.unlink(missing_ok=True)

    result = {
        "latencies": latencies,
        "failures": failures,
        "wall_s": wall,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["metrics"] = tracing.layer_metrics(tracer)
        result["metrics"].update(_count_probe(monorm, tracer))
        result["missing"] = missing
        result["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write(args.spans)
    Path(args.out).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
