#!/usr/bin/env python3
"""What the brute-force oracles cost: milliseconds and search counts per
(family, atoms) over the oracle ops of the `atoms-small` benchmark workload.

    python scripts/oracle_costs.py                  # seed 1, 160 oracle ops
    python scripts/oracle_costs.py --seed 2 --ops 640 --rounds 3

Op k of the workload is an oracle op when k % 20 == 19; --ops counts those
ops, in workload order.  Each is run in process, one call at a time, with
every lru cache of the package cleared before each call:

    orlicz_bf   orlicz_norm_bruteforce at the op's resolution
    lux_bf      luxemburg_norm_bruteforce at the op's resolution
    luxemburg   the analytic luxemburg_norm
    orlicz      the analytic orlicz_amemiya_norm

A row gives the median milliseconds per call over its ops and every round,
then, for each oracle, the total number of conjugate (phi*) evaluations and
of golden_max and monotone_cap calls over its ops, counted in one more pass
that is not timed.  State the machine and the bytecode setting next to
numbers quoted from here.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from cli_stages import _cache_clearers  # noqa: E402  (puts src/ on sys.path)

from monorm import duality  # noqa: E402
from monorm.instance import parse_instance  # noqa: E402
from monorm.norms import luxemburg_norm, orlicz_amemiya_norm  # noqa: E402

TIMED = ("orlicz_bf", "lux_bf", "luxemburg", "orlicz")
ORACLES = ("orlicz_bf", "lux_bf")
COUNTS = ("phi*", "golden", "cap")


def oracle_ops(seed: int, count: int) -> list:
    """The first `count` oracle ops of atoms-small at `seed`."""
    every = workloads.SMALL_ORACLE_EVERY
    return [workloads.atoms_small_op(seed, k) for k in range(every - 1, every * count, every)]


def _calls(op, inst) -> dict:
    """The four timed calls of one op, each a function of no argument."""
    u = inst.functions[op.args[op.args.index("--function") + 1]]
    resolution = int(op.args[op.args.index("--resolution") + 1])
    gen, space = inst.phi, inst.space
    return {
        "orlicz_bf": lambda: duality.orlicz_norm_bruteforce(gen, space, u, resolution),
        "lux_bf": lambda: duality.luxemburg_norm_bruteforce(gen, space, u, resolution),
        "luxemburg": lambda: luxemburg_norm(gen, space, u),
        "orlicz": lambda: orlicz_amemiya_norm(gen, space, u),
    }


class _CountedConjugate:
    """A conjugate generator that counts its phi evaluations."""

    def __init__(self, conj, tally: dict):
        self._conj = conj
        self._tally = tally

    def phi(self, t, u):
        self._tally["phi*"] += 1
        return self._conj.phi(t, u)

    def __getattr__(self, name):
        return getattr(self._conj, name)


def _counted(call, tally: dict):
    """call() with duality's conjugate, golden_max and monotone_cap counted
    into tally."""
    saved = {name: getattr(duality, name) for name in ("conjugate", "golden_max", "monotone_cap")}

    def counting(name, key):
        def wrapper(*args, **kwargs):
            tally[key] += 1
            return saved[name](*args, **kwargs)
        return wrapper

    duality.conjugate = lambda gen: _CountedConjugate(saved["conjugate"](gen), tally)
    duality.golden_max = counting("golden_max", "golden")
    duality.monotone_cap = counting("monotone_cap", "cap")
    try:
        return call()
    finally:
        for name, value in saved.items():
            setattr(duality, name, value)


def op_costs(op, clearers: list, path: Path) -> dict:
    """Seconds of each timed call of one op, and the counts of each oracle."""
    path.write_text(json.dumps(op.instance))
    inst = parse_instance(path)
    calls = _calls(op, inst)
    out = {}
    for name in TIMED:
        for clear in clearers:
            clear()
        start = time.perf_counter()
        calls[name]()
        out[name] = time.perf_counter() - start
    for name in ORACLES:
        for clear in clearers:
            clear()
        tally = dict.fromkeys(COUNTS, 0)
        _counted(calls[name], tally)
        out.update({f"{name} {key}": value for key, value in tally.items()})
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--ops", type=int, default=160, help="oracle ops (default 160)")
    parser.add_argument("--rounds", type=int, default=2)
    args = parser.parse_args()

    ops = oracle_ops(args.seed, args.ops)
    clearers = _cache_clearers()
    times: dict[tuple, dict[str, list[float]]] = {}
    counts: dict[tuple, dict[str, int]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.json"
        for round_ in range(args.rounds):
            for op in ops:
                costs = op_costs(op, clearers, path)
                key = (op.family, op.atoms)
                row = times.setdefault(key, {name: [] for name in TIMED})
                for name in TIMED:
                    row[name].append(costs[name])
                if round_ == 0:
                    tally = counts.setdefault(key, {})
                    for name, value in costs.items():
                        if name not in TIMED:
                            tally[name] = tally.get(name, 0) + value

    count_names = [f"{o} {c}" for o in ORACLES for c in COUNTS]
    print(f"# CPython {platform.python_version()}, atoms-small seed {args.seed}, "
          f"{len(ops)} oracle ops, {args.rounds} rounds; median ms per call, "
          "total counts per row")
    print(f"{'family':12s} {'atoms':>5s} {'ops':>4s}"
          + "".join(f" {n:>9s}" for n in TIMED)
          + "".join(f" {n:>15s}" for n in count_names))
    for key in sorted(times):
        row, tally = times[key], counts[key]
        print(f"{key[0]:12s} {key[1]:5d} {len(row['orlicz']) // args.rounds:4d}"
              + "".join(f" {1e3 * statistics.median(row[n]):9.3f}" for n in TIMED)
              + "".join(f" {tally[n]:15d}" for n in count_names))
    every = {name: [x for row in times.values() for x in row[name]] for name in TIMED}
    total = {n: sum(t[n] for t in counts.values()) for n in count_names}
    print(f"{'all':12s} {'':5s} {len(ops):4d}"
          + "".join(f" {1e3 * statistics.median(every[n]):9.3f}" for n in TIMED)
          + "".join(f" {total[n]:15d}" for n in count_names))
    return 0


if __name__ == "__main__":
    sys.exit(main())
