"""Seeded inputs for the three benchmark workloads.

Every op is a pure function of (workload, seed, op index): op k draws its
parameters from its own ``random.Random`` seeded with a string, so the k-th
op is the same however many ops came before it, in the timed loop, the
traced loop and the set-up probe alike.  Which command, family and size an
op uses comes from a fixed order that does not depend on the seed, so every
run exercises the same mix and the seed only moves parameter values.

CLI ops are argv lists for ``monorm.cli.run`` plus the instance dict they
read; library ops (``sweep``) are built from the public constructors only.
"""

from __future__ import annotations

import itertools
import random

FAMILIES = (
    "power",
    "varexp",
    "expminusone",
    "xlogx",
    "linear",
    "indicator",
    "plq",
    "plq-bounded",
)

GRID_COMMANDS = ("norm", "support", "smooth-point", "smooth-space", "dual", "gap", "delta2")
#: grid-large period: the 56 (command, family) pairs, then one gallery op
#: (default ladder 256,1024,4096)
GRID_PERIOD = len(GRID_COMMANDS) * len(FAMILIES) + 1
GRID_MIN_ATOMS, GRID_MAX_ATOMS = 512, 4096
#: base grid size of each (command, family) pair, families in FAMILIES
#: order: the size at which the op took about 0.3 s at seed (2-vCPU
#: reference machine), clamped to 512-4096.  Per-atom costs differ 500-fold
#: between pairs (gap on xlogx against support on varexp); equal sizes would
#: spread latencies so widely that the median of a 30-s run (about 100
#: ops) moves by a third between runs.  Pairs still cheap at 4096 atoms
#: (gap, delta2 verdicts found early, linear support) stay below 0.3 s.
GRID_BASE_ATOMS = {
    "norm": (814, 564, 978, 1758, 4096, 2233, 678, 714),
    "support": (758, 512, 667, 857, 4096, 783, 512, 512),
    "smooth-point": (1387, 626, 1498, 1621, 4096, 2574, 966, 911),
    "smooth-space": (821, 528, 4096, 944, 975, 4096, 512, 3100),
    "dual": (4096, 1819, 4096, 4096, 4096, 4096, 4096, 2747),
    "gap": (4096, 4096, 4096, 4096, 4096, 4096, 4096, 4096),
    "delta2": (937, 885, 4096, 920, 1173, 4096, 1007, 4096),
}
_GOLDEN = (5 ** 0.5 - 1) / 2

SMALL_COMMANDS = (
    "norm",
    "conjugate",
    "dual",
    "support",
    "smooth-point",
    "smooth-space",
    "delta2",
    "gap",
)
#: every 20th atoms-small op is a brute-force oracle (5% of ops)
SMALL_ORACLE_EVERY = 20
#: oracle resolutions: the default 400 on 2 atoms, reduced on 3 atoms
ORACLE_RESOLUTION = {2: 400, 3: 12}
#: short-op period: 64 (command, family) pairs, one gallery, one input error
SMALL_PERIOD = 66
#: the 16 (family, atoms) oracle ops, ordered so that each consecutive pair
#: matches a costly oracle with a cheap one (indicator oracles take tens of
#: milliseconds, varexp ones over a second): a run that stops mid-cycle
#: still has the cycle's mean oracle cost
ORACLE_ORDER = (
    ("varexp", 2), ("indicator", 3), ("varexp", 3), ("indicator", 2),
    ("plq-bounded", 2), ("xlogx", 3), ("power", 2), ("expminusone", 3),
    ("plq", 2), ("linear", 3), ("xlogx", 2), ("expminusone", 2),
    ("plq", 3), ("plq-bounded", 3), ("linear", 2), ("power", 3),
)

#: delta2 constant: above 2**p for every power exponent drawn, so the
#: verdict for power is "holds"; expminusone fails for any constant
DELTA2_K = 16.0

#: sweep: 3 of every 20 ops wrap the generator in truncate(...)
SWEEP_TRUNCATED_SLOTS = 3
SWEEP_SLOTS = 20
#: sweep: lru caches are cleared every this many ops, like a fresh
#: criterion-1 process over 1000 instances
SWEEP_BATCH = 1000

#: fixed (seed-independent) order of the sweep's family/truncation slots
_SWEEP_ORDER = list(
    itertools.product(FAMILIES, [j < SWEEP_TRUNCATED_SLOTS for j in range(SWEEP_SLOTS)])
)
random.Random("sweep-order").shuffle(_SWEEP_ORDER)


def parse_ranges(text: str) -> list[int]:
    """"0-7,56" -> [0, 1, ..., 7, 56]."""
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def _rng(workload: str, seed: int, k: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{k}")


def phi_spec(family: str, n_atoms: int, rng: random.Random, variant: int) -> dict:
    """An instance-file generator spec with freshly drawn parameters, so no
    two ops share an equal generator (parameterless families excepted).

    ``variant`` picks the tail of an unbounded plq generator (flat, half or
    full curvature); it comes from the op index, not the seed, because the
    flat tail changes which branch the norms take and so the op's cost."""
    if family == "power":
        return {"family": "power", "p": rng.uniform(1.3, 3.5)}
    if family == "varexp":
        return {"family": "varexp", "p_values": [rng.uniform(1.3, 3.0) for _ in range(n_atoms)]}
    if family in ("expminusone", "xlogx"):
        return {"family": family}
    if family == "linear":
        return {"family": "linear", "slope": rng.uniform(0.5, 2.0)}
    if family == "indicator":
        return {"family": "indicator", "c": rng.uniform(0.5, 2.0)}
    pieces = [{"width": rng.uniform(0.5, 1.5), "jump": 0.0, "slope": 1.0}]
    if family == "plq":
        pieces.append({"width": None, "jump": rng.uniform(0.2, 1.0),
                       "slope": (0.0, 0.5, 1.0)[variant % 3]})
        return {"family": "plq", "pieces": pieces}
    if family == "plq-bounded":
        pieces.append({"width": rng.uniform(0.5, 1.5), "jump": rng.uniform(0.2, 1.0),
                       "slope": 0.5})
        return {"family": "plq", "pieces": pieces, "bounded": True}
    raise ValueError(f"unknown family {family!r}")


def _values(rng: random.Random, n: int, scale: float) -> list[float]:
    values = [rng.uniform(-scale, scale) for _ in range(n)]
    if all(abs(v) < 1e-3 for v in values):
        values[0] = scale
    return values


def grid_instance(family: str, n: int, rng: random.Random, variant: int) -> dict:
    """Uniform midpoint grid of [0, 1] with n atoms."""
    h = 1.0 / n
    return {
        "space": {"atoms": [{"t": (j + 0.5) * h, "w": h} for j in range(n)]},
        "phi": phi_spec(family, n, rng, variant),
        "functions": {"u": _values(rng, n, 2.5), "v": _values(rng, n, 1.0)},
    }


def small_atoms(n: int, rng: random.Random) -> tuple[list[float], list[float]]:
    """n random coordinates in [0, 1] with weights in [0.2, 1.2]."""
    coords = sorted(rng.uniform(0.0, 1.0) for _ in range(n))
    for i in range(1, n):
        if coords[i] - coords[i - 1] < 1e-6:
            coords[i] = coords[i - 1] + 1e-4
    return coords, [rng.uniform(0.2, 1.2) for _ in coords]


def small_instance(family: str, n: int, rng: random.Random, variant: int) -> dict:
    coords, weights = small_atoms(n, rng)
    return {
        "space": {"atoms": [{"t": t, "w": w} for t, w in zip(coords, weights)]},
        "phi": phi_spec(family, n, rng, variant),
        "functions": {"u": _values(rng, n, 2.5), "v": _values(rng, n, 1.0)},
    }


class CliOp:
    """One CLI invocation: the subcommand, its arguments without the
    instance path, the instance it reads (or None) and the exit code it must
    return.  ``kind`` names the check applied to its report."""

    __slots__ = ("kind", "command", "family", "atoms", "args", "instance", "expect")

    def __init__(self, kind, family, atoms, args, instance, command=None, expect=0):
        self.kind = kind
        self.command = command or kind
        self.family = family
        self.atoms = atoms
        self.args = args
        self.instance = instance
        self.expect = expect

    def argv(self, path: str | None) -> list[str]:
        head = [self.command]
        if self.instance is not None:
            head += ["--instance", path]
        return head + self.args + ["--json"]


def _command_args(command: str, rng: random.Random) -> list[str]:
    if command in ("norm", "support", "smooth-point"):
        return ["--function", "u"]
    if command == "dual":
        return ["--density", "v", "--singular", repr(rng.uniform(0.0, 0.5))]
    if command == "gap":
        return ["--delta", repr(rng.uniform(0.25, 1.0))]
    if command == "delta2":
        return ["--K", repr(DELTA2_K)]
    if command == "conjugate":
        return ["--atom", "0", "--v-max", repr(rng.uniform(1.0, 4.0)), "--points", "9"]
    return []


def grid_size(command: str, family: str, k: int) -> int:
    """Atom count of grid op k: the pair's base size times a factor between
    0.71 and 1.41 from the golden-ratio sequence, clamped to 512-4096."""
    base = GRID_BASE_ATOMS[command][FAMILIES.index(family)]
    factor = 2.0 ** ((k * _GOLDEN) % 1.0 - 0.5)
    return min(GRID_MAX_ATOMS, max(GRID_MIN_ATOMS, round(base * factor)))


def grid_large_op(seed: int, k: int, smoke: bool = False) -> CliOp:
    """Period of 57: command k % 7 and family k % 8 run through all 56
    pairs, then the gallery; sizes follow grid_size."""
    rng = _rng("grid-large", seed, k)
    j = k % GRID_PERIOD
    if j == GRID_PERIOD - 1:
        ladder = "16,32" if smoke else "256,1024,4096"
        return CliOp("gallery", None, 0, ["--ladder", ladder], None)
    command, family = GRID_COMMANDS[j % len(GRID_COMMANDS)], FAMILIES[j % len(FAMILIES)]
    n = 16 if smoke else grid_size(command, family, k)
    return CliOp(command, family, n, _command_args(command, rng),
                 grid_instance(family, n, rng, k))


def atoms_small_op(seed: int, k: int, smoke: bool = False) -> CliOp:
    """Every 20th op is an oracle, cycling through ORACLE_ORDER; the others
    run through all (command, family) pairs on 2 and 3 atoms, plus one
    gallery and one op that must fail with exit code 2 per 66."""
    rng = _rng("atoms-small", seed, k)
    if k % SMALL_ORACLE_EVERY == SMALL_ORACLE_EVERY - 1:
        family, n = ORACLE_ORDER[(k // SMALL_ORACLE_EVERY) % len(ORACLE_ORDER)]
        res = 20 if smoke else ORACLE_RESOLUTION[n]
        return CliOp("oracle", family, n, ["--function", "u", "--resolution", str(res)],
                     small_instance(family, n, rng, k))
    s = k - k // SMALL_ORACLE_EVERY  # index among the short ops
    j, period = s % SMALL_PERIOD, s // SMALL_PERIOD
    if j == SMALL_PERIOD - 2:
        return CliOp("gallery", None, 0, ["--ladder", "16,32"], None)
    if j == SMALL_PERIOD - 1 and period % 2 == 0:
        return CliOp("missing-function", "power", 2, ["--function", "absent"],
                     small_instance("power", 2, rng, k), command="norm", expect=2)
    if j == SMALL_PERIOD - 1:
        # the oracles refuse more than 4 atoms: an input error, exit 2
        return CliOp("oracle-too-large", "power", 5, ["--function", "u", "--resolution", "8"],
                     small_instance("power", 5, rng, k), command="oracle", expect=2)
    command = SMALL_COMMANDS[j % 8]
    family = FAMILIES[(j + j // 8) % 8]
    n = (2, 3)[(j // 8 + period) % 2]
    return CliOp(command, family, n, _command_args(command, rng),
                 small_instance(family, n, rng, k))


CLI_OPS = {"grid-large": grid_large_op, "atoms-small": atoms_small_op}


#: the fixed instance of the layer probe: power p = 2 on two atoms
PROBE_INSTANCE = {
    "space": {"atoms": [{"t": 0.25, "w": 0.5}, {"t": 0.75, "w": 0.5}]},
    "phi": {"family": "power", "p": 2.0},
    "functions": {"u": [1.0, 2.0], "v": [0.5, -0.5]},
}


def layer_probe_ops() -> list[CliOp]:
    """One small CLI call into every layer the CLI reaches, on a fixed
    instance.  Traced passes run it after the workload's ops, so every
    per-layer metric is measured on every workload, even one (like sweep)
    whose own ops never reach the CLI, the oracles or the gallery."""
    calls = [
        ("norm", ["--function", "u"]),
        ("support", ["--function", "u"]),
        ("smooth-point", ["--function", "u"]),
        ("smooth-space", []),
        ("dual", ["--density", "v", "--singular", "0.25"]),
        ("gap", ["--delta", "0.5"]),
        ("delta2", ["--K", repr(DELTA2_K)]),
        ("conjugate", ["--atom", "0", "--v-max", "2.0", "--points", "5"]),
        ("oracle", ["--function", "u", "--resolution", "8"]),
    ]
    ops = [CliOp(cmd, "power", 2, args, PROBE_INSTANCE) for cmd, args in calls]
    return ops + [CliOp("gallery", None, 0, ["--ladder", "8"], None)]


def setup_instances(workload: str, seed: int, smoke: bool = False) -> list[dict]:
    """The instance files a one-shot user of the workload parses: one per
    family, taken from the workload's first ops.  None for ``sweep``."""
    if workload == "sweep":
        return []
    make = CLI_OPS[workload]
    found: dict[str, dict] = {}
    k = 0
    while len(found) < len(FAMILIES):
        op = make(seed, k, smoke)
        if op.instance is not None and op.expect == 0:
            found.setdefault(op.family, op.instance)
        k += 1
    return [found[f] for f in FAMILIES]


class SweepOp:
    """One library op: luxemburg_norm and orlicz_amemiya_norm on (gen, space, u)."""

    __slots__ = ("family", "truncated", "atoms", "gen", "space", "u", "p", "weights", "values")

    def __init__(self, family, truncated, gen, space, u, p, weights, values):
        self.family = family
        self.truncated = truncated
        self.atoms = len(values)
        self.gen = gen
        self.space = space
        self.u = u
        self.p = p
        self.weights = weights
        self.values = values


def _sweep_generator(m, family: str, space, rng: random.Random, variant: int):
    """Build a generator object from the public constructors of module m."""
    spec = phi_spec(family, len(space), rng, variant)
    if family == "power":
        return m.PowerGenerator(spec["p"])
    if family == "varexp":
        return m.VariableExponentGenerator.from_values(space, spec["p_values"])
    if family == "expminusone":
        return m.ExpMinusOneGenerator()
    if family == "xlogx":
        return m.XLogXGenerator()
    if family == "linear":
        return m.LinearGenerator(spec["slope"])
    if family == "indicator":
        return m.IndicatorGenerator(spec["c"])
    pieces = tuple(m.Piece(p["width"], p["jump"], p["slope"]) for p in spec["pieces"])
    return m.PiecewiseGenerator(pieces, bounded=spec.get("bounded", False))


def sweep_op(m, seed: int, k: int) -> SweepOp:
    """Random 2-8 atom instance from every family, 15% truncated."""
    rng = _rng("sweep", seed, k)
    family, truncated = _SWEEP_ORDER[k % len(_SWEEP_ORDER)]
    n = rng.randint(2, 8)
    coords, weights = small_atoms(n, rng)
    space = m.GridMeasureSpace(tuple(coords), tuple(weights))
    gen = _sweep_generator(m, family, space, rng, k)
    if truncated:
        gen = m.truncate(gen, rng.uniform(1.0, 8.0))
    values = _values(rng, n, 2.5)
    p = gen.p if family == "power" and not truncated else None
    return SweepOp(family, truncated, gen, space, m.SimpleFunction.on(space, values), p,
                   weights, values)
