"""Command-line interface: instance ingestion, subcommand dispatch, and
deterministic JSON reports.

`COMMANDS` is the grammar.  A valid line in the plain form is read straight
from it (`_read_line`); argparse is imported, and the parsers are built from
the same table, only for any other line, so the usage, help and error texts
are argparse's own.

Exit codes: 0 success, 2 input or validation error, 3 numerical failure (a
bracket that leaves float range or a result that fails its own check, so
scripts can tell input problems from numerical ones), 141 when the reader of
stdout closes the pipe early.
"""

from __future__ import annotations

import math
import os
import sys
import time
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .conjugate import conjugate
from .duality import (
    DualDensity,
    dual_functional_norm,
    luxemburg_norm_bruteforce,
    orlicz_norm_bruteforce,
)
from .errors import BracketError, MonormError, PostconditionError
from .gallery import gallery_report
from .geometry import (
    check_space_smoothness,
    classify_smooth_point,
    construct_support_functional,
    smoothness_gap_function,
)
from .instance import Instance, parse_instance
from .jsonio import jsonable, to_json
from .norms import KSetNonEmpty, delta2_check, luxemburg_norm, orlicz_amemiya_norm, theta

if TYPE_CHECKING:
    import argparse

__all__ = ["run", "main"]


def _function(inst: Instance, name: str):
    try:
        return inst.functions[name]
    except KeyError:
        raise MonormError(
            f"instance has no function '{name}' (available: {sorted(inst.functions)})"
        ) from None


def _norm_entry(inst: Instance, name: str, which: str) -> dict:
    """The `norm` report of one function, computing only what `which` keeps:
    the Luxemburg norm alone, or the Orlicz (Amemiya) norm with K(u), or
    both and theta for "all"."""
    u = _function(inst, name)
    entry = {}
    if which in ("luxemburg", "all"):
        entry["luxemburg"] = luxemburg_norm(inst.phi, inst.space, u)
    if which == "luxemburg":
        return entry
    orl, ks = orlicz_amemiya_norm(inst.phi, inst.space, u)
    for key in ("orlicz", "amemiya"):
        if which in (key, "all"):
            entry[key] = orl
    nonempty = isinstance(ks, KSetNonEmpty)
    entry["degenerate"] = ks.is_degenerate
    entry["k_star"] = ks.k_star if nonempty else None
    entry["k_double_star"] = ks.k_double_star if nonempty else None
    if which == "all":
        entry["theta"] = theta(inst.phi, inst.space, u)
    return entry


def _cmd_norm(args, inst: Instance) -> dict:
    names = sorted(inst.functions) if args.function == "all" else [args.function]
    return {"functions": {name: _norm_entry(inst, name, args.which) for name in names}}


def _cmd_conjugate(args, inst: Instance) -> dict:
    if not 0 <= args.atom < len(inst.space):
        raise MonormError(f"atom index {args.atom} out of range")
    t = inst.space.coords[args.atom]
    conj = conjugate(inst.phi)
    table = []
    for j in range(args.points):
        v = args.v_max * j / max(1, args.points - 1)
        table.append({"v": v, "phi_star": conj.phi(t, v)})
    return {
        "atom": args.atom,
        "t": t,
        "zero_bound": conj.zero_bound(t),
        "finite_bound": conj.finite_bound(t),
        "table": table,
    }


def _cmd_dual(args, inst: Instance) -> dict:
    v = _function(inst, args.density)
    d = DualDensity(v, args.singular)
    return {
        "density": args.density,
        "singular": args.singular,
        "norm": dual_functional_norm(inst.phi, inst.space, d),
    }


def _cmd_oracle(args, inst: Instance) -> dict:
    u = _function(inst, args.function)
    orl_bf = orlicz_norm_bruteforce(inst.phi, inst.space, u, args.resolution)
    lux_bf = luxemburg_norm_bruteforce(inst.phi, inst.space, u, args.resolution)
    lux = luxemburg_norm(inst.phi, inst.space, u)
    orl, _ = orlicz_amemiya_norm(inst.phi, inst.space, u)
    return {
        "function": args.function,
        "resolution": args.resolution,
        "orlicz": orl,
        "orlicz_bruteforce": orl_bf,
        "orlicz_gap": orl - orl_bf,
        "luxemburg": lux,
        "luxemburg_bruteforce": lux_bf,
        "luxemburg_gap": lux - lux_bf,
    }


def _cmd_support(args, inst: Instance) -> dict:
    u = _function(inst, args.function)
    sf = construct_support_functional(inst.phi, inst.space, u)
    return {
        "function": args.function,
        "density": list(sf.density.values),
        "s_norm": sf.s_norm,
        "norm_value": sf.norm_value,
        "achieved": sf.achieved,
        "limit_construct": sf.limit_construct,
        "verified": sf.report.passed,
        "clauses": [
            {
                "name": c.name,
                "value": c.value,
                "target": c.target,
                "passed": c.passed,
                "note": c.note,
            }
            for c in sf.report.clauses
        ],
    }


def _cmd_smooth_point(args, inst: Instance) -> dict:
    u = _function(inst, args.function)
    rep = classify_smooth_point(inst.phi, inst.space, u)
    return {
        "function": args.function,
        "smooth": rep.smooth,
        "branch": rep.branch,
        "conditions": {
            k: {"value": c.value, "target": c.target, "passed": c.passed}
            for k, c in rep.conditions.items()
        },
        "witnesses": None
        if rep.witnesses is None
        else [list(w.values) for w in rep.witnesses],
        "note": rep.note,
    }


def _cmd_smooth_space(args, inst: Instance) -> dict:
    rep = check_space_smoothness(inst.phi, inst.space)
    return {
        "smooth": rep.smooth,
        "conditions": {
            "a": {"passed": rep.cond_a.passed, "name": rep.cond_a.name},
            "b": {"passed": rep.cond_b.passed, "name": rep.cond_b.name, "note": rep.cond_b.note},
            "c": {"passed": rep.cond_c.passed, "name": rep.cond_c.name},
        },
        "failing": sorted(rep.failing()),
    }


def _cmd_delta2(args, inst: Instance) -> dict:
    f = _function(inst, args.f_function) if args.f_function else args.f_const
    verdict = delta2_check(
        inst.phi, inst.space, args.K, f, u_max=args.horizon
    )
    out = {
        "K": args.K,
        "holds_on_sample": verdict.holds,
        "checked": verdict.checked,
    }
    if verdict.witness is not None:
        w = verdict.witness
        out["witness"] = {
            "t": w.t,
            "u": w.u,
            "phi_2u": w.lhs,
            "K_phi_u": w.rhs,
            "ratio": w.ratio,
        }
    return out


def _cmd_gap(args, inst: Instance) -> dict:
    prof = smoothness_gap_function(inst.phi, inst.space, args.delta)
    return {
        "delta": args.delta,
        "locations": list(prof.locations),
        "finite_mask": list(prof.finite_mask),
    }


def _cmd_gallery(args, inst: None) -> dict:
    return gallery_report(args.ladder)


def _cmd_selftest(args, inst: None) -> dict:
    from .selfcheck import run_all

    results = run_all(verbose=not args.json)
    report = {"passed": all(r.passed for r in results)}
    if args.json:
        report["criteria"] = [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ]
    return report


# argument types: argparse reports their ValueError as "invalid <name> value"
def finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


def ladder(text: str) -> tuple[int, ...]:
    values = tuple(int(x) for x in text.split(","))
    if min(values) < 1:
        raise ValueError(text)
    return values


_FUNCTION = {"--function": {"required": True}}

#: name -> (handler, help, whether it reads --instance, its other arguments as
#: flag -> add_argument keywords); every subcommand also takes --json.  Both
#: `command_parser` and `_read_line` read the keywords, so they are limited
#: to required, help, choices, default and type
COMMANDS = {
    "norm": (_cmd_norm, "Luxemburg/Orlicz/Amemiya norms and theta", True, {
        "--function": {"required": True, "help": "function name or 'all'"},
        "--which": {"choices": ["luxemburg", "orlicz", "amemiya", "all"], "default": "all"},
    }),
    "conjugate": (_cmd_conjugate, "table of conjugate values at one atom", True, {
        "--atom": {"type": int, "default": 0},
        "--v-max": {"type": finite, "default": 4.0},
        "--points": {"type": positive_int, "default": 9},
    }),
    "dual": (_cmd_dual, "norm of a dual functional (density + singular mass)", True, {
        "--density": {"required": True},
        "--singular": {"type": finite, "default": 0.0},
    }),
    "oracle": (_cmd_oracle, "brute-force dual-norm oracles vs analytic values", True, {
        **_FUNCTION,
        "--resolution": {"type": int, "default": 400},
    }),
    "support": (_cmd_support, "construct and verify a support functional", True, _FUNCTION),
    "smooth-point": (_cmd_smooth_point, "classify a smooth point", True, _FUNCTION),
    "smooth-space": (_cmd_smooth_space, "space smoothness criterion", True, {}),
    "delta2": (_cmd_delta2, "sampled doubling-condition check", True, {
        "--K": {"type": finite, "required": True},
        "--f-const": {"type": finite, "default": 0.0},
        "--f-function": {"default": None},
        "--horizon": {"type": finite, "default": 16.0},
    }),
    "gap": (_cmd_gap, "first derivative-gap location per atom", True, {
        "--delta": {"type": finite, "required": True},
    }),
    "gallery": (_cmd_gallery, "variable-exponent divergence gallery", False, {
        "--ladder": {"type": ladder, "default": "256,1024,4096"},
    }),
    "selftest": (_cmd_selftest, "run the acceptance criteria", False, {}),
}


def _render_text(report: dict, indent: int = 0) -> str:
    """The text form of a report that `jsonable` has converted."""
    lines = []
    pad = "  " * indent
    for key, value in report.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_render_text(value, indent + 1))
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(lines)


def _arguments(name: str) -> dict:
    """Every flag of subcommand `name` but --json, with its keywords:
    --instance (required) first when the row reads an instance."""
    _, _, takes_instance, arguments = COMMANDS[name]
    return {"--instance": {"required": True}, **arguments} if takes_instance else arguments


def command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of subcommand `name`, built from its COMMANDS row."""
    import argparse

    class Store(argparse.Action):
        """argparse's store, which also reads the value of `--flag=--` as
        "--" on CPython 3.10-3.12, as 3.13 does: those versions drop the
        "--" and store [], unconverted and unchecked."""

        def __call__(self, parser, namespace, values, option_string=None):
            if values == []:
                values = "--"
                if self.type is not None:
                    try:
                        values = self.type(values)
                    except (TypeError, ValueError):
                        raise argparse.ArgumentError(
                            self, f"invalid {self.type.__name__} value: '--'"
                        ) from None
                if self.choices is not None and values not in self.choices:
                    choices = ", ".join(map(repr, self.choices))
                    raise argparse.ArgumentError(
                        self, f"invalid choice: '--' (choose from {choices})"
                    )
            setattr(namespace, self.dest, values)

    parser = argparse.ArgumentParser(prog=f"monorm {name}")
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    for flag, kwargs in _arguments(name).items():
        parser.add_argument(flag, action=Store, **kwargs)
    return parser


def build_parser(command: str | None) -> argparse.ArgumentParser:
    """The top-level parser, with `command`'s parser if COMMANDS names it.

    Every name in COMMANDS is registered with its help line, so the
    top-level help and the invalid-choice error list them all, but argparse
    builds each subparser through `parser_class`, and only `command`'s is an
    ArgumentParser (from `command_parser`); the others are None.  argparse
    parses with the parser its first positional word names.  That word is
    `command` (the first word without a leading dash, as `run` picks it) or
    one with a leading dash, which no name has, so argparse rejects it as an
    invalid choice before it looks up a parser.  `run` builds this parser
    only for a command line `_read_line` cannot settle: its usage, help and
    error texts are argparse's own."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="monorm",
        description="Musielak-Orlicz norm computations on grid instances",
    )
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        parser_class=lambda **kw: (
            command_parser(command) if kw["prog"] == f"monorm {command}" else None
        ),
    )
    for name, (_, help_text, _, _) in COMMANDS.items():
        sub.add_parser(name, help=help_text)
    return parser


def _read_line(words: list[str], command: str) -> SimpleNamespace | None:
    """The namespace `command_parser(command)` gives `words`, read straight
    from the COMMANDS row, or None for a line in any other than the plain
    form: exact flag names only, a value as `--flag=value` or as the next
    word when that has no leading dash, `--json` alone.  As in argparse,
    `type` converts every given value and every string default, `choices`
    bounds every given value, and a repeated flag keeps its last value.  A
    ValueError from a type, a value outside the choices or a missing
    required flag also gives None, and argparse settles the line."""
    arguments = _arguments(command)
    args = SimpleNamespace(command=command, json=False)
    given = {}
    j = 0
    try:
        while j < len(words):
            flag, eq, value = words[j].partition("=")
            j += 1
            if flag == "--json" and not eq:
                args.json = True
                continue
            if flag not in arguments:
                return None
            if not eq:
                if j == len(words) or words[j].startswith("-"):
                    return None
                value = words[j]
                j += 1
            keywords = arguments[flag]
            if "type" in keywords:
                value = keywords["type"](value)
            if "choices" in keywords and value not in keywords["choices"]:
                return None
            given[flag] = value
        for flag, keywords in arguments.items():
            if flag in given:
                value = given[flag]
            elif keywords.get("required"):
                return None
            else:
                value = keywords.get("default")
                if isinstance(value, str) and "type" in keywords:
                    value = keywords["type"](value)
            setattr(args, flag[2:].replace("-", "_"), value)
    except ValueError:
        return None
    return args


def _is_number(word: str) -> bool:
    try:
        float(word)
    except ValueError:
        return False
    return True


def _join_negative_values(argv: list[str], flags: dict) -> list[str]:
    """Join a value with a leading dash to the flag before it (`--K -1e3`
    becomes `--K=-1e3`) when the flag is one of `flags` and the value is a
    number.  argparse reads only words like `-1` and `-.5` as negative
    numbers and takes `-1e3` or `-inf` for an option flag, which would fail
    as "expected one argument" without naming the value; joined, the value
    reaches the option's type check."""
    out: list[str] = []
    for word in argv:
        if out and out[-1] in flags and word.startswith("-") and _is_number(word):
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def _parse(argv: list[str], command: str | None) -> argparse.Namespace | SimpleNamespace:
    """`build_parser(command).parse_args(argv)`, with no parser built when
    the line starts with `command` and `_read_line` settles the rest; that
    is every valid line in the plain form.  Any other line, a first word
    that names no command among them, goes to the full parser, which
    prints argparse's usage, help or error text."""
    if command in COMMANDS and argv[0] == command:
        args = _read_line(argv[1:], command)
        if args is not None:
            return args
    return build_parser(command).parse_args(argv)


def run(argv) -> int:
    """Dispatch a command line; returns the exit code and prints the report."""
    # the top-level parser has no option that takes a value, so its first
    # positional argument is the subcommand name
    command = next((a for a in argv if not a.startswith("-")), None)
    if command in COMMANDS:
        argv = _join_negative_values(argv, COMMANDS[command][3])
    try:
        args = _parse(argv, command)
    except SystemExit as exc:
        return int(exc.code or 0)
    handler, _, takes_instance, _ = COMMANDS[args.command]
    report = {"command": args.command}
    started = time.perf_counter()
    try:
        inst = None
        if takes_instance:
            inst = parse_instance(args.instance)
            report["digest"] = inst.digest
        report.update(handler(args, inst))
        text = to_json(report) if args.json else _render_text(jsonable(report))
    except BracketError as exc:
        print(f"numerical bracket failure: {exc}", file=sys.stderr)
        return 3
    except PostconditionError as exc:
        print(f"numerical postcondition failure: {exc}", file=sys.stderr)
        return 3
    except MonormError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(text)
    if not args.json:
        elapsed = time.perf_counter() - started
        print(f"wall_time_s: {elapsed:.3f}")
    if args.command == "selftest" and not report["passed"]:
        return 1
    return 0


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away early (`monorm selftest | head -1`): point
        # stdout at devnull so the exit-time flush stays quiet, and exit
        # with the status of a process ended by SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)
