"""Instance files: a measure space, a generator, and named functions.

JSON schema:

    {
      "space": {"atoms": [{"t": 0.25, "w": 0.5}, ...]},
      "phi": {"family": "power", "p": 2.0},
      "functions": {"u1": [1.0, 2.0], ...}
    }

Families: power {p}, varexp {p_values, [c_values]}, expminusone, xlogx,
linear {[slope]}, indicator {c}, plq {pieces: [{[width], jump, slope}, ...],
[bounded]}.  Any family also takes an optional "truncate": n > 0, which caps
its derivative at n (truncate(phi, n)).  Per-atom parameter arrays must match
the atom count.  Every number must be finite: NaN and Infinity, which JSON
parsers accept, are input errors, and so are parameters a family's
constructor rejects.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import InstanceError
from .generators import (
    ExpMinusOneGenerator,
    IndicatorGenerator,
    LinearGenerator,
    OrliczGenerator,
    Piece,
    PiecewiseGenerator,
    PowerGenerator,
    VariableExponentGenerator,
    XLogXGenerator,
    truncate,
)
from .space import GridMeasureSpace, SimpleFunction

# the interpreter's own SHA-256 gives the same digest as hashlib's without
# loading OpenSSL (about 3.4 MB of resident memory and a few milliseconds of
# import per CLI call); hashlib only where neither module exists
try:
    from _sha256 import sha256  # CPython 3.10 and 3.11
except ImportError:
    try:
        from _sha2 import sha256  # CPython 3.12 and later
    except ImportError:
        from hashlib import sha256

__all__ = ["Instance", "parse_instance", "build_generator", "instance_digest"]


@dataclass(frozen=True)
class Instance:
    space: GridMeasureSpace
    phi: OrliczGenerator
    functions: dict[str, SimpleFunction]
    digest: str


def _finite(value, what: str) -> float:
    """float(value), rejecting NaN, the infinities json.loads accepts and
    integers past the float range."""
    try:
        x = float(value)
    except OverflowError as exc:
        raise InstanceError(f"{what} is an integer past the float range") from exc
    except (TypeError, ValueError) as exc:
        raise InstanceError(f"{what} must be a number, got {value!r}") from exc
    if not math.isfinite(x):
        raise InstanceError(f"{what} must be finite, got {value!r}")
    return x


def _finite_list(values, what: str) -> list[float]:
    """[float(v) for v in values], all finite; the per-entry check runs only
    to name the first bad entry."""
    try:
        xs = list(map(float, values))
    except (TypeError, ValueError, OverflowError):
        xs = None
    if xs is None or not all(map(math.isfinite, xs)):
        return [_finite(v, f"{what}[{i}]") for i, v in enumerate(values)]
    return xs


def build_generator(spec: dict, space: GridMeasureSpace) -> OrliczGenerator:
    if not isinstance(spec, dict) or "family" not in spec:
        raise InstanceError("phi must be an object with a 'family' field")
    gen = _family_generator(spec, space)
    if spec.get("truncate") is None:
        return gen
    n = _finite(spec["truncate"], "truncate")
    if not n > 0:
        raise InstanceError(f"truncate must be > 0, got {n}")
    return truncate(gen, n)


def _family_generator(spec: dict, space: GridMeasureSpace) -> OrliczGenerator:
    family = spec["family"]
    try:
        if family == "power":
            return PowerGenerator(_finite(spec["p"], "p"))
        if family == "varexp":
            p_values = spec["p_values"]
            if len(p_values) != len(space):
                raise InstanceError(
                    f"p_values has {len(p_values)} entries for {len(space)} atoms"
                )
            c_values = spec.get("c_values")
            if c_values is not None and len(c_values) != len(space):
                raise InstanceError(
                    f"c_values has {len(c_values)} entries for {len(space)} atoms"
                )
            if c_values is not None:
                c_values = _finite_list(c_values, "c_values")
            return VariableExponentGenerator.from_values(
                space, _finite_list(p_values, "p_values"), c_values
            )
        if family == "expminusone":
            return ExpMinusOneGenerator()
        if family == "xlogx":
            return XLogXGenerator()
        if family == "linear":
            return LinearGenerator(_finite(spec.get("slope", 1.0), "slope"))
        if family == "indicator":
            return IndicatorGenerator(_finite(spec["c"], "c"))
        if family == "plq":
            pieces = tuple(
                Piece(
                    None if p.get("width") is None else _finite(p["width"], f"pieces[{i}].width"),
                    _finite(p.get("jump", 0.0), f"pieces[{i}].jump"),
                    _finite(p.get("slope", 0.0), f"pieces[{i}].slope"),
                )
                for i, p in enumerate(spec["pieces"])
            )
            return PiecewiseGenerator(pieces, bounded=bool(spec.get("bounded", False)))
    except InstanceError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InstanceError(f"invalid parameters for family '{family}': {exc}") from exc
    raise InstanceError(f"unknown generator family '{family}'")


#: the canonical text of a parsed instance: the encoder json.dumps builds
#: for these arguments on every call, built once
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def instance_digest(raw: dict) -> str:
    return sha256(_canonical(raw).encode()).hexdigest()[:16]


def _read_text(path: str | Path) -> str:
    """The file's text in the locale encoding, as Path.read_text reads it.

    A plain open() reads a valid path; only when it fails is the path read
    once more through pathlib, which takes "" for "." and drops a trailing
    slash, so that every message names the path as pathlib prints it."""
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError):
        pass
    path = Path(path)
    try:
        return path.read_text()
    except FileNotFoundError as exc:
        raise InstanceError(f"instance file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        # a directory, an unreadable file, bytes that are not text
        raise InstanceError(f"cannot read instance file {path}: {exc}") from exc


def parse_instance(path: str | Path) -> Instance:
    """Read and build an instance; raises InstanceError with the offending
    atom or field on any problem.  The family constructors check the
    generator parameters exactly; nothing is re-checked by sampling."""
    text = _read_text(path)
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"malformed JSON in {Path(path)}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # an integer literal longer than the interpreter's digit limit, or
        # arrays nested deeper than its recursion limit
        raise InstanceError(f"cannot decode JSON in {Path(path)}: {exc}") from exc

    try:
        atoms = raw["space"]["atoms"]
    except (KeyError, TypeError) as exc:
        raise InstanceError("instance needs space.atoms") from exc
    if not isinstance(atoms, list):
        raise InstanceError("space.atoms must be a list")
    coords, weights = [], []
    for i, atom in enumerate(atoms):
        try:
            t, w = atom["t"], atom["w"]
        except (KeyError, TypeError) as exc:
            raise InstanceError(f"atom {i}: needs numeric 't' and 'w'") from exc
        coords.append(_finite(t, f"atom {i}: t"))
        weights.append(_finite(w, f"atom {i}: w"))
    try:
        space = GridMeasureSpace(tuple(coords), tuple(weights))
    except ValueError as exc:
        raise InstanceError(str(exc)) from exc

    gen = build_generator(raw.get("phi", {}), space)

    raw_functions = raw.get("functions") or {}
    if not isinstance(raw_functions, dict):
        raise InstanceError("functions must be an object of named value lists")
    functions: dict[str, SimpleFunction] = {}
    for name, values in raw_functions.items():
        if not isinstance(values, list):
            raise InstanceError(f"function '{name}' must be a list of numbers, got {values!r}")
        if len(values) != len(space):
            raise InstanceError(
                f"function '{name}' has {len(values)} values for {len(space)} atoms"
            )
        functions[name] = SimpleFunction(space, tuple(_finite_list(values, f"function '{name}'")))

    return Instance(space, gen, functions, instance_digest(raw))
