"""Deterministic JSON emission for reports.

Numbers are printed with 17 significant digits (enough to round-trip IEEE
doubles byte-identically); math.inf, the value of an infinite modular,
bound or derivative, serializes as the string "inf" and -math.inf as
"-inf", since JSON has no infinity literal.  A NaN stands for no number, so
a report holding one is not serialized: PostconditionError names its key.
"""

from __future__ import annotations

import json
import math

from .errors import PostconditionError

__all__ = ["to_json", "jsonable"]

#: a string as a JSON literal: quotes, backslashes and control characters
#: escaped, every other character kept as it is (the function that
#: JSONEncoder(ensure_ascii=False).encode calls for a str)
_string_literal = json.encoder.encode_basestring


class _NaNLeaf(Exception):
    """A NaN met while converting a report; the caller names its key."""


def _nan_path(x) -> str | None:
    """Where the first NaN leaf of x sits, in the order to_json writes it,
    as ".key" and "[index]" steps; None when x holds no NaN."""
    if isinstance(x, float):
        return "" if math.isnan(x) else None
    if isinstance(x, dict):
        steps = ((f".{k}", x[k]) for k in sorted(x, key=str))
    elif isinstance(x, (list, tuple)):
        steps = ((f"[{j}]", v) for j, v in enumerate(x))
    else:
        return None
    for step, v in steps:
        rest = _nan_path(v)
        if rest is not None:
            return step + rest
    return None


def _nan_error(report) -> PostconditionError:
    where = _nan_path(report).removeprefix(".") or "its top level"
    return PostconditionError(f"the report holds NaN at {where}")


def _jsonable(x):
    if isinstance(x, float) and not math.isfinite(x):
        if math.isnan(x):
            raise _NaNLeaf
        return "inf" if x > 0 else "-inf"
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def jsonable(x):
    """Recursively convert report values into JSON-encodable structures:
    +-inf as "inf" and "-inf"; PostconditionError for a NaN leaf."""
    try:
        return _jsonable(x)
    except _NaNLeaf:
        raise _nan_error(x) from None


def _emit(x, out: list[str]) -> None:
    if x is None:
        out.append("null")
    elif isinstance(x, bool):
        out.append("true" if x else "false")
    elif isinstance(x, int):
        out.append(str(x))
    elif isinstance(x, float):
        if math.isfinite(x):
            out.append(f"{x:.17g}")
        elif math.isnan(x):
            raise _NaNLeaf
        else:
            out.append('"inf"' if x > 0 else '"-inf"')
    elif isinstance(x, str):
        out.append(_string_literal(x))
    elif isinstance(x, dict):
        out.append("{")
        for j, key in enumerate(sorted(x, key=str)):
            if j:
                out.append(",")
            out.append(_string_literal(str(key)))
            out.append(":")
            _emit(x[key], out)
        out.append("}")
    elif isinstance(x, (list, tuple)):
        out.append("[")
        for j, v in enumerate(x):
            if j:
                out.append(",")
            _emit(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(x).__name__}")


def to_json(obj) -> str:
    """Deterministic JSON: keys as strings in sorted order, floats with 17
    significant digits, +-math.inf as "inf" and "-inf"; one walk over
    `obj`, with no `jsonable` copy.  PostconditionError for a NaN leaf."""
    out: list[str] = []
    try:
        _emit(obj, out)
    except _NaNLeaf:
        raise _nan_error(obj) from None
    return "".join(out)
