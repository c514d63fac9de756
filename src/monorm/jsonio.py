"""Deterministic JSON emission for reports.

Numbers are printed with 17 significant digits (enough to round-trip IEEE
doubles byte-identically); math.inf, the value of an infinite modular,
bound or derivative, serializes as the string "inf" since JSON has no
infinity literal.
"""

from __future__ import annotations

import json
import math

__all__ = ["to_json", "jsonable"]

#: a string as a JSON literal: quotes, backslashes and control characters
#: escaped, every other character kept as it is (the function that
#: JSONEncoder(ensure_ascii=False).encode calls for a str)
_string_literal = json.encoder.encode_basestring


def jsonable(x):
    """Recursively convert report values into JSON-encodable structures."""
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    return x


def _emit(x, out: list[str]) -> None:
    if x is None:
        out.append("null")
    elif isinstance(x, bool):
        out.append("true" if x else "false")
    elif isinstance(x, int):
        out.append(str(x))
    elif isinstance(x, float):
        if math.isinf(x):
            out.append('"inf"')
        else:
            out.append(f"{x:.17g}")
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
    significant digits, math.inf as "inf"; one walk over `obj`, with no
    `jsonable` copy."""
    out: list[str] = []
    _emit(obj, out)
    return "".join(out)
