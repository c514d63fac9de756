"""In-memory spans and counts around the public entry points of each monorm
module, installed from outside the package by rebinding names.

Every binding of a traced function is replaced, not only the one in its
defining module: ``cli``, ``duality`` and ``geometry`` import names with
``from .norms import ...``, and a patch of ``monorm.norms`` alone would miss
those calls.  Targets are looked up by public name; a name that no longer
exists is skipped and its metrics read 0.

Spans are kept for entry points; hot leaves (``phi``, the one-sided
derivatives, ``ExtReal`` and ``SimpleFunction`` construction) are counts
only.  A span's self time is its duration minus the time its child spans
cover; counted leaves have no span, so their time is part of the self time
of the span that called them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

#: (layer, module, attribute): spans around module-level entry points
SPAN_TARGETS = (
    ("cli", "monorm.cli", "run"),
    ("instance", "monorm.instance", "parse_instance"),
    ("jsonio", "monorm.jsonio", "to_json"),
    ("generators", "monorm.generators", "modular"),
    ("generators", "monorm.generators", "validate_generator"),
    ("solvers", "monorm.solvers", "monotone_boundary"),
    ("solvers", "monorm.solvers", "golden_max"),
    ("solvers", "monorm.solvers", "monotone_cap"),
    ("norms", "monorm.norms", "luxemburg_norm"),
    ("norms", "monorm.norms", "k_interval"),
    ("norms", "monorm.norms", "derivative_modular"),
    ("norms", "monorm.norms", "orlicz_amemiya_norm"),
    ("norms", "monorm.norms", "theta"),
    ("norms", "monorm.norms", "delta2_check"),
    ("conjugate", "monorm.conjugate", "conjugate"),
    ("duality", "monorm.duality", "luxemburg_norm_bruteforce"),
    ("duality", "monorm.duality", "orlicz_norm_bruteforce"),
    ("duality", "monorm.duality", "dual_functional_norm"),
    ("geometry", "monorm.geometry", "construct_support_functional"),
    ("geometry", "monorm.geometry", "verify_support_functional"),
    ("geometry", "monorm.geometry", "classify_smooth_point"),
    ("geometry", "monorm.geometry", "check_space_smoothness"),
    ("geometry", "monorm.geometry", "smoothness_gap_function"),
    ("gallery", "monorm.gallery", "gallery_report"),
)

#: generator methods counted per class; NumericConjugate calls also get a span
GENERATOR_METHODS = ("phi", "phi_ext", "left_deriv", "right_deriv")

#: constructors counted through __post_init__: (metric, module, class)
CONSTRUCTOR_TARGETS = (
    ("extreal.objects", "monorm.extreal", "ExtReal"),
    ("space.function_objects", "monorm.space", "SimpleFunction"),
)

#: solver entry points whose first argument is the evaluated callable
SOLVERS = ("monotone_boundary", "golden_max", "monotone_cap")

LAYERS = (
    "cli", "instance", "jsonio", "generators", "extreal", "space", "solvers",
    "norms", "conjugate", "duality", "geometry", "gallery",
)

_BRUTEFORCE = ("duality.luxemburg_norm_bruteforce", "duality.orlicz_norm_bruteforce")
_INNER_NORMS = ("norms.luxemburg_norm", "norms.orlicz_amemiya_norm")
_NUMERIC_SPAN = "conjugate.numeric_eval"


class Tracer:
    """Collects spans and counts for one traced pass.

    A span record is (name, parent index, op index, start, end); the root
    spans of an op share its op index.  Aggregates (calls, self time,
    outermost inclusive time) are kept as spans close.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op = -1
        self._stack: list[list] = []  # [record index, start, child time, name, parent]
        self._open: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.by_class: dict[tuple[str, str], int] = defaultdict(int)
        self.lux_phi = 0
        self.lux_atoms = 0

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        frame = [index, time.perf_counter(), 0.0, name, parent]
        self._stack.append(frame)
        self._open[name] += 1
        self.calls[name] += 1
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        index, start, child, name, parent = frame
        self._stack.pop()
        self._open[name] -= 1
        dur = end - start
        self.spans[index] = (name, parent, self.op, start, end)
        self.self_s[name] += dur - child
        if self._open[name] == 0:
            self.incl_s[name] += dur
        if self._stack:
            self._stack[-1][2] += dur

    def span(self, name: str, fn, *args, **kwargs):
        frame = self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(frame)

    def inside(self, name: str) -> bool:
        return self._open[name] > 0

    def method_calls(self, *meths: str) -> int:
        """Calls of the given generator methods, over all classes."""
        return sum(n for (_, meth), n in self.by_class.items() if meth in meths)

    def write(self, path: str) -> None:
        """Write one JSON array per span: name, parent index (-1 for a
        root), op index (-1 for the probe), start and end in seconds."""
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def _modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "monorm" or name.startswith("monorm."))]


def _rebind(orig, wrapper) -> None:
    """Replace every module-level binding of orig inside monorm."""
    for mod in _modules():
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapper)


def _resolve(module: str, attr: str):
    mod = sys.modules.get(module)
    return None if mod is None else getattr(mod, attr, None)


def _counting_callable(tracer: Tracer, key: str, fn):
    def counted(*args, **kwargs):
        tracer.counts[key] += 1
        return fn(*args, **kwargs)
    return counted


def _span_wrapper(tracer: Tracer, layer: str, attr: str, orig):
    name = f"{layer}.{attr}"

    if attr in SOLVERS:
        evals = f"solvers.{attr}.evals"

        @functools.wraps(orig)
        def solver(fn, *args, **kwargs):
            return tracer.span(name, orig, _counting_callable(tracer, evals, fn), *args, **kwargs)
        return solver

    if name in _INNER_NORMS:
        @functools.wraps(orig)
        def norm(gen, space, u, *args, **kwargs):
            if any(tracer.inside(b) for b in _BRUTEFORCE):
                tracer.counts["duality.inner_norm_calls"] += 1
            if name != "norms.luxemburg_norm":
                return tracer.span(name, orig, gen, space, u, *args, **kwargs)
            before = tracer.method_calls("phi")
            try:
                return tracer.span(name, orig, gen, space, u, *args, **kwargs)
            finally:
                tracer.lux_phi += tracer.method_calls("phi") - before
                tracer.lux_atoms += len(space.coords)
        return norm

    if name == "generators.modular":
        @functools.wraps(orig)
        def modular(gen, space, u, *args, **kwargs):
            tracer.counts["generators.modular_atoms"] += len(space.coords)
            return tracer.span(name, orig, gen, space, u, *args, **kwargs)
        return modular

    if name == "jsonio.to_json":
        @functools.wraps(orig)
        def to_json(*args, **kwargs):
            out = tracer.span(name, orig, *args, **kwargs)
            tracer.counts["jsonio.bytes"] += len(out)
            return out
        return to_json

    @functools.wraps(orig)
    def spanned(*args, **kwargs):
        return tracer.span(name, orig, *args, **kwargs)
    return spanned


def _method_wrapper(tracer: Tracer, meth: str, orig, numeric_cls):
    by_class = tracer.by_class

    def wrapped(self, *args):
        cls = type(self)
        by_class[(cls.__name__, meth)] += 1
        if cls is numeric_cls:
            return tracer.span(_NUMERIC_SPAN, orig, self, *args)
        return orig(self, *args)
    wrapped.__name__ = meth
    return wrapped


def install(tracer: Tracer) -> list[str]:
    """Instrument every loaded monorm module; returns the names not found."""
    missing = []
    for layer, module, attr in SPAN_TARGETS:
        orig = _resolve(module, attr)
        if orig is None:
            missing.append(f"{module}.{attr}")
            continue
        _rebind(orig, _span_wrapper(tracer, layer, attr, orig))

    base = _resolve("monorm.generators", "OrliczGenerator")
    numeric_cls = _resolve("monorm.conjugate", "NumericConjugate")
    for meth in GENERATOR_METHODS:
        orig = None if base is None else base.__dict__.get(meth)
        if orig is None:
            missing.append(f"monorm.generators.OrliczGenerator.{meth}")
            continue
        setattr(base, meth, _method_wrapper(tracer, meth, orig, numeric_cls))

    for key, module, cls_name in CONSTRUCTOR_TARGETS:
        cls = _resolve(module, cls_name)
        post = None if cls is None else cls.__dict__.get("__post_init__")
        if post is None:
            missing.append(f"{module}.{cls_name}.__post_init__")
            continue

        def counted_post(self, _orig=post, _key=key):
            tracer.counts[_key] += 1
            _orig(self)
        cls.__post_init__ = counted_post
    return missing


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass (times in seconds)."""
    t, c = tracer, tracer.counts
    boundary_calls = t.calls["solvers.monotone_boundary"]
    boundary_evals = c["solvers.monotone_boundary.evals"]
    numeric = sum(n for (cls, _), n in t.by_class.items() if cls == "NumericConjugate")
    out = {
        "cli.self_s": t.self_s["cli.run"],
        "instance.parse_s": t.incl_s["instance.parse_instance"],
        "instance.parse_calls": t.calls["instance.parse_instance"],
        "jsonio.to_json_s": t.incl_s["jsonio.to_json"],
        "jsonio.bytes": c["jsonio.bytes"],
        "generators.phi_calls": t.method_calls("phi"),
        "generators.phi_ext_calls": t.method_calls("phi_ext"),
        "generators.deriv_calls": t.method_calls("left_deriv", "right_deriv"),
        "generators.right_deriv_calls": t.method_calls("right_deriv"),
        "generators.modular_calls": t.calls["generators.modular"],
        "generators.modular_atoms": c["generators.modular_atoms"],
        "generators.modular_s": t.incl_s["generators.modular"],
        "generators.validate_s": t.incl_s["generators.validate_generator"],
        "extreal.objects": c["extreal.objects"],
        "space.function_objects": c["space.function_objects"],
        "solvers.boundary_calls": boundary_calls,
        "solvers.boundary_evals": boundary_evals,
        "solvers.evals_per_solve": boundary_evals / boundary_calls if boundary_calls else 0.0,
        "solvers.golden_calls": t.calls["solvers.golden_max"],
        "solvers.golden_evals": c["solvers.golden_max.evals"],
        "solvers.cap_calls": t.calls["solvers.monotone_cap"],
        "solvers.cap_evals": c["solvers.monotone_cap.evals"],
        "norms.luxemburg_calls": t.calls["norms.luxemburg_norm"],
        "norms.luxemburg_s": t.incl_s["norms.luxemburg_norm"],
        "norms.k_interval_s": t.incl_s["norms.k_interval"],
        "norms.orlicz_calls": t.calls["norms.orlicz_amemiya_norm"],
        "norms.orlicz_s": t.incl_s["norms.orlicz_amemiya_norm"],
        "norms.derivative_modular_calls": t.calls["norms.derivative_modular"],
        "norms.phi_per_luxemburg_atom": t.lux_phi / t.lux_atoms if t.lux_atoms else 0.0,
        "conjugate.numeric_evals": numeric,
        "conjugate.numeric_s": t.incl_s[_NUMERIC_SPAN],
        "duality.luxemburg_bf_s": t.incl_s["duality.luxemburg_norm_bruteforce"],
        "duality.orlicz_bf_s": t.incl_s["duality.orlicz_norm_bruteforce"],
        "duality.inner_norm_calls": c["duality.inner_norm_calls"],
        "duality.dual_norm_s": t.incl_s["duality.dual_functional_norm"],
        "geometry.support_s": t.incl_s["geometry.construct_support_functional"],
        "geometry.verify_s": t.incl_s["geometry.verify_support_functional"],
        "geometry.smooth_point_s": t.incl_s["geometry.classify_smooth_point"],
        "geometry.smooth_space_s": t.incl_s["geometry.check_space_smoothness"],
        "geometry.gap_s": t.incl_s["geometry.smoothness_gap_function"],
        "gallery.report_s": t.incl_s["gallery.gallery_report"],
    }
    for layer in LAYERS:
        if layer in ("extreal", "space"):
            continue  # counted only: their time is in their callers' self time
        out[f"{layer}.self_s"] = sum(
            s for name, s in t.self_s.items() if name.split(".", 1)[0] == layer
        )
    return out
