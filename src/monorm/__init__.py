"""Numerics for Musielak-Orlicz norms on discretized measure spaces.

Generator families, the modular, Legendre-Fenchel conjugation, the
Luxemburg/Orlicz/Amemiya norms with the Amemiya minimizer interval,
brute-force dual oracles, and support-functional / smoothness
classification.

`import monorm` loads only the numeric core the norms need (`errors`,
`space`, `generators`, `solvers`, `conjugate`, `norms`).  The names of
`duality`, `geometry` and `instance`, and those modules themselves,
resolve on first access (PEP 562), which imports their module once.
"""

from .space import GridMeasureSpace, SimpleFunction, pairing, sgn
from .generators import (
    CappedGenerator,
    ExpMinusOneGenerator,
    IndicatorGenerator,
    LinearGenerator,
    OrliczGenerator,
    Piece,
    PiecewiseGenerator,
    PowerGenerator,
    TruncatedGenerator,
    VariableExponentGenerator,
    XLogXGenerator,
    modular,
    subdiff,
    truncate,
)
from .conjugate import NumericConjugate, biconjugate_residual, conjugate, young_gap
from .norms import (
    KSet,
    KSetDegenerate,
    KSetNonEmpty,
    delta2_check,
    k_interval,
    luxemburg_norm,
    orlicz_amemiya_norm,
    power_norm_closed_forms,
    theta,
)

__version__ = "0.1.0"

#: name -> the submodule that defines it, imported on first access; each
#: module also resolves under its own name
_LAZY = {
    name: module
    for module, names in {
        "duality": (
            "DualDensity",
            "dual_functional_norm",
            "holder_gap",
            "luxemburg_norm_bruteforce",
            "orlicz_norm_bruteforce",
            "truncated_norm_sequence",
        ),
        "geometry": (
            "check_space_smoothness",
            "classify_smooth_point",
            "construct_support_functional",
            "smoothness_gap_function",
            "support_density_survey",
            "verify_support_functional",
        ),
        "instance": ("Instance", "parse_instance"),
    }.items()
    for name in (module, *names)
}


def __getattr__(name: str):
    """Import the submodule that `_LAZY` names for `name` and keep the
    value in the package namespace, so the next lookup is a dict hit."""
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


#: what `from monorm import *` binds: every public name, lazy ones included
__all__ = sorted({name for name in globals() if not name.startswith("_")} | _LAZY.keys())
