"""Numerics for Musielak-Orlicz norms on discretized measure spaces.

Generator families, the modular, Legendre-Fenchel conjugation, the
Luxemburg/Orlicz/Amemiya norms with the Amemiya minimizer interval,
brute-force dual oracles, and support-functional / smoothness
classification.
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
from .duality import (
    DualDensity,
    dual_functional_norm,
    holder_gap,
    luxemburg_norm_bruteforce,
    orlicz_norm_bruteforce,
    truncated_norm_sequence,
)
from .geometry import (
    check_space_smoothness,
    classify_smooth_point,
    construct_support_functional,
    smoothness_gap_function,
    support_density_survey,
    verify_support_functional,
)
from .instance import Instance, parse_instance

__version__ = "0.1.0"
