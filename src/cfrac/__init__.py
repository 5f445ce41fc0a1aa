"""Continued-fraction evaluation of sec(x)+tan(x) and x*cot(x).

Floating-point evaluators (backward recurrence with optional tail, forward
three-term recurrence, modified Lentz, adaptive depth control) over generic
term streams, the two concrete expansions, and an exact rational layer that
machine-verifies each algebraic step relating them.
"""

from .core import (
    DEFAULT_MAX_DEPTH,
    POLE_THRESHOLD,
    TINY_GUARD,
    CfSpec,
    DivisionNearZero,
    EvalReport,
    NoConvergence,
    PolyTerm,
    TermPair,
    eval_adaptive,
    eval_backward,
    eval_forward,
    eval_lentz,
    poly,
    relative_difference,
    term_at,
)
from .exact import (
    MAX_EXACT_DEPTH,
    DegenerateConvergent,
    DivisionByZeroFunction,
    Poly,
    PoleAtOrigin,
    RatFunc,
    alternating_count,
    convergent_exact,
    poly_gcd,
    series_from_ratfunc,
    verify_flattening,
    verify_halving_rewrite,
    verify_offset_rewrite,
    verify_pairing,
    verify_series,
    zigzag,
)
from .expansions import (
    halved_value,
    offset_value,
    paired_value,
    sec_tan,
    sec_tan_spec,
    xcot_spec,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_MAX_DEPTH",
    "MAX_EXACT_DEPTH",
    "POLE_THRESHOLD",
    "TINY_GUARD",
    "CfSpec",
    "DegenerateConvergent",
    "DivisionByZeroFunction",
    "DivisionNearZero",
    "EvalReport",
    "NoConvergence",
    "Poly",
    "PoleAtOrigin",
    "PolyTerm",
    "RatFunc",
    "TermPair",
    "alternating_count",
    "convergent_exact",
    "eval_adaptive",
    "eval_backward",
    "eval_forward",
    "eval_lentz",
    "halved_value",
    "offset_value",
    "paired_value",
    "poly",
    "poly_gcd",
    "relative_difference",
    "sec_tan",
    "sec_tan_spec",
    "series_from_ratfunc",
    "term_at",
    "verify_flattening",
    "verify_halving_rewrite",
    "verify_offset_rewrite",
    "verify_pairing",
    "verify_series",
    "xcot_spec",
    "zigzag",
]
