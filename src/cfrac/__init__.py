"""Continued-fraction evaluation of sec(x)+tan(x) and x*cot(x).

Floating-point evaluators (backward recurrence with optional tail, forward
three-term recurrence, modified Lentz, adaptive depth control) over generic
term streams, the two concrete expansions, and an exact rational layer that
machine-verifies each algebraic step relating them.

``import cfrac`` loads only ``core`` and ``expansions``.  The exact layer,
``cfrac.exact``, is loaded the first time it or one of its names is used
(a module ``__getattr__``), so evaluating a value never compiles it.
"""

from importlib import import_module

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


def __getattr__(name: str):
    """``cfrac.exact``, and each name of ``__all__`` it defines, loaded on first use."""
    if name != "exact" and name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    exact = import_module(".exact", __name__)  # also binds cfrac.exact
    if name == "exact":
        return exact
    value = globals()[name] = getattr(exact, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, "exact"})


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
    "verify_flattening",
    "verify_halving_rewrite",
    "verify_offset_rewrite",
    "verify_pairing",
    "verify_series",
    "xcot_spec",
    "zigzag",
]
