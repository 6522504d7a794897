"""Exact conservation-law calculus for the 1+1D wave equation.

Expressions are polynomials with rational coefficients in frame symbols,
jet coordinates and transcendental factors, canonicalized on construction.
Characteristics and triviality are answered in either frame, light-cone
(xi, eta; w) or space-time (t, x; u); canonical currents and triviality
witnesses live in the light-cone frame, and exact transforms link the two.
A floating-point oracle cross-checks conservation on closed-form solutions.
"""

from importlib import import_module as _import_module

from .expr import (
    Expr,
    Fn,
    Jet,
    ParseError,
    Sym,
    UnsupportedExpressionError,
    UnsupportedIntegrandError,
    ZeroVerdict,
    as_expr,
    diff_partial,
    evaluate_float,
    fn_apply,
    integrate_univar,
    is_zero,
    parse,
    substitute,
    zero_verdict,
)
from .jets import (
    LIGHTCONE,
    SPACETIME,
    Frame,
    FrameMismatchError,
    PrincipalDerivativeError,
    check_frame,
    equation_expression,
    euler_operator,
    reduce_to_solutions,
    restricted_derivative,
    total_derivative,
)
from .conservation import (
    CanonicalCurrent,
    Characteristic,
    Current,
    NotConservedError,
    TrivialWitness,
    characteristic,
    characteristic_canonical,
    characteristic_with_remainder,
    divergence,
    is_characteristic,
    is_trivial,
    normalize_current,
    spacetime_remainder,
    trivial_witness,
    verify_current,
)
from .config import Config, ConfigError

# transform and oracle are loaded on first use (PEP 562): most commands
# need neither, and a CLI process pays for every module it imports
_LAZY = {
    "transform": (
        "characteristic_to_lightcone",
        "characteristic_to_spacetime",
        "current_to_lightcone",
        "current_to_spacetime",
        "substitute_to_lightcone",
        "substitute_to_spacetime",
    ),
    "oracle": (
        "Rectangle",
        "Solution",
        "SolutionFormatError",
        "check_characteristic_numeric",
        "check_conservation",
        "eval_jet",
        "parse_solution",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted({name for name in dir() if not name.startswith("_")} | set(_HOME) | set(_LAZY))


def __getattr__(name):
    # never cached in this namespace: each read sees the module's binding as
    # it is then, which a tracer may wrap and later restore
    module = _HOME.get(name, name if name in _LAZY else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = _import_module(f"{__name__}.{module}")  # binds the module's name here
    return home if module == name else getattr(home, name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
