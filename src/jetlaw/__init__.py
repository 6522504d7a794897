"""Exact conservation-law calculus for the 1+1D wave equation.

Expressions are polynomials with rational coefficients in frame symbols,
jet coordinates and transcendental factors, canonicalized on construction.
Characteristics and triviality are answered in either frame, light-cone
(xi, eta; w) or space-time (t, x; u); canonical currents and triviality
witnesses live in the light-cone frame, and exact transforms link the two.
A floating-point oracle cross-checks conservation on closed-form solutions.
"""

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
    current_from_json,
    current_to_json,
    characteristic_from_json,
    characteristic_to_json,
    divergence,
    is_characteristic,
    is_trivial,
    normalize_current,
    spacetime_remainder,
    trivial_witness,
    verify_current,
    witness_to_json,
)
from .transform import (
    characteristic_to_lightcone,
    characteristic_to_spacetime,
    current_to_lightcone,
    current_to_spacetime,
    substitute_to_lightcone,
    substitute_to_spacetime,
)
from .oracle import (
    Rectangle,
    Solution,
    SolutionFormatError,
    check_characteristic_numeric,
    check_conservation,
    eval_jet,
    parse_solution,
)
from .config import Config, ConfigError

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
