"""The package's public surface, pinned so that adding or removing a name
shows up in the diff of this file."""

import jetlaw

PUBLIC = [
    "CanonicalCurrent", "Characteristic", "Config", "ConfigError", "Current",
    "Expr", "Fn", "Frame", "FrameMismatchError", "Jet", "LIGHTCONE",
    "NotConservedError", "ParseError", "PrincipalDerivativeError", "Rectangle",
    "SPACETIME", "Solution", "SolutionFormatError", "Sym",
    "TrivialWitness", "UnsupportedExpressionError", "UnsupportedIntegrandError",
    "ZeroVerdict", "as_expr", "characteristic", "characteristic_canonical",
    "characteristic_to_lightcone", "characteristic_to_spacetime",
    "characteristic_with_remainder", "check_characteristic_numeric",
    "check_conservation", "check_frame", "config", "conservation",
    "current_to_lightcone", "current_to_spacetime", "diff_partial", "divergence",
    "equation_expression", "euler_operator", "eval_jet", "evaluate_float", "expr", "fn_apply",
    "integrate_univar", "is_characteristic", "is_trivial", "is_zero", "jets",
    "normalize_current", "oracle", "parse", "parse_solution",
    "reduce_to_solutions", "restricted_derivative", "spacetime_remainder",
    "substitute", "substitute_to_lightcone", "substitute_to_spacetime",
    "total_derivative", "transform", "trivial_witness", "verify_current",
    "zero_verdict",
]


def test_public_api_is_pinned():
    assert sorted(jetlaw.__all__) == PUBLIC


def test_public_names_resolve():
    for name in PUBLIC:
        assert getattr(jetlaw, name) is not None
