"""Expression core: canonical forms, parsing, calculus, zero testing."""

import math
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetlaw.expr import (
    Expr,
    Fn,
    Jet,
    ParseError,
    Sym,
    UnsupportedExpressionError,
    UnsupportedIntegrandError,
    _Parser,
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

T = Sym("t")
X = Sym("x")
W01 = Jet("w", 0, 1)
W10 = Jet("w", 1, 0)


# --- canonical printing -----------------------------------------------------

PRINT_CASES = [
    ("0", "0"),
    ("5", "5"),
    ("-3/4", "-3/4"),
    ("w", "w[0,0]"),
    ("t + t", "2*t"),
    ("t - t", "0"),
    ("1/2*u[1,0]^2 + 1/2*u[0,1]^2", "1/2*u[1,0]^2 + 1/2*u[0,1]^2"),
    ("u[0,1]*u[1,0]", "u[0,1]*u[1,0]"),
    ("eta - xi", "eta - xi"),
    ("t^3*x/6", "1/6*t^3*x"),
    ("-4*w[0,3]*exp(2*w[0,2])", "-4*w[0,3]*exp(2*w[0,2])"),
    ("2*w[0,1] - 2*w[1,0]", "-2*w[1,0] + 2*w[0,1]"),
    ("(t + x)^2", "x^2 + 2*t*x + t^2"),
    ("sin(-t)", "-sin(t)"),
    ("cos(-t)", "cos(t)"),
    ("exp(0)", "1"),
    ("exp(t)*exp(-t)", "1"),
    ("exp(t)^-2", "exp(-2*t)"),
    ("sin(0)", "0"),
    ("cos(0)", "1"),
]


@pytest.mark.parametrize("text,expected", PRINT_CASES)
def test_parse_print(text, expected):
    assert str(parse(text)) == expected


@pytest.mark.parametrize("text,expected", PRINT_CASES)
def test_print_parse_round_trip(text, expected):
    e = parse(text)
    assert parse(str(e)) == e


# --- parse errors -----------------------------------------------------------

ERROR_CASES = [
    "w[",
    "w[-1,0]",
    "w[0,0,0]",
    "1/0",
    "2^",
    "(t",
    "t )",
    "1//2",
    "u[1,0]/x",
    "",
    "* t",
]


@pytest.mark.parametrize("text", ERROR_CASES)
def test_parse_errors(text):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.position >= 0
    assert "position" in str(err.value)


@pytest.mark.parametrize("text,position", [("²", 0), ("w[²,0]", 2), ("2^²", 2)])
def test_non_decimal_digits_are_parse_errors(text, position):
    # str.isdigit() accepts superscripts, which int() rejects
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.position == position


@pytest.mark.parametrize("text,position", [("w²", 1), ("xi²", 2), ("w¹[0,1]", 1)])
def test_a_name_ends_before_a_superscript(text, position):
    # names are ASCII letters, digits and _; str.isalnum() also takes superscripts
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.position == position


def test_ascii_names_with_digits_and_underscores_parse():
    e = parse("w_2[0,1] + v2")
    assert e.jets() == {Jet("w_2", 0, 1), Jet("v2", 0, 0)}


@pytest.mark.parametrize("text", ["ln(-2)", "ln(0)", "ln(1 - 3/2)", "w[0,1]*ln(t - t)"])
def test_ln_of_a_non_positive_constant_is_a_parse_error(text):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert "non-positive constant" in str(err.value)


def test_ln_of_a_positive_constant():
    assert parse("ln(1)") == 0
    assert str(parse("ln(2)")) == "ln(2)"
    with pytest.raises(ValueError):
        fn_apply("ln", -1)


def test_reserved_names_cannot_be_jets():
    with pytest.raises(ParseError):
        parse("t[1,0]")
    with pytest.raises(ParseError):
        parse("exp[0,0]")


def _too_long() -> str:
    """Digits one longer than the interpreter's int-string limit."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if not limit:
        pytest.skip("this interpreter reads integer literals of any length")
    return "9" * (limit + 1)


@pytest.mark.parametrize("template, position", [
    ("{}", 0), ("{}*w[0,1]", 0), ("xi^{}", 3), ("xi^-{}", 4), ("w[{},0]", 2), ("xi/{}", 3), ("(xi + {})", 6),
])
def test_an_integer_literal_over_the_int_string_limit_is_a_parse_error(template, position):
    digits = _too_long()
    with pytest.raises(ParseError) as err:
        parse(template.format(digits))
    assert err.value.position == position
    assert f"integer literal of {len(digits)} digits is too long" in str(err.value)


# --- the one-pass reader against the recursive-descent parser ---------------
#
# parse() reads printed polynomials in one pass and hands every other text to
# _Parser.  Texts are drawn as terms of factors, from pieces that each reach
# an edge of the one-pass path: a symbol with an index and a function name
# as a jet, bare names, zero, powers 0 and -1, division by zero, a
# non-ASCII decimal digit, spaced jets, superscripts, doubled signs and
# parentheses.

# (pieces the one-pass path reads, pieces at or past its edges)
_FACTORS = (["xi", "eta", "t", "x", "w", "u2", "w[0,1]", "u[2,0]", "w [ 1 , 0 ]", "0", "1", "7", "12", "٣",
             "w[٣,0]"],
            ["exp", "t[1,0]", "exp[0,0]", "w²", "(xi + 1)", "sin(t)", "w[0,1", ""])
_POWERS = (["", "", "", "^0", "^2", " ^ 3", "^٣"], ["^-1", "^", "^2^2"])
_PRODUCTS = (["*", "*", " * ", "/2*", "/ 3 *"], ["/0*", "/", "**", " "])
_SUMS = ([" + ", " - ", "+", "-"], [" - -", " ", ""])
_LEADS = (["", "", "-", "+", " -"], ["- -", "("])
_ENDS = (["", "", "", " ", "\t"], ["+", ")", "\u3000"])


@st.composite
def parser_texts(draw):
    """Half of the texts from the readable pieces alone, half with each
    piece at or past an edge one time in four or so."""
    edges = draw(st.booleans())

    def piece(pieces):
        readable, past = pieces
        return draw(st.sampled_from(readable * 3 + past if edges else readable))

    text = piece(_LEADS)
    for k in range(draw(st.integers(1, 4))):
        if k:
            text += piece(_SUMS)
        for f in range(draw(st.integers(1, 3))):
            if f:
                text += piece(_PRODUCTS)
            text += piece(_FACTORS) + piece(_POWERS)
    return text + piece(_ENDS)


def _outcome(read, text):
    """(value, printed value), or (exception type, message)."""
    try:
        e = read(text)
    except Exception as exc:
        return type(exc), str(exc)
    return e, str(e)


def _assert_parse_agrees(text):
    assert _outcome(parse, text) == _outcome(lambda t: _Parser(t).parse(), text)


@given(parser_texts())
@settings(max_examples=500, deadline=None)
def test_parse_agrees_with_the_recursive_descent_parser(text):
    _assert_parse_agrees(text)


@pytest.mark.parametrize("text", [
    "2*t[1,0]", "exp[0,0] + xi", "w - exp", "0*xi + 0", "xi^0*w[0,1]^2", "xi^-1", "xi/0 + 1",
    "٣*w[٣,0]/٣", "w [ 1 , 0 ] - w²", "xi - -eta", "- -xi", "(xi) + eta", "xi 2*eta",
])
def test_parse_agrees_with_the_recursive_descent_parser_at_each_edge(text):
    _assert_parse_agrees(text)


def test_regex_classes_match_the_tokenizer_predicates():
    # the one-pass patterns use \s and \d where the tokenizer calls
    # str.isspace and str.isdecimal; checked over every code point
    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", everything) == [ch for ch in everything if ch.isspace()]
    assert re.findall(r"\d", everything) == [ch for ch in everything if ch.isdecimal()]


# --- arithmetic -------------------------------------------------------------

def test_addition_like_terms_merge():
    e = parse("3*w[1,0]") + parse("w[1,0]") * Fraction(1, 2)
    assert e == parse("7/2*w[1,0]")


def test_multiplication_distributes():
    left = parse("t + x") * parse("t - x")
    assert left == parse("t^2 - x^2")


def test_power_matches_repeated_product():
    base = parse("1 + w[0,1]")
    assert base**3 == base * base * base


def test_power_zero_and_one():
    e = parse("t + 2")
    assert e**0 == 1
    assert e**1 == e


def test_negative_power_only_for_exponentials():
    assert parse("exp(t)") ** -1 == parse("exp(-t)")
    with pytest.raises(UnsupportedExpressionError):
        (parse("t") + 1) ** -1


def test_division_by_rational():
    assert parse("w[1,0]") / 2 == parse("1/2*w[1,0]")
    with pytest.raises(ZeroDivisionError):
        parse("t") / 0


def test_exp_fusion_in_products():
    a = fn_apply("exp", parse("t"))
    b = fn_apply("exp", parse("x - t"))
    assert a * b == fn_apply("exp", parse("x"))


def test_equality_and_hash_agree():
    one = parse("t^2 - x^2")
    two = parse("t + x") * parse("t - x")
    assert one == two
    assert hash(one) == hash(two)
    assert one == one + 0
    assert parse("3") == 3
    assert parse("1/2") == Fraction(1, 2)


def test_expressions_are_immutable():
    e = parse("t")
    with pytest.raises(AttributeError):
        e._terms = ()


# --- differentiation --------------------------------------------------------

DIFF_CASES = [
    ("w[1,0]^2*w[0,1]", W10, "2*w[1,0]*w[0,1]"),
    ("w[1,0]^2*w[0,1]", W01, "w[1,0]^2"),
    ("t^3", Sym("t"), "3*t^2"),
    ("exp(2*w[0,2])", Jet("w", 0, 2), "2*exp(2*w[0,2])"),
    ("sin(3*t)", Sym("t"), "3*cos(3*t)"),
    ("cos(t^2)", Sym("t"), "-2*t*sin(t^2)"),
    ("x", Sym("t"), "0"),
]


@pytest.mark.parametrize("text,var,expected", DIFF_CASES)
def test_diff_partial(text, var, expected):
    assert diff_partial(parse(text), var) == parse(expected)


def test_diff_product_rule():
    f = parse("t^2*exp(t)")
    assert diff_partial(f, T) == parse("2*t*exp(t) + t^2*exp(t)")


def test_ln_derivative_unsupported_when_argument_moves():
    e = fn_apply("ln", parse("t + 1"))
    with pytest.raises(UnsupportedExpressionError):
        diff_partial(e, T)
    # constant-argument logs differentiate to zero
    assert diff_partial(fn_apply("ln", parse("2")) * parse("t"), X) == 0


# --- substitution -----------------------------------------------------------

def test_substitute_simultaneous_swap():
    e = parse("xi^2 - eta")
    swapped = substitute(e, {Sym("xi"): as_expr(Sym("eta")), Sym("eta"): as_expr(Sym("xi"))})
    assert swapped == parse("eta^2 - xi")


def test_substitute_reaches_function_arguments():
    e = parse("exp(2*w[0,2]) + w[0,2]")
    out = substitute(e, {Jet("w", 0, 2): parse("u[0,2] - u[1,1]") / 2})
    assert out == parse("exp(u[0,2] - u[1,1]) + 1/2*u[0,2] - 1/2*u[1,1]")


def test_substitute_collapses_functions():
    e = fn_apply("sin", parse("t - x"))
    assert substitute(e, {Sym("t"): parse("x")}) == 0


# --- integration ------------------------------------------------------------

INTEGRATE_CASES = [
    ("w[0,1]^2", Jet("w", 0, 1), 0, "1/3*w[0,1]^3"),
    ("w[0,1]^2", Jet("w", 0, 1), 1, "1/3*w[0,1]^3 - 1/3"),
    ("2*t + 1", Sym("t"), 0, "t^2 + t"),
    ("sin(3*t)", Sym("t"), 0, "-1/3*cos(3*t) + 1/3"),
    ("t*exp(2*t)", Sym("t"), 0, "1/2*t*exp(2*t) - 1/4*exp(2*t) + 1/4"),
    ("x*cos(t)", Sym("t"), 0, "x*sin(t)"),
    ("exp(x)", Sym("t"), 0, "t*exp(x)"),
]


@pytest.mark.parametrize("text,var,lower,expected", INTEGRATE_CASES)
def test_integrate_univar(text, var, lower, expected):
    assert integrate_univar(parse(text), var, lower=lower) == parse(expected)


@pytest.mark.parametrize("text,var,lower,expected", INTEGRATE_CASES)
def test_integration_inverts_differentiation(text, var, lower, expected):
    result = integrate_univar(parse(text), var, lower=lower)
    assert diff_partial(result, var) == parse(text)
    assert substitute(result, {var: as_expr(lower)}) == 0


UNSUPPORTED_INTEGRANDS = [
    "exp(t^2)",
    "sin(t)*cos(t)",
    "sin(t)^2",
    "t*exp(t)*sin(t)",
]


@pytest.mark.parametrize("text", UNSUPPORTED_INTEGRANDS)
def test_integrate_rejects_hard_classes(text):
    with pytest.raises(UnsupportedIntegrandError):
        integrate_univar(parse(text), T)


# --- zero testing -----------------------------------------------------------

def test_zero_verdict_polynomial_is_exact():
    v = zero_verdict(parse("(t + x)^2 - t^2 - 2*t*x - x^2"))
    assert v.zero and not v.probabilistic


def test_zero_verdict_exponential_is_exact():
    v = zero_verdict(parse("exp(2*t) - exp(t)^2"))
    assert v.zero and not v.probabilistic
    v = zero_verdict(parse("exp(t) - exp(x)"))
    assert not v.zero and not v.probabilistic


def test_zero_verdict_trig_is_probabilistic():
    v = zero_verdict(parse("sin(t)^2 + cos(t)^2 - 1"))
    assert v.zero and v.probabilistic
    v = zero_verdict(parse("sin(t) - t"))
    assert not v.zero and v.probabilistic


def test_is_zero_seed_stability():
    e = parse("sin(t)^2 + cos(t)^2 - 1")
    assert is_zero(e, seed=42) == is_zero(e, seed=43) is True


# --- evaluation -------------------------------------------------------------

def test_evaluate_float_transcendentals():
    e = parse("exp(t) + sin(t)*cos(t)")
    value = evaluate_float(e, {T: 0.5})
    assert math.isclose(value, math.exp(0.5) + math.sin(0.5) * math.cos(0.5))


# --- property-based checks --------------------------------------------------

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=9
)

atoms = st.sampled_from(
    [Sym("xi"), Sym("eta"), Sym("t"), Sym("x"), Jet("w", 1, 0), Jet("w", 0, 1),
     Jet("u", 0, 0), Jet("u", 1, 1), Jet("w", 2, 0)]
)


@st.composite
def expressions(draw, max_terms=4):
    e = Expr.zero()
    for _ in range(draw(st.integers(1, max_terms))):
        term = Expr.from_rational(draw(rationals))
        for _ in range(draw(st.integers(0, 3))):
            term = term * as_expr(draw(atoms))
        if draw(st.booleans()):
            head = draw(st.sampled_from(["exp", "sin", "cos"]))
            arg = as_expr(draw(atoms)) * draw(rationals)
            term = term * fn_apply(head, arg)
        e = e + term
    return e


@given(expressions())
@settings(max_examples=120)
def test_round_trip_random(e):
    assert parse(str(e)) == e


@given(expressions(), expressions())
@settings(max_examples=60)
def test_ring_laws(a, b):
    assert a + b == b + a
    assert a * b == b * a
    assert a - a == 0
    assert (a + b) * (a - b) == a * a - b * b


@given(
    st.lists(rationals, min_size=1, max_size=4),
    st.sampled_from([Sym("t"), Jet("w", 0, 1)]),
)
@settings(max_examples=60)
def test_polynomial_integration_round_trip(coeffs, var):
    e = Expr.zero()
    for k, c in enumerate(coeffs):
        e = e + as_expr(var) ** k * c
    assert diff_partial(integrate_univar(e, var), var) == e


@given(
    st.integers(0, 30),
    st.sampled_from(["exp", "sin", "cos"]),
    rationals.filter(bool),
    rationals,
)
@settings(max_examples=60, deadline=None)
def test_transcendental_integration_round_trip(k, head, slope, lower):
    e = as_expr(T) ** k * fn_apply(head, as_expr(T) * slope + as_expr(Jet("w", 0, 1)))
    result = integrate_univar(e, T, lower=lower)
    assert diff_partial(result, T) == e
    assert substitute(result, {T: as_expr(lower)}) == 0


def test_integrate_high_power_times_exp():
    # 2001 integrations by parts, none of them a nested call
    e = parse("t^2000*exp(t)")
    result = integrate_univar(e, T)
    assert diff_partial(result, T) == e
    assert substitute(result, {T: as_expr(0)}) == 0


def test_atom_validation():
    with pytest.raises(ValueError):
        Jet("w", -1, 0)
    with pytest.raises(ValueError):
        Jet("exp", 0, 0)
    assert Jet("w", 1, 2).shifted(0) == Jet("w", 2, 2)
    assert Jet("w", 1, 2).shifted(1) == Jet("w", 1, 3)
    assert Fn("exp", parse("t")).sort_key[0] == 2
