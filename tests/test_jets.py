"""Frames, solution reduction, total and restricted derivatives, Euler operator."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetlaw.expr import Expr, Jet, Sym, as_expr, diff_partial, fn_apply, parse
from jetlaw.jets import (
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


def test_frame_lookup():
    assert Frame.from_name("lightcone") is LIGHTCONE
    assert Frame.from_name("spacetime") is SPACETIME
    with pytest.raises(ValueError):
        Frame.from_name("polar")


@pytest.mark.parametrize(
    "frame,jet,principal",
    [
        (LIGHTCONE, Jet("w", 1, 1), True),
        (LIGHTCONE, Jet("w", 2, 3), True),
        (LIGHTCONE, Jet("w", 0, 4), False),
        (LIGHTCONE, Jet("w", 4, 0), False),
        (LIGHTCONE, Jet("w", 0, 0), False),
        (SPACETIME, Jet("u", 2, 0), True),
        (SPACETIME, Jet("u", 5, 1), True),
        (SPACETIME, Jet("u", 1, 7), False),
        (SPACETIME, Jet("u", 0, 9), False),
    ],
)
def test_is_principal(frame, jet, principal):
    assert frame.is_principal(jet) is principal


def test_check_frame_rejects_foreign_atoms():
    check_frame(parse("xi*w[1,0]"), LIGHTCONE)
    with pytest.raises(FrameMismatchError):
        check_frame(parse("t*w[1,0]"), LIGHTCONE)
    with pytest.raises(FrameMismatchError):
        check_frame(parse("u[1,0]"), LIGHTCONE)
    with pytest.raises(FrameMismatchError):
        check_frame(parse("exp(w[0,1])"), SPACETIME)


@pytest.mark.parametrize(
    "text, frame, message",
    [
        ("t*x*u[0,1]*v[1,0]", LIGHTCONE, "symbol t does not belong to frame lightcone"),
        ("x*v[1,0]*u[0,1]", LIGHTCONE, "symbol x does not belong to frame lightcone"),
        ("v[1,0]*u[0,1]*w[2,0]", LIGHTCONE, "jet variable 'u' is not the lightcone dependent variable"),
        ("eta*xi*w[0,1]*t", SPACETIME, "symbol xi does not belong to frame spacetime"),
    ],
)
def test_check_frame_names_the_first_foreign_atom_in_sort_order(text, frame, message):
    with pytest.raises(FrameMismatchError) as caught:
        check_frame(parse(text), frame)
    assert str(caught.value) == message


REDUCE_CASES = [
    (SPACETIME, "u[2,0]", "u[0,2]"),
    (SPACETIME, "u[3,1]", "u[1,3]"),
    (SPACETIME, "u[5,2]", "u[1,6]"),
    (SPACETIME, "u[4,0]", "u[0,4]"),
    (SPACETIME, "u[1,3]", "u[1,3]"),
    (SPACETIME, "t*u[2,0] + x", "t*u[0,2] + x"),
    (LIGHTCONE, "w[1,1]", "0"),
    (LIGHTCONE, "w[2,3]", "0"),
    (LIGHTCONE, "w[0,1] + 3*w[2,1]", "w[0,1]"),
    (LIGHTCONE, "exp(w[1,1])", "1"),
    (LIGHTCONE, "w[0,2]*w[3,0]", "w[0,2]*w[3,0]"),
]


@pytest.mark.parametrize("frame,text,expected", REDUCE_CASES)
def test_reduce_to_solutions(frame, text, expected):
    assert reduce_to_solutions(parse(text), frame) == parse(expected)


@pytest.mark.parametrize("frame,text,expected", REDUCE_CASES)
def test_reduce_is_idempotent(frame, text, expected):
    once = reduce_to_solutions(parse(text), frame)
    assert reduce_to_solutions(once, frame) == once


DERIVATIVE_CASES = [
    (LIGHTCONE, 0, "w[1,0]", "w[2,0]"),
    (LIGHTCONE, 0, "xi", "1"),
    (LIGHTCONE, 0, "eta", "0"),
    (LIGHTCONE, 1, "xi*w[0,1]", "xi*w[0,2]"),
    (LIGHTCONE, 0, "w[0,0]^2", "2*w[0,0]*w[1,0]"),
    (SPACETIME, 0, "u[1,0]*t", "u[2,0]*t + u[1,0]"),
    (SPACETIME, 1, "exp(u[0,1])", "u[0,2]*exp(u[0,1])"),
]


@pytest.mark.parametrize("frame,axis,text,expected", DERIVATIVE_CASES)
def test_total_derivative(frame, axis, text, expected):
    assert total_derivative(parse(text), frame, axis) == parse(expected)


def test_total_derivatives_commute():
    e = parse("w[0,0]^2*w[1,0] + xi*eta*w[1,1]")
    d01 = total_derivative(total_derivative(e, LIGHTCONE, 0), LIGHTCONE, 1)
    d10 = total_derivative(total_derivative(e, LIGHTCONE, 1), LIGHTCONE, 0)
    assert d01 == d10


def test_total_derivative_leibniz():
    a = parse("xi*w[1,0]")
    b = parse("w[0,1]^2 + eta")
    left = total_derivative(a * b, LIGHTCONE, 0)
    right = total_derivative(a, LIGHTCONE, 0) * b + a * total_derivative(b, LIGHTCONE, 0)
    assert left == right


def test_restricted_derivative_requires_reduced_input():
    with pytest.raises(PrincipalDerivativeError) as err:
        restricted_derivative(parse("w[1,1]"), LIGHTCONE, 0)
    assert err.value.jet == Jet("w", 1, 1)
    with pytest.raises(PrincipalDerivativeError):
        restricted_derivative(parse("u[2,0]"), SPACETIME, 1)


RESTRICTED_CASES = [
    (LIGHTCONE, 0, "w[0,1]", "0"),
    (LIGHTCONE, 1, "w[0,1]", "w[0,2]"),
    (LIGHTCONE, 0, "w[0,0]", "w[1,0]"),
    (LIGHTCONE, 1, "w[0,0]", "w[0,1]"),
    (SPACETIME, 0, "u[1,0]", "u[0,2]"),
    (SPACETIME, 0, "u[0,1]", "u[1,1]"),
    (SPACETIME, 1, "u[1,3]", "u[1,4]"),
]


@pytest.mark.parametrize("frame,axis,text,expected", RESTRICTED_CASES)
def test_restricted_derivative(frame, axis, text, expected):
    assert restricted_derivative(parse(text), frame, axis) == parse(expected)


def test_restricted_derivatives_commute_on_lightcone():
    # the reduced calculus is flat: D_xi and D_eta commute off mixed jets
    for text in ("w[0,0]*w[1,0]", "xi*w[0,2] + eta*w[3,0]", "exp(w[0,1])*w[1,0]"):
        e = parse(text)
        a = restricted_derivative(restricted_derivative(e, LIGHTCONE, 0), LIGHTCONE, 1)
        b = restricted_derivative(restricted_derivative(e, LIGHTCONE, 1), LIGHTCONE, 0)
        assert a == b


lightcone_atoms = st.sampled_from(
    [Sym("xi"), Sym("eta"), Jet("w", 0, 0), Jet("w", 1, 0), Jet("w", 0, 1),
     Jet("w", 1, 1), Jet("w", 2, 1), Jet("w", 0, 2)]
)
spacetime_atoms = st.sampled_from(
    [Sym("t"), Sym("x"), Jet("u", 0, 0), Jet("u", 1, 0), Jet("u", 0, 1),
     Jet("u", 2, 0), Jet("u", 3, 1), Jet("u", 1, 2)]
)


@st.composite
def jet_polynomials(draw, atom_strategy):
    e = Expr.zero()
    for _ in range(draw(st.integers(1, 3))):
        term = Expr.from_rational(draw(st.fractions(
            min_value=Fraction(-9), max_value=Fraction(9), max_denominator=4)))
        for _ in range(draw(st.integers(0, 3))):
            term = term * as_expr(draw(atom_strategy))
        e = e + term
    return e


@given(jet_polynomials(lightcone_atoms))
@settings(max_examples=50)
def test_reduction_commutes_with_total_derivative_lightcone(e):
    for axis in (0, 1):
        left = reduce_to_solutions(total_derivative(e, LIGHTCONE, axis), LIGHTCONE)
        right = reduce_to_solutions(
            total_derivative(reduce_to_solutions(e, LIGHTCONE), LIGHTCONE, axis),
            LIGHTCONE,
        )
        assert left == right


@given(jet_polynomials(spacetime_atoms))
@settings(max_examples=50)
def test_reduction_commutes_with_total_derivative_spacetime(e):
    for axis in (0, 1):
        left = reduce_to_solutions(total_derivative(e, SPACETIME, axis), SPACETIME)
        right = reduce_to_solutions(
            total_derivative(reduce_to_solutions(e, SPACETIME), SPACETIME, axis),
            SPACETIME,
        )
        assert left == right


def test_equation_expressions():
    assert equation_expression(LIGHTCONE) == parse("w[1,1]")
    assert equation_expression(SPACETIME) == parse("u[2,0] - u[0,2]")


EULER_CASES = [
    (LIGHTCONE, "-1/2*w[1,0]*w[0,1]", "w[1,1]"),
    (SPACETIME, "-1/2*u[1,0]^2 + 1/2*u[0,1]^2", "u[2,0] - u[0,2]"),
    (LIGHTCONE, "w[0,0]*w[1,1]", "2*w[1,1]"),
    (LIGHTCONE, "w[1,0]*w[0,1]", "-2*w[1,1]"),
    (SPACETIME, "u[1,0]^2", "-2*u[2,0]"),
    (LIGHTCONE, "xi*w[1,0]", "-1"),
    (LIGHTCONE, "w[0,0]^3", "3*w[0,0]^2"),
]


@pytest.mark.parametrize("frame,text,expected", EULER_CASES)
def test_euler_operator(frame, text, expected):
    assert euler_operator(parse(text), frame) == parse(expected)


def test_euler_operator_is_linear():
    a = parse("w[1,0]^2*w[0,1]")
    b = parse("xi*w[0,2]")
    left = euler_operator(a * 3 + b, LIGHTCONE)
    right = euler_operator(a, LIGHTCONE) * 3 + euler_operator(b, LIGHTCONE)
    assert left == right


def test_euler_annihilates_divergences():
    rng = random.Random(11)
    frames = {LIGHTCONE: ["xi", "eta", "w[0,0]", "w[1,0]", "w[0,1]", "w[1,1]"],
              SPACETIME: ["t", "x", "u[0,0]", "u[1,0]", "u[0,1]", "u[2,0]"]}
    for frame, names in frames.items():
        for _ in range(10):
            a = Expr.zero()
            b = Expr.zero()
            for _ in range(rng.randint(1, 3)):
                a = a + parse(rng.choice(names)) * parse(rng.choice(names)) * rng.randint(-3, 3)
                b = b + parse(rng.choice(names)) * parse(rng.choice(names)) * rng.randint(-3, 3)
            div = total_derivative(a, frame, 0) + total_derivative(b, frame, 1)
            assert euler_operator(div, frame) == 0


# --- one-pass restricted derivatives and the Horner-form Euler operator ----------


def _jets_up_to(frame, order, reduced):
    """The frame's jets of order at most order, only the non-principal ones if reduced."""
    jets = [frame.jet(i, n - i) for n in range(order + 1) for i in range(n + 1)]
    return [a for a in jets if not (reduced and frame.is_principal(a))]


@st.composite
def expressions(draw, frame, jets):
    """Sums of up to three terms: a rational times up to three of the jets and
    symbols, times up to two exp/sin/cos factors of a multiple of a jet plus
    a jet or symbol."""
    atoms = st.sampled_from(jets + [frame.symbol(0), frame.symbol(1)])
    e = Expr.zero()
    for _ in range(draw(st.integers(1, 3))):
        term = as_expr(draw(st.fractions(
            min_value=Fraction(-9), max_value=Fraction(9), max_denominator=4)))
        for _ in range(draw(st.integers(0, 3))):
            term = term * as_expr(draw(atoms))
        for _ in range(draw(st.integers(0, 2))):
            arg = draw(st.integers(-2, 2)) * as_expr(draw(st.sampled_from(jets)))
            arg = arg + as_expr(draw(atoms))
            term = term * fn_apply(draw(st.sampled_from(["exp", "sin", "cos"])), arg)
        e = e + term
    return e


frames = st.sampled_from([LIGHTCONE, SPACETIME])


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_restricted_derivative_is_the_reduced_total_derivative(data):
    frame = data.draw(frames)
    e = data.draw(expressions(frame, _jets_up_to(frame, 4, reduced=True)))
    for axis in (0, 1):
        full = reduce_to_solutions(total_derivative(e, frame, axis), frame)
        assert restricted_derivative(e, frame, axis) == full


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_restricted_derivative_refuses_a_principal_jet_anywhere(data):
    frame = data.draw(frames)
    e = data.draw(expressions(frame, _jets_up_to(frame, 3, reduced=True)))
    principal = data.draw(st.sampled_from(
        [a for a in _jets_up_to(frame, 4, reduced=False) if frame.is_principal(a)]))
    inside_a_function = data.draw(st.booleans())
    factor = fn_apply("exp", as_expr(principal)) if inside_a_function else as_expr(principal)
    with pytest.raises(PrincipalDerivativeError) as err:
        restricted_derivative(e + factor, frame, data.draw(st.sampled_from([0, 1])))
    assert err.value.jet is principal


def _euler_by_definition(lagrangian, frame):
    """The sum over jets (i, j) of (-D1)^i (-D2)^j dL/d(jet i,j), one jet at a time."""
    out = Expr.zero()
    for a in lagrangian.jets(frame.dependent):
        term = diff_partial(lagrangian, a)
        for axis, n in ((0, a.i), (1, a.j)):
            for _ in range(n):
                term = -total_derivative(term, frame, axis)
        out = out + term
    return out


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_euler_operator_equals_its_per_jet_definition(data):
    frame = data.draw(frames)
    lagrangian = data.draw(expressions(frame, _jets_up_to(frame, 3, reduced=False)))
    assert euler_operator(lagrangian, frame) == _euler_by_definition(lagrangian, frame)
