"""Exact translation of expressions, currents, and multipliers between frames."""

import gc
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetlaw import transform
from jetlaw.expr import Expr, Fn, Jet, as_expr, fn_apply, is_zero, parse, substitute
from jetlaw.jets import LIGHTCONE, SPACETIME, reduce_to_solutions, restricted_derivative
from jetlaw.conservation import (
    CanonicalCurrent,
    Characteristic,
    Current,
    verify_current,
)
from jetlaw.transform import (
    characteristic_to_lightcone,
    characteristic_to_spacetime,
    current_to_lightcone,
    current_to_spacetime,
    substitute_to_lightcone,
    substitute_to_spacetime,
)

# jet images under the change of independent variables (t, x) <-> (xi, eta),
# with xi = x + t and eta = x - t
TO_SPACETIME = [
    ("w[0,0]", "u[0,0]"),
    ("w[1,0]", "1/2*u[1,0] + 1/2*u[0,1]"),
    ("w[0,1]", "-1/2*u[1,0] + 1/2*u[0,1]"),
    ("w[2,0]", "1/2*u[1,1] + 1/2*u[0,2]"),  # u[2,0] is eliminated on solutions
    ("w[0,2]", "-1/2*u[1,1] + 1/2*u[0,2]"),
    ("w[0,3]", "-1/2*u[1,2] + 1/2*u[0,3]"),
    ("xi", "t + x"),
    ("eta", "-t + x"),
]

TO_LIGHTCONE = [
    ("u[0,0]", "w[0,0]"),
    ("u[1,0]", "w[1,0] - w[0,1]"),
    ("u[0,1]", "w[1,0] + w[0,1]"),
    ("u[0,2]", "w[2,0] + w[0,2]"),
    ("u[1,1]", "w[2,0] - w[0,2]"),
    ("u[0,3]", "w[3,0] + w[0,3]"),
    ("u[1,2]", "w[3,0] - w[0,3]"),
    ("t", "1/2*xi - 1/2*eta"),
    ("x", "1/2*xi + 1/2*eta"),
]


@pytest.mark.parametrize("source,expected", TO_SPACETIME)
def test_atom_images_to_spacetime(source, expected):
    assert substitute_to_spacetime(parse(source)) == parse(expected)


@pytest.mark.parametrize("source,expected", TO_LIGHTCONE)
def test_atom_images_to_lightcone(source, expected):
    assert substitute_to_lightcone(parse(source)) == parse(expected)


def test_substitution_checks_frame():
    with pytest.raises(Exception):
        substitute_to_spacetime(parse("u[1,0]"))
    with pytest.raises(Exception):
        substitute_to_lightcone(parse("w[1,0]"))


REPRESENTATIVE_LIGHTCONE = [
    "w[1,0]*w[0,1]",
    "xi*w[2,0] + eta*w[0,2]",
    "exp(2*w[0,2])",
    "w[0,1]^2 - w[1,0]^2 + xi*eta",
]

REPRESENTATIVE_SPACETIME = [
    "u[1,0]*u[0,1]",
    "t*u[0,2] + x*u[1,1]",
    "exp(u[0,2] - u[1,1])",
    "1/2*u[1,0]^2 + 1/2*u[0,1]^2 - t*x",
]


@pytest.mark.parametrize("text", REPRESENTATIVE_LIGHTCONE)
def test_round_trip_from_lightcone(text):
    e = parse(text)
    assert substitute_to_lightcone(substitute_to_spacetime(e)) == e


@pytest.mark.parametrize("text", REPRESENTATIVE_SPACETIME)
def test_round_trip_from_spacetime(text):
    e = parse(text)
    assert substitute_to_spacetime(substitute_to_lightcone(e)) == e


def test_substitution_reduces_first():
    # principal jets are eliminated before translating, so u[2,0] is legal input
    assert substitute_to_lightcone(parse("u[2,0]")) == parse("w[2,0] + w[0,2]")
    assert substitute_to_spacetime(parse("w[1,1]")) == 0


# --- currents -------------------------------------------------------------------

GOLDEN_TO_SPACETIME = [
    ("-w[0,1]", "-w[1,0]", "u[1,0]", "-u[0,1]"),
    ("w[0,1]^2", "-w[1,0]^2", "1/2*u[1,0]^2 + 1/2*u[0,1]^2", "-u[1,0]*u[0,1]"),
    (
        "eta*w[0,1]",
        "-xi*w[1,0]",
        "x*u[0,1] + t*u[1,0]",
        "-x*u[1,0] - t*u[0,1]",
    ),
    (
        "-eta*w[0,1]",
        "-xi*w[1,0]",
        "x*u[1,0] + t*u[0,1]",
        "-x*u[0,1] - t*u[1,0]",
    ),
    ("exp(2*w[0,2])", "0", "exp(u[0,2] - u[1,1])", "exp(u[0,2] - u[1,1])"),
]


@pytest.mark.parametrize("f,g,t_comp,x_comp", GOLDEN_TO_SPACETIME)
def test_current_to_spacetime(f, g, t_comp, x_comp):
    # scaling convention: (T, X) = (F - G, F + G) after substitution, which
    # keeps D_t T + D_x X a positive multiple of the light-cone divergence
    cur = Current(LIGHTCONE, parse(f), parse(g))
    out = current_to_spacetime(cur)
    assert out.frame is SPACETIME
    assert out.first == parse(t_comp) * parse("1/2") * 2  # exact equality
    assert out.first == parse(t_comp)
    assert out.second == parse(x_comp)


@pytest.mark.parametrize("f,g,t_comp,x_comp", GOLDEN_TO_SPACETIME)
def test_current_round_trip(f, g, t_comp, x_comp):
    cur = Current(LIGHTCONE, parse(f), parse(g))
    back = current_to_lightcone(current_to_spacetime(cur))
    assert back.first == cur.first and back.second == cur.second
    st = Current(SPACETIME, parse(t_comp), parse(x_comp))
    again = current_to_spacetime(current_to_lightcone(st))
    assert again.first == st.first and again.second == st.second


@pytest.mark.parametrize("f,g,t_comp,x_comp", GOLDEN_TO_SPACETIME)
def test_transform_preserves_conservation(f, g, t_comp, x_comp):
    assert verify_current(current_to_spacetime(Current(LIGHTCONE, parse(f), parse(g))))
    assert verify_current(current_to_lightcone(Current(SPACETIME, parse(t_comp), parse(x_comp))))


def test_current_transform_checks_frame():
    with pytest.raises(ValueError):
        current_to_spacetime(Current(SPACETIME, parse("u[1,0]"), parse("-u[0,1]")))
    with pytest.raises(ValueError):
        current_to_lightcone(Current(LIGHTCONE, parse("-w[0,1]"), parse("-w[1,0]")))


def test_current_components_are_reduced_once(monkeypatch):
    # every reduction a current transform makes, whichever module binds it
    from jetlaw import conservation

    calls = []

    def counted(e, frame):
        calls.append(e)
        return reduce_to_solutions(e, frame)

    monkeypatch.setattr(transform, "reduce_to_solutions", counted)
    monkeypatch.setattr(conservation, "reduce_to_solutions", counted)
    light = Current(LIGHTCONE, parse("w[1,1]*w[0,1] + xi"), parse("w[2,1] - w[1,0]^2"))
    space = Current(SPACETIME, parse("u[2,0]*u[0,1]"), parse("u[3,1] + t*u[1,0]"))
    moved = (current_to_spacetime(light), current_to_lightcone(space))
    assert len(calls) == 4  # 2 per current: one per substituted component
    monkeypatch.undo()
    assert moved == (current_to_spacetime(light.reduced()), current_to_lightcone(space.reduced()))


def test_canonical_input_stays_current():
    cur = CanonicalCurrent(LIGHTCONE, parse("w[0,1]^2"), parse("-w[1,0]^2"))
    out = current_to_spacetime(cur)
    assert isinstance(out, Current)


# --- characteristics --------------------------------------------------------------

CHARACTERISTIC_PAIRS = [
    ("-2", "1"),
    ("eta - xi", "t"),
    ("-eta - xi", "x"),
    ("2*w[0,1] - 2*w[1,0]", "u[1,0]"),
]


@pytest.mark.parametrize("lam,mu", CHARACTERISTIC_PAIRS)
def test_characteristic_to_spacetime(lam, mu):
    out = characteristic_to_spacetime(Characteristic(LIGHTCONE, parse(lam)))
    assert out.frame is SPACETIME
    assert out.multiplier == parse(mu)


@pytest.mark.parametrize("lam,mu", CHARACTERISTIC_PAIRS)
def test_characteristic_to_lightcone(lam, mu):
    out = characteristic_to_lightcone(Characteristic(SPACETIME, parse(mu)))
    assert out.frame is LIGHTCONE
    assert out.multiplier == parse(lam)


@pytest.mark.parametrize("lam,mu", CHARACTERISTIC_PAIRS)
def test_characteristic_round_trip(lam, mu):
    start = Characteristic(LIGHTCONE, parse(lam))
    assert characteristic_to_lightcone(characteristic_to_spacetime(start)).multiplier == start.multiplier
    other = Characteristic(SPACETIME, parse(mu))
    assert characteristic_to_spacetime(characteristic_to_lightcone(other)).multiplier == other.multiplier


def test_characteristic_transform_checks_frame():
    with pytest.raises(ValueError):
        characteristic_to_spacetime(Characteristic(SPACETIME, parse("1")))
    with pytest.raises(ValueError):
        characteristic_to_lightcone(Characteristic(LIGHTCONE, parse("-2")))


# --- randomized round trips --------------------------------------------------------


def _random_solution_expression(rng, frame):
    if frame is LIGHTCONE:
        atoms = ["xi", "eta", "w[0,0]", "w[1,0]", "w[0,1]", "w[2,0]", "w[0,2]"]
    else:
        atoms = ["t", "x", "u[0,0]", "u[1,0]", "u[0,1]", "u[0,2]", "u[1,1]"]
    total = parse("0")
    for _ in range(rng.randint(1, 4)):
        term = parse(str(rng.randint(-3, 3) or 1))
        for _ in range(rng.randint(1, 3)):
            term = term * parse(rng.choice(atoms))
        total = total + term
    return total


def test_random_round_trips_from_lightcone():
    rng = random.Random(17)
    for _ in range(40):
        e = _random_solution_expression(rng, LIGHTCONE)
        assert is_zero(substitute_to_lightcone(substitute_to_spacetime(e)) - e)


def test_random_round_trips_from_spacetime():
    rng = random.Random(18)
    for _ in range(40):
        e = _random_solution_expression(rng, SPACETIME)
        back = substitute_to_spacetime(substitute_to_lightcone(e))
        assert is_zero(back - reduce_to_solutions(e, SPACETIME))


# --- the chain rule, on jets of high order -------------------------------------------


@st.composite
def reduced_expressions(draw, frame):
    """Reduced polynomials in the frame's atoms, jets up to order 9, times
    exp/sin/cos of a jet plus an atom."""
    if frame is LIGHTCONE:
        jets = [frame.jet(n, 0) for n in range(10)] + [frame.jet(0, n) for n in range(1, 10)]
    else:
        jets = [frame.jet(0, n) for n in range(10)] + [frame.jet(1, n) for n in range(9)]
    atoms = st.sampled_from(jets + [frame.symbol(0), frame.symbol(1)])
    e = Expr.zero()
    for _ in range(draw(st.integers(1, 3))):
        term = as_expr(draw(st.fractions(
            min_value=Fraction(-9), max_value=Fraction(9), max_denominator=4)))
        for _ in range(draw(st.integers(0, 3))):
            term = term * as_expr(draw(atoms))
        for _ in range(draw(st.integers(0, 2))):
            arg = as_expr(draw(st.integers(-2, 2))) * as_expr(draw(st.sampled_from(jets)))
            arg = arg + as_expr(draw(st.integers(-1, 1))) * as_expr(draw(atoms))
            term = term * fn_apply(draw(st.sampled_from(["exp", "sin", "cos"])), arg)
        e = e + term
    return e


@given(reduced_expressions(SPACETIME), reduced_expressions(SPACETIME))
@settings(max_examples=100, deadline=None)
def test_mixing_before_the_pullback_equals_pulling_each_component_back(t_comp, x_comp):
    # the pullback is a ring map, so the halved sum and difference may be
    # taken before it as well as after it
    t, x = substitute_to_lightcone(t_comp), substitute_to_lightcone(x_comp)
    mixed = current_to_lightcone(Current(SPACETIME, t_comp, x_comp))
    half = Fraction(1, 2)
    assert (mixed.first, mixed.second) == (half * (t + x), half * (x - t))
    assert (str(mixed.first), str(mixed.second)) == (str(half * (t + x)), str(half * (x - t)))


def _pulled_derivative(e, source, target, to_target, mixing, axis):
    """to_target(D_axis e) and sum_b mixing[axis][b] * D_b to_target(e)."""
    left = to_target(restricted_derivative(e, source, axis))
    image = to_target(e)
    right = Expr.zero()
    for b, c in enumerate(mixing[axis]):
        right = right + c * restricted_derivative(image, target, b)
    return left, right


@given(reduced_expressions(LIGHTCONE))
@settings(max_examples=100, deadline=None)
def test_spacetime_image_obeys_the_chain_rule(e):
    # D_xi = 1/2 (D_t + D_x), D_eta = 1/2 (D_x - D_t)
    mixing = ((Fraction(1, 2), Fraction(1, 2)), (Fraction(-1, 2), Fraction(1, 2)))
    for axis in (0, 1):
        left, right = _pulled_derivative(
            e, LIGHTCONE, SPACETIME, substitute_to_spacetime, mixing, axis
        )
        assert left == right


@given(reduced_expressions(SPACETIME))
@settings(max_examples=100, deadline=None)
def test_lightcone_image_obeys_the_chain_rule(e):
    # D_t = D_xi - D_eta, D_x = D_xi + D_eta
    mixing = ((1, -1), (1, 1))
    for axis in (0, 1):
        left, right = _pulled_derivative(
            e, SPACETIME, LIGHTCONE, substitute_to_lightcone, mixing, axis
        )
        assert left == right


def test_image_caches_keep_the_benchmark_hooks():
    # perfbench/run.py clears and reads both caches through these attributes
    for image in (transform._spacetime_image, transform._lightcone_image):
        assert callable(image.cache_clear) and callable(image.cache_info)


# --- the cached powers of the atom images ------------------------------------------


def _clear_image_caches():
    transform._spacetime_image.cache_clear()
    transform._lightcone_image.cache_clear()


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_a_frame_change_does_not_depend_on_the_image_caches(data):
    for source, pull in ((LIGHTCONE, substitute_to_spacetime), (SPACETIME, substitute_to_lightcone)):
        e = data.draw(reduced_expressions(source)) ** data.draw(st.integers(1, 3))
        first = pull(e)
        assert pull(e) == first
        _clear_image_caches()
        assert pull(e) == first
        # the public substitute, which builds every power in the call
        images = {a: pull(as_expr(a)) for a in e.base_atoms()}
        assert substitute(e, images) == first


def test_the_image_caches_keep_no_atom_of_the_caller():
    # the caller's jets are looked up by their indices, and function atoms,
    # the caller's and their images alike, are rebuilt in every call
    source = Fn("exp", parse("17*w[0,41] + 13*eta^5"))
    expression = as_expr(source) ** 2 * parse("w[0,41]^3 + xi^4")
    image = substitute_to_spacetime(expression)
    refs = [weakref.ref(a) for a in (source, Jet("w", 0, 41), *image.fn_atoms())]
    assert len(refs) == 3
    del source, expression, image
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]
