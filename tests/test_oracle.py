"""Numeric oracle: closed-form solutions, jet evaluation, flux quadrature."""

import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import jetlaw
from jetlaw.expr import Jet, Sym, parse
from jetlaw.jets import LIGHTCONE, SPACETIME, total_derivative
from jetlaw.conservation import Characteristic, Current, characteristic
from jetlaw.golden import GOLDEN_CURRENTS, GOLDEN_RECTANGLE, GOLDEN_SOLUTIONS
from jetlaw.transform import characteristic_to_spacetime, current_to_spacetime
from jetlaw.oracle import (
    Poly,
    Rectangle,
    Solution,
    SolutionFormatError,
    Wave,
    check_characteristic_numeric,
    check_conservation,
    eval_jet,
    parse_solution,
)

from test_acceptance import _dressed_currents


# --- profile atoms -------------------------------------------------------------

def test_poly_evaluates_by_horner():
    p = Poly((1, -2, 3))  # 1 - 2s + 3s^2
    assert p(2.0) == pytest.approx(9.0)
    assert p(0.0) == pytest.approx(1.0)


def test_poly_derivative_shifts_coefficients():
    p = Poly((1, -2, 3))
    dp = p.derivative()
    assert isinstance(dp, Poly)
    assert dp(2.0) == pytest.approx(-2 + 6 * 2.0)
    assert Poly((5,)).derivative()(1.0) == 0.0


def test_wave_derivative_cycle():
    w = Wave("sin", 2, 0)
    names = []
    cur = w
    for _ in range(4):
        cur = cur.derivative()
        names.append((cur.head, cur.scale))
    # sin -> cos -> -sin -> -cos -> sin, gaining a factor a each time
    assert names == [("cos", 2), ("sin", -4), ("cos", -8), ("sin", 16)]
    assert Wave("sin", 2, 1)(0.25) == pytest.approx(math.sin(1.5))


def test_exp_wave_derivative_multiplies_by_rate():
    d = Wave("exp", -3, 1, 2)
    dd = d.derivative()
    assert dd.scale == -6
    assert d(0.0) == pytest.approx(2 * math.exp(1))


def test_wave_refuses_an_unknown_head():
    with pytest.raises(ValueError, match="unknown profile head 'tan'"):
        Wave("tan", 1, 0)
    with pytest.raises(ValueError, match="unknown profile head"):
        Wave("sin", 1, 0)._replace(head="tan")


# --- solution parsing ------------------------------------------------------------

def test_parse_solution_both_sides():
    sol = parse_solution("sin:1,0;poly:0,0,1")
    assert sol.f(0, 0.3) == pytest.approx(math.sin(0.3))
    assert sol.g(0, 0.3) == pytest.approx(0.09)
    assert sol.value(0.0, 0.5) == pytest.approx(math.sin(0.5) + 0.25)


def test_parse_solution_sum_of_atoms():
    sol = parse_solution("poly:1,2 + exp:1,0;cos:1,0")
    assert sol.f(0, 1.0) == pytest.approx(3.0 + math.e)
    assert sol.f(1, 1.0) == pytest.approx(2.0 + math.e)
    assert sol.g(1, 0.0) == pytest.approx(0.0)


def test_parse_solution_one_sided():
    sol = parse_solution(";cos:1,0")
    assert sol.f(0, 5.0) == 0.0
    assert sol.f(3, 5.0) == 0.0
    assert sol.g(0, 0.0) == pytest.approx(1.0)


BAD_SOLUTIONS = [
    "sin:1,0",            # no separator
    "a;b;c",              # too many separators
    "spiral:1,0;",        # unknown atom
    "sin:1;",             # too few parameters
    "poly:;",             # empty coefficient list
    "sin:one,0;",         # not a rational
    "poly:1,2,3/0;",      # zero denominator
]


@pytest.mark.parametrize("text", BAD_SOLUTIONS)
def test_parse_solution_rejects(text):
    with pytest.raises(SolutionFormatError):
        parse_solution(text)


# --- jet evaluation ---------------------------------------------------------------

SOLUTIONS = [
    parse_solution("sin:1,0;poly:0,0,1"),
    parse_solution("poly:0,0,0,1;exp:1,0"),
    parse_solution(";cos:1,0"),
]


@pytest.mark.parametrize("sol", SOLUTIONS)
@pytest.mark.parametrize("i,j", [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1)])
def test_spacetime_jets_match_finite_differences(sol, i, j):
    t0, x0 = 0.4, -0.7
    h = 1e-4

    def value(t, x):
        return sol.value(t, x)

    def d_t(fn):
        return lambda t, x: (fn(t + h, x) - fn(t - h, x)) / (2 * h)

    def d_x(fn):
        return lambda t, x: (fn(t, x + h) - fn(t, x - h)) / (2 * h)

    fn = value
    for _ in range(i):
        fn = d_t(fn)
    for _ in range(j):
        fn = d_x(fn)
    numeric = fn(t0, x0)
    exact = eval_jet(sol, SPACETIME, Jet("u", i, j), t0, x0)
    assert numeric == pytest.approx(exact, rel=1e-6, abs=1e-6)


@pytest.mark.parametrize("sol", SOLUTIONS)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_lightcone_jets_match_finite_differences(sol, k):
    # each jet order is a central difference of the exact order below it;
    # nesting raw differences would drown order three in roundoff
    xi0, eta0 = 0.9, -0.3
    h = 1e-4
    if k == 1:
        def below(xi):
            return sol.value((xi - eta0) / 2, (xi + eta0) / 2)
    else:
        def below(xi):
            return eval_jet(sol, LIGHTCONE, Jet("w", k - 1, 0), xi, eta0)
    numeric = (below(xi0 + h) - below(xi0 - h)) / (2 * h)
    exact = eval_jet(sol, LIGHTCONE, Jet("w", k, 0), xi0, eta0)
    assert numeric == pytest.approx(exact, rel=1e-6, abs=1e-6)

    def eta_below(eta):
        if k == 1:
            return sol.value((xi0 - eta) / 2, (xi0 + eta) / 2)
        return eval_jet(sol, LIGHTCONE, Jet("w", 0, k - 1), xi0, eta)

    eta_numeric = (eta_below(eta0 + h) - eta_below(eta0 - h)) / (2 * h)
    eta_exact = eval_jet(sol, LIGHTCONE, Jet("w", 0, k), xi0, eta0)
    assert eta_numeric == pytest.approx(eta_exact, rel=1e-6, abs=1e-6)


@pytest.mark.parametrize("sol", SOLUTIONS)
def test_mixed_lightcone_jets_vanish(sol):
    assert eval_jet(sol, LIGHTCONE, Jet("w", 1, 1), 0.2, 0.4) == 0.0
    assert eval_jet(sol, LIGHTCONE, Jet("w", 2, 3), 0.2, 0.4) == 0.0


@pytest.mark.parametrize("sol", SOLUTIONS)
def test_wave_equation_holds_on_solutions(sol):
    for t, x in [(0.0, 0.0), (0.3, -1.2), (1.1, 0.7)]:
        u_tt = eval_jet(sol, SPACETIME, Jet("u", 2, 0), t, x)
        u_xx = eval_jet(sol, SPACETIME, Jet("u", 0, 2), t, x)
        assert u_tt == pytest.approx(u_xx, rel=1e-12, abs=1e-12)


# --- flux quadrature ----------------------------------------------------------------

RECT = Rectangle(0.0, 0.75, -1.75, -0.75, 128)


def test_rectangle_validation():
    with pytest.raises(ValueError):
        Rectangle(0.0, 0.0, 0.0, 1.0, 128)  # empty time extent
    with pytest.raises(ValueError):
        Rectangle(0.0, 1.0, 1.0, 0.5, 128)  # reversed space extent
    with pytest.raises(ValueError):
        Rectangle(0.0, 1.0, 0.0, 1.0, 127)  # odd panel count
    with pytest.raises(ValueError):
        Rectangle(0.0, 1.0, 0.0, 1.0, 8)  # too coarse to halve
    for corners in ((0.0, math.inf, 0.0, 1.0), (math.nan, 1.0, 0.0, 1.0), (0.0, 1.0, -math.inf, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            Rectangle(*corners, 128)


def test_energy_flux_vanishes_with_fourth_order_decay():
    cur = Current(SPACETIME, parse("1/2*u[1,0]^2 + 1/2*u[0,1]^2"), parse("-u[1,0]*u[0,1]"))
    result = check_conservation(cur, SOLUTIONS[0], RECT)
    assert result.residual < 1e-8
    assert result.coarse_residual < 1e-12 or 12 <= result.ratio <= 20


def test_lightcone_current_evaluates_without_transform():
    cur = Current(LIGHTCONE, parse("w[0,1]^2"), parse("-w[1,0]^2"))
    result = check_conservation(cur, SOLUTIONS[1], RECT)
    assert result.residual < 1e-8
    assert result.coarse_residual < 1e-12 or 12 <= result.ratio <= 20


def test_counterexample_flux_does_not_decay():
    bad = Current(LIGHTCONE, parse("w[1,0]"), parse("0"))
    result = check_conservation(bad, SOLUTIONS[0], RECT)
    assert result.residual > 1e-3
    coarse_rect = Rectangle(0.0, 0.75, -1.75, -0.75, 32)
    assert check_conservation(bad, SOLUTIONS[0], coarse_rect).residual > 1e-3


# float.hex() of the flux check's fine and coarse residuals: a rework of the
# oracle that keeps every float operation in its order keeps these bits.
# The table was captured with CPython 3.11.7 on x86_64 Debian 12 (glibc 2.36),
# so it also pins that libm's rounding of sin, cos, exp and pow: most
# residuals are at rounding level, and another libm may differ in the last
# bits with no change to the code.
FLUX_BITS = json.loads(pathlib.Path(__file__).with_name("flux_bits.json").read_text("utf-8"))


def _flux_cases():
    """The golden currents, the counterexample and the pullbacks of all six,
    each on the golden solutions at 128, 32 and 30 panels (30 halves to an
    odd count, which is rounded up)."""
    counterexample = Current(LIGHTCONE, parse("w[1,0]"), parse("0"))
    currents = {**GOLDEN_CURRENTS, "counterexample": counterexample}
    currents.update({f"{name} pulled": current_to_spacetime(c) for name, c in list(currents.items())})
    for name, current in currents.items():
        for which, solution in enumerate(GOLDEN_SOLUTIONS):
            for panels in (128, 32, 30):
                rect = GOLDEN_RECTANGLE._replace(panels=panels)
                yield f"{name} on {which} at {panels}", current, solution, rect


def test_flux_residual_bits_are_pinned():
    bits = {}
    for key, current, solution, rect in _flux_cases():
        result = check_conservation(current, solution, rect)
        bits[key] = [result.residual.hex(), result.coarse_residual.hex()]
    assert len(bits) == 108
    assert bits == FLUX_BITS


def test_exotic_flux_is_degenerate_on_parabolic_tail():
    # g(s) = s^2 makes w[0,2] constant, so the exotic flux is identically zero
    cur = Current(LIGHTCONE, parse("exp(2*w[0,2])"), parse("0"))
    result = check_conservation(cur, SOLUTIONS[0], RECT)
    assert result.residual == 0.0
    assert math.isinf(result.ratio)


# --- pointwise multiplier check -------------------------------------------------------

ENERGY = Current(LIGHTCONE, parse("w[0,1]^2"), parse("-w[1,0]^2"))
ENERGY_LAMBDA = Characteristic(LIGHTCONE, parse("2*w[0,1] - 2*w[1,0]"))


def test_true_characteristic_gap_is_exactly_zero():
    gap = check_characteristic_numeric(ENERGY_LAMBDA, ENERGY, SOLUTIONS[0])
    assert gap == 0.0


def test_corrupted_characteristic_is_detected():
    wrong = Characteristic(LIGHTCONE, ENERGY_LAMBDA.multiplier + 1)
    gap = check_characteristic_numeric(wrong, ENERGY, SOLUTIONS[0])
    assert gap > 1e-3


def test_spacetime_characteristic_paths():
    cur = Current(SPACETIME, parse("1/2*u[1,0]^2 + 1/2*u[0,1]^2"), parse("-u[1,0]*u[0,1]"))
    mu = Characteristic(SPACETIME, parse("u[1,0]"))
    assert check_characteristic_numeric(mu, cur, SOLUTIONS[1]) == 0.0
    wrong = Characteristic(SPACETIME, parse("u[1,0] + u[0,1]"))
    assert check_characteristic_numeric(wrong, cur, SOLUTIONS[1]) > 1e-3


def test_characteristic_numeric_rejects_frame_mismatch():
    with pytest.raises(ValueError):
        check_characteristic_numeric(
            Characteristic(SPACETIME, parse("u[1,0]")), ENERGY, SOLUTIONS[0]
        )


def test_characteristic_numeric_custom_points_and_seed():
    points = ((0.1, 0.2), (-0.4, 0.9))
    gap = check_characteristic_numeric(ENERGY_LAMBDA, ENERGY, SOLUTIONS[2], points)
    assert gap == 0.0
    # seed changes the random jet offsets but not a true identity
    assert check_characteristic_numeric(ENERGY_LAMBDA, ENERGY, SOLUTIONS[2], seed=7) == 0.0


def test_characteristic_numeric_requires_conserved_current():
    from jetlaw.conservation import NotConservedError

    with pytest.raises(NotConservedError):
        check_characteristic_numeric(
            Characteristic(LIGHTCONE, parse("0")),
            Current(LIGHTCONE, parse("w[1,0]"), parse("0")),
            SOLUTIONS[0],
        )


# --- one identity for both frames ----------------------------------------------------------

# energy plus (D_eta h, -D_xi h) for h = exp(w[0,1]*w[1,0]); normalization
# cannot integrate its exponential, the characteristic check needs none
_POTENTIAL = parse("exp(w[0,1]*w[1,0])")
DRESSED_ENERGY = Current(
    LIGHTCONE,
    ENERGY.first + total_derivative(_POTENTIAL, LIGHTCONE, 1),
    ENERGY.second - total_derivative(_POTENTIAL, LIGHTCONE, 0),
)


def _both_frames(current):
    return (current, current_to_spacetime(current))


def test_characteristic_checks_every_current_it_answers_in_both_frames():
    dressed = [current for _, current in _dressed_currents(100)] + [DRESSED_ENERGY]
    for index, lightcone in enumerate(dressed):
        for current in _both_frames(lightcone):
            lam = characteristic(current)
            wrong = Characteristic(current.frame, lam.multiplier + 1)
            gap = check_characteristic_numeric(lam, current, SOLUTIONS[0], seed=index)
            assert gap < 1e-8, f"current {index} in {current.frame}: {gap}"
            gap = check_characteristic_numeric(wrong, current, SOLUTIONS[0], seed=index)
            assert gap > 1e-3, f"current {index} in {current.frame}: {gap}"


def test_lightcone_points_are_read_as_xi_eta():
    # the coordinate term makes the gap depend on the point: xi = x + t
    wrong = Characteristic(LIGHTCONE, ENERGY_LAMBDA.multiplier + parse("xi"))
    pulled = (characteristic_to_spacetime(wrong), current_to_spacetime(ENERGY))
    xi, eta = 0.75, -0.25  # (t, x) = (0.5, 0.25), exact in binary
    gap = check_characteristic_numeric(wrong, ENERGY, SOLUTIONS[0], [(xi, eta)], seed=5)
    assert gap > 1e-3
    assert gap == check_characteristic_numeric(*pulled, SOLUTIONS[0], [(0.5, 0.25)], seed=5)
    assert gap != check_characteristic_numeric(*pulled, SOLUTIONS[0], [(xi, eta)], seed=5)


def test_lightcone_multiplier_is_checked_modulo_terms_that_vanish_on_solutions():
    # the pullback of the multiplier reduces it, so w[1,1] drops out
    padded = Characteristic(LIGHTCONE, ENERGY_LAMBDA.multiplier + parse("w[1,1]*w[0,3]"))
    for solution in SOLUTIONS:
        assert check_characteristic_numeric(padded, ENERGY, solution) == 0.0


_SEEDED_GAP = """
import sys
from jetlaw import LIGHTCONE, Characteristic, Current, Jet, parse, parse_solution
from jetlaw import check_characteristic_numeric

if sys.argv[1] == "churn":  # intern the jets in another order, at other addresses
    ballast = [object() for _ in range(5000)]
    held = [Jet(v, i, j) for v in "wu" for i in range(6, -1, -1) for j in range(6, -1, -1)]
energy = Current(LIGHTCONE, parse("w[0,1]^2"), parse("-w[1,0]^2"))
wrong = Characteristic(LIGHTCONE, parse("2*w[0,1] - 2*w[1,0] + w[0,2]*w[2,0] + 1"))
solution = parse_solution("sin:1,0;poly:0,0,1")
print(repr(check_characteristic_numeric(wrong, energy, solution, seed=3)))
"""


def test_seeded_gap_is_the_same_in_every_process():
    package_root = os.path.dirname(os.path.dirname(jetlaw.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p)}
    gaps = [
        subprocess.run(
            [sys.executable, "-c", _SEEDED_GAP, history],
            capture_output=True, text=True, check=True, timeout=60, env=env,
        ).stdout.strip()
        for history in ("plain", "churn")
    ]
    assert gaps[0] == gaps[1]
    assert float(gaps[0]) > 1e-3
