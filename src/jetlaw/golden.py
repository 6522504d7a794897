"""The twelve worked examples wired into both the CLI and the test suite.

Each case exercises one pipeline end to end against frozen expected values:
the four physical conservation laws of the wave equation, the exotic
exponential current, the two Lagrangian checks, triviality certificates,
the non-variational scaling multiplier, and the numeric flux oracle.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction

from .expr import _Record, parse
from .jets import LIGHTCONE, SPACETIME, euler_operator
from .conservation import (
    CanonicalCurrent,
    Characteristic,
    Current,
    characteristic_canonical,
    is_characteristic,
    is_trivial,
    trivial_witness,
    verify_current,
)
from .transform import characteristic_to_spacetime, current_to_spacetime
from .oracle import Rectangle, check_conservation, parse_solution


def lightcone_current(first: str, second: str) -> CanonicalCurrent:
    return CanonicalCurrent(LIGHTCONE, parse(first), parse(second))


MOMENTUM = lightcone_current("-w[0,1]", "-w[1,0]")
CENTER_OF_MASS = lightcone_current("eta*w[0,1]", "-xi*w[1,0]")
ANGULAR_MOMENTUM = lightcone_current("-eta*w[0,1]", "-xi*w[1,0]")
ENERGY = lightcone_current("w[0,1]^2", "-w[1,0]^2")
EXOTIC = lightcone_current("exp(2*w[0,2])", "0")

GOLDEN_CURRENTS = {
    "momentum": MOMENTUM,
    "center-of-mass": CENTER_OF_MASS,
    "angular-momentum": ANGULAR_MOMENTUM,
    "energy": ENERGY,
    "exotic": EXOTIC,
}

# Classical space-time forms of the same laws, for the difference tests.
CLASSIC_CENTER_OF_MASS = Current(
    SPACETIME, parse("t*u[1,0] - u[0,0]"), parse("-t*u[0,1]")
)
CLASSIC_ANGULAR_MOMENTUM = Current(
    SPACETIME, parse("x*u[1,0]"), parse("-x*u[0,1] + u[0,0]")
)

GOLDEN_SOLUTIONS = (
    parse_solution("sin:1,0;poly:0,0,1"),
    parse_solution("poly:0,0,0,1;exp:1,0"),
    parse_solution(";cos:1,0"),
)

# Non-square on purpose: the light-cone structure of wave solutions makes
# the leading quadrature errors of the two edge families cancel pointwise
# when the t and x panel widths agree, which would leave nothing but
# rounding noise to measure convergence against.
GOLDEN_RECTANGLE = Rectangle(0.0, 0.75, -1.75, -0.75, 128)


def _spacetime_difference_trivial(mine: Current, classic: Current) -> bool:
    delta = Current(
        SPACETIME, mine.first - classic.first, mine.second - classic.second
    )
    return verify_current(delta) and is_trivial(delta)


def _pipeline(current, lam, first, second, mu, classic=None) -> Callable[[], bool]:
    """Check a law's characteristic, its space-time pull-back (first, second)
    and space-time multiplier against frozen forms, and with ``classic`` that
    the pull-back differs from the classical current by a trivial one."""

    def run() -> bool:
        multiplier = characteristic_canonical(current).multiplier
        pulled = current_to_spacetime(current)
        spacetime = characteristic_to_spacetime(Characteristic(LIGHTCONE, multiplier))
        return (
            multiplier == parse(lam)
            and pulled.first == parse(first)
            and pulled.second == parse(second)
            and str(spacetime.multiplier) == mu
            and (classic is None or _spacetime_difference_trivial(pulled, classic))
        )

    return run


def _case_exotic_characteristic() -> bool:
    lam = characteristic_canonical(EXOTIC).multiplier
    return verify_current(EXOTIC) and lam == parse("-4*w[0,3]*exp(2*w[0,2])")


def _case_exotic_spacetime() -> bool:
    pulled = current_to_spacetime(EXOTIC)
    lam = characteristic_canonical(EXOTIC)
    mu = characteristic_to_spacetime(lam).multiplier
    expected = parse("exp(u[0,2] - u[1,1])")
    return (
        pulled.first == expected
        and pulled.second == expected
        and mu == parse("(u[0,3] - u[1,2])*exp(u[0,2] - u[1,1])")
    )


def _case_lagrangian_lightcone() -> bool:
    left = euler_operator(parse("-1/2*w[1,0]*w[0,1]"), LIGHTCONE)
    return left == parse("w[1,1]")


def _case_lagrangian_spacetime() -> bool:
    left = euler_operator(parse("-1/2*u[1,0]^2 + 1/2*u[0,1]^2"), SPACETIME)
    return left == parse("u[2,0] - u[0,2]")


def _case_triviality_family() -> bool:
    basic = lightcone_current("w[0,1]", "-w[1,0]")
    if not is_trivial(basic):
        return False
    dressed = lightcone_current("2*w[0,1]*w[0,2] + 3*w[0,1]", "-3*w[1,0]")
    if not is_trivial(dressed):
        return False
    witness = trivial_witness(dressed)
    return witness.constant == Fraction(3) and witness.f_part == parse("w[0,1]^2")


def _case_scaling_not_characteristic() -> bool:
    scaling = Characteristic(LIGHTCONE, parse("w[0,0]"))
    residue = euler_operator(parse("w[0,0]*w[1,1]"), LIGHTCONE)
    return (not is_characteristic(scaling)) and residue == parse("2*w[1,1]")


def _case_numeric_energy() -> bool:
    result = check_conservation(ENERGY, GOLDEN_SOLUTIONS[0], GOLDEN_RECTANGLE)
    return result.residual < 1e-8 and (
        result.coarse_residual < 1e-12 or 12 <= result.ratio <= 20
    )


def _case_numeric_counterexample() -> bool:
    broken = Current(LIGHTCONE, parse("w[1,0]"), parse("0"))
    fine = check_conservation(broken, GOLDEN_SOLUTIONS[0], GOLDEN_RECTANGLE)
    rough = check_conservation(broken, GOLDEN_SOLUTIONS[0], GOLDEN_RECTANGLE._replace(panels=32))
    return fine.residual > 1e-3 and rough.residual > 1e-3


class GoldenCase(_Record):
    """A named worked example; run() is true when it passes."""

    __slots__ = ("name", "run")


GOLDEN_CASES = (
    GoldenCase("momentum pipeline", _pipeline(MOMENTUM, "-2", "u[1,0]", "-u[0,1]", "1")),
    GoldenCase("center-of-mass pipeline", _pipeline(
        CENTER_OF_MASS, "eta - xi", "x*u[0,1] + t*u[1,0]", "-x*u[1,0] - t*u[0,1]", "t",
        CLASSIC_CENTER_OF_MASS,
    )),
    GoldenCase("angular-momentum pipeline", _pipeline(
        ANGULAR_MOMENTUM, "-eta - xi", "x*u[1,0] + t*u[0,1]", "-x*u[0,1] - t*u[1,0]", "x",
        CLASSIC_ANGULAR_MOMENTUM,
    )),
    GoldenCase("energy pipeline", _pipeline(
        ENERGY, "2*w[0,1] - 2*w[1,0]", "1/2*u[1,0]^2 + 1/2*u[0,1]^2", "-u[1,0]*u[0,1]",
        "u[1,0]",
    )),
    GoldenCase("exotic characteristic", _case_exotic_characteristic),
    GoldenCase("exotic space-time form", _case_exotic_spacetime),
    GoldenCase("light-cone Lagrangian", _case_lagrangian_lightcone),
    GoldenCase("space-time Lagrangian", _case_lagrangian_spacetime),
    GoldenCase("triviality certificates", _case_triviality_family),
    GoldenCase("scaling is not variational", _case_scaling_not_characteristic),
    GoldenCase("numeric flux, energy", _case_numeric_energy),
    GoldenCase("numeric flux counterexample", _case_numeric_counterexample),
)
