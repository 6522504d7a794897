"""Numeric cross-check of the symbolic results on closed-form solutions.

Wave-equation solutions are built as u(t, x) = f(x + t) + g(x - t) from a
small library of profile atoms with exact derivative rules, so every jet
value is available in closed form to machine precision.  Two checks are
provided: a contour-flux test of conservation in either frame (the net flux
of a conserved current through a rectangle boundary must vanish) and an
off-solution sampling test of the exact divergence identity behind a
characteristic, which checks light-cone input through its space-time pullback.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from functools import lru_cache

from .expr import Expr, Jet, _Record, evaluate_float
from .jets import LIGHTCONE, SPACETIME, equation_expression, total_derivative
from .conservation import Characteristic, Current, divergence, spacetime_remainder
from .transform import characteristic_to_spacetime, current_to_spacetime


class SolutionFormatError(ValueError):
    """The solution text does not follow the profile grammar."""


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise SolutionFormatError(f"bad rational {text!r}") from exc


class Poly(_Record):
    """Polynomial profile sum(coeffs[k] * s^k)."""

    __slots__ = ("coeffs",)

    def derivative(self) -> "Poly":
        return Poly(tuple(k * c for k, c in enumerate(self.coeffs) if k))

    def __call__(self, s: float) -> float:
        total = 0.0
        for c in reversed(self.coeffs):
            total = total * s + float(c)
        return total


# head -> (float function, sign and head of the derivative); the oracle
# keeps its own table, independent of the kernel's
_HEADS = {
    "sin": (math.sin, 1, "cos"),
    "cos": (math.cos, -1, "sin"),
    "exp": (math.exp, 1, "exp"),
}


class Wave(_Record):
    """Profile scale * head(a*s + b), head sin, cos or exp, with Fraction a,
    b and scale."""

    __slots__ = ("head", "a", "b", "scale")
    _defaults = {"scale": Fraction(1)}

    def __post_init__(self):
        if self.head not in _HEADS:
            raise ValueError(f"unknown profile head {self.head!r}")

    def derivative(self) -> "Wave":
        _, sign, head = _HEADS[self.head]
        return Wave(head, self.a, self.b, sign * self.scale * self.a)

    def __call__(self, s: float) -> float:
        return float(self.scale) * _HEADS[self.head][0](float(self.a) * s + float(self.b))


@lru_cache(maxsize=256)
def _derived(terms: tuple, order: int) -> tuple:
    """The profiles' derivatives of the given order, each pair made once:
    the flux check asks for them at every quadrature node."""
    for _ in range(order):
        terms = tuple(t.derivative() for t in terms)
    return terms


class Solution(_Record):
    """u(t, x) = f(x + t) + g(x - t) with closed-form profile derivatives;
    f_terms and g_terms are tuples of profiles."""

    __slots__ = ("f_terms", "g_terms")

    def f(self, order: int, s: float) -> float:
        return sum(term(s) for term in _derived(self.f_terms, order))

    def g(self, order: int, s: float) -> float:
        return sum(term(s) for term in _derived(self.g_terms, order))

    def value(self, t: float, x: float) -> float:
        return self.f(0, x + t) + self.g(0, x - t)


def parse_solution(text: str) -> Solution:
    """Parse 'f-spec;g-spec', each side '+'-joined profile atoms.

    Atom forms: poly:c0,c1,...  sin:a,b[,scale]  cos:a,b[,scale]
    exp:a,b[,scale], with rational parameters.  An empty side is zero.
    """
    sides = text.split(";")
    if len(sides) != 2:
        raise SolutionFormatError("expected exactly one ';' between f and g")

    def parse_side(side: str) -> tuple:
        side = side.strip()
        if not side:
            return ()
        atoms = []
        for chunk in side.split("+"):
            head, _, argtext = chunk.strip().partition(":")
            args = [_fraction(a) for a in argtext.split(",")] if argtext else []
            head = head.strip()
            if head == "poly":
                if not args:
                    raise SolutionFormatError("poly needs at least one coefficient")
                atoms.append(Poly(tuple(args)))
            elif head in _HEADS:
                if len(args) not in (2, 3):
                    raise SolutionFormatError(f"{head} takes a,b[,scale]")
                atoms.append(Wave(head, *args))
            else:
                raise SolutionFormatError(f"unknown profile atom {head!r}")
        return tuple(atoms)

    return Solution(parse_side(sides[0]), parse_side(sides[1]))


def eval_jet(solution: Solution, frame, jet: Jet, first: float, second: float) -> float:
    """Value of one jet coordinate at a point given in frame coordinates.

    Space-time jets follow u[i,j] = f^(i+j)(x+t) + (-1)^i g^(i+j)(x-t);
    light-cone jets split into the two characteristic families, and every
    mixed light-cone jet vanishes on solutions.
    """
    if frame is SPACETIME:
        t, x = first, second
        sign = -1.0 if jet.i % 2 else 1.0
        order = jet.i + jet.j
        return solution.f(order, x + t) + sign * solution.g(order, x - t)
    xi, eta = first, second
    if jet.i == 0 and jet.j == 0:
        return solution.f(0, xi) + solution.g(0, eta)
    if jet.j == 0:
        return solution.f(jet.i, xi)
    if jet.i == 0:
        return solution.g(jet.j, eta)
    return 0.0


def _sorted_atoms(exprs: Iterable[Expr]) -> tuple:
    """Every Sym and Jet atom of the expressions, in sort_key order."""
    atoms = frozenset().union(*(e.base_atoms() for e in exprs))
    return tuple(sorted(atoms, key=lambda a: a.sort_key))


def _environment(
    solution: Solution,
    frame,
    coords: tuple,
    atoms: Sequence,
    rng: random.Random | None = None,
) -> dict:
    """Float environment for the atoms at a point in frame coordinates; with
    rng, each jet in turn gets an offset drawn from [-1, 1]."""
    env: dict = {
        frame.symbol(0): float(coords[0]),
        frame.symbol(1): float(coords[1]),
    }
    for a in atoms:
        if isinstance(a, Jet):
            value = eval_jet(solution, frame, a, coords[0], coords[1])
            env[a] = (value + rng.uniform(-1.0, 1.0)) if rng else value
    return env


def _simpson(fn: Callable[[float], float], a: float, b: float, panels: int) -> float:
    h = (b - a) / panels
    total = fn(a) + fn(b)
    for k in range(1, panels):
        total += (4.0 if k % 2 else 2.0) * fn(a + k * h)
    return total * h / 3.0


class Rectangle(_Record):
    """Closed contour for the flux test, axis-aligned in (t, x): float
    corners t0 < t1 and x0 < x1, and the Simpson panels per edge."""

    __slots__ = ("t0", "t1", "x0", "x1", "panels")
    _defaults = {"panels": 128}

    def __post_init__(self):
        if not all(map(math.isfinite, (self.t0, self.t1, self.x0, self.x1))):
            raise ValueError("rectangle corners must be finite")
        if not (self.t1 > self.t0 and self.x1 > self.x0):
            raise ValueError("rectangle must have positive extent")
        if self.panels < 16 or self.panels % 2:
            raise ValueError("panel count must be even and at least 16")


class FluxResult(_Record):
    """The flux check's float residuals, with the rectangle's panel count
    and with about half as many, and their ratio, coarse over fine."""

    __slots__ = ("residual", "coarse_residual", "ratio")


def check_conservation(
    current: Current, solution: Solution, rect: Rectangle
) -> FluxResult:
    """Net flux of (T, X) through the rectangle boundary, fine and coarse.

    A light-cone current (F, G) is evaluated at xi = x + t, eta = x - t and
    gives (T, X) = (F - G, F + G) pointwise; no symbolic transform is
    involved, keeping the check independent.  For a conserved current the
    exact flux is zero, so the Simpson value is pure quadrature error: the
    fine residual stays near rounding level for smooth solutions and
    shrinks about sixteen-fold against the half-resolution pass when the
    exact flux is nonzero instead.
    """
    reduced = current.reduced()
    atoms = _sorted_atoms((reduced.first, reduced.second))
    lightcone = current.frame is LIGHTCONE

    def values(t: float, x: float):
        env = _environment(solution, current.frame, (x + t, x - t) if lightcone else (t, x), atoms)
        first = evaluate_float(reduced.first, env)
        second = evaluate_float(reduced.second, env)
        return (first - second, first + second) if lightcone else (first, second)

    def flux(panels: int) -> float:
        top_minus_bottom = _simpson(
            lambda x: values(rect.t1, x)[0] - values(rect.t0, x)[0],
            rect.x0,
            rect.x1,
            panels,
        )
        right_minus_left = _simpson(
            lambda t: values(t, rect.x1)[1] - values(t, rect.x0)[1],
            rect.t0,
            rect.t1,
            panels,
        )
        return top_minus_bottom + right_minus_left

    fine = abs(flux(rect.panels))
    half = rect.panels // 2
    coarse = abs(flux(half if half % 2 == 0 else half + 1))
    ratio = coarse / fine if fine else math.inf
    return FluxResult(fine, coarse, ratio)


def check_characteristic_numeric(
    characteristic: Characteristic,
    current: Current,
    solution: Solution,
    points: Sequence = (),
    *,
    seed: int = 42,
) -> float:
    """Max gap in the divergence identity at randomly perturbed jet points.

    Light-cone input, with points read as (xi, eta), is checked through its
    space-time pullback.  The identity D_t T + D_x X = mu * (u[2,0] - u[0,2])
    + D_x X0, X0 from ``spacetime_remainder``, holds in the full jet space, so
    both sides are evaluated with solution jet values plus random offsets in
    [-1, 1]; a wrong multiplier mu leaves a gap of the size of the equation
    residue.  Raises NotConservedError for a current that is not conserved.
    """
    if characteristic.frame is not current.frame:
        raise ValueError("characteristic and current frames differ")
    rng = random.Random(seed)
    if not points:
        points = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(5)]
    if current.frame is LIGHTCONE:
        characteristic = characteristic_to_spacetime(characteristic)
        current = current_to_spacetime(current)
        points = [((xi - eta) / 2, (xi + eta) / 2) for xi, eta in points]

    _, remainder = spacetime_remainder(current)
    lhs = divergence(current.reduced())
    equation = equation_expression(SPACETIME)
    rhs = characteristic.multiplier * equation + total_derivative(remainder, SPACETIME, 1)
    atoms = _sorted_atoms((lhs, rhs))
    worst = 0.0
    for coords in points:
        env = _environment(solution, SPACETIME, coords, atoms, rng)
        worst = max(worst, abs(evaluate_float(lhs, env) - evaluate_float(rhs, env)))
    return worst
