"""Exact translation between the light-cone and space-time frames.

The frames are linked by xi = x + t, eta = x - t with the same dependent
surface.  Every solution is u = f(x + t) + g(x - t), that is
w = F(xi) + G(eta), so on solutions w[n,0] = F^(n)(xi), w[0,n] = G^(n)(eta)
and every mixed jet vanishes.  With D_x = D_xi + D_eta and
D_t = D_xi - D_eta, for n >= 1

    u[0,n]   = D_x^n u         = F^(n) + G^(n) = w[n,0] + w[0,n]
    u[1,n-1] = D_t D_x^(n-1) u = F^(n) - G^(n) = w[n,0] - w[0,n]

and solving for the light-cone jets

    w[n,0] = 1/2 (u[0,n] + u[1,n-1])
    w[0,n] = 1/2 (u[0,n] - u[1,n-1])

with w[0,0] = u[0,0].  These are the atom images in both directions; each
is already reduced, so a reduced expression maps to a reduced expression.

Current components mix under the frame change.  The convention used here
maps the light-cone pair (F, G) to (T, X) = (F - G, F + G) pulled back to
space-time coordinates; then D_t T + D_x X = 2 (D_xi F + D_eta G), so
conserved currents map to conserved currents.  The inverse halves the sum
and difference, making the two maps exact mutual inverses on reduced
currents.  Characteristics pick up the factor -1/2 (forward) and -2
(backward) because w[1,1] = -1/4 (u[2,0] - u[0,2]) modulo the chain rule.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .expr import Expr, Jet, Sym, as_expr, substitute
from .jets import LIGHTCONE, SPACETIME, check_frame, reduce_to_solutions
from .conservation import Characteristic, Current

HALF = Fraction(1, 2)


# lru_cache only because perfbench/run.py calls cache_clear() and cache_info() on both.
@lru_cache(maxsize=None)
def _spacetime_image(i: int, j: int) -> Expr:
    """Reduced space-time form of the light-cone jet w[i,j], min(i,j) = 0."""
    if i and j:
        raise ValueError("mixed light-cone jets have no image; reduce first")
    n = i + j
    if n == 0:
        return as_expr(SPACETIME.jet(0, 0))
    plus, minus = as_expr(SPACETIME.jet(0, n)), as_expr(SPACETIME.jet(1, n - 1))
    return HALF * (plus + minus if i else plus - minus)


@lru_cache(maxsize=None)
def _lightcone_image(i: int, j: int) -> Expr:
    """Reduced light-cone form of the space-time jet u[i,j], i <= 1."""
    if i > 1:
        raise ValueError("principal space-time jets have no image; reduce first")
    n = i + j
    if n == 0:
        return as_expr(LIGHTCONE.jet(0, 0))
    f, g = as_expr(LIGHTCONE.jet(n, 0)), as_expr(LIGHTCONE.jet(0, n))
    return f - g if i else f + g


_SYMBOL_TO_SPACETIME = {
    Sym("xi"): as_expr(Sym("x")) + as_expr(Sym("t")),
    Sym("eta"): as_expr(Sym("x")) - as_expr(Sym("t")),
}

_SYMBOL_TO_LIGHTCONE = {
    Sym("t"): HALF * (as_expr(Sym("xi")) - as_expr(Sym("eta"))),
    Sym("x"): HALF * (as_expr(Sym("xi")) + as_expr(Sym("eta"))),
}


def substitute_to_spacetime(e: Expr) -> Expr:
    """Pull a light-cone expression back to reduced space-time jets."""
    check_frame(e, LIGHTCONE)
    e = reduce_to_solutions(e, LIGHTCONE)
    bindings: dict = dict(_SYMBOL_TO_SPACETIME)
    for a in e.base_atoms():
        if isinstance(a, Jet):
            bindings[a] = _spacetime_image(a.i, a.j)
    return substitute(e, bindings)


def substitute_to_lightcone(e: Expr) -> Expr:
    """Pull a space-time expression back to reduced light-cone jets."""
    check_frame(e, SPACETIME)
    e = reduce_to_solutions(e, SPACETIME)
    bindings: dict = dict(_SYMBOL_TO_LIGHTCONE)
    for a in e.base_atoms():
        if isinstance(a, Jet):
            bindings[a] = _lightcone_image(a.i, a.j)
    return substitute(e, bindings)


def current_to_spacetime(current: Current) -> Current:
    if current.frame is not LIGHTCONE:
        raise ValueError("expected a light-cone current")
    # substitute_to_spacetime reduces its input, and reduction is linear
    return Current(
        SPACETIME,
        substitute_to_spacetime(current.first - current.second),
        substitute_to_spacetime(current.first + current.second),
    )


def current_to_lightcone(current: Current) -> Current:
    if current.frame is not SPACETIME:
        raise ValueError("expected a space-time current")
    return Current(
        LIGHTCONE,
        substitute_to_lightcone(HALF * (current.first + current.second)),
        substitute_to_lightcone(HALF * (current.second - current.first)),
    )


def characteristic_to_spacetime(characteristic: Characteristic) -> Characteristic:
    if characteristic.frame is not LIGHTCONE:
        raise ValueError("expected a light-cone characteristic")
    return Characteristic(
        SPACETIME, -HALF * substitute_to_spacetime(characteristic.multiplier)
    )


def characteristic_to_lightcone(characteristic: Characteristic) -> Characteristic:
    if characteristic.frame is not SPACETIME:
        raise ValueError("expected a space-time characteristic")
    return Characteristic(
        LIGHTCONE, -2 * substitute_to_lightcone(characteristic.multiplier)
    )
