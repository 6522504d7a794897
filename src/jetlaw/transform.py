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

from .expr import Expr, Sym, _substitute, as_expr
from .jets import LIGHTCONE, SPACETIME, Frame, check_frame, reduce_to_solutions
from .conservation import Characteristic, Current

HALF = Fraction(1, 2)


_T, _X, _XI, _ETA = (as_expr(Sym(name)) for name in ("t", "x", "xi", "eta"))


# Each power of an atom's image is built once per process and kept here;
# perfbench/run.py calls cache_clear() and cache_info() on both caches.
@lru_cache(maxsize=None)
def _spacetime_image(key, p: int = 1) -> Expr:
    """The p-th power of the reduced space-time form of a light-cone atom:
    the coordinate named key, or the jet w[i,j], min(i,j) = 0, for key (i, j)."""
    if p > 1:
        return _spacetime_image(key) ** p
    if key == "xi":
        return _X + _T
    if key == "eta":
        return _X - _T
    i, j = key
    if i and j:
        raise ValueError("mixed light-cone jets have no image; reduce first")
    n = i + j
    if n == 0:
        return as_expr(SPACETIME.jet(0, 0))
    plus, minus = as_expr(SPACETIME.jet(0, n)), as_expr(SPACETIME.jet(1, n - 1))
    return HALF * (plus + minus if i else plus - minus)


@lru_cache(maxsize=None)
def _lightcone_image(key, p: int = 1) -> Expr:
    """The p-th power of the reduced light-cone form of a space-time atom:
    the coordinate named key, or the jet u[i,j], i <= 1, for key (i, j)."""
    if p > 1:
        return _lightcone_image(key) ** p
    if key == "t":
        return HALF * (_XI - _ETA)
    if key == "x":
        return HALF * (_XI + _ETA)
    i, j = key
    if i > 1:
        raise ValueError("principal space-time jets have no image; reduce first")
    n = i + j
    if n == 0:
        return as_expr(LIGHTCONE.jet(0, 0))
    f, g = as_expr(LIGHTCONE.jet(n, 0)), as_expr(LIGHTCONE.jet(0, n))
    return f - g if i else f + g


# source frame -> the image of an atom's power in the other frame
_IMAGES = {LIGHTCONE: _spacetime_image, SPACETIME: _lightcone_image}


def _pull(e: Expr, source: Frame) -> Expr:
    """Pull an expression in the source frame back to reduced jets of the other."""
    check_frame(e, source)
    image = _IMAGES[source]
    return _substitute(
        reduce_to_solutions(e, source),
        lambda a, p: image(a.name if type(a) is Sym else (a.i, a.j), p),
    )


def substitute_to_spacetime(e: Expr) -> Expr:
    """Pull a light-cone expression back to reduced space-time jets."""
    return _pull(e, LIGHTCONE)


def substitute_to_lightcone(e: Expr) -> Expr:
    """Pull a space-time expression back to reduced light-cone jets."""
    return _pull(e, SPACETIME)


def current_to_spacetime(current: Current) -> Current:
    if current.frame is not LIGHTCONE:
        raise ValueError("expected a light-cone current")
    f, g = _pull(current.first, LIGHTCONE), _pull(current.second, LIGHTCONE)
    return Current(SPACETIME, f - g, f + g)


def current_to_lightcone(current: Current) -> Current:
    if current.frame is not SPACETIME:
        raise ValueError("expected a space-time current")
    t, x = _pull(current.first, SPACETIME), _pull(current.second, SPACETIME)
    return Current(LIGHTCONE, HALF * (t + x), HALF * (x - t))


def characteristic_to_spacetime(characteristic: Characteristic) -> Characteristic:
    if characteristic.frame is not LIGHTCONE:
        raise ValueError("expected a light-cone characteristic")
    return Characteristic(SPACETIME, -HALF * _pull(characteristic.multiplier, LIGHTCONE))


def characteristic_to_lightcone(characteristic: Characteristic) -> Characteristic:
    if characteristic.frame is not SPACETIME:
        raise ValueError("expected a space-time characteristic")
    return Characteristic(LIGHTCONE, -2 * _pull(characteristic.multiplier, SPACETIME))
