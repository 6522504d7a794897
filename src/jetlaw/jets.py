"""Jet-space calculus for the 1+1D wave equation in two coordinate frames.

A frame is its equation, held as data: a leading jet and the jets it equals
on solutions.  The derivatives of the leading jet are the principal jets.
Light-cone (xi, eta; w): w[1,1] = 0, so every mixed jet w[k,l] vanishes on
solutions.  Space-time (t, x; u): u[2,0] = u[0,2], the Kovalevskaya form in
t, so every jet u[i,j] with i >= 2 rewrites to u[i-2,j+2] until i <= 1.

``reduce_to_solutions`` applies those rewrites; ``total_derivative`` acts in
the full jet space; ``restricted_derivative`` is the total derivative
evaluated on solutions and is only defined on already-reduced expressions.
"""

from __future__ import annotations

from .expr import Expr, Jet, Sym, _Record, _derive, as_expr, diff_partial, substitute


class FrameMismatchError(ValueError):
    """Expression uses atoms that do not belong to the frame."""


class PrincipalDerivativeError(ValueError):
    """A reduced expression was required but a principal jet is present."""

    def __init__(self, jet: Jet):
        super().__init__(f"expression contains the principal derivative {jet}")
        self.jet = jet


class Frame(_Record):
    """Two independent symbols, one dependent variable, and the equation
    jet(*leading) = sum of jet(*e) for e in equals (zero when empty).

    Fields: name; variables, a pair of symbol names; dependent; leading, an
    (i, j) pair; equals, a tuple of (i, j) pairs.
    """

    __slots__ = ("name", "variables", "dependent", "leading", "equals")
    _defaults = {"equals": ()}

    def symbol(self, axis: int) -> Sym:
        return Sym(self.variables[axis])

    def jet(self, i: int, j: int) -> Jet:
        return Jet(self.dependent, i, j)

    def is_principal(self, jet: Jet) -> bool:
        """True iff the jet is a derivative of the leading jet."""
        return jet.i >= self.leading[0] and jet.j >= self.leading[1]

    @staticmethod
    def from_name(name: str) -> "Frame":
        try:
            return _FRAMES[name]
        except KeyError:
            raise ValueError(f"unknown frame {name!r}") from None

    def __str__(self):
        return self.name

    def __reduce__(self):
        # the named frames are compared by identity, so copies must be them
        if _FRAMES.get(self.name) is self:
            return Frame.from_name, (self.name,)
        return super().__reduce__()


LIGHTCONE = Frame("lightcone", ("xi", "eta"), "w", leading=(1, 1))
SPACETIME = Frame("spacetime", ("t", "x"), "u", leading=(2, 0), equals=((0, 2),))
_FRAMES = {"lightcone": LIGHTCONE, "spacetime": SPACETIME}


def _first_foreign(atoms, frame: Frame):
    """The first of the Sym and Jet atoms that is foreign to the frame, or None."""
    for a in atoms:
        if (a.name not in frame.variables) if isinstance(a, Sym) else (a.var != frame.dependent):
            return a
    return None


def check_frame(e: Expr, frame: Frame) -> None:
    """Raise FrameMismatchError if e mentions atoms foreign to the frame,
    naming the foreign atom that comes first in sort_key order."""
    if _first_foreign(e.base_atoms(), frame) is not None:
        a = _first_foreign(sorted(e.base_atoms(), key=lambda a: a.sort_key), frame)
        if isinstance(a, Sym):
            raise FrameMismatchError(f"symbol {a} does not belong to frame {frame}")
        raise FrameMismatchError(f"jet variable {a.var!r} is not the {frame} dependent variable")


def reduce_to_solutions(e: Expr, frame: Frame) -> Expr:
    """Rewrite all principal derivatives using the equation; idempotent.

    Light-cone: w[k,l] -> 0 for k,l >= 1.  Space-time: u[i,j] -> u[i-2,j+2]
    applied until i <= 1.
    """
    bindings = {
        a: _on_solutions(a, frame)
        for a in e.jets(frame.dependent)
        if frame.is_principal(a)
    }
    return substitute(e, bindings) if bindings else e


def _on_solutions(jet: Jet, frame: Frame) -> Expr:
    """D^s(leading) as the sum of D^s(e) over the jets e in equals, repeated
    until no principal jet is left."""
    li, lj = frame.leading
    parts = []
    pending = [(jet.i, jet.j)]
    while pending:
        i, j = pending.pop()
        if i >= li and j >= lj:
            pending.extend((i - li + ei, j - lj + ej) for ei, ej in frame.equals)
        else:
            parts.append(as_expr(frame.jet(i, j)))
    return Expr._sum(parts)


def total_derivative(e: Expr, frame: Frame, axis: int) -> Expr:
    """Total derivative along frame variable 0 or 1, in the full jet space.

    One pass of the derivation sym -> 1, other symbol -> 0, jet -> the jet
    shifted along the axis; function atoms differentiate their argument
    the same way (chain rule).
    """
    if axis not in (0, 1):
        raise ValueError("axis must be 0 or 1")
    check_frame(e, frame)
    sym = frame.symbol(axis)

    def base_derivative(a) -> Expr:
        if isinstance(a, Jet):
            return as_expr(a.shifted(axis))
        return Expr.one() if a == sym else Expr.zero()

    return _derive(e, base_derivative)


def restricted_derivative(e: Expr, frame: Frame, axis: int) -> Expr:
    """Total derivative evaluated on solutions.

    Requires e to be reduced already, so that the result is again the
    restriction of a well-defined differential function.
    """
    for a in e.base_atoms():
        if isinstance(a, Jet) and a.var == frame.dependent and frame.is_principal(a):
            raise PrincipalDerivativeError(a)
    return reduce_to_solutions(total_derivative(e, frame, axis), frame)


def equation_expression(frame: Frame) -> Expr:
    """Left-hand side of the wave equation in the frame's coordinates."""
    out = as_expr(frame.jet(*frame.leading))
    for i, j in frame.equals:
        out = out - as_expr(frame.jet(i, j))
    return out


def euler_operator(lagrangian: Expr, frame: Frame) -> Expr:
    """Variational derivative sum((-D1)^i (-D2)^j d/d(jet i,j)) applied to L.

    Computed over the jets actually present, in the full jet space.  The
    result annihilates exactly the total divergences.
    """
    check_frame(lagrangian, frame)
    parts = []
    for a in sorted(lagrangian.jets(frame.dependent), key=lambda j: j.sort_key):
        term = diff_partial(lagrangian, a)
        for _ in range(a.i):
            term = total_derivative(term, frame, 0)
        for _ in range(a.j):
            term = total_derivative(term, frame, 1)
        parts.append(-term if (a.i + a.j) % 2 else term)
    return Expr._sum(parts)
