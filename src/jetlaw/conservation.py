"""Conserved currents of the wave equation: verification, canonical form,
characteristics, and triviality certificates.

The characteristic of a conserved current is the multiplier lambda with
Div = lambda * (equation LHS) modulo identically divergence-free currents.
One routine, ``_integrate_by_parts``, reads it off in the current's own
frame: it walks (-D)^n over each coefficient dC/dJ along the axis that is
not the component's own, and collects the remainder current on the way.
The wave equation is normal, so equivalent currents have characteristics
that agree on solutions, and a current is trivial exactly when its
characteristic vanishes there (Olver, *Applications of Lie Groups to
Differential Equations*, 2nd ed., Thms 4.26-4.28).

Only normalization and triviality witnesses need the light-cone frame,
where the equation is w[1,1] = 0.  The canonical form of a current has F
depending only on eta and the eta-derivatives w[0,l] (l >= 1), and G only
on xi and the xi-derivatives w[k,0] (k >= 1).
"""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType

from .expr import (
    Expr,
    Jet,
    Sym,
    UnsupportedIntegrandError,
    _Record,
    as_expr,
    diff_partial,
    integrate_univar,
    is_zero,
)
from .jets import (
    LIGHTCONE,
    SPACETIME,
    check_frame,
    equation_expression,
    euler_operator,
    reduce_to_solutions,
    restricted_derivative,
    total_derivative,
)


class NotConservedError(ValueError):
    """The pair fails D1 F + D2 G = 0 on solutions."""


class Current(_Record):
    """A pair of differential functions paired with the frame's divergence:
    a Frame and two Exprs, first and second."""

    __slots__ = ("frame", "first", "second")

    def __post_init__(self):
        check_frame(self.first, self.frame)
        check_frame(self.second, self.frame)

    def reduced(self) -> "Current":
        return Current(
            self.frame,
            reduce_to_solutions(self.first, self.frame),
            reduce_to_solutions(self.second, self.frame),
        )


def _one_sided(e: Expr, axis: int) -> bool:
    """True iff e depends only on the light-cone variable along axis and on
    jets differentiated along that axis alone, at least once."""
    for a in e.base_atoms():
        if isinstance(a, Sym) and a.name != LIGHTCONE.variables[axis]:
            return False
        if isinstance(a, Jet) and ((a.i, a.j)[1 - axis] or not (a.i, a.j)[axis]):
            return False
    return True


class CanonicalCurrent(Current):
    """A light-cone current in canonical shape.

    first = F(eta, w[0,1], ..., w[0,r]); second = G(xi, w[1,0], ..., w[r,0]).
    In particular neither component may contain w itself or any mixed jet.
    """

    __slots__ = ()

    def __post_init__(self):
        super().__post_init__()
        if self.frame is not LIGHTCONE:
            raise ValueError("canonical currents live in the light-cone frame")
        for label, component, axis in (
            ("first", self.first, 1),
            ("second", self.second, 0),
        ):
            if not _one_sided(component, axis):
                side = LIGHTCONE.variables[axis]
                raise ValueError(f"{label} component {component} is not {side}-sided")


class Characteristic(_Record):
    """A multiplier lambda with Div(current) = lambda * (equation LHS): a
    Frame and the Expr multiplier."""

    __slots__ = ("frame", "multiplier")

    def __post_init__(self):
        check_frame(self.multiplier, self.frame)


class TrivialWitness(_Record):
    """Certificate that a canonical current is trivial.

    F == D_eta(f_part) + constant * w[0,1] and
    G == D_xi(g_part) - constant * w[1,0], with the restricted derivatives;
    f_part and g_part are Exprs, constant a Fraction.
    """

    __slots__ = ("f_part", "g_part", "constant")


def divergence(current: Current) -> Expr:
    """D1(first) + D2(second) in the full jet space."""
    return total_derivative(current.first, current.frame, 0) + total_derivative(
        current.second, current.frame, 1
    )


def verify_current(current: Current, *, samples: int = 8, seed: int = 42) -> bool:
    """True iff the divergence vanishes on solutions, taken with restricted
    derivatives of the reduced components."""
    r, frame = current.reduced(), current.frame
    residue = restricted_derivative(r.first, frame, 0) + restricted_derivative(r.second, frame, 1)
    return is_zero(residue, samples=samples, seed=seed)


def _require_conserved(current: Current, *, samples: int = 8, seed: int = 42) -> None:
    if not verify_current(current, samples=samples, seed=seed):
        raise NotConservedError("divergence does not vanish on solutions")


def _require_canonical(current: Current) -> None:
    if not isinstance(current, CanonicalCurrent):
        raise ValueError(
            f"expected a CanonicalCurrent (see normalize_current), not {type(current).__name__}"
        )


def _xi_orders(e: Expr) -> list[int]:
    """Indices k (w itself counting as k = 0) with d e / d w[k,0] nonzero."""
    return sorted(a.i for a in e.jets("w") if a.j == 0)


def normalize_current(
    current: Current,
    point: Mapping = MappingProxyType({}),
    *,
    samples: int = 8,
    seed: int = 42,
) -> CanonicalCurrent:
    """Bring a conserved light-cone current to canonical shape.

    The current is changed only by identically divergence-free pairs
    (D_eta H, -D_xi H), so the output is equivalent to the input and has
    the same characteristic.  Steps: zero out mixed derivatives; strip the
    xi-derivative dependence (w itself included) of F from highest order
    down, integrating the matching slice of G from the reference point
    (point maps atoms to rational base values; unlisted atoms start at 0);
    strip the xi dependence of F the same way; the conservation identity
    then forces G into xi-sided shape.  samples and seed configure the
    zero tests, as in ``verify_current``.
    """
    if current.frame is not LIGHTCONE:
        raise ValueError("normalization operates on light-cone currents")
    _require_conserved(current, samples=samples, seed=seed)
    reduced = current.reduced()
    first, second = reduced.first, reduced.second

    # Stripping the w[q,0]-dependence via the substitution F|_{w[q,0]=p}
    # is exact only for q >= 1; adding the divergence-free pair keeps the
    # equivalence class in every case, including q = 0 where the plain
    # substitution would drop a boundary term w[0,1]*(dG/dw[1,0])|_{w=p}.
    # q can jump upward once at the q = 0 step; afterwards F stays free of
    # w and the orders decrease strictly, so the loop terminates.  first,
    # second and the restricted derivatives are all reduced, so their sums
    # need no further reduction.
    used_zero_step = False
    previous_q = None
    for _ in range(200):
        orders = _xi_orders(first)
        if not orders:
            break
        q = orders[-1]
        if q == 0:
            if used_zero_step:
                raise AssertionError("w-dependence reappeared after elimination")
            used_zero_step = True
            previous_q = None
        elif previous_q is not None and q >= previous_q:
            raise AssertionError(f"normalization failed to make progress at order {q}")
        else:
            previous_q = q
        target = Jet("w", q, 0)
        integrand = diff_partial(second, Jet("w", q + 1, 0))
        shift = integrate_univar(integrand, target, lower=point.get(target, 0))
        first = first + restricted_derivative(shift, LIGHTCONE, 1)
        second = second - restricted_derivative(shift, LIGHTCONE, 0)
        if first.depends_on(target):
            raise NotConservedError(
                f"could not eliminate {target}; the input pair is inconsistent"
            )
    else:
        raise AssertionError("normalization did not terminate")

    if first.depends_on(Sym("xi")):
        shift = integrate_univar(second, Sym("xi"), lower=point.get(Sym("xi"), 0))
        first = first + restricted_derivative(shift, LIGHTCONE, 1)
        second = second - restricted_derivative(shift, LIGHTCONE, 0)
        if first.depends_on(Sym("xi")):
            raise NotConservedError("could not eliminate xi from the first component")

    if not is_zero(restricted_derivative(second, LIGHTCONE, 1), samples=samples, seed=seed):
        raise NotConservedError("second component retains eta-side dependence")
    return CanonicalCurrent(LIGHTCONE, first, second)


def _integrate_by_parts(
    current: Current, *, with_remainder: bool = False
) -> tuple[tuple[Expr, Expr], Current | None]:
    """Integrate the divergence of a reduced current by parts down to the equation.

    Component a is differentiated along axis a; b is the other axis.  Where
    D_a J is principal for a jet J of the component, D_a J = D_b^n(leading);
    with c = dC_a/dJ and E the equation's left-hand side,
    c * D_b^n E = ((-D_b)^n c) * E + D_b(sum_m ((-D_b)^m c) * D_b^(n-1-m) E).
    Returns each component's multiplier part and, when with_remainder is
    set, the remainder current (None otherwise).
    The steps (-D_b)^m c take the restricted derivative, so the multiplier
    is the characteristic of any reduced current in either frame.  The
    remainder is exact only where D_b never makes a principal jet, so that
    the restricted derivative is the total one: canonical light-cone and
    reduced space-time currents.  ``characteristic_with_remainder`` asserts this.
    """
    frame = current.frame
    equation = equation_expression(frame)
    parts = []
    remainder: tuple[list, list] = ([], [])
    for axis, component in enumerate((current.first, current.second)):
        other = 1 - axis
        part = []
        for a in component.jets(frame.dependent):
            top = a.shifted(axis)
            if not frame.is_principal(top):
                continue
            steps = [diff_partial(component, a)]  # (-D_b)^m c for m = 0..n
            for _ in range((top.i, top.j)[other] - frame.leading[other]):
                steps.append(-restricted_derivative(steps[-1], frame, other))
            part.append(steps[-1])
            if with_remainder:
                shifted = equation  # D_b^(n-1-m) E, paired with steps[m]
                for step in reversed(steps[:-1]):
                    remainder[other].append(step * shifted)
                    shifted = total_derivative(shifted, frame, other)
        parts.append(Expr._sum(part))
    if not with_remainder:
        return (parts[0], parts[1]), None
    rest = Current(frame, Expr._sum(remainder[0]), Expr._sum(remainder[1]))
    return (parts[0], parts[1]), rest


def characteristic(current: Current, *, samples: int = 8, seed: int = 42) -> Characteristic:
    """Characteristic of a conserved current, in the current's own frame.

    Raises NotConservedError otherwise; samples and seed configure that
    test, as in ``verify_current``.  The multiplier is reduced, so
    equivalent currents get the same one.
    """
    if not isinstance(current, CanonicalCurrent):  # one-sided, so conserved
        _require_conserved(current, samples=samples, seed=seed)
    parts, _ = _integrate_by_parts(current.reduced())
    return Characteristic(current.frame, parts[0] + parts[1])


def characteristic_canonical(current: CanonicalCurrent) -> Characteristic:
    """Characteristic of a canonical current:
    lambda = sum_l (-D_eta)^(l-1) dF/dw[0,l] + sum_k (-D_xi)^(k-1) dG/dw[k,0],
    with restricted derivatives."""
    return characteristic(current)


def characteristic_with_remainder(current: Current) -> tuple[Characteristic, Current]:
    """Characteristic plus the exact integration-by-parts remainder.

    Takes a CanonicalCurrent, or a conserved space-time current, which is
    reduced first.  Returns (lambda, R) with the full-jet-space identity
    D1 F + D2 G == lambda * E + D1 R.first + D2 R.second, E the equation's
    left-hand side, where every term of R vanishes on solutions.  The
    identity is asserted exactly before returning.
    """
    if current.frame is SPACETIME:
        _require_conserved(current)
        current = current.reduced()
    else:
        _require_canonical(current)
    parts, remainder = _integrate_by_parts(current, with_remainder=True)
    multiplier = parts[0] + parts[1]
    equation = equation_expression(current.frame)
    if not is_zero(divergence(current) - multiplier * equation - divergence(remainder)):
        raise AssertionError(f"{current.frame} divergence identity failed to close")
    return Characteristic(current.frame, multiplier), remainder


def is_trivial(current: Current, *, samples: int = 8, seed: int = 42) -> bool:
    """True iff the conserved current, in either frame, is equivalent to the
    zero current: iff its characteristic vanishes on solutions.  Raises
    NotConservedError otherwise; samples and seed configure both zero tests."""
    lam = characteristic(current, samples=samples, seed=seed)
    return is_zero(lam.multiplier, samples=samples, seed=seed)


def _invert_restricted(target: Expr, axis: int) -> Expr:
    """Solve D(result) == target for the restricted derivative on one side.

    axis 1 inverts D_eta on functions of (eta, w[0,1], w[0,2], ...) whose
    one-variable integrals ``integrate_univar`` takes;
    axis 0 mirrors this for xi.  Works by stripping the top derivative:
    an exact derivative is linear in its highest jet, and the cofactor is
    the partial of the potential with respect to the next jet down.

    This stays apart from ``_integrate_by_parts``: that routine moves D_b
    off a coefficient, while this one integrates, solving D_b H = target
    for H.  One shared routine would have to branch on which caller it
    serves.
    """
    sym = Sym("eta") if axis == 1 else Sym("xi")

    def jet_at(n: int) -> Jet:
        return Jet("w", 0, n) if axis == 1 else Jet("w", n, 0)

    def level(a: Jet) -> int:
        return a.j if axis == 1 else a.i

    steps = []  # the potential is their sum
    remaining = target
    for _ in range(200):
        if remaining.is_zero_literal:
            return Expr._sum(steps)
        levels = sorted(level(a) for a in remaining.jets("w"))
        if not levels:
            steps.append(integrate_univar(remaining, sym, lower=0))
            return Expr._sum(steps)
        top = levels[-1]
        if top <= 1:
            raise UnsupportedIntegrandError(
                f"residual dependence on {jet_at(top)} is not an exact derivative"
            )
        cofactor = diff_partial(remaining, jet_at(top))
        if cofactor.depends_on(jet_at(top)):
            raise UnsupportedIntegrandError(
                f"nonlinear dependence on {jet_at(top)} is not an exact derivative"
            )
        step = integrate_univar(cofactor, jet_at(top - 1), lower=0)
        steps.append(step)
        remaining = remaining - restricted_derivative(step, LIGHTCONE, axis)
    raise AssertionError("witness inversion did not terminate")


def trivial_witness(
    current: CanonicalCurrent, *, samples: int = 8, seed: int = 42
) -> TrivialWitness:
    """Constructive certificate for a trivial canonical current.

    Splits off the constant multiple of (w[0,1], -w[1,0]) and inverts the
    one-sided restricted derivatives on the rest.  The defining identities
    are re-checked exactly before returning.
    """
    _require_canonical(current)
    parts, _ = _integrate_by_parts(current)
    if not is_zero(parts[0] + parts[1], samples=samples, seed=seed):
        raise ValueError("current is not trivial: nonzero characteristic")
    constant = parts[0].as_rational()
    if constant is None:  # trivial, but its constant is not a rational literal
        raise UnsupportedIntegrandError(
            f"triviality witness needs a rational constant, not {parts[0]}"
        )

    w01 = as_expr(Jet("w", 0, 1))
    w10 = as_expr(Jet("w", 1, 0))
    f_part = _invert_restricted(current.first - constant * w01, axis=1)
    g_part = _invert_restricted(current.second + constant * w10, axis=0)

    f_gap = current.first - restricted_derivative(f_part, LIGHTCONE, 1) - constant * w01
    g_gap = current.second - restricted_derivative(g_part, LIGHTCONE, 0) + constant * w10
    if not all(is_zero(gap, samples=samples, seed=seed) for gap in (f_gap, g_gap)):
        raise AssertionError("witness identities failed to close")
    return TrivialWitness(f_part, g_part, constant)


def is_characteristic(
    characteristic: Characteristic, *, samples: int = 8, seed: int = 42
) -> bool:
    """True iff the Euler operator annihilates multiplier * (equation LHS).

    The product is a total divergence exactly when the multiplier is the
    characteristic of some conserved current, so this is a full test of
    the characteristic property.
    """
    product = characteristic.multiplier * equation_expression(characteristic.frame)
    residue = euler_operator(product, characteristic.frame)
    return is_zero(residue, samples=samples, seed=seed)


def spacetime_remainder(current: Current) -> tuple[Expr, Expr]:
    """The (mu, X0) view of ``characteristic_with_remainder`` on a conserved
    space-time current (T, X): D_t T + D_x X == mu * (u[2,0] - u[0,2]) + D_x X0
    in the full jet space.  Used by the numeric identity check.
    """
    if current.frame is not SPACETIME:
        raise ValueError("spacetime_remainder expects a space-time current")
    lam, remainder = characteristic_with_remainder(current)
    return lam.multiplier, remainder.second

