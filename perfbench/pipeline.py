"""pipeline-batch: every question a user asks of one current, many small currents.

The mix follows the counts of acceptance criteria 04-06 (see KINDS).  Each current is built from
pieces whose characteristic is known in closed form, so the expected
multiplier is computed here by hand, never by the code under test:

* canonical polynomial currents, and canonical currents with an exp factor;
* those dressed with a potential pair (D_eta h, -D_xi h), a constant
  multiple of (w[0,1], -w[1,0]) and mixed-jet terms (same characteristic);
* trivial currents (D_eta f + c w[0,1], D_xi g - c w[1,0]) (witness constant c);
* canonical currents with a sin or cos factor (zero tests fall to sampling);
* non-conserved currents (verify is false, normalize raises).
"""

from __future__ import annotations

import random
from fractions import Fraction

from jetlaw import (
    LIGHTCONE,
    CanonicalCurrent,
    Current,
    Jet,
    NotConservedError,
    Sym,
    as_expr,
    characteristic_with_remainder,
    current_to_lightcone,
    current_to_spacetime,
    fn_apply,
    is_characteristic,
    is_trivial,
    normalize_current,
    reduce_to_solutions,
    restricted_derivative,
    trivial_witness,
    verify_current,
)

from harness import Case, Workload

CAP_S = 10.0

# One period of the kind mix; the index into it is fixed, the content is
# seeded.  Acceptance criteria 04-06 run 200 canonical, 100 dressed and 50
# trivial currents, 4:2:1, here 16:8:4.  Criterion 04 puts exp factors on 44
# of its 200 (index % 7 == 3 or index % 11 == 5), here 4 of 16; criterion 05
# on 11 of its 100 (index % 9 == 4), here 1 of 8.  No criterion runs sin/cos
# or non-conserved currents: this benchmark gives each half the trivial
# share, 2 in 32, enough to keep the mpmath sampling path and the rejection
# path in every window without letting them set the tail.
KINDS = (
    "canonical", "dressed", "trivial", "canonical", "exp", "dressed", "canonical", "sincos",
    "canonical", "dressed", "trivial", "exp", "canonical", "dressed", "canonical", "broken",
    "canonical", "dressed", "trivial", "canonical", "exp", "exp-dressed", "canonical", "sincos",
    "canonical", "dressed", "trivial", "exp", "canonical", "dressed", "canonical", "broken",
)
ITEMS = 12 * len(KINDS)

W01 = as_expr(Jet("w", 0, 1))
W10 = as_expr(Jet("w", 1, 0))
MIXED = (Jet("w", 1, 1), Jet("w", 2, 1), Jet("w", 1, 2))
POTENTIAL = (Sym("eta"), Jet("w", 0, 1), Jet("w", 0, 2), Sym("xi"), Jet("w", 1, 0), Jet("w", 2, 0), Jet("w", 0, 0))


def _side(axis: int):
    """(symbol, first, second, third jet) of the eta side (axis 1) or xi side (axis 0)."""
    if axis == 1:
        return tuple(as_expr(a) for a in (Sym("eta"), Jet("w", 0, 1), Jet("w", 0, 2), Jet("w", 0, 3)))
    return tuple(as_expr(a) for a in (Sym("xi"), Jet("w", 1, 0), Jet("w", 2, 0), Jet("w", 3, 0)))


def monomial(c, p: int, q: int, r: int, axis: int):
    """c * s^p * a^q * b^r on one side, with s the symbol, a and b its first two jets."""
    s, a, b, _ = _side(axis)
    return c * s**p * a**q * b**r


def monomial_characteristic(c, p: int, q: int, r: int, axis: int):
    """Characteristic contribution of one monomial, by hand.

    lambda(m) = dm/da - D(dm/db) with D the restricted derivative along the
    side's own variable, which sends s -> 1, a -> b, b -> d.
    """
    s, a, b, d = _side(axis)
    out = as_expr(0)
    if q:
        out = out + c * q * s**p * a ** (q - 1) * b**r
    if r:
        if p:
            out = out - c * r * p * s ** (p - 1) * a**q * b ** (r - 1)
        if q:
            out = out - c * r * q * s**p * a ** (q - 1) * b**r
        if r > 1:
            out = out - c * r * (r - 1) * s**p * a**q * b ** (r - 2) * d
    return out


def exp_piece(c, p: int, k: int, axis: int):
    """(c * s^p * exp(k b), its characteristic -c k (p s^(p-1) + k s^p d) exp(k b))."""
    s, _, b, d = _side(axis)
    e = fn_apply("exp", k * b)
    lam = -c * k * k * s**p * d * e
    if p:
        lam = lam - c * k * p * s ** (p - 1) * e
    return c * s**p * e, lam


def trig_piece(c, head: str, k: int, q: int, axis: int):
    """(c * head(k s) * a^q, its characteristic c q head(k s) a^(q-1))."""
    s, a, _, _ = _side(axis)
    f = fn_apply(head, k * s)
    return c * f * a**q, c * q * f * a ** (q - 1)


class Draw:
    """Two random streams: ``shape`` fixes an item's structure from its index
    alone, ``value`` draws its coefficients and constants from the seed.

    Every seed therefore runs the same mix of expression shapes, so the seed
    moves the answers but hardly the cost.
    """

    def __init__(self, workload: str, seed: int, index: int):
        self.shape = random.Random(f"{workload}/shape/{index}")
        self.value = random.Random(f"{workload}/{seed}/{index}")

    def coefficient(self, choices) -> Fraction:
        return Fraction(self.value.choice(choices))


COEFFICIENTS = tuple(Fraction(c) for c in ("-4", "-3", "-2", "-1", "-1/2", "1/2", "1", "3/2", "2", "3", "4"))
SHAPE = {"terms": 3, "degree": 3, "coefficients": COEFFICIENTS}
SIGNED = (-3, -2, -1, 1, 2, 3)


def _random_monomials(draw: Draw, axis: int, shape: dict):
    pieces = []
    for _ in range(draw.shape.randint(1, shape["terms"])):
        c = draw.coefficient(shape["coefficients"])
        while True:
            p, q, r = draw.shape.randint(0, 2), draw.shape.randint(0, 2), draw.shape.randint(0, 2)
            if 1 <= q + r and p + q + r <= shape["degree"]:
                break
        pieces.append((c, p, q, r, axis))
    return pieces


def random_canonical(draw: Draw, shape: dict = SHAPE):
    """Canonical polynomial current and its characteristic, both built by hand."""
    first = second = lam = as_expr(0)
    for axis in (1, 0):
        for piece in _random_monomials(draw, axis, shape):
            if axis == 1:
                first = first + monomial(*piece)
            else:
                second = second + monomial(*piece)
            lam = lam + monomial_characteristic(*piece)
    return first, second, lam


def _random_poly(draw: Draw, atoms, max_terms: int = 3, max_degree: int = 3):
    total = as_expr(0)
    for _ in range(draw.shape.randint(1, max_terms)):
        term = as_expr(draw.coefficient((-4, -3, -2, -1, 1, 2, 3, 4)))
        for _ in range(draw.shape.randint(0, max_degree)):
            term = term * as_expr(draw.shape.choice(atoms))
        total = total + term
    return total


def _dress(draw: Draw, first, second):
    """Add (D_eta h, -D_xi h), c (w[0,1], -w[1,0]) and mixed-jet terms."""
    h = _random_poly(draw, POTENTIAL)
    c = draw.value.choice(SIGNED)
    first = first + restricted_derivative(h, LIGHTCONE, 1) + c * W01
    second = second - restricted_derivative(h, LIGHTCONE, 0) - c * W10
    first = first + _random_poly(draw, POTENTIAL, 2, 2) * as_expr(draw.shape.choice(MIXED))
    second = second + _random_poly(draw, POTENTIAL, 2, 2) * as_expr(draw.shape.choice(MIXED))
    return first, second


def _add_piece(first, second, lam, axis, piece, piece_lam):
    if axis == 1:
        return first + piece, second, lam + piece_lam
    return first, second + piece, lam + piece_lam


def make_item(draw: Draw, kind: str) -> dict:
    """One input current with everything known about it by construction."""
    item = {"kind": kind, "constant": None}
    first, second, lam = random_canonical(draw)
    if kind in ("exp", "exp-dressed"):
        axis = draw.shape.choice((0, 1))
        c, k = draw.value.choice((-2, -1, 1, 2)), draw.value.choice((-1, 1, 2))
        first, second, lam = _add_piece(first, second, lam, axis, *exp_piece(c, draw.shape.randint(0, 1), k, axis))
    if kind == "sincos":
        axis = draw.shape.choice((0, 1))
        head, q = draw.shape.choice(("sin", "cos")), draw.shape.randint(1, 2)
        c, k = draw.value.choice((-2, -1, 1, 2)), draw.value.choice((1, 2, 3))
        first, second, lam = _add_piece(first, second, lam, axis, *trig_piece(c, head, k, q, axis))
    if kind == "trivial":
        c = draw.value.choice(SIGNED)
        f_pot = _random_poly(draw, _side(1)[:3])
        g_pot = _random_poly(draw, _side(0)[:3])
        first = restricted_derivative(f_pot, LIGHTCONE, 1) + c * W01
        second = restricted_derivative(g_pot, LIGHTCONE, 0) - c * W10
        lam = as_expr(0)
        item["constant"] = Fraction(c)
    if kind == "broken":
        first = first + draw.value.choice((-2, -1, 1, 2)) * W10 ** draw.shape.randint(1, 2)
        lam = None
    canonical = kind in ("canonical", "exp", "sincos", "trivial")
    if kind in ("dressed", "exp-dressed"):
        first, second = _dress(draw, first, second)
    cls = CanonicalCurrent if canonical else Current
    item["current"] = cls(LIGHTCONE, first, second)
    item["canonical"] = canonical
    item["lam"] = lam
    return item


def generate(seed: int, count: int = ITEMS) -> list:
    return [make_item(Draw("pipeline-batch", seed, i), KINDS[i % len(KINDS)]) for i in range(count)]


def input_text(items) -> str:
    """The generated currents as text, one per line (for reproducibility checks)."""
    return "".join(f"{it['kind']}\t{it['current'].first}\t{it['current'].second}\n" for it in items)


def ask_everything(current) -> dict:
    """The timed operation: every question a user asks of one current."""
    out = {"conserved": verify_current(current)}
    try:
        canonical = normalize_current(current)
    except NotConservedError:
        out["not_conserved"] = True
    else:
        lam, remainder = characteristic_with_remainder(canonical)
        out["canonical"] = canonical
        out["lam"] = lam
        out["remainder"] = remainder
        out["is_characteristic"] = is_characteristic(lam)
        out["trivial"] = is_trivial(current)
        if out["trivial"]:
            out["witness"] = trivial_witness(canonical)
    out["round_trip"] = current_to_lightcone(current_to_spacetime(current))
    return out


def check(item: dict, out: dict) -> "str | None":
    current = item["current"]
    reduced = current.reduced()
    back = out["round_trip"]
    if (back.first, back.second) != (reduced.first, reduced.second):
        return "frame round trip changed the current"
    if item["lam"] is None:
        if out["conserved"] or not out.get("not_conserved"):
            return "non-conserved current was accepted"
        return None
    if not out["conserved"] or out.get("not_conserved"):
        return "conserved current was rejected"
    canonical = out["canonical"]
    if item["canonical"] and (canonical.first, canonical.second) != (current.first, current.second):
        return "normalization changed a canonical current"
    lam = out["lam"].multiplier
    if lam != item["lam"]:
        return f"characteristic {lam} != expected {item['lam']}"
    remainder = out["remainder"]
    if not (reduce_to_solutions(remainder.first, LIGHTCONE).is_zero_literal
            and reduce_to_solutions(remainder.second, LIGHTCONE).is_zero_literal):
        return "remainder does not vanish on solutions"
    if not out["is_characteristic"]:
        return "characteristic failed the Euler test"
    if out["trivial"] != item["lam"].is_zero_literal:
        return f"is_trivial gave {out['trivial']}"
    if out["trivial"]:
        witness = out["witness"]
        if item["constant"] is not None and witness.constant != item["constant"]:
            return f"witness constant {witness.constant} != {item['constant']}"
        rebuilt_first = restricted_derivative(witness.f_part, LIGHTCONE, 1) + witness.constant * W01
        rebuilt_second = restricted_derivative(witness.g_part, LIGHTCONE, 0) - witness.constant * W10
        if (rebuilt_first, rebuilt_second) != (canonical.first, canonical.second):
            return "witness does not rebuild the current"
    return None


def cases(seed: int) -> Workload:
    items = generate(seed)
    out = [
        Case(i, f"{it['kind']}#{i}", (lambda c=it["current"]: ask_everything(c)),
             (lambda res, it=it: check(it, res)), CAP_S)
        for i, it in enumerate(items)
    ]
    params = {"items": len(items), "kind_period": list(KINDS), "cap_s": CAP_S}
    return Workload(out, params, window=len(KINDS))
