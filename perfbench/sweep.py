"""term-sweep: single operations on s^n, swept over n, where the term count grows.

s = a1*xi + a2*eta + a3*w[0,1] + a4*w[1,0] + a5*w[0,2] with seeded nonzero
rational a_i, so the term count of s^n depends only on n.  Every output is
checked against a closed form built through ``**`` (a different code path)
from hand-written pieces:

* D_xi s^n = n s^(n-1) (a1 + a3 w[1,1] + a4 w[2,0] + a5 w[1,2]);
* on solutions the mixed jets vanish: n s^(n-1) (a1 + a4 w[2,0]);
* d s^n / d w[0,1] = n a3 s^(n-1);
* substitution and the frame map are ring maps: image(s^n) = image(s)^n.

The Euler operator is checked by requiring it to annihilate D_xi s^m.
"""

from __future__ import annotations

import random
from fractions import Fraction

from jetlaw import (
    LIGHTCONE,
    Jet,
    Sym,
    as_expr,
    diff_partial,
    euler_operator,
    parse,
    reduce_to_solutions,
    restricted_derivative,
    substitute,
    substitute_to_lightcone,
    substitute_to_spacetime,
    total_derivative,
)

from harness import Case, Workload

CAP_S = 60.0
SIZES = (3, 4, 5, 6)  # s^6 has 210 terms
LONG_SIZES = SIZES + (7,)  # s^7 has 330 terms; for the operations cheap enough there
LONG = ("parse", "add", "mul", "diff_partial", "total_derivative")
EULER_SIZES = (2, 3, 4, 5)  # D_xi s^5 has 280 terms
# That makes 45 cases, so p50 and p90 fall inside one case's samples
# rather than on the step between two cases.

# A case this cheap is about as long as a burst of load from other processes
# on the machine, so one sample per pass is not enough for a steady median.
# It runs CHEAP_COPIES times per pass, the copies spread over the pass.
CHEAP_TERMS = 70  # input terms of s^4
CHEAP_OPS = ("add", "mul", "diff_partial")
CHEAP_COPIES = 4

# scaling metric name -> operation in the ladder
SCALING = {
    "expr.diff_partial": "diff_partial",
    "expr.substitute": "substitute",
    "jets.total_derivative": "total_derivative",
    "jets.restricted_derivative": "restricted_derivative",
    "jets.euler_operator": "euler_operator",
    "transform.substitute_to_spacetime": "substitute_to_spacetime",
}

XI, ETA = Sym("xi"), Sym("eta")
W01, W10, W02 = Jet("w", 0, 1), Jet("w", 1, 0), Jet("w", 0, 2)
ATOMS = (XI, ETA, W01, W10, W02)
SUBSTITUTION = {W01: as_expr(Jet("w", 0, 3)) + 1}


def u(i: int, j: int):
    return as_expr(Jet("u", i, j))


# space-time images of the atoms of s, derived by hand from xi = x + t,
# eta = x - t and the chain rule on solutions
IMAGES = (
    as_expr(Sym("x")) + as_expr(Sym("t")),
    as_expr(Sym("x")) - as_expr(Sym("t")),
    Fraction(1, 2) * (u(0, 1) - u(1, 0)),
    Fraction(1, 2) * (u(0, 1) + u(1, 0)),
    Fraction(1, 2) * (u(0, 2) - u(1, 1)),
)


# The seed draws only numerators prime to every denominator, so each seed
# does Fraction arithmetic of the same shape.
DENOMINATORS = (1, 2, 3, 2, 1)


def coefficients(seed: int) -> tuple:
    rng = random.Random(f"term-sweep/{seed}")
    return tuple(Fraction(rng.choice((-7, -5, -1, 1, 5, 7)), d) for d in DENOMINATORS)


def build(a: tuple) -> dict:
    """s, its hand-written pieces, and s^n for every size used."""
    s = sum((c * as_expr(atom) for c, atom in zip(a, ATOMS)), as_expr(0))
    d_full = a[0] + a[2] * as_expr(Jet("w", 1, 1)) + a[3] * as_expr(Jet("w", 2, 0)) + a[4] * as_expr(Jet("w", 1, 2))
    d_solution = a[0] + a[3] * as_expr(Jet("w", 2, 0))
    s_sub = sum((c * (SUBSTITUTION.get(atom) or as_expr(atom)) for c, atom in zip(a, ATOMS)), as_expr(0))
    image = sum((c * img for c, img in zip(a, IMAGES)), as_expr(0))
    return {"s": s, "d_full": d_full, "d_solution": d_solution, "s_sub": s_sub, "image": image}


def _equals(expected):
    return lambda got: None if got == expected else "differs from the closed form"


def _zero(got):
    return None if got.is_zero_literal else "Euler operator left a nonzero residue"


def ladder(seed: int) -> list:
    """(operation, n, input term count, run, check) for one pass of the sweep."""
    a = coefficients(seed)
    p = build(a)
    s = p["s"]
    rows = []
    for n in LONG_SIZES:
        sn = s**n
        s_prev = s ** (n - 1)
        text = str(sn)
        d_xi = n * s_prev * p["d_full"]
        on_solutions = n * s_prev * p["d_solution"]
        # (operation, input, run, check factory); checks are built only for rows kept
        candidates = [
            ("parse", sn, lambda t=text: parse(t), lambda: _equals(sn)),
            ("add", sn, lambda e=sn: e + e, lambda: _equals(2 * sn)),
            ("mul", s_prev, lambda e=s_prev: e * s, lambda: _equals(sn)),
            ("diff_partial", sn, lambda e=sn: diff_partial(e, W01), lambda: _equals(n * a[2] * s_prev)),
            ("substitute", sn, lambda e=sn: substitute(e, SUBSTITUTION), lambda: _equals(p["s_sub"] ** n)),
            ("reduce_to_solutions", d_xi, lambda e=d_xi: reduce_to_solutions(e, LIGHTCONE),
             lambda: _equals(on_solutions)),
            ("total_derivative", sn, lambda e=sn: total_derivative(e, LIGHTCONE, 0), lambda: _equals(d_xi)),
            ("restricted_derivative", sn, lambda e=sn: restricted_derivative(e, LIGHTCONE, 0),
             lambda: _equals(on_solutions)),
            ("substitute_to_spacetime", sn, lambda e=sn: substitute_to_spacetime(e),
             lambda: _round_trip(p["image"] ** n, sn)),
        ]
        rows += [
            (op, n, len(arg.terms), run, make_check())
            for op, arg, run, make_check in candidates
            if n in SIZES or op in LONG
        ]
    for m in EULER_SIZES:
        d_xi = m * s ** (m - 1) * p["d_full"]
        rows.append(("euler_operator", m, len(d_xi.terms), lambda e=d_xi: euler_operator(e, LIGHTCONE), _zero))
    return rows


def _round_trip(expected_image, original):
    """The image must match the closed form; the first one is also mapped back."""
    verified = []

    def check(got):
        if got != expected_image:
            return "space-time image differs from the closed form"
        if not verified:
            if substitute_to_lightcone(got) != original:
                return "round trip back to light-cone changed the expression"
            verified.append(True)
        return None

    return check


def input_text(seed: int) -> str:
    a = coefficients(seed)
    s = build(a)["s"]
    return "".join(f"{n}\t{s**n}\n" for n in LONG_SIZES)


def one_pass(rows: list) -> list:
    """The ladder's rows, with CHEAP_COPIES - 1 more copies of each cheap row
    placed evenly between them."""
    cheap = [row for row in rows if row[2] <= CHEAP_TERMS or row[0] in CHEAP_OPS]
    extra = cheap * (CHEAP_COPIES - 1)
    placed = [(k / len(rows), row) for k, row in enumerate(rows)]
    placed += [((j + 0.5) / len(extra), row) for j, row in enumerate(extra)]
    return [row for _, row in sorted(placed, key=lambda p: p[0])]


def cases(seed: int) -> Workload:
    rows = ladder(seed)
    out = [
        Case(k, f"{op}@n={n}", run, check, CAP_S, terms)
        for k, (op, n, terms, run, check) in enumerate(one_pass(rows))
    ]
    params = {
        "sizes": list(SIZES),
        "long_sizes": {"operations": list(LONG), "sizes": list(LONG_SIZES)},
        "euler_sizes": list(EULER_SIZES),
        "terms": {f"n={n}": len((build(coefficients(seed))["s"] ** n).terms) for n in LONG_SIZES},
        "cases": len(rows),
        "cheap": {"terms_at_most": CHEAP_TERMS, "operations": list(CHEAP_OPS), "copies": CHEAP_COPIES},
        "operations_per_pass": len(out),
        "cap_s": CAP_S,
    }
    # Whole passes only, and each case counted by its median over all its
    # samples: 45 cases are too few for per-operation percentiles, and a
    # burst of load during one pass then moves nothing.
    return Workload(out, params, window=len(out), stride=len(out), per_case_medians=True, scaling=SCALING)
