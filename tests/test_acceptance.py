"""Acceptance suite.

Each test re-derives one headline capability from scratch and reports a
single verdict line, printed immediately and repeated in the terminal
summary.  Counts and tolerances are pinned; do not relax them.
"""

import math
import random
from fractions import Fraction

from conftest import acceptance_lines

from jetlaw.expr import Expr, Jet, Sym, as_expr, is_zero, parse
from jetlaw.jets import (
    LIGHTCONE,
    SPACETIME,
    equation_expression,
    euler_operator,
    restricted_derivative,
    total_derivative,
)
from jetlaw.conservation import (
    CanonicalCurrent,
    Characteristic,
    Current,
    characteristic_canonical,
    characteristic_with_remainder,
    divergence,
    is_characteristic,
    is_trivial,
    normalize_current,
    trivial_witness,
)
from jetlaw.transform import (
    characteristic_to_lightcone,
    characteristic_to_spacetime,
    current_to_lightcone,
    current_to_spacetime,
)
from jetlaw.oracle import Rectangle, check_conservation
from jetlaw.golden import (
    ANGULAR_MOMENTUM,
    CENTER_OF_MASS,
    CLASSIC_ANGULAR_MOMENTUM,
    CLASSIC_CENTER_OF_MASS,
    ENERGY,
    EXOTIC,
    GOLDEN_CURRENTS,
    GOLDEN_RECTANGLE,
    GOLDEN_SOLUTIONS,
    MOMENTUM,
)


def _report(number: int, label: str, ok: bool) -> None:
    line = f"criterion {number:02d} {label}: {'PASS' if ok else 'FAIL'}"
    acceptance_lines.append(line)
    print(line)


def _random_poly(rng, atoms, max_terms=3, max_degree=3):
    total = Expr.zero()
    for _ in range(rng.randint(1, max_terms)):
        term = as_expr(Fraction(rng.randint(-4, 4) or 1))
        for _ in range(rng.randint(0, max_degree)):
            term = term * as_expr(rng.choice(atoms))
        total = total + term
    return total


ETA_ATOMS = [Sym("eta"), Jet("w", 0, 1), Jet("w", 0, 2), Jet("w", 0, 3)]
XI_ATOMS = [Sym("xi"), Jet("w", 1, 0), Jet("w", 2, 0), Jet("w", 3, 0)]
W01 = as_expr(Jet("w", 0, 1))
W10 = as_expr(Jet("w", 1, 0))
W11 = as_expr(Jet("w", 1, 1))


def _random_canonical(rng, index, allow_exp=True):
    first = _random_poly(rng, ETA_ATOMS)
    second = _random_poly(rng, XI_ATOMS)
    if allow_exp and index % 7 == 3:
        first = first * parse("exp(2*w[0,2])")
    if allow_exp and index % 11 == 5:
        second = second * parse("exp(w[2,0])")
    return CanonicalCurrent(LIGHTCONE, first, second)


def test_criterion_01_four_physical_laws():
    failures = []
    expected = {
        "momentum": (MOMENTUM, "1", ("u[1,0]", "-u[0,1]")),
        "energy": (ENERGY, "u[1,0]", ("1/2*u[1,0]^2 + 1/2*u[0,1]^2", "-u[1,0]*u[0,1]")),
        "center-of-mass": (CENTER_OF_MASS, "t", None),
        "angular-momentum": (ANGULAR_MOMENTUM, "x", None),
    }
    for name, (current, mu_text, spacetime_pair) in expected.items():
        lam = characteristic_canonical(current)
        mu = characteristic_to_spacetime(lam)
        if str(mu.multiplier) != mu_text:
            failures.append(f"{name}: multiplier printed {mu.multiplier}")
        if not is_characteristic(mu):
            failures.append(f"{name}: multiplier fails the Euler test")
        pulled = current_to_spacetime(current)
        if spacetime_pair is not None:
            want_first, want_second = map(parse, spacetime_pair)
            if pulled.first != want_first or pulled.second != want_second:
                failures.append(f"{name}: unexpected space-time components")
    # the light-cone pullbacks differ from the textbook space-time pairs
    # for the two first-moment laws, but only by a trivial current
    for name, current, classic in (
        ("center-of-mass", CENTER_OF_MASS, CLASSIC_CENTER_OF_MASS),
        ("angular-momentum", ANGULAR_MOMENTUM, CLASSIC_ANGULAR_MOMENTUM),
    ):
        pulled = current_to_spacetime(current)
        gap = Current(
            SPACETIME, pulled.first - classic.first, pulled.second - classic.second
        )
        if (pulled.first, pulled.second) == (classic.first, classic.second):
            failures.append(f"{name}: pullback should not equal the classic form")
        if not is_trivial(current_to_lightcone(gap)):
            failures.append(f"{name}: difference from the classic form is not trivial")
    ok = not failures
    _report(1, "four physical conservation laws", ok)
    assert ok, failures


def test_criterion_02_exotic_law_exact_forms():
    lam = characteristic_canonical(EXOTIC)
    ok_lam = lam.multiplier == parse("-4*w[0,3]*exp(2*w[0,2])")
    pulled = current_to_spacetime(EXOTIC)
    image = parse("exp(u[0,2] - u[1,1])")
    ok_current = pulled.first == image and pulled.second == image
    mu = characteristic_to_spacetime(lam)
    ok_mu = mu.multiplier == parse("(u[0,3] - u[1,2])*exp(u[0,2] - u[1,1])")
    ok = ok_lam and ok_current and ok_mu
    _report(2, "exotic law exact forms", ok)
    assert ok, (lam.multiplier, pulled.first, pulled.second, mu.multiplier)


def test_criterion_03_euler_operator_on_lagrangians():
    lightcone = euler_operator(parse("-1/2*w[1,0]*w[0,1]"), LIGHTCONE)
    spacetime = euler_operator(parse("-1/2*u[1,0]^2 + 1/2*u[0,1]^2"), SPACETIME)
    ok = lightcone == parse("w[1,1]") and spacetime == parse("u[2,0] - u[0,2]")
    _report(3, "Euler operator on wave Lagrangians", ok)
    assert ok, (lightcone, spacetime)


def test_criterion_04_random_canonical_characteristics():
    rng = random.Random(401)
    total, good = 200, 0
    for index in range(total):
        current = _random_canonical(rng, index)
        lam, remainder = characteristic_with_remainder(current)
        gap = divergence(current) - lam.multiplier * W11 - divergence(remainder)
        if is_zero(gap) and is_characteristic(lam):
            good += 1
    ok = good == total
    _report(4, f"characteristics of {total} random canonical currents", ok)
    assert ok, f"{good}/{total}"


def _dressed_currents(total: int):
    """Pairs (canonical base, the base dressed into a non-canonical equivalent)."""
    rng = random.Random(502)
    potential_atoms = ETA_ATOMS[:3] + XI_ATOMS[:3] + [Jet("w", 0, 0)]
    mixed_atoms = [Jet("w", 1, 1), Jet("w", 2, 1), Jet("w", 1, 2)]
    for index in range(total):
        base = _random_canonical(rng, index, allow_exp=index % 9 == 4)
        h = _random_poly(rng, potential_atoms)
        c = rng.randint(-3, 3)
        first = base.first + restricted_derivative(h, LIGHTCONE, 1) + W01 * c
        second = base.second - restricted_derivative(h, LIGHTCONE, 0) - W10 * c
        # terms with mixed jets vanish on solutions and must wash out too
        first = first + _random_poly(rng, potential_atoms) * as_expr(rng.choice(mixed_atoms))
        second = second + _random_poly(rng, potential_atoms) * as_expr(rng.choice(mixed_atoms))
        yield base, Current(LIGHTCONE, first, second)


def test_criterion_05_normalization_invariance():
    total, good = 100, 0
    for base, dressed in _dressed_currents(total):
        lam = characteristic_canonical(base).multiplier
        canonical = normalize_current(dressed)
        if is_zero(characteristic_canonical(canonical).multiplier - lam):
            good += 1
    ok = good == total
    _report(5, f"normalization invariance on {total} dressed currents", ok)
    assert ok, f"{good}/{total}"


def test_criterion_06_trivial_currents_both_directions():
    rng = random.Random(603)
    total, good = 50, 0
    for _ in range(total):
        f_potential = _random_poly(rng, ETA_ATOMS[:3])
        g_potential = _random_poly(rng, XI_ATOMS[:3])
        c = rng.randint(-3, 3)
        current = CanonicalCurrent(
            LIGHTCONE,
            restricted_derivative(f_potential, LIGHTCONE, 1) + W01 * c,
            restricted_derivative(g_potential, LIGHTCONE, 0) - W10 * c,
        )
        if not is_zero(characteristic_canonical(current).multiplier):
            continue
        witness = trivial_witness(current)
        rebuilt_first = (
            restricted_derivative(witness.f_part, LIGHTCONE, 1) + W01 * witness.constant
        )
        rebuilt_second = (
            restricted_derivative(witness.g_part, LIGHTCONE, 0) - W10 * witness.constant
        )
        if (
            witness.constant == c
            and rebuilt_first == current.first
            and rebuilt_second == current.second
        ):
            good += 1
    ok = good == total
    _report(6, f"triviality certified both ways on {total} currents", ok)
    assert ok, f"{good}/{total}"


def test_criterion_07_euler_annihilates_divergences():
    rng = random.Random(704)
    lightcone_atoms = [
        Sym("xi"), Sym("eta"), Jet("w", 0, 0), Jet("w", 1, 0),
        Jet("w", 0, 1), Jet("w", 1, 1), Jet("w", 2, 1),
    ]
    spacetime_atoms = [
        Sym("t"), Sym("x"), Jet("u", 0, 0), Jet("u", 1, 0),
        Jet("u", 0, 1), Jet("u", 2, 0), Jet("u", 1, 2),
    ]
    total, good = 200, 0
    for index in range(total):
        frame, atoms = (
            (LIGHTCONE, lightcone_atoms) if index % 2 else (SPACETIME, spacetime_atoms)
        )
        a = _random_poly(rng, atoms)
        b = _random_poly(rng, atoms)
        div = total_derivative(a, frame, 0) + total_derivative(b, frame, 1)
        if is_zero(euler_operator(div, frame)):
            good += 1
    ok = good == total
    _report(7, f"Euler operator annihilates {total} random divergences", ok)
    assert ok, f"{good}/{total}"


def test_criterion_08_non_characteristic_rejected():
    candidate = Characteristic(LIGHTCONE, parse("w[0,0]"))
    rejected = not is_characteristic(candidate)
    residue = euler_operator(
        parse("w[0,0]") * equation_expression(LIGHTCONE), LIGHTCONE
    )
    ok = rejected and residue == parse("2*w[1,1]")
    _report(8, "dependent variable is not a characteristic", ok)
    assert ok, residue


def test_criterion_09_numeric_flux_oracle():
    failures = []
    for name, current in GOLDEN_CURRENTS.items():
        for which, solution in enumerate(GOLDEN_SOLUTIONS):
            result = check_conservation(current, solution, GOLDEN_RECTANGLE)
            small = result.residual < 1e-8
            decays = result.coarse_residual < 1e-12 or 12 <= result.ratio <= 20
            if not (small and decays):
                failures.append(
                    f"{name} on solution {which}: residual {result.residual:.3e},"
                    f" ratio {result.ratio:.2f}"
                )
    bad = Current(LIGHTCONE, parse("w[1,0]"), parse("0"))
    for which in (0, 1):
        for panels in (128, 32):
            rect = Rectangle(
                GOLDEN_RECTANGLE.t0, GOLDEN_RECTANGLE.t1,
                GOLDEN_RECTANGLE.x0, GOLDEN_RECTANGLE.x1, panels,
            )
            residual = check_conservation(bad, GOLDEN_SOLUTIONS[which], rect).residual
            if not residual > 1e-3:
                failures.append(f"counterexample at {panels} panels: {residual:.3e}")
    ok = not failures
    _report(9, "numeric flux oracle on the golden suite", ok)
    assert ok, failures


def _random_expression(rng):
    atom_names = ["xi", "eta", "t", "x", "w[0,0]", "w[1,0]", "w[0,1]",
                  "w[2,1]", "u[0,0]", "u[1,0]", "u[0,2]", "u[2,0]"]
    total = Expr.zero()
    for _ in range(rng.randint(1, 4)):
        term = as_expr(Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9)))
        for _ in range(rng.randint(0, 3)):
            factor = parse(rng.choice(atom_names))
            if rng.random() < 0.25:
                factor = factor ** rng.randint(2, 3)
            term = term * factor
        if rng.random() < 0.2:
            head = rng.choice(["exp", "sin", "cos"])
            inner = parse(rng.choice(atom_names)) * rng.randint(-2, 2)
            term = term * parse(f"{head}({inner})")
        total = total + term
    return total


def test_criterion_10_round_trips():
    failures = []
    for name, current in GOLDEN_CURRENTS.items():
        back = current_to_lightcone(current_to_spacetime(current))
        if back.first != current.first or back.second != current.second:
            failures.append(f"{name}: current round trip drifted")
        lam = characteristic_canonical(current)
        lam_back = characteristic_to_lightcone(characteristic_to_spacetime(lam))
        if lam_back.multiplier != lam.multiplier:
            failures.append(f"{name}: characteristic round trip drifted")
    rng = random.Random(1005)
    total, good = 500, 0
    for _ in range(total):
        e = _random_expression(rng)
        if parse(str(e)) == e:
            good += 1
    if good != total:
        failures.append(f"parse/print round trips {good}/{total}")
    ok = not failures
    _report(10, f"frame and parser round trips ({total} random expressions)", ok)
    assert ok, failures
