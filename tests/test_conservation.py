"""Currents: verification, canonical normalization, characteristics, triviality."""

import json
import random
from fractions import Fraction

import pytest

from jetlaw.expr import (
    Expr,
    Jet,
    Sym,
    UnsupportedIntegrandError,
    as_expr,
    is_zero,
    parse,
)
from jetlaw.jets import (
    LIGHTCONE,
    SPACETIME,
    equation_expression,
    reduce_to_solutions,
    restricted_derivative,
    total_derivative,
)
from jetlaw.cli import _from_document, _to_document
from jetlaw.config import parse_reference_point
from jetlaw.conservation import (
    CanonicalCurrent,
    Characteristic,
    Current,
    NotConservedError,
    characteristic,
    characteristic_canonical,
    characteristic_with_remainder,
    divergence,
    is_characteristic,
    is_trivial,
    normalize_current,
    spacetime_remainder,
    trivial_witness,
    verify_current,
)
from jetlaw.transform import (
    characteristic_to_spacetime,
    current_to_lightcone,
    current_to_spacetime,
)

from test_acceptance import _dressed_currents, _random_canonical


def lc(first, second):
    return Current(LIGHTCONE, parse(first), parse(second))


def canonical(first, second):
    return CanonicalCurrent(LIGHTCONE, parse(first), parse(second))


# --- construction and validation ---------------------------------------------

def test_current_checks_frame():
    with pytest.raises(Exception):
        Current(LIGHTCONE, parse("u[1,0]"), parse("0"))


def test_canonical_current_validates_sides():
    canonical("eta*w[0,1]^2", "xi^2*w[3,0]")
    with pytest.raises(ValueError):
        canonical("w[1,0]", "0")  # xi-family jet on the eta side
    with pytest.raises(ValueError):
        canonical("w[0,1]", "eta*w[1,0]")  # eta symbol on the xi side
    with pytest.raises(ValueError):
        canonical("w[0,0]", "0")  # the bare dependent variable is not allowed
    with pytest.raises(ValueError):
        CanonicalCurrent(SPACETIME, parse("u[1,0]"), parse("0"))


# --- verification -------------------------------------------------------------

CONSERVED = [
    ("-w[0,1]", "-w[1,0]"),
    ("eta*w[0,1]", "-xi*w[1,0]"),
    ("w[0,1]^2", "-w[1,0]^2"),
    ("exp(2*w[0,2])", "0"),
    ("w[0,1]*w[1,1]", "xi*w[1,1]^2"),  # vanishes on solutions outright
    ("eta*w[0,0]", "-1/2*eta^2*w[1,0]"),
]

NOT_CONSERVED = [
    ("w[1,0]", "0"),
    ("xi*w[0,1]", "0"),
    ("w[0,0]", "0"),
]


@pytest.mark.parametrize("first,second", CONSERVED)
def test_verify_conserved(first, second):
    assert verify_current(lc(first, second))


@pytest.mark.parametrize("first,second", NOT_CONSERVED)
def test_verify_not_conserved(first, second):
    assert not verify_current(lc(first, second))


def test_verify_spacetime_classics():
    assert verify_current(Current(SPACETIME, parse("t*u[1,0] - u[0,0]"), parse("-t*u[0,1]")))
    assert verify_current(Current(SPACETIME, parse("x*u[1,0]"), parse("-x*u[0,1] + u[0,0]")))
    assert not verify_current(Current(SPACETIME, parse("u[1,0]"), parse("u[1,0]")))


def test_divergence_is_full_jet_space():
    cur = lc("-w[0,1]", "-w[1,0]")
    assert divergence(cur) == parse("-2*w[1,1]")


# --- normalization ------------------------------------------------------------

def test_normalize_canonical_is_identity():
    cur = canonical("w[0,1]^2", "-w[1,0]^2")
    out = normalize_current(cur)
    assert out.first == cur.first and out.second == cur.second


def test_normalize_strips_top_order_dependence():
    # worked pair: adding the trivial pair generated by H = -w[0,1]*w[1,0]
    cur = lc("1/4*w[0,1]^2 + w[1,0]*w[0,2]", "-1/4*w[1,0]^2 - w[0,1]*w[2,0]")
    out = normalize_current(cur)
    assert out.first == parse("1/4*w[0,1]^2")
    assert out.second == parse("-1/4*w[1,0]^2")


def test_normalize_handles_dependent_variable_step():
    # F depends on w itself; plain substitution would lose a boundary term
    cur = lc("eta*w[0,0]", "-1/2*eta^2*w[1,0]")
    out = normalize_current(cur)
    assert out.first == parse("-1/2*eta^2*w[0,1]")
    assert out.second == 0
    lam = characteristic_canonical(out).multiplier
    assert lam == parse("-1/2*eta^2")


def test_normalize_strips_xi_dependence():
    cur = lc("xi*w[0,2]", "-w[0,1]")
    out = normalize_current(cur)
    assert out.first == 0 and out.second == 0


def test_normalize_mixed_terms_vanish_first():
    cur = lc("w[0,1]^2 + eta*w[1,1]", "-w[1,0]^2 + w[2,1]*w[0,0]")
    out = normalize_current(cur)
    assert out.first == parse("w[0,1]^2")
    assert out.second == parse("-w[1,0]^2")


def test_normalize_rejects_non_conserved():
    with pytest.raises(NotConservedError):
        normalize_current(lc("w[1,0]", "0"))
    with pytest.raises(ValueError):
        normalize_current(Current(SPACETIME, parse("u[1,0]"), parse("-u[0,1]")))


def test_normalize_reference_point_shifts_representative():
    cur = lc("1/4*w[0,1]^2 + w[1,0]*w[0,2]", "-1/4*w[1,0]^2 - w[0,1]*w[2,0]")
    out = normalize_current(cur, {Jet("w", 1, 0): Fraction(2)})
    # a different reference moves F by a trivial amount only
    base = normalize_current(cur)
    gap = characteristic_canonical(out).multiplier - characteristic_canonical(base).multiplier
    assert is_zero(gap)
    assert out.first == parse("1/4*w[0,1]^2 + 2*w[0,2]")


def test_normalize_preserves_characteristic_under_trivial_dressing():
    rng = random.Random(3)
    names = ["xi", "eta", "w[0,0]", "w[1,0]", "w[0,1]", "w[2,0]", "w[0,2]"]
    base = canonical("w[0,1]^2 + eta*w[0,2]", "-w[1,0]^2")
    lam = characteristic_canonical(base).multiplier
    for _ in range(8):
        h = Expr.zero()
        for _ in range(rng.randint(1, 3)):
            h = h + parse(rng.choice(names)) * parse(rng.choice(names)) * rng.randint(-2, 2)
        c = rng.randint(-3, 3)
        first = base.first + restricted_derivative(h, LIGHTCONE, 1) + as_expr(Jet("w", 0, 1)) * c
        second = base.second - restricted_derivative(h, LIGHTCONE, 0) - as_expr(Jet("w", 1, 0)) * c
        dressed = normalize_current(Current(LIGHTCONE, first, second))
        assert is_zero(characteristic_canonical(dressed).multiplier - lam)


# --- characteristics ----------------------------------------------------------

CHARACTERISTIC_CASES = [
    ("-w[0,1]", "-w[1,0]", "-2"),
    ("eta*w[0,1]", "-xi*w[1,0]", "eta - xi"),
    ("-eta*w[0,1]", "-xi*w[1,0]", "-eta - xi"),
    ("w[0,1]^2", "-w[1,0]^2", "2*w[0,1] - 2*w[1,0]"),
    ("exp(2*w[0,2])", "0", "-4*w[0,3]*exp(2*w[0,2])"),
    ("w[0,1]", "-w[1,0]", "0"),
    ("0", "1/2*w[1,0]^2", "w[1,0]"),
]


@pytest.mark.parametrize("first,second,lam", CHARACTERISTIC_CASES)
def test_characteristic_canonical(first, second, lam):
    assert characteristic_canonical(canonical(first, second)).multiplier == parse(lam)


@pytest.mark.parametrize("first,second,lam", CHARACTERISTIC_CASES)
def test_remainder_identity_exact(first, second, lam):
    cur = canonical(first, second)
    characteristic, remainder = characteristic_with_remainder(cur)
    assert characteristic.multiplier == parse(lam)
    gap = (
        divergence(cur)
        - characteristic.multiplier * as_expr(Jet("w", 1, 1))
        - divergence(remainder)
    )
    assert gap == 0 or is_zero(gap)
    # remainder components vanish on solutions: every term has a mixed jet
    assert reduce_to_solutions(remainder.first, LIGHTCONE) == 0
    assert reduce_to_solutions(remainder.second, LIGHTCONE) == 0


def test_remainder_requires_a_canonical_current():
    # not conserved: the divergence identity cannot close on it
    cur = lc("w[0,1]^2 + w[0,1]*w[1,0]", "-w[1,0]^2 - w[0,0]*w[1,0]")
    with pytest.raises(ValueError, match="CanonicalCurrent"):
        characteristic_with_remainder(cur)


def test_remainder_nontrivial_for_higher_order():
    cur = canonical("exp(2*w[0,2])", "0")
    _, remainder = characteristic_with_remainder(cur)
    assert remainder.second == parse("2*w[1,1]*exp(2*w[0,2])")
    assert remainder.first == 0


@pytest.mark.parametrize(
    "frame,multiplier,expected",
    [
        (LIGHTCONE, "-2", True),
        (LIGHTCONE, "2*w[0,1] - 2*w[1,0]", True),
        (LIGHTCONE, "eta - xi", True),
        (LIGHTCONE, "w[1,0]", True),
        (LIGHTCONE, "w[0,0]", False),
        (LIGHTCONE, "w[1,0]*w[0,1]", False),
        (SPACETIME, "1", True),
        (SPACETIME, "t", True),
        (SPACETIME, "u[1,0]", True),
        (SPACETIME, "u[0,0]", False),
    ],
)
def test_is_characteristic(frame, multiplier, expected):
    assert is_characteristic(Characteristic(frame, parse(multiplier))) is expected


# --- triviality ---------------------------------------------------------------

def test_is_trivial_on_examples():
    assert is_trivial(lc("w[0,1]", "-w[1,0]"))
    assert is_trivial(lc("2*w[0,1]*w[0,2]", "0"))
    assert is_trivial(lc("w[0,1]*w[1,1]", "xi*w[1,1]^2"))
    assert not is_trivial(lc("w[0,1]^2", "-w[1,0]^2"))
    assert not is_trivial(lc("-w[0,1]", "-w[1,0]"))


def test_trivial_witness_plain():
    witness = trivial_witness(canonical("2*w[0,1]*w[0,2]", "0"))
    assert witness.constant == 0
    assert witness.f_part == parse("w[0,1]^2")
    assert witness.g_part == 0


def test_trivial_witness_with_constant_family():
    cur = canonical("2*w[0,1]*w[0,2] + 3*w[0,1]", "-3*w[1,0]")
    witness = trivial_witness(cur)
    assert witness.constant == Fraction(3)
    f_gap = (
        cur.first
        - restricted_derivative(witness.f_part, LIGHTCONE, 1)
        - as_expr(Jet("w", 0, 1)) * witness.constant
    )
    g_gap = (
        cur.second
        - restricted_derivative(witness.g_part, LIGHTCONE, 0)
        + as_expr(Jet("w", 1, 0)) * witness.constant
    )
    assert f_gap == 0 and g_gap == 0


def test_trivial_witness_inverts_deeper_potentials():
    # potential depends on eta and several jet orders
    f_part = parse("eta*w[0,1]^2*w[0,2]")
    g_part = parse("xi^2*w[2,0]")
    cur = canonical(
        str(restricted_derivative(f_part, LIGHTCONE, 1)),
        str(restricted_derivative(g_part, LIGHTCONE, 0)),
    )
    witness = trivial_witness(cur)
    check_f = restricted_derivative(witness.f_part, LIGHTCONE, 1)
    check_g = restricted_derivative(witness.g_part, LIGHTCONE, 0)
    assert check_f == cur.first and check_g == cur.second


def test_trivial_witness_rejects_nontrivial():
    with pytest.raises(ValueError):
        trivial_witness(canonical("w[0,1]^2", "-w[1,0]^2"))
    with pytest.raises(ValueError):
        trivial_witness(canonical("-w[0,1]", "-w[1,0]"))


def test_trivial_witness_requires_a_canonical_current():
    cur = lc("w[0,1] + w[1,1]", "-w[1,0]")  # trivial, but carries a mixed jet
    assert is_trivial(cur)
    with pytest.raises(ValueError, match="CanonicalCurrent"):
        trivial_witness(cur)


def test_trivial_witness_inverts_transcendental_components():
    witness = trivial_witness(canonical("w[0,2]*exp(w[0,1])", "0"))
    assert witness.f_part == parse("exp(w[0,1]) - 1")
    assert witness.g_part == 0 and witness.constant == 0


def test_trivial_witness_rejects_transcendental_components():
    # = D_eta of the antiderivative of exp(w[0,1]^2), which integrate_univar lacks
    cur = canonical("w[0,2]*exp(w[0,1]^2)", "0")
    assert is_trivial(cur)
    with pytest.raises(UnsupportedIntegrandError):
        trivial_witness(cur)


# --- space-time identity --------------------------------------------------------

def test_spacetime_remainder_energy():
    cur = Current(
        SPACETIME, parse("1/2*u[1,0]^2 + 1/2*u[0,1]^2"), parse("-u[1,0]*u[0,1]")
    )
    mu, x_rem = spacetime_remainder(cur)
    assert mu == parse("u[1,0]")
    lhs = divergence(cur)
    rhs = mu * equation_expression(SPACETIME) + total_derivative(x_rem, SPACETIME, 1)
    assert lhs == rhs
    assert reduce_to_solutions(x_rem, SPACETIME) == 0


def test_spacetime_remainder_higher_order():
    # energy of the differentiated field u_x, conserved at second order
    cur = Current(SPACETIME, parse("1/2*u[1,1]^2 + 1/2*u[0,2]^2"), parse("-u[1,1]*u[0,2]"))
    assert verify_current(cur)
    mu, x_rem = spacetime_remainder(cur)
    assert mu == parse("-u[1,2]")
    lhs = divergence(cur.reduced())
    rhs = mu * equation_expression(SPACETIME) + total_derivative(x_rem, SPACETIME, 1)
    assert is_zero(lhs - rhs)


def test_integration_by_parts_agrees_across_frames():
    # the first 40 of criterion 04's random canonical currents
    rng = random.Random(401)
    for index in range(40):
        current = _random_canonical(rng, index)
        lam = characteristic_to_spacetime(characteristic_canonical(current))
        mu, _ = spacetime_remainder(current_to_spacetime(current))
        assert lam.multiplier == mu, f"current {index}: {current}"


def test_direct_characteristic_matches_the_normalization_round_trip():
    # criterion 05's dressed currents are not canonical; the round trip
    # through the canonical form is the reference
    for index, (_, dressed) in enumerate(_dressed_currents(100)):
        pulled = current_to_spacetime(dressed)
        for current, reference in (
            (dressed, characteristic_canonical(normalize_current(dressed))),
            (pulled, characteristic_to_spacetime(
                characteristic_canonical(normalize_current(current_to_lightcone(pulled)))
            )),
        ):
            direct = characteristic(current)
            assert direct.frame is current.frame, f"current {index}"
            assert direct.multiplier == reference.multiplier, f"current {index}: {current}"
            assert str(direct.multiplier) == str(reference.multiplier)


def test_characteristic_and_is_trivial_work_in_both_frames():
    energy = lc("w[0,1]^2", "-w[1,0]^2")
    assert characteristic(energy) == Characteristic(LIGHTCONE, parse("2*w[0,1] - 2*w[1,0]"))
    assert characteristic(current_to_spacetime(energy)) == Characteristic(
        SPACETIME, parse("u[1,0]")
    )
    assert not is_trivial(current_to_spacetime(energy))
    assert is_trivial(current_to_spacetime(lc("w[0,1]", "-w[1,0]")))
    for broken in (lc("w[1,0]", "0"), Current(SPACETIME, parse("u[1,0]"), parse("0"))):
        with pytest.raises(NotConservedError):
            characteristic(broken)
        with pytest.raises(NotConservedError):
            is_trivial(broken)


def test_remainder_of_a_spacetime_current():
    # the energy current, given unreduced: u[2,0] stands for u[0,2] on solutions
    cur = Current(SPACETIME, parse("1/2*u[1,0]^2 + 1/2*u[0,1]^2 + u[2,0] - u[0,2]"),
                  parse("-u[1,0]*u[0,1]"))
    lam, remainder = characteristic_with_remainder(cur)
    assert lam == Characteristic(SPACETIME, parse("u[1,0]"))
    assert remainder.first == 0
    assert spacetime_remainder(cur) == (lam.multiplier, remainder.second)
    gap = (divergence(cur.reduced()) - lam.multiplier * equation_expression(SPACETIME)
           - divergence(remainder))
    assert gap == 0
    with pytest.raises(NotConservedError):
        characteristic_with_remainder(Current(SPACETIME, parse("u[1,0]"), parse("0")))


def test_spacetime_remainder_rejects_bad_input():
    with pytest.raises(NotConservedError):
        spacetime_remainder(Current(SPACETIME, parse("u[1,0]"), parse("0")))
    with pytest.raises(ValueError):
        spacetime_remainder(lc("-w[0,1]", "-w[1,0]"))


# --- reference points -----------------------------------------------------------

def test_parse_reference_point_gives_a_plain_mapping():
    point = parse_reference_point("xi=1/2,w[1,0]=3")
    assert point == {Sym("xi"): Fraction(1, 2), Jet("w", 1, 0): 3}


# --- JSON documents, written and read by the CLI --------------------------------

def test_current_json_round_trip():
    cur = lc("exp(2*w[0,2])", "-w[1,0]^2")
    text = json.dumps(_to_document("current", cur))
    back = _from_document("current", text)
    assert back.frame is LIGHTCONE
    assert back.first == cur.first and back.second == cur.second
    doc = json.loads(text)
    assert doc["kind"] == "current"


def test_characteristic_json_round_trip():
    ch = Characteristic(SPACETIME, parse("u[1,0]"))
    back = _from_document("characteristic", json.dumps(_to_document("characteristic", ch)))
    assert back.frame is SPACETIME and back.multiplier == ch.multiplier
