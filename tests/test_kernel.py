"""The accumulation kernel: atoms, monomial products, derivatives and
substitution.

Results are checked against sympy's expanded forms on seeded random
polynomials, against the textbook definition of the total derivative on
expressions with exp/sin/cos of jets, and for linear work: the number of
monomials handed to ``Expr._build`` stays within a fixed multiple of the
terms in plus the terms out.  Atoms are interned, and the merge-based
monomial product is checked against a dict-and-sort reference.
Coefficients are integer numerators over one denominator per Expr: the
arithmetic is checked against an all-Fraction reference, the layout
against its invariant, and the calculus for calls into ``fractions``.
Terms are stored in the order they were collected in: one value built in
shuffled orders must compare, hash, print and evaluate alike.
"""

import copy
import gc
import math
import os
import pickle
import random
import subprocess
import sys
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jetlaw
from jetlaw.expr import (
    Expr,
    Fn,
    Jet,
    Sym,
    UnsupportedExpressionError,
    ZeroVerdict,
    _mono_mul,
    _parse_printed,
    as_expr,
    diff_partial,
    evaluate_float,
    fn_apply,
    integrate_univar,
    parse,
    substitute,
)
from jetlaw.jets import LIGHTCONE, SPACETIME, Frame, restricted_derivative, total_derivative
from jetlaw.transform import substitute_to_spacetime
from jetlaw.conservation import CanonicalCurrent, Characteristic, Current, TrivialWitness
from jetlaw.config import Config, resolve
from jetlaw.oracle import Poly, Rectangle, parse_solution

LIGHTCONE_ATOMS = [Sym("xi"), Sym("eta"), Jet("w", 0, 0), Jet("w", 1, 0),
                   Jet("w", 0, 1), Jet("w", 1, 1), Jet("w", 0, 2), Jet("w", 2, 1)]


@pytest.fixture(scope="module")
def sympy():
    # sympy is in the `test` extra; only these tests skip where it is missing
    return pytest.importorskip("sympy")


def _symbol(sympy, atom):
    if isinstance(atom, Sym):
        return sympy.Symbol(atom.name)
    return sympy.Symbol(f"{atom.var}_{atom.i}_{atom.j}")


def _to_sympy(sympy, e: Expr):
    heads = {"exp": sympy.exp, "sin": sympy.sin, "cos": sympy.cos, "ln": sympy.log}
    total = sympy.Integer(0)
    for mono, c in e.terms:
        term = sympy.Rational(c.numerator, c.denominator)
        for a, p in mono:
            if isinstance(a, Fn):
                term *= heads[a.head](_to_sympy(sympy, a.arg)) ** p
            else:
                term *= _symbol(sympy, a) ** p
        total += term
    return total


def _random_poly(rng, atoms, terms, degree):
    coeffs = {}
    for _ in range(terms):
        mono = tuple(sorted(rng.choices(range(len(atoms)), k=rng.randint(0, degree))))
        coeffs[mono] = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5))
    out = Expr.zero()
    for mono, c in coeffs.items():
        term = as_expr(c)
        for index in mono:
            term = term * as_expr(atoms[index])
        out = out + term
    return out


def _assert_matches(sympy, ours: Expr, expected):
    """ours equals sympy's expansion, with one term per distinct monomial."""
    expected = sympy.expand(expected)
    assert sympy.expand(_to_sympy(sympy, ours) - expected) == 0
    assert len(ours.terms) == (0 if expected == 0 else len(sympy.Add.make_args(expected)))


SEEDS = range(12)


@pytest.mark.parametrize("seed", SEEDS)
def test_diff_partial_matches_sympy(sympy, seed):
    rng = random.Random(seed)
    e = _random_poly(rng, LIGHTCONE_ATOMS, terms=12, degree=4)
    for v in LIGHTCONE_ATOMS:
        _assert_matches(sympy, diff_partial(e, v), sympy.diff(_to_sympy(sympy, e), _symbol(sympy, v)))


@pytest.mark.parametrize("seed", SEEDS)
def test_products_match_sympy(sympy, seed):
    rng = random.Random(100 + seed)
    a = _random_poly(rng, LIGHTCONE_ATOMS, terms=10, degree=3)
    b = _random_poly(rng, LIGHTCONE_ATOMS, terms=10, degree=3)
    _assert_matches(sympy, a * b, _to_sympy(sympy, a) * _to_sympy(sympy, b))
    _assert_matches(sympy, a ** 2, _to_sympy(sympy, a) ** 2)


@pytest.mark.parametrize("seed", SEEDS)
def test_substitute_matches_sympy(sympy, seed):
    rng = random.Random(200 + seed)
    e = _random_poly(rng, LIGHTCONE_ATOMS, terms=12, degree=4)
    keys = rng.sample(LIGHTCONE_ATOMS, 3)
    bindings = {k: _random_poly(rng, LIGHTCONE_ATOMS, terms=3, degree=2) for k in keys}
    expected = _to_sympy(sympy, e).subs(
        {_symbol(sympy, k): _to_sympy(sympy, v) for k, v in bindings.items()},
        simultaneous=True,
    )
    _assert_matches(sympy, substitute(e, bindings), expected)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("frame", [LIGHTCONE, SPACETIME], ids=str)
def test_total_derivative_matches_sympy(sympy, seed, frame):
    rng = random.Random(300 + seed)
    atoms = [frame.symbol(0), frame.symbol(1)] + [
        frame.jet(i, j) for i, j in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 2))
    ]
    e = _random_poly(rng, atoms, terms=12, degree=4)
    f = _to_sympy(sympy, e)
    for axis in (0, 1):
        expected = sympy.diff(f, _symbol(sympy, frame.symbol(axis))) + sum(
            _symbol(sympy, a.shifted(axis)) * sympy.diff(f, _symbol(sympy, a))
            for a in atoms[2:]
        )
        _assert_matches(sympy, total_derivative(e, frame, axis), expected)


# --- total derivative: the pass equals its definition -----------------------

JETS = [Jet("w", 0, 0), Jet("w", 1, 0), Jet("w", 0, 1), Jet("w", 2, 1)]


@st.composite
def chain_rule_expressions(draw):
    """Polynomials in light-cone atoms times exp/sin/cos of jet polynomials."""
    atoms = st.sampled_from(LIGHTCONE_ATOMS)
    e = Expr.zero()
    for _ in range(draw(st.integers(1, 3))):
        term = as_expr(draw(st.fractions(
            min_value=Fraction(-9), max_value=Fraction(9), max_denominator=4)))
        for _ in range(draw(st.integers(0, 3))):
            term = term * as_expr(draw(atoms))
        for _ in range(draw(st.integers(0, 2))):
            arg = as_expr(draw(st.integers(-2, 2))) * as_expr(draw(st.sampled_from(JETS)))
            arg = arg + as_expr(draw(st.integers(-1, 1))) * as_expr(draw(atoms))
            term = term * fn_apply(draw(st.sampled_from(["exp", "sin", "cos"])), arg)
        e = e + term
    return e


def _total_derivative_by_definition(e: Expr, axis: int) -> Expr:
    """D e = d e/d sym + sum over jets a of shifted(a) * d e/d a."""
    out = diff_partial(e, LIGHTCONE.symbol(axis))
    for a in e.base_atoms():
        if isinstance(a, Jet):
            out = out + as_expr(a.shifted(axis)) * diff_partial(e, a)
    return out


@given(chain_rule_expressions())
@settings(max_examples=60, deadline=None)
def test_total_derivative_equals_its_definition(e):
    for axis in (0, 1):
        assert total_derivative(e, LIGHTCONE, axis) == _total_derivative_by_definition(e, axis)


@pytest.mark.parametrize("text", ["ln(w[0,1])", "xi*ln(1 + w[1,0]^2)", "exp(ln(w[0,0]))"])
def test_total_derivative_rejects_ln_of_a_jet(text):
    for axis in (0, 1):
        with pytest.raises(UnsupportedExpressionError):
            total_derivative(parse(text), LIGHTCONE, axis)


@pytest.mark.parametrize("text,named", [
    ("ln(w[0,1]) + ln(w[0,2])", "ln(w[0,2])"),
    ("ln(w[0,2]) + ln(w[0,1])", "ln(w[0,2])"),
    ("ln(w[0,3]) + exp(ln(w[0,2]) + ln(w[0,1]))", "ln(w[0,3])"),
    ("exp(ln(w[0,1]) + ln(w[0,2]))", "ln(w[0,2])"),
])
def test_the_ln_refused_is_the_first_in_printed_order(text, named):
    # however the terms were collected
    with pytest.raises(UnsupportedExpressionError) as err:
        total_derivative(parse(text), LIGHTCONE, 0)
    assert str(err.value).startswith(f"derivative of {named} ")


def test_an_ln_refused_deep_inside_exp_is_found_in_linear_work(monkeypatch):
    # one pass in build order and one in printed order, not a retry per level
    depth = 40
    e = parse("exp(" * depth + "ln(w[0,1]) + ln(w[0,2])" + ")" * depth)
    passes = []
    derive_pass = jetlaw.expr._derive_pass

    def counted(*args, **kwargs):
        passes.append(None)
        # per pass: the sum, the exp levels and the ln argument; failing
        # here stops an exponential run at once
        assert len(passes) <= 2 * (depth + 2)
        return derive_pass(*args, **kwargs)

    monkeypatch.setattr(jetlaw.expr, "_derive_pass", counted)
    with pytest.raises(UnsupportedExpressionError) as err:
        total_derivative(e, LIGHTCONE, 0)
    assert str(err.value).startswith("derivative of ln(w[0,2]) ")


def test_substitution_that_makes_an_ln_of_a_non_positive_constant_names_it():
    with pytest.raises(UnsupportedExpressionError) as err:
        substitute(parse("w[0,1]*exp(ln(w[1,1] - 1))"), {Jet("w", 1, 1): 0})
    assert str(err.value) == "ln(w[1,1] - 1) becomes ln of the non-positive constant -1"


def test_total_derivative_of_ln_of_the_other_symbol_is_zero():
    assert total_derivative(parse("ln(eta)"), LIGHTCONE, 0) == Expr.zero()


# --- complexity guard: work grows with the terms in and out -----------------

S = parse("xi + 2*eta + 3*w[0,1] - w[1,0] + 5/2*w[0,2]")
W01 = Jet("w", 0, 1)
OPERATIONS = {
    "diff_partial": lambda e: diff_partial(e, W01),
    "total_derivative": lambda e: total_derivative(e, LIGHTCONE, 0),
    "restricted_derivative": lambda e: restricted_derivative(e, LIGHTCONE, 1),
    "integrate_univar": lambda e: integrate_univar(e, W01, lower=2),
    "substitute": lambda e: substitute(e, {W01: as_expr(Jet("w", 0, 3)) + 1}),
    "substitute_to_spacetime": substitute_to_spacetime,
}
# One constant for both sizes: quadratic accumulation would need about 7
# at s^4 and over 60 at s^8.
WORK_PER_TERM = 4


@pytest.mark.parametrize("name", OPERATIONS)
def test_monomials_built_grow_linearly(monkeypatch, name):
    build = Expr._build
    for n in (4, 8):
        e = S**n
        built = []
        monkeypatch.setattr(
            Expr, "_build", staticmethod(lambda coeffs, *den: built.append(len(coeffs)) or build(coeffs, *den))
        )
        out = OPERATIONS[name](e)
        monkeypatch.setattr(Expr, "_build", staticmethod(build))
        assert sum(built) <= WORK_PER_TERM * (len(e.terms) + len(out.terms)), (n, sum(built))


# --- calls into fractions.py: boundary conversions only -----------------------

FRACTION_CALLS = {
    "mul": lambda e: e * S,
    **{name: OPERATIONS[name] for name in
       ("diff_partial", "total_derivative", "substitute", "substitute_to_spacetime")},
}


def _fraction_calls(run) -> int:
    """Python-level calls into fractions.py while run() runs."""
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.endswith("fractions.py"):
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return len(calls)


@pytest.mark.parametrize("name", FRACTION_CALLS)
def test_calculus_makes_no_fraction_calls_per_term(name):
    # S has the coefficient 5/2, so every power of it has a denominator
    op = FRACTION_CALLS[name]
    op(S**2)  # fills the frame change's image caches
    counts = [_fraction_calls(lambda: op(S**n)) for n in (4, 8)]
    assert counts[0] == counts[1] <= 4, counts


# --- interned atoms -----------------------------------------------------------


ATOM_VALUES = [
    lambda: Sym("eta"),
    lambda: Jet("w", 2, 1),
    lambda: Fn("exp", parse("2*w[0,1] - xi")),
    lambda: Fn("sin", parse("w[1,0]*exp(w[0,2])")),
]


@pytest.mark.parametrize("make", ATOM_VALUES)
def test_equal_atoms_are_one_instance(make):
    atom = make()
    assert make() is atom
    assert pickle.loads(pickle.dumps(atom)) is atom
    assert copy.copy(atom) is atom
    assert copy.deepcopy(atom) is atom
    assert copy.deepcopy([atom, atom]) == [atom, atom]
    assert hash(atom) == object.__hash__(atom)
    assert make().sort_key is atom.sort_key


def test_atoms_in_parsed_and_pickled_expressions_are_shared():
    e = parse("exp(w[0,1])*xi + w[0,1]^2")
    again = pickle.loads(pickle.dumps(e))
    assert again == e
    assert again.base_atoms() == e.base_atoms()
    mine = {a for mono, _ in e.terms for a, _p in mono}
    theirs = {a for mono, _ in again.terms for a, _p in mono}
    assert all(any(a is b for b in mine) for a in theirs)


@pytest.mark.parametrize("make", ATOM_VALUES)
def test_atoms_are_immutable(make):
    atom = make()
    with pytest.raises(AttributeError):
        atom.sort_key = (9,)
    with pytest.raises(AttributeError):
        atom.extra = 1
    with pytest.raises(AttributeError):
        del atom.sort_key


def test_atom_validation_errors_are_unchanged():
    cases = [
        (lambda: Sym("y"), "unknown independent symbol 'y'"),
        (lambda: Jet("xi", 0, 0), "reserved name 'xi' cannot be a jet variable"),
        (lambda: Jet("exp", 0, 0), "reserved name 'exp' cannot be a jet variable"),
        (lambda: Jet("w", -1, 0), "negative jet index in w[-1,0]"),
        (lambda: Jet("w", 0, -2), "negative jet index in w[0,-2]"),
        (lambda: Fn("tan", parse("t")), "unknown function 'tan'"),
    ]
    for make, message in cases:
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == message
    # a failed construction leaves nothing interned
    with pytest.raises(ValueError):
        Jet("w", -1, 0)
    assert ("w", -1, 0) not in Jet._interned


def test_atom_repr_names_its_fields():
    assert repr(Sym("t")) == "Sym(name='t')"
    assert repr(Jet("w", 0, 1)) == "Jet(var='w', i=0, j=1)"
    assert repr(Fn("cos", parse("t"))) == "Fn(head='cos', arg=Expr('t'))"


# --- records --------------------------------------------------------------------

# name -> (a function making one record, its fields in constructor order)
RECORD_VALUES = {
    "Current": (lambda: Current(LIGHTCONE, parse("w[0,1]^2"), parse("-w[1,0]^2")),
                ("frame", "first", "second")),
    "CanonicalCurrent": (lambda: CanonicalCurrent(LIGHTCONE, parse("w[0,1]^2"), parse("-w[1,0]^2")),
                         ("frame", "first", "second")),
    "Characteristic": (lambda: Characteristic(SPACETIME, parse("u[1,0]")), ("frame", "multiplier")),
    "TrivialWitness": (lambda: TrivialWitness(parse("w[0,1]^2"), parse("0"), Fraction(3, 2)),
                       ("f_part", "g_part", "constant")),
    "ZeroVerdict": (lambda: ZeroVerdict(True, False), ("zero", "probabilistic")),
    "Frame": (lambda: Frame("plane", ("t", "x"), "v", (2, 0), ((0, 2),)),
              ("name", "variables", "dependent", "leading", "equals")),
    "Config": (lambda: Config(seed=5, reference_point={Sym("xi"): Fraction(1, 2)}),
               ("seed", "samples", "tolerance", "format", "reference_point")),
    "Solution": (lambda: parse_solution("sin:1,0,1/2+exp:2,0;poly:0,0,1"), ("f_terms", "g_terms")),
    "Poly": (lambda: Poly((Fraction(1), Fraction(-2, 3))), ("coeffs",)),  # the one-field record
    "Rectangle": (lambda: Rectangle(0.0, 0.75, -1.75, -0.75), ("t0", "t1", "x0", "x1", "panels")),
}


@pytest.mark.parametrize("name", RECORD_VALUES)
def test_records_behave_as_frozen_dataclasses(name):
    make, fields = RECORD_VALUES[name]
    record, twin = make(), make()
    assert type(record).__name__ == name and record is not twin
    assert record == twin and not record != twin
    if name == "Config":  # a mapping field is unhashable
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin) == hash(tuple(getattr(record, f) for f in fields))
    assert repr(record) == f"{name}(" + ", ".join(f"{f}={getattr(record, f)!r}" for f in fields) + ")"
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    for again in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(again) is type(record) and again == record


def test_records_of_different_classes_are_never_equal():
    fields = (LIGHTCONE, parse("w[0,1]^2"), parse("-w[1,0]^2"))
    assert Current(*fields) != CanonicalCurrent(*fields)
    assert not Current(*fields) == CanonicalCurrent(*fields)
    assert Characteristic(LIGHTCONE, parse("1")) != (LIGHTCONE, parse("1"))


def test_copies_of_the_named_frames_are_the_frames():
    current = Current(SPACETIME, parse("u[1,0]"), parse("-u[0,1]"))
    for frame in (LIGHTCONE, SPACETIME):
        assert pickle.loads(pickle.dumps(frame)) is frame
        assert copy.deepcopy(frame) is frame
    assert pickle.loads(pickle.dumps(current)).frame is SPACETIME
    assert copy.deepcopy(current).frame is SPACETIME
    assert copy.deepcopy(RECORD_VALUES["CanonicalCurrent"][0]()).frame is LIGHTCONE


def test_records_are_slotted_and_checked_in_every_construction():
    assert not any(hasattr(make(), "__dict__") for make, _ in RECORD_VALUES.values())
    with pytest.raises(ValueError, match="not eta-sided"):
        CanonicalCurrent(LIGHTCONE, parse("w[1,1]"), parse("0"))
    with pytest.raises(ValueError, match="finite"):
        Rectangle(0.0, math.inf, 0.0, 1.0)
    with pytest.raises(ValueError, match="finite"):
        Rectangle(0.0, 1.0, 0.0, 1.0)._replace(x1=math.nan)
    with pytest.raises(TypeError):
        Rectangle(0.0, 1.0, 0.0)
    with pytest.raises(TypeError):
        Rectangle(0.0, 1.0, 0.0, 1.0, t0=0.5)
    with pytest.raises(TypeError):
        Config()._replace(verbose=True)
    assert Config()._replace(seed=5, samples=3) == Config(5, 3)


def test_config_reference_point_defaults_to_a_read_only_empty_mapping():
    point = Config().reference_point
    assert point == {} and not point
    with pytest.raises(TypeError):
        point[Sym("xi")] = Fraction(1)
    assert Config().reference_point == {}
    assert resolve(ref_point="xi=1/2").reference_point == {Sym("xi"): Fraction(1, 2)}
    with pytest.raises(TypeError):
        resolve(ref_point="xi=1/2").reference_point[Sym("xi")] = Fraction(1)


def test_intern_table_does_not_keep_function_atoms_alive():
    atom = Fn("exp", parse("17*w[3,0] + 13*eta^5"))
    text = str(atom.arg)
    ref = weakref.ref(atom)
    assert any(str(arg) == text for _head, arg in list(Fn._interned.keys()))
    del atom
    gc.collect()
    assert ref() is None
    assert not any(str(arg) == text for _head, arg in list(Fn._interned.keys()))


def test_fused_exp_factor_is_the_interned_atom():
    product = parse("exp(w[0,1])*xi") * parse("exp(w[1,0])*eta")
    (mono, _c), = product.terms
    fused = mono[-1][0]
    arg = parse("w[0,1] + w[1,0]")
    assert fused is Fn("exp", arg)
    assert fused.sort_key == (2, f"exp({arg})")


# --- merge-based monomial product -------------------------------------------

FN_ARGS = [parse(text) for text in ("w[0,1]", "2*xi - w[1,0]", "w[0,2]^2", "-eta")]


def _reference_mono_mul(m1, m2):
    """The product through a power dict and one sort, with exp fusion."""
    powers = {}
    exp_arg = None
    for a, p in (*m1, *m2):
        if isinstance(a, Fn) and a.head == "exp":
            contrib = a.arg * p
            exp_arg = contrib if exp_arg is None else exp_arg + contrib
        else:
            powers[a] = powers.get(a, 0) + p
    factors = [(a, p) for a, p in powers.items() if p]
    if exp_arg is not None and not exp_arg.is_zero_literal:
        factors.append((Fn("exp", exp_arg), 1))
    return tuple(sorted(factors, key=lambda ap: ap[0].sort_key))


@st.composite
def monomials(draw):
    """A canonical monomial: sorted distinct atoms, at most one exp factor."""
    atoms = draw(st.lists(st.sampled_from(LIGHTCONE_ATOMS + [Jet("w", 5, 0)]), unique=True, max_size=5))
    powers = {a: draw(st.integers(1, 4)) for a in atoms}
    for head in draw(st.lists(st.sampled_from(["exp", "sin", "cos"]), unique=True, max_size=2)):
        atom = Fn(head, draw(st.sampled_from(FN_ARGS)))
        powers[atom] = 1 if head == "exp" else draw(st.integers(1, 3))
    return tuple(sorted(powers.items(), key=lambda ap: ap[0].sort_key))


@given(monomials(), monomials())
@settings(max_examples=300, deadline=None)
def test_merged_monomial_product_matches_dict_and_sort(m1, m2):
    assert _mono_mul(m1, m2) == _reference_mono_mul(m1, m2)
    assert _mono_mul(m2, m1) == _mono_mul(m1, m2)


# --- mpmath is loaded by sampled zero tests only -------------------------------


def _modules_after(code: str, watched=("mpmath",), options=()) -> set:
    """The watched modules that are loaded after code runs in a fresh
    interpreter, started with the given command-line options."""
    package_root = os.path.dirname(os.path.dirname(jetlaw.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p)}
    report = f"print('loaded:', *[m for m in {list(watched)!r} if m in sys.modules])"
    out = subprocess.run(
        [sys.executable, *options, "-c", f"import sys\n{code}\n{report}"],
        capture_output=True, text=True, check=True, timeout=60, env=env,
    )
    return set(out.stdout.splitlines()[-1].split()[1:])


def test_mpmath_is_imported_only_when_a_zero_test_samples():
    polynomial = (
        "import jetlaw.cli\n"
        "code = jetlaw.cli.main(['verify', '--first', 'w[0,1]^2', '--second', '-w[1,0]^2'])\n"
        "assert code in (0, 1), code"
    )
    assert _modules_after(polynomial) == set()
    sampled = (
        "from jetlaw.expr import parse, zero_verdict\n"
        "assert zero_verdict(parse('sin(w[0,1])^2 + cos(w[0,1])^2 - 1')).probabilistic"
    )
    assert _modules_after(sampled) == {"mpmath"}


_ENERGY = ["--first", "w[0,1]^2", "--second", "-w[1,0]^2"]
_OPTIONAL = ("jetlaw.transform", "jetlaw.oracle", "jetlaw.golden", "dataclasses")


@pytest.mark.parametrize("argv, loaded", [
    (["parse", "--expr", "(w[0,1] + 3)^2"], set()),
    (["verify", *_ENERGY], set()),
    (["characteristic", *_ENERGY], set()),
    (["is-trivial", "--first", "3*w[0,1]", "--second", "-3*w[1,0]"], set()),
    (["is-characteristic", "--multiplier", "3*w[0,1]"], set()),
    (["normalize", "--first", "w[0,1]^2 + w[1,1]", "--second", "-w[1,0]^2 + w[2,1]"], set()),
    (["witness", "--first", "2*w[0,1]*w[0,2] + 3*w[0,1]", "--second", "-3*w[1,0]"], set()),
    (["pullback", *_ENERGY], {"jetlaw.transform"}),
    (["numcheck", *_ENERGY, "--solution", "sin:1,0;poly:0,0,1"], {"jetlaw.transform", "jetlaw.oracle"}),
    (["golden"], {"jetlaw.transform", "jetlaw.oracle", "jetlaw.golden"}),
], ids=lambda value: value[0] if isinstance(value, list) else None)
def test_a_command_loads_only_the_modules_it_uses(argv, loaded):
    command = f"import jetlaw.cli\ncode = jetlaw.cli.main({argv!r})\nassert code == 0, code"
    assert _modules_after(command, _OPTIONAL) == loaded


def test_verify_loads_no_typing_random_or_string():
    # without site, which can import them itself through a .pth file
    verify = f"import jetlaw.cli\ncode = jetlaw.cli.main(['verify', *{_ENERGY!r}])\nassert code == 0"
    assert _modules_after(verify, ("typing", "random", "string"), ("-S",)) == set()


# --- integer numerators over one denominator ----------------------------------

PRIMES = [p for p in range(2, 98) if all(p % q for q in range(2, p))]
REDUCED_ATOMS = [Sym("xi"), Sym("eta"), Jet("w", 0, 0), Jet("w", 1, 0),
                 Jet("w", 0, 1), Jet("w", 0, 2), Jet("w", 2, 0)]
coefficients = st.one_of(
    st.integers(-9, 9).filter(bool),
    st.builds(Fraction, st.integers(-9, 9).filter(bool), st.sampled_from(PRIMES)),
)


def _mono(atoms) -> tuple:
    powers = {}
    for a in atoms:
        powers[a] = powers.get(a, 0) + 1
    return tuple(sorted(powers.items(), key=lambda ap: ap[0].sort_key))


@st.composite
def polynomials(draw, atoms=REDUCED_ATOMS, exp_factor=False, max_terms=4):
    """(Expr, reference) for one random sum of terms with int and Fraction
    coefficients; the reference maps monomials to Fractions.  With
    exp_factor, some terms carry exp of a linear form with prime denominators."""
    e, ref = Expr.zero(), {}
    for _ in range(draw(st.integers(1, max_terms))):
        c = draw(coefficients)
        factors = draw(st.lists(st.sampled_from(atoms), max_size=3))
        if exp_factor and draw(st.booleans()):
            arg = draw(coefficients) * as_expr(draw(st.sampled_from(JETS)))
            arg = arg + draw(coefficients) * as_expr(draw(st.sampled_from(LIGHTCONE_ATOMS[:2])))
            factors.append(Fn("exp", arg))
        term = as_expr(c)
        for a in factors:
            term = term * as_expr(a)
        e = e + term
        m = _mono(factors)
        ref[m] = ref.get(m, 0) + Fraction(c)
    return e, ref


def _ref_add(a: dict, b: dict, sign=1) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + sign * c
    return out


def _ref_mul(a: dict, b: dict) -> dict:
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = _mono_mul(m1, m2)
            out[m] = out.get(m, 0) + Fraction(c1) * Fraction(c2)
    return out


def _ref_pow(a: dict, n: int) -> dict:
    out = {(): Fraction(1)}
    for _ in range(n):
        out = _ref_mul(out, a)
    return out


def _without(mono: tuple, idx: int) -> tuple:
    """mono with one power of its idx-th atom taken away."""
    a, p = mono[idx]
    return (*mono[:idx], *(((a, p - 1),) if p > 1 else ()), *mono[idx + 1:])


def _ref_derive(a: dict, base) -> dict:
    """The derivation sending each Sym/Jet atom to base(atom); exp atoms
    follow the chain rule."""
    out = {}
    for m, c in a.items():
        for idx, (atom, p) in enumerate(m):
            if isinstance(atom, Fn):
                da = _ref_mul({((atom, 1),): 1}, _ref_derive(dict(atom.arg.terms), base))
            else:
                da = base(atom)
            out = _ref_add(out, _ref_mul({_without(m, idx): c * p}, da))
    return out


def _ref_substitute(a: dict, images: dict) -> dict:
    out = {}
    for m, c in a.items():
        product = {(): Fraction(c)}
        for atom, p in m:
            image = images.get(atom, {((atom, 1),): 1})
            product = _ref_mul(product, _ref_pow(image, p))
        out = _ref_add(out, product)
    return out


def _ref_integrate(a: dict, v, lower: Fraction) -> dict:
    out = {}
    for m, c in a.items():
        k = dict(m).get(v, 0)
        rest = tuple((b, p) for b, p in m if b is not v)
        out = _ref_add(out, {_mono_mul(rest, ((v, k + 1),)): c / (k + 1)})
        out = _ref_add(out, {rest: c * lower ** (k + 1) / (k + 1)}, sign=-1)
    return out


def _atom_ref(a) -> dict:
    return {((a, 1),): 1}


def _spacetime_ref(a) -> dict:
    """The frame change's image of a reduced light-cone atom, by hand."""
    x, t = _atom_ref(Sym("x")), _atom_ref(Sym("t"))
    if a == Sym("xi"):
        return _ref_add(x, t)
    if a == Sym("eta"):
        return _ref_add(x, t, sign=-1)
    n = a.i + a.j
    if n == 0:
        return _atom_ref(Jet("u", 0, 0))
    plus, minus = _atom_ref(Jet("u", 0, n)), _atom_ref(Jet("u", 1, n - 1))
    half = {(): Fraction(1, 2)}
    return _ref_mul(half, _ref_add(plus, minus, sign=1 if a.i else -1))


def _assert_canonical(e: Expr, ref: dict | None = None):
    """e is reduced, integral coefficients mean _den == 1, it reprints to
    itself, and it equals the reference."""
    numerators = [c for _, c in e._terms]
    assert all(type(c) is int and c for c in numerators)
    assert type(e._den) is int and e._den >= 1
    assert math.gcd(e._den, *numerators) == 1
    if all(c.denominator == 1 for _, c in e.terms):  # zero included
        assert e._den == 1
    assert parse(str(e)) == e
    if ref is not None:
        assert dict(e.terms) == {m: c for m, c in ref.items() if c}


@given(polynomials(exp_factor=True), polynomials(exp_factor=True), st.integers(0, 3),
       polynomials(max_terms=1), polynomials(max_terms=1))
@settings(max_examples=150, deadline=None)
def test_ring_operations_match_an_all_fraction_reference(a, b, n, one, other):
    (ea, ra), (eb, rb) = a, b
    _assert_canonical(ea, ra)
    _assert_canonical(ea + eb, _ref_add(ra, rb))
    _assert_canonical(ea - ea)
    _assert_canonical(ea * eb, _ref_mul(ra, rb))
    _assert_canonical(ea**n, _ref_pow(ra, n))
    (e1, r1), (e2, r2) = one, other  # one term times one term
    _assert_canonical(e1 * e2, _ref_mul(r1, r2))


def test_one_term_product_cancels_its_denominator():
    e = as_expr(6) * as_expr(Sym("xi")) * (Fraction(1, 3) * as_expr(Jet("w", 0, 1)))
    assert (e._terms, e._den) == (((((Sym("xi"), 1), (Jet("w", 0, 1), 1)), 2),), 1)


@given(polynomials(), st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_printed_polynomials_are_read_in_one_pass(a, n):
    # None would mean the recursive-descent parser read the text: a change
    # to printing must not send printed polynomials, and with them the
    # benchmark's parse cases, back to it
    e = a[0] ** n
    read = _parse_printed(str(e))
    assert read is not None and read == e


def test_a_term_with_coefficient_zero_is_read_in_one_pass():
    read = _parse_printed("0*xi + xi")
    assert read is not None and str(read) == "xi"


@given(polynomials(atoms=LIGHTCONE_ATOMS, exp_factor=True), st.sampled_from([0, 1]))
@settings(max_examples=150, deadline=None)
def test_derivatives_match_an_all_fraction_reference(a, axis):
    e, ref = a
    v = Jet("w", 0, 1)
    _assert_canonical(diff_partial(e, v), _ref_derive(ref, lambda b: {(): 1} if b == v else {}))
    sym = LIGHTCONE.symbol(axis)

    def base(b):
        if isinstance(b, Jet):
            return _atom_ref(b.shifted(axis))
        return {(): 1} if b == sym else {}

    _assert_canonical(total_derivative(e, LIGHTCONE, axis), _ref_derive(ref, base))


@given(polynomials(), st.lists(st.tuples(st.sampled_from(REDUCED_ATOMS), polynomials()), max_size=3))
@settings(max_examples=150, deadline=None)
def test_substitution_matches_an_all_fraction_reference(a, bindings):
    e, ref = a
    bindings = dict(bindings)
    images = {key: image for key, (image, _) in bindings.items()}
    refs = {key: image_ref for key, (_, image_ref) in bindings.items()}
    _assert_canonical(substitute(e, images), _ref_substitute(ref, refs))
    _assert_canonical(substitute_to_spacetime(e),
                      _ref_substitute(ref, {b: _spacetime_ref(b) for b in REDUCED_ATOMS}))


@given(polynomials(), st.builds(Fraction, st.integers(-9, 9), st.sampled_from(PRIMES)))
@settings(max_examples=150, deadline=None)
def test_integration_matches_an_all_fraction_reference(a, lower):
    e, ref = a
    v = Jet("w", 0, 1)
    _assert_canonical(integrate_univar(e, v, lower=lower), _ref_integrate(ref, v, lower))


@given(polynomials(exp_factor=True))
@settings(max_examples=60, deadline=None)
def test_pickle_and_copies_keep_the_denominator(a):
    e, _ = a
    for again in (pickle.loads(pickle.dumps(e)), copy.copy(e), copy.deepcopy(e)):
        assert again == e and hash(again) == hash(e)
        assert (again._terms, again._den) == (e._terms, e._den)


EVALUATED_ATOMS = REDUCED_ATOMS + [Jet("w", 2, 1)]  # every atom polynomials() draws


@given(polynomials(exp_factor=True),
       st.lists(st.floats(-3, 3), min_size=len(EVALUATED_ATOMS), max_size=len(EVALUATED_ATOMS)))
@settings(max_examples=100, deadline=None)
def test_float_evaluation_is_the_per_term_sum_of_fraction_floats(a, values):
    e, _ = a
    env = dict(zip(EVALUATED_ATOMS, values))
    expected = 0.0
    for mono, c in e.terms:
        term = float(c)
        for atom, p in mono:
            if isinstance(atom, Fn):
                term *= math.exp(evaluate_float(atom.arg, env)) ** p
            else:
                term *= float(env[atom]) ** p
        expected += term
    assert evaluate_float(e, env).hex() == expected.hex()


def test_terms_are_stored_in_the_order_they_were_collected_in():
    xi, w = as_expr(Sym("xi")), as_expr(Jet("w", 0, 1))
    one, other = xi + w, w + xi
    assert one._terms != other._terms
    assert one == other and hash(one) == hash(other)
    assert str(one) == str(other) == "w[0,1] + xi"
    assert one.terms == other.terms


def _fn_of(e: Expr):
    """The function atom of fn_apply's one-term result; None for a constant."""
    if not e._terms:
        return None
    ((mono, _c),) = e._terms
    return mono[0][0] if mono else None


@given(st.lists(polynomials(exp_factor=True, max_terms=2), min_size=2, max_size=6),
       st.randoms(use_true_random=False),
       st.lists(st.floats(-3, 3), min_size=len(EVALUATED_ATOMS), max_size=len(EVALUATED_ATOMS)))
@settings(max_examples=150, deadline=None)
def test_a_value_does_not_depend_on_the_order_it_was_built_in(drawn, rnd, values):
    parts = [e for e, _ in drawn]
    half = len(parts) // 2
    shuffled, first = parts[:], parts[:half]
    rnd.shuffle(shuffled)
    rnd.shuffle(first)
    folded = Expr.zero()
    for part in shuffled:
        folded = part + folded
    # (sum of parts) * (sum of the first half), built four ways
    value = Expr._sum(parts) * Expr._sum(parts[:half])
    builds = [
        Expr._sum(first) * Expr._sum(shuffled),
        Expr._sum(first[::-1]) * folded,
        Expr._sum([q * p for p in shuffled for q in first]),
    ]
    env = dict(zip(EVALUATED_ATOMS, values))
    for other in builds:
        assert other == value and hash(other) == hash(value)
        assert str(other) == str(value)
        assert evaluate_float(other, env).hex() == evaluate_float(value, env).hex()
        for head in ("exp", "sin"):
            assert _fn_of(fn_apply(head, other)) is _fn_of(fn_apply(head, value))
