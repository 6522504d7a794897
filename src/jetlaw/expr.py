"""Exact symbolic expressions over jet coordinates.

An :class:`Expr` is kept permanently in canonical form: a sum of monomials,
each a rational coefficient times a product of atomic factors with positive
integer exponents.  Atoms are independent symbols (``xi``, ``eta``, ``t``,
``x``), jet coordinates ``name[i,j]`` standing for the mixed partial
derivative of order ``(i, j)`` of a dependent variable, and the
transcendental heads ``exp``/``sin``/``cos``/``ln`` applied to expressions.
Coefficients are exact rationals, so equality of canonical forms is exact,
never floating point.

An Expr stores its coefficients as integer numerators over one common
positive denominator, as FLINT's ``fmpq_poly`` does, reduced so that the
denominator and the numerators have no common factor.  The kernel computes
on ints only: a product multiplies numerators and denominators, and a sum
or a derivative that meets several denominators collects the numerators
over each in its own dict and scales each dict once, by the lcm over its
denominator.  :class:`fractions.Fraction` appears only at the boundary:
``from_rational``, ``as_rational``, printing, the public ``terms`` and the
high-precision zero test.

Canonical form is maintained by construction: arithmetic merges monomials,
drops zero coefficients and fuses products of exponentials (``exp(a)*exp(b)``
becomes ``exp(a+b)``).  The terms of an Expr are unordered inside: they are
stored in the order they were collected in, which depends on how the value
was built, and ``==`` and ``hash`` ignore that order.  Canonical order, a
graded lexicographic rule, is a view made on first use and cached.
Printing reads it, so printing is deterministic and ``parse(str(e)) == e``
holds; so do the public ``terms``, float and high-precision evaluation (a
float sum adds its terms in one order, however the value was built), the
sign rule of ``fn_apply`` and the error messages of ``integrate_univar``.

Sums are accumulated, never re-added: code that adds up many parts collects
their monomials in one coefficient dict and builds a single Expr at the end
(``Expr._sum``, or ``Expr._build`` on the dict it filled).  Folding
``out = out + part`` over n parts copies the growing result every time and
costs O(n^2) in the term count.  Arithmetic never sorts terms: it merges
them in a dict and orders them only for output, as sparse polynomial
arithmetic has done since Johnson (SIGSAM Bull. 1974) and Monagan & Pearce
(CASC 2007).  Canonical form is unique and the coefficients are exact, so
the order of accumulation never shows in a value, only in how its terms
are stored.

Atoms are interned: ``Sym``, ``Jet`` and ``Fn`` make one instance per
value, so ``==`` and ``hash`` are the identity defaults of ``object``.
Each atom stores its sort key as a plain attribute when it is made, so
sorting never rebuilds one.  The ``Jet`` and ``Fn`` intern tables hold
their atoms weakly: an atom, and with it an ``Fn``'s argument expression,
lives only as long as something else refers to it.  Pickling and copying
return the interned instance.

Monomials are packed exponent vectors, the layout of Monagan & Pearce.
Each ``Sym`` and ``Jet`` value owns a slot, given when it is first made
and kept for the life of the process, even after a collected jet is made
again.  A monomial's Sym and Jet part is one int with a 32-bit field per
slot: 31 bits of exponent and a guard bit, so an exponent is at most
``EXPONENT_LIMIT`` (2^31 - 1).  A product of monomials is one int
addition; a field that passes the limit sets its guard bit, never carries
into its neighbour, and one AND finds it and raises ExponentLimitError.
A derivative in an atom reads its field with a shift and a mask and
subtracts its unit.  Function factors stay beside the int: a monomial
with some is a ``_Mixed`` pair, which adds like the ints and fuses exp
factors.  Slot numbers mean nothing outside the process, so canonical
order, printing, the public ``terms``, ``base_atoms`` and pickling unpack
the int into (atom, exponent) pairs at the boundary.

``parse`` has two readers.  Text in the shape ``str`` prints a polynomial
in, a signed sum of terms that are products of integers, symbols, jets
``name[i,j]`` and bare names with optional natural powers, and
``/integer`` divisors, is read in one pass: one regex match per term, whose
numerator, denominator and atom powers go straight into coefficient dicts
grouped by denominator, as ``Expr._sum`` collects, with no Expr made per
factor or per term.  Every other text (parentheses, function heads,
negative exponents, a symbol with an index such as ``t[1,0]``, division by
zero, an integer literal too long to read, anything malformed) goes to the
recursive-descent ``_Parser``, which raises every ParseError.  On text the
one-pass reader takes, both give the same value.

The package's other immutable values (``ZeroVerdict`` here, ``Frame``,
``Current``, ``Config`` and the rest elsewhere) are records: slotted
subclasses of ``_Record``, whose fields are their ``__slots__``.  The base
writes their equality, hash and repr once, generically, where generating
those methods for each class at import, and importing the standard
library's generator, cost about 20 ms of CPU in every CLI process.
"""

from __future__ import annotations

import math
import operator
import re
import threading
import weakref
from collections.abc import Mapping
from fractions import Fraction
from functools import cache, lru_cache

SYMBOL_NAMES = ("xi", "eta", "t", "x")
FUNCTION_NAMES = ("exp", "sin", "cos", "ln")


class ParseError(ValueError):
    """Raised on malformed input text; carries the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnsupportedExpressionError(ValueError):
    """The requested operation leaves the polynomial-exponential fragment."""


class UnsupportedIntegrandError(ValueError):
    """The integrand is outside the closed-form antiderivative classes."""


class ExponentLimitError(ValueError):
    """A result would hold an exponent over EXPONENT_LIMIT."""


# ---------------------------------------------------------------------------
# atoms

_INTERN_LOCK = threading.Lock()

_FIELD = 32  # bits per slot: the exponent, then one guard bit
EXPONENT_LIMIT = (1 << (_FIELD - 1)) - 1
_MASK = (1 << _FIELD) - 1
_SLOT_OF: dict = {}  # intern key of a Sym or Jet value -> its slot, for good
_SLOT_ATOMS: list = []  # slot -> weak reference to its atom
_SLOT_KEYS: list = []  # slot -> the intern key, to make a collected jet again
_GUARDS = 0  # the guard bit of every slot given out


def _refuse_mutation(self, *_):
    """__setattr__ and __delattr__ of the immutable classes."""
    raise AttributeError(f"{type(self).__name__} is immutable")


class _Atom:
    """Base of the interned atoms: one instance per value, never mutated.

    Equal values are the same object, so ``==`` and ``hash`` are the
    identity defaults of ``object``.  ``sort_key`` is computed once, when
    the instance is made.  Each subclass names its fields in ``_fields``.
    The records below (``_Record``) share the immutability and the repr
    but are not interned, so they compare and hash by their fields.
    """

    __slots__ = ("sort_key", "__weakref__")
    _fields: tuple = ()

    @classmethod
    def _intern(cls, key, sort_key, *fields):
        """The one instance for key, made from fields the first time."""
        with _INTERN_LOCK:  # two threads must not make two instances of one value
            self = cls._interned.get(key)
            if self is None:
                self = object.__new__(cls)
                for name, value in zip(cls._fields, fields):
                    object.__setattr__(self, name, value)
                object.__setattr__(self, "sort_key", sort_key)
                self._made(key)
                cls._interned[key] = self
            return self

    def _made(self, key):
        """Called once on a new instance, under the intern lock."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    __setattr__ = __delattr__ = _refuse_mutation

    def __reduce__(self):
        # unpickling and copying go through __new__, which returns the interned instance
        return type(self), self._values()

    def __repr__(self):
        body = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{type(self).__name__}({body})"


class _Record:
    """Base of the immutable value records: ``Current``, ``Frame``,
    ``Config`` and the rest.  Unlike atoms they are not interned.

    A subclass names its fields in ``__slots__``, after those of the record
    it extends, and their defaults in the class dict ``_defaults``; checks
    go in ``__post_init__``, which the constructor calls last.  Records
    are equal only when they are of one class with equal fields, ``hash``
    is taken over the fields, ``repr`` is ``Name(field=value, ...)`` and
    assignment raises AttributeError.  ``_replace`` copies a record with
    some fields changed, through the constructor and so through the checks.
    """

    __slots__ = ()
    _fields: tuple = ()  # field names, in constructor order
    _defaults: dict = {}  # field name -> default value

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__slots__" not in cls.__dict__:  # without it the record would get a __dict__
            raise TypeError(f"record {cls.__name__} must define __slots__")
        cls._fields = cls._fields + tuple(cls.__slots__)
        get = operator.attrgetter(*cls._fields)
        if len(cls._fields) == 1:  # attrgetter of one name returns the bare value
            get = lambda record, one=get: (one(record),)
        cls._get = staticmethod(get)  # record -> tuple of its field values

    def __init__(self, *args, **kwargs):
        names = self._fields
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} fields, got {len(args)}")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        for name in names[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in self._defaults:
                value = self._defaults[name]
            else:
                raise TypeError(f"{type(self).__name__} is missing field {name!r}")
            object.__setattr__(self, name, value)
        if kwargs:
            raise TypeError(f"{type(self).__name__} got unknown or repeated fields {sorted(kwargs)}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return self._get(self)

    def _replace(self, **changes):
        return type(self)(**{**{name: getattr(self, name) for name in self._fields}, **changes})

    __setattr__ = __delattr__ = _refuse_mutation

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._get(self) == other._get(other)

    def __hash__(self):
        return hash(self._get(self))

    def __reduce__(self):
        # without it, copy and pickle would restore the slots through __setattr__
        return type(self), self._get(self)

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({body})"


class _Variable(_Atom):
    """Base of Sym and Jet, the atoms a monomial's int holds: ``slot`` is
    the index of the atom's exponent field, and ``unit`` the int with 1 in
    that field.  A value keeps its slot when its jet is collected and made
    again, so no slot is reused and a live monomial never changes meaning."""

    __slots__ = ("slot", "unit")

    def _made(self, key):
        global _GUARDS
        slot = _SLOT_OF.get(key)
        if slot is None:
            slot = _SLOT_OF[key] = len(_SLOT_ATOMS)
            _SLOT_ATOMS.append(None)
            _SLOT_KEYS.append(key)
            _GUARDS |= 1 << (slot * _FIELD + _FIELD - 1)
        _SLOT_ATOMS[slot] = weakref.ref(self)
        object.__setattr__(self, "slot", slot)
        object.__setattr__(self, "unit", 1 << slot * _FIELD)


def _atom_at(slot: int) -> "Sym | Jet":
    """The atom of a slot; a jet that was collected is made again."""
    atom = _SLOT_ATOMS[slot]()
    # symbols stay in Sym._interned, so only a jet can have been collected
    return Jet(*_SLOT_KEYS[slot]) if atom is None else atom


class Sym(_Variable):
    """An independent variable: one of xi, eta, t, x."""

    __slots__ = ("name",)
    _fields = ("name",)
    _interned: dict = {}  # name -> Sym, four entries at most

    def __new__(cls, name: str):
        if name not in SYMBOL_NAMES:
            raise ValueError(f"unknown independent symbol {name!r}")
        return cls._interned.get(name) or cls._intern(name, (0, SYMBOL_NAMES.index(name)), name)

    def __str__(self):
        return self.name


class Jet(_Variable):
    """Jet coordinate var[i,j]: d^(i+j) var / d(first)^i d(second)^j."""

    __slots__ = ("var", "i", "j", "_up")
    _fields = ("var", "i", "j")
    _interned = weakref.WeakValueDictionary()  # (var, i, j) -> Jet

    def __new__(cls, var: str, i: int, j: int):
        self = cls._interned.get((var, i, j))
        if self is None:
            if var in SYMBOL_NAMES or var in FUNCTION_NAMES:
                raise ValueError(f"reserved name {var!r} cannot be a jet variable")
            if i < 0 or j < 0:
                raise ValueError(f"negative jet index in {var}[{i},{j}]")
            self = cls._intern((var, i, j), (1, var, i, j), var, i, j)
        return self

    def _made(self, key):
        super()._made(key)
        object.__setattr__(self, "_up", [None, None])  # the two shifted jets, made on first use

    def shifted(self, axis: int) -> "Jet":
        """The jet one derivative deeper along axis 0 (first) or 1 (second)."""
        up = self._up[axis]
        if up is None:
            up = self._up[axis] = Jet(self.var, self.i + 1 - axis, self.j + axis)
        return up

    def __str__(self):
        return f"{self.var}[{self.i},{self.j}]"


for _name in SYMBOL_NAMES:  # the symbols take the first slots
    Sym(_name)


class Fn(_Atom):
    """A transcendental factor head(arg) with head in exp/sin/cos/ln.

    Instances are created through :func:`fn_apply`, which folds special
    values (exp(0), sin(0), cos(0), ln(1)) and normalizes the sign of
    sin/cos arguments, so two mathematically identical factors share one
    representation.
    """

    __slots__ = ("head", "arg")
    _fields = ("head", "arg")
    _interned = weakref.WeakValueDictionary()  # (head, arg) -> Fn

    def __new__(cls, head: str, arg: "Expr"):
        self = cls._interned.get((head, arg))
        if self is None:
            if head not in FUNCTION_NAMES:
                raise ValueError(f"unknown function {head!r}")
            self = cls._intern((head, arg), (2, f"{head}({arg})"), head, arg)
        return self

    def __str__(self):
        return f"{self.head}({self.arg})"


# A monomial is an int when its factors are all Sym and Jet atoms: the sum
# of p * atom.unit over its factors atom^p, so 0 is the constant monomial.
# One with function factors is a _Mixed.


class _Mixed(tuple):
    """A monomial with function factors: the pair (its Sym and Jet part as
    an int, its (Fn, exponent) pairs in sort-key order), with at most one
    exp factor, to the first power.

    It takes part in the int arithmetic of the kernel's loops: ``+`` with
    an int or a _Mixed is the monomial product, which fuses exp factors,
    ``- n`` subtracts from the int part, and ``& mask`` reads it.  Hashing
    and equality are the tuple's own.
    """

    __slots__ = ()

    def __add__(self, other):
        if type(other) is int:
            return tuple.__new__(_Mixed, (self[0] + other, self[1]))
        return _mixed(self[0] + other[0], _fn_product(self[1], other[1]))

    __radd__ = __add__

    def __sub__(self, n: int):
        return tuple.__new__(_Mixed, (self[0] - n, self[1]))

    def __and__(self, mask: int) -> int:
        return self[0] & mask


def _mixed(bits: int, fns: tuple):
    """The monomial with int part bits and function factors fns."""
    return tuple.__new__(_Mixed, (bits, fns)) if fns else bits


def _fn_product(f1: tuple, f2: tuple) -> tuple:
    """The function factors of a product: powers add, exp factors fuse."""
    powers: dict[Fn, int] = {}
    exp_arg = None
    for a, p in (*f1, *f2):
        if a.head == "exp":
            contrib = a.arg if p == 1 else a.arg * Expr.from_rational(p)
            exp_arg = contrib if exp_arg is None else exp_arg + contrib
        else:
            powers[a] = powers.get(a, 0) + p
    for a, p in powers.items():
        if p > EXPONENT_LIMIT:
            raise _limit_error(p, a)
    factors = list(powers.items())
    if exp_arg is not None and not exp_arg.is_zero_literal:
        factors.append((Fn("exp", exp_arg), 1))
    factors.sort(key=lambda ap: ap[0].sort_key)
    return tuple(factors)


def _limit_error(p: int, atom=None) -> ExponentLimitError:
    of = "" if atom is None else f" of {atom}"
    return ExponentLimitError(f"exponent {p}{of} is over the limit {EXPONENT_LIMIT}")


def _fields_of(bits: int):
    """The (slot, exponent) pairs of the nonzero fields of bits, by slot."""
    while bits:
        slot = ((bits & -bits).bit_length() - 1) // _FIELD
        shift = slot * _FIELD
        p = (bits >> shift) & _MASK
        yield slot, p
        bits -= p << shift


@lru_cache(maxsize=1024)
def _slots_of(ones: int) -> tuple:
    """(slot, field mask, shift) of each field of ones, which holds 0 or 1
    in each field; cached, since the atom sets of Exprs recur."""
    return tuple([(slot, _MASK << slot * _FIELD, slot * _FIELD) for slot, _p in _fields_of(ones)])


def _over_limit(m) -> ExponentLimitError:
    """The error for a monomial with a guard bit set."""
    for slot, p in _fields_of(m if type(m) is int else m[0]):
        if p > EXPONENT_LIMIT:
            return _limit_error(p, _atom_at(slot))


def _factors(m) -> tuple:
    """The monomial as (atom, exponent) pairs in sort-key order, function
    atoms last: the form printing, evaluation and ``terms`` read."""
    bits, fns = (m, ()) if type(m) is int else m
    atoms = sorted([(_atom_at(slot), p) for slot, p in _fields_of(bits)], key=lambda ap: ap[0].sort_key)
    return (*atoms, *fns)


def _pack(factors) -> int | _Mixed:
    """The monomial of (atom, exponent) pairs, one per atom, exponents >= 1
    and function atoms in sort-key order; the inverse of _factors."""
    bits, fns = 0, []
    for a, p in factors:
        if p > EXPONENT_LIMIT:
            raise _limit_error(p, a)
        if type(a) is Fn:
            fns.append((a, p))
        else:
            bits += p * a.unit
    return _mixed(bits, tuple(fns))


def _mono_key(factors: tuple):
    """The canonical-order key of a monomial's factors: its degree, then
    its atoms from the last, each with its exponent."""
    return (sum([p for _, p in factors]), tuple([(a.sort_key, p) for a, p in reversed(factors)]))


def _mul_into(coeffs: dict, left, right) -> dict:
    """Add every product of a left and a right (monomial, numerator) pair
    into coeffs."""
    guards = _GUARDS
    for m1, c1 in left:
        for m2, c2 in right:
            m = m1 + m2
            if m & guards:
                raise _over_limit(m)
            c = c1 * c2
            acc = coeffs.get(m)
            coeffs[m] = c if acc is None else acc + c
    return coeffs


def _group(groups: dict, den: int) -> dict:
    """The coefficient dict collecting numerators over den, made on first use."""
    coeffs = groups.get(den)
    if coeffs is None:
        coeffs = groups[den] = {}
    return coeffs


def _build_grouped(groups: dict, den: int = 1) -> "Expr":
    """The Expr sum over d of groups[d] / (den * d), where each groups[d]
    maps monomials to integer numerators.

    Each group is scaled once, by lcm // d, into one dict over the lcm.
    """
    if len(groups) > 1:  # a group no term landed in adds nothing to the lcm
        groups = {d: coeffs for d, coeffs in groups.items() if coeffs}
    if not groups:
        return _ZERO
    if len(groups) == 1:
        ((d, coeffs),) = groups.items()
        return Expr._build(coeffs, den * d)
    common = math.lcm(*groups)
    out: dict = {}
    for d, coeffs in groups.items():
        scale = common // d
        for m, c in coeffs.items():
            c *= scale
            acc = out.get(m)
            out[m] = c if acc is None else acc + c
    return Expr._build(out, den * common)


class Expr:
    """Canonical sum of monomials with rational coefficients. Immutable.

    ``_terms`` holds (packed monomial, integer numerator) pairs, one per
    distinct monomial, with no zero numerator, in the order they were
    collected in; every coefficient is its numerator over the one positive
    ``_den``.  The pair is reduced, ``gcd(_den, *numerators) == 1``, and
    zero is ``Expr(())`` with ``_den == 1``, so each value has one set of
    terms and ``==`` and ``hash`` compare that set and ``_den``.
    ``_sorted_terms()`` is the same pairs in canonical order, which printing
    reads; ``_factored_terms()`` has their monomials unpacked into (atom,
    exponent) tuples, which evaluation reads.
    """

    # _hash, _vars, _atoms, _sorted and _factored are filled on the first
    # hash(), _variables(), base_atoms(), _sorted_terms() and _factored_terms()
    # call; only what evaluation reads at every point is kept unpacked
    __slots__ = ("_terms", "_den", "_hash", "_vars", "_atoms", "_sorted", "_factored")

    def __init__(self, terms: tuple, den: int = 1):
        # internal: terms must already be canonical (distinct packed
        # monomials, nonzero numerators, reduced against den), in any order
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_den", den)

    def __setattr__(self, *_):
        raise AttributeError("Expr is immutable")

    def __reduce__(self):
        # slots are numbered by each process for itself, so pickles carry atoms
        return _unpickle, (tuple([(_factors(m), c) for m, c in self._terms]), self._den)

    # -- construction ------------------------------------------------------

    @staticmethod
    def _build(coeffs: dict, den: int = 1) -> "Expr":
        """The Expr sum of numerator / den over a monomial -> numerator dict."""
        items = [(m, c) for m, c in coeffs.items() if c]
        if not items:
            return _ZERO
        if den != 1:
            g = den
            for _, c in items:
                g = math.gcd(g, c)
                if g == 1:
                    break
            else:
                items = [(m, c // g) for m, c in items]
                den //= g
        return Expr(tuple(items), den)

    @staticmethod
    def _monomial(mono, num: int, den: int) -> "Expr":
        """The one-term Expr num / den * mono, for num != 0 and den > 0."""
        g = math.gcd(num, den)
        if g != 1:
            num //= g
            den //= g
        return Expr(((mono, num),), den)

    @staticmethod
    def _sum(parts) -> "Expr":
        """The sum of an iterable of Exprs, collected in one dict."""
        groups: dict = {}  # denominator -> the numerators of parts over it
        for part in parts:
            coeffs = _group(groups, part._den)
            for m, c in part._terms:
                acc = coeffs.get(m)
                coeffs[m] = c if acc is None else acc + c
        return _build_grouped(groups)

    @staticmethod
    def zero() -> "Expr":
        return _ZERO

    @staticmethod
    def one() -> "Expr":
        return _ONE

    @staticmethod
    def from_rational(q: int | Fraction) -> "Expr":
        if not isinstance(q, int):
            q = Fraction(q)
        if q == 0:
            return _ZERO
        return Expr(((0, q.numerator),), q.denominator)

    @staticmethod
    def from_atom(a: Sym | Jet | Fn) -> "Expr":
        mono = _mixed(0, ((a, 1),)) if type(a) is Fn else a.unit
        return Expr(((mono, 1),))

    # -- inspection --------------------------------------------------------

    def _sorted_terms(self) -> tuple:
        """The (monomial, numerator) pairs in canonical order: by degree,
        then by atoms from the last, largest first.  Made on first use."""
        try:
            return self._sorted
        except AttributeError:
            pass
        terms = self._terms
        if len(terms) > 1:
            terms = tuple(sorted(terms, key=lambda mc: _mono_key(_factors(mc[0])), reverse=True))
        object.__setattr__(self, "_sorted", terms)
        return terms

    def _factored_terms(self) -> tuple:
        """The (factors, numerator) pairs in canonical order, each monomial
        unpacked by _factors.  Made on first use."""
        try:
            return self._factored
        except AttributeError:
            pass
        terms = tuple([(_factors(m), c) for m, c in self._sorted_terms()])
        object.__setattr__(self, "_factored", terms)
        return terms

    @property
    def terms(self) -> tuple:
        """The (monomial, Fraction coefficient) pairs, in canonical order;
        each monomial is its (atom, exponent) pairs in sort-key order.
        Made on each read, so a value read once keeps nothing."""
        den = self._den
        return tuple([(_factors(m), Fraction(c, den)) for m, c in self._sorted_terms()])

    @property
    def is_zero_literal(self) -> bool:
        return not self._terms

    def as_rational(self) -> Fraction | None:
        """The value as a rational constant, or None if non-constant."""
        if not self._terms:
            return Fraction(0)
        if len(self._terms) == 1 and self._terms[0][0] == 0:
            return Fraction(self._terms[0][1], self._den)
        return None

    def _variables(self) -> tuple:
        """The (slot, field mask, shift) of each Sym and Jet atom of the
        monomials, outside function arguments, by slot.  Made on first use."""
        variables = getattr(self, "_vars", None)
        if variables is not None:
            return variables
        bits = 0
        for m, _ in self._terms:
            bits |= m if type(m) is int else m[0]
        for k in (1, 2, 4, 8, 16):  # OR each field's bits into its lowest
            bits |= bits >> k
        variables = _slots_of(bits & (_GUARDS >> (_FIELD - 1)))
        object.__setattr__(self, "_vars", variables)
        return variables

    def base_atoms(self) -> frozenset:
        """All Sym and Jet atoms, including those inside function arguments."""
        try:
            return self._atoms
        except AttributeError:
            pass
        found = {_atom_at(slot) for slot, _field, _shift in self._variables()}
        for m, _ in self._terms:
            if type(m) is _Mixed:
                for a, _p in m[1]:
                    found |= a.arg.base_atoms()
        atoms = frozenset(found)
        object.__setattr__(self, "_atoms", atoms)
        return atoms

    def fn_atoms(self) -> frozenset:
        """All transcendental factors, including nested ones."""
        found = set()
        for m, _ in self._terms:
            if type(m) is _Mixed:
                for a, _p in m[1]:
                    found.add(a)
                    found |= a.arg.fn_atoms()
        return frozenset(found)

    def jets(self, var: str | None = None) -> frozenset:
        return frozenset(
            a
            for a in self.base_atoms()
            if isinstance(a, Jet) and (var is None or a.var == var)
        )

    def depends_on(self, atom) -> bool:
        return atom in self.base_atoms()

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "Expr":
        return Expr._sum((self, as_expr(other)))

    __radd__ = __add__

    def __neg__(self) -> "Expr":
        return Expr(tuple([(m, -c) for m, c in self._terms]), self._den)

    def __sub__(self, other) -> "Expr":
        return self + (-as_expr(other))

    def __rsub__(self, other) -> "Expr":
        return as_expr(other) + (-self)

    def __mul__(self, other) -> "Expr":
        other = as_expr(other)
        if len(self._terms) == 1 == len(other._terms):
            # one monomial times one: nothing to collect
            (m1, c1), (m2, c2) = self._terms[0], other._terms[0]
            m = m1 + m2
            if m & _GUARDS:
                raise _over_limit(m)
            return Expr._monomial(m, c1 * c2, self._den * other._den)
        return Expr._build(_mul_into({}, self._terms, other._terms), self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Expr":
        if isinstance(other, Expr):
            q = other.as_rational()
            if q is None:
                raise UnsupportedExpressionError("division only by rational constants")
            other = q
        return self * (Fraction(1) / Fraction(other))

    def __pow__(self, n: int) -> "Expr":
        if not isinstance(n, int):
            raise TypeError("exponents must be integers")
        if n == 0:
            return _ONE
        if n < 0:
            return self._invert() ** (-n)
        if n > EXPONENT_LIMIT and any(_grows(m) for m, _ in self._terms):
            raise _limit_error(n)  # so would its leading monomial's power: refused before the work
        out = None  # the first factor is taken as it is, not multiplied by one
        base = self
        while True:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if not n:
                return out
            base = base * base

    def _invert(self) -> "Expr":
        """Reciprocal; defined only for c * exp(...) monomials."""
        if len(self._terms) != 1:
            raise UnsupportedExpressionError(
                "negative power of a non-invertible expression"
            )
        mono, c = self._terms[0]
        factors = _factors(mono)
        for a, _p in factors:
            if not (isinstance(a, Fn) and a.head == "exp"):
                raise UnsupportedExpressionError(
                    f"negative power of non-invertible factor {a}"
                )
        inv = Expr.from_rational(Fraction(self._den, c))
        for a, p in factors:
            inv = inv * Expr.from_atom(Fn("exp", -(a.arg * Expr.from_rational(p))))
        return inv

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Expr.from_rational(other)
        if not isinstance(other, Expr):
            return NotImplemented
        mine, theirs = self._terms, other._terms
        if self._den != other._den or len(mine) != len(theirs):
            return False
        # equal values may have collected their terms in different orders
        return mine == theirs or dict(mine) == dict(theirs)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            pass
        value = hash((frozenset(self._terms), self._den))
        object.__setattr__(self, "_hash", value)
        return value

    # -- printing ----------------------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"
        chunks = []
        den = self._den
        for idx, (mono, c) in enumerate(self._sorted_terms()):
            body = "*".join(
                str(a) + (f"^{p}" if p > 1 else "") for a, p in _factors(mono)
            )
            mag = Fraction(abs(c), den)
            if body:
                text = body if mag == 1 else f"{mag}*{body}"
            else:
                text = str(mag)
            if idx == 0:
                chunks.append(f"-{text}" if c < 0 else text)
            else:
                chunks.append(f" - {text}" if c < 0 else f" + {text}")
        return "".join(chunks)

    def __repr__(self):
        return f"Expr({str(self)!r})"


_ZERO = Expr(())
_ONE = Expr(((0, 1),))


def _unpickle(terms: tuple, den: int) -> Expr:
    """The Expr of pickled (factors, numerator) pairs, packed in this process."""
    return Expr(tuple([(_pack(factors), c) for factors, c in terms]), den)


def _grows(m) -> bool:
    """Whether the powers of a monomial raise an exponent: all but the
    constant and a lone exp factor, whose powers scale its argument."""
    if type(m) is int:
        return m != 0
    return m[0] != 0 or len(m[1]) > 1 or m[1][0][0].head != "exp"


def as_expr(value) -> Expr:
    """Coerce ints, Fractions and atoms to Expr."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, Fraction)):
        return Expr.from_rational(value)
    if isinstance(value, (Sym, Jet, Fn)):
        return Expr.from_atom(value)
    raise TypeError(f"cannot interpret {value!r} as an expression")


def fn_apply(head: str, arg) -> Expr:
    """Apply a transcendental head to an argument, normalizing as we go.

    exp(0) -> 1, sin(0) -> 0, cos(0) -> 1, ln(1) -> 0; sin/cos arguments
    have their overall sign normalized (sin is odd, cos is even) so the
    canonical form does not depend on how the argument was written.  ln of
    a rational constant <= 0 has no real value and raises
    UnsupportedExpressionError.
    """
    arg = as_expr(arg)
    if head == "exp":
        if arg.is_zero_literal:
            return _ONE
        return Expr.from_atom(Fn("exp", arg))
    if head == "ln":
        q = arg.as_rational()
        if q is not None and q <= 0:
            raise UnsupportedExpressionError(f"ln of the non-positive constant {q}")
        if q == 1:
            return _ZERO
        return Expr.from_atom(Fn("ln", arg))
    if head in ("sin", "cos"):
        if arg.is_zero_literal:
            return _ZERO if head == "sin" else _ONE
        if arg._sorted_terms()[0][1] < 0:  # the sign of the leading coefficient
            flipped = Expr.from_atom(Fn(head, -arg))
            return -flipped if head == "sin" else flipped
        return Expr.from_atom(Fn(head, arg))
    raise ValueError(f"unknown function {head!r}")


# ---------------------------------------------------------------------------
# calculus


def diff_partial(e: Expr, v) -> Expr:
    """Partial derivative with respect to a single Sym or Jet atom.

    Other atoms are held fixed; the chain rule is applied through function
    arguments.  Differentiating ln with an argument that depends on v would
    produce a rational function, which this fragment cannot represent, so
    that case raises UnsupportedExpressionError.
    """
    if not isinstance(v, (Sym, Jet)):
        raise TypeError("differentiation variable must be a symbol or jet atom")
    derivatives = _Derivatives(None)  # every other atom is held fixed
    derivatives.put(v.slot, _ONE)
    return _derive(e, derivatives)


class _Derivatives(dict):
    """slot -> how a derivation moves the atom of that slot, made on first
    lookup from derivative(atom), or 0 when derivative is None: None where
    the derivative is 0, else (field, shift, unit, delta, the derivative's
    terms, its denominator), where delta, when not None, is m' - unit for
    a derivative that is one polynomial term c' * m'.  A slot's atom never
    changes, so a caller may keep one for as long as its derivation."""

    __slots__ = ("derivative",)

    def __init__(self, derivative):
        super().__init__()
        self.derivative = derivative

    def __missing__(self, slot: int):
        return self.put(slot, _ZERO if self.derivative is None else self.derivative(_atom_at(slot)))

    def put(self, slot: int, da: Expr):
        """Record da as the derivative of the atom of slot."""
        terms = da._terms
        if not terms:
            move = None
        else:
            shift = slot * _FIELD
            unit = 1 << shift
            one = len(terms) == 1 and type(terms[0][0]) is int
            move = (_MASK << shift, shift, unit, terms[0][0] - unit if one else None, terms, da._den)
        self[slot] = move
        return move


def _derive(e: Expr, derivatives: _Derivatives) -> Expr:
    """Apply the derivation that moves each Sym/Jet atom as derivatives says.

    ``diff_partial`` and ``jets.total_derivative`` are this one pass with
    different atom maps.  Terms are visited in the order they were built;
    only when a factor cannot be differentiated is the pass made once more
    in printed order, so the error names the first such factor there.
    """
    memo: dict = {}
    try:
        return _derive_pass(e, derivatives, memo, ordered=False)
    except UnsupportedExpressionError:
        return _derive_pass(e, derivatives, memo, ordered=True)


def _derive_pass(e: Expr, derivatives: _Derivatives, memo: dict, ordered: bool) -> Expr:
    """One pass of ``_derive``; function atoms follow the chain rule through
    their arguments, and each one's derivative is computed once (memo,
    shared with the recursion into arguments, which inherits ``ordered``).

    A term's derivative in a Sym or Jet atom a reads a's exponent p from
    its field: it is p * (m - a.unit) times a's derivative.  Where that is
    one polynomial term c' * m', the product is one addition, m + delta
    with delta = m' - a.unit, which is m - a.unit + m' however it is added."""
    groups: dict = {}  # denominator of the atom derivative -> numerators over it
    # (field, shift, unit, delta or None, derivative's terms, their group) of
    # the atoms whose derivative is not 0
    moved = []
    for slot, _field, _shift in e._variables():
        move = derivatives[slot]
        if move is not None:
            field, shift, unit, delta, terms, den = move
            moved.append((field, shift, unit, delta, terms, _group(groups, den)))
    guards = _GUARDS
    for m, c in e._sorted_terms() if ordered else e._terms:
        bits = m if type(m) is int else m[0]
        for field, shift, unit, delta, dterms, coeffs in moved:
            power_bits = bits & field
            if power_bits:
                c1 = c * (power_bits >> shift)
                if delta is None:
                    _mul_into(coeffs, ((m - unit, c1),), dterms)
                    continue
                m1 = m + delta
                if m1 & guards:
                    raise _over_limit(m1)
                c1 *= dterms[0][1]
                acc = coeffs.get(m1)
                coeffs[m1] = c1 if acc is None else acc + c1
        if type(m) is int:
            continue
        fns = m[1]
        for idx, (a, p) in enumerate(fns):
            da = memo.get(a)
            if da is None:
                da = memo[a] = _chain_rule(a, _derive_pass(a.arg, derivatives, memo, ordered))
            if not da._terms:
                continue
            if p > 1:
                rest = (*fns[:idx], (a, p - 1), *fns[idx + 1 :])
            else:
                rest = fns[:idx] + fns[idx + 1 :]
            _mul_into(_group(groups, da._den), ((_mixed(bits, rest), c * p),), da._terms)
    return _build_grouped(groups, e._den)


def _chain_rule(a: Fn, darg: Expr) -> Expr:
    """Derivative of a function atom whose argument has derivative darg."""
    if darg.is_zero_literal:
        return _ZERO
    if a.head == "exp":
        return Expr.from_atom(a) * darg
    if a.head == "sin":
        return fn_apply("cos", a.arg) * darg
    if a.head == "cos":
        return -fn_apply("sin", a.arg) * darg
    raise UnsupportedExpressionError(
        f"derivative of {a} leaves the polynomial-exponential fragment"
    )


def substitute(e: Expr, bindings: Mapping) -> Expr:
    """Simultaneous substitution of Sym/Jet atoms by expressions.

    All replacements read the original expression, so exchanging two atoms
    through each other works as expected.  Substitution descends into
    function arguments.
    """
    if not bindings:
        return e
    table = {}
    for key, val in bindings.items():
        if not isinstance(key, (Sym, Jet)):
            raise TypeError("substitution keys must be symbol or jet atoms")
        table[key] = as_expr(val)
    return _substitute(e, lambda a, p: table[a] ** p if a in table else None)


def _substitute(e: Expr, power) -> Expr:
    """``substitute`` where power(a, p) is the image of a^p for a Sym or Jet
    atom a, or None where a stays.  It is asked once per (atom, exponent) in
    a call, and for each atom of e at exponent 1 first, so a caller may keep
    the powers across calls; function atoms are rebuilt from their
    substituted arguments in every call."""
    moved = []  # (field mask, shift, atom, {its power's field: image}) of the atoms that go
    for slot, field, shift in e._variables():
        a = _atom_at(slot)
        image = power(a, 1)
        if image is not None:
            moved.append((field, shift, a, {1 << shift: image}))
    fn_images: dict = {}  # (function atom, exponent) -> its image
    groups: dict = {}  # product of the image denominators -> numerators over it
    for m, c in e._terms:
        kept = bits = m if type(m) is int else m[0]
        factors = []
        den = 1
        for field, shift, a, images in moved:
            power_bits = bits & field
            if power_bits:
                image = images.get(power_bits)
                if image is None:
                    image = images[power_bits] = power(a, power_bits >> shift)
                kept -= power_bits
                factors.append(image._terms)
                den *= image._den
        if type(m) is _Mixed:
            for ap in m[1]:
                image = fn_images.get(ap)
                if image is None:
                    a, p = ap
                    arg = _substitute(a.arg, power)
                    try:
                        base = fn_apply(a.head, arg)
                    except UnsupportedExpressionError as exc:  # ln of a constant <= 0
                        raise UnsupportedExpressionError(f"{a} becomes {exc}") from exc
                    image = fn_images[ap] = base**p
                factors.append(image._terms)
                den *= image._den
        coeffs = _group(groups, den)
        if not factors:
            acc = coeffs.get(m)
            coeffs[m] = c if acc is None else acc + c
            continue
        # the term's product of images, expanded in raw numerator dicts
        product = ((kept, c),)  # kept: the atoms that stay
        for image in factors[:-1]:
            product = _mul_into({}, product, image).items()
        _mul_into(coeffs, product, factors[-1])
    return _build_grouped(groups, e._den)


# The n-th antiderivative G_n of head(a*v + b) in v is sign * head_n(a*v + b) / a^n,
# with (sign, head_n) read from the head's table at index (n - 1) mod its period.
_ANTIDERIVATIVES = {
    "exp": ((1, "exp"),),
    "sin": ((-1, "cos"), (-1, "sin"), (1, "cos"), (1, "sin")),
    "cos": ((1, "sin"), (-1, "cos"), (-1, "sin"), (1, "cos")),
}


def integrate_univar(e: Expr, v, lower=0) -> Expr:
    """Definite integral of e in the single variable v from the base point.

    Supported integrand classes, per monomial in v: polynomial, and
    polynomial times a single first-power exp/sin/cos factor g(a*v + b)
    whose argument is linear in v with a nonzero rational slope a.  The
    latter is integrated by parts k + 1 times,

        int v^k g(a*v + b) dv = sum_{j=0..k} (-1)^j k!/(k-j)! v^(k-j) G_{j+1},

    where G_n = +-exp|sin|cos(a*v + b) / a^n is the n-th antiderivative of g.
    The result H satisfies diff_partial(H, v) == e and H|_{v=lower} == 0
    exactly.  Anything else raises UnsupportedIntegrandError.
    """
    if not isinstance(v, (Sym, Jet)):
        raise TypeError("integration variable must be a symbol or jet atom")
    lower = as_expr(lower)
    v_expr = Expr.from_atom(v)
    parts = []
    for mono, c in e._sorted_terms():  # so an error names the first term in printed order
        k = 0
        trans = None
        rest = []
        for a, p in _factors(mono):
            if a is v:
                k = p
            elif isinstance(a, Fn) and a.arg.depends_on(v):
                if trans is not None:
                    raise UnsupportedIntegrandError(
                        f"two {v}-dependent transcendental factors in one term"
                    )
                if p != 1:
                    raise UnsupportedIntegrandError(
                        f"power {p} of {a.head}(...) with {v}-dependent argument"
                    )
                trans = a
            else:
                rest.append((a, p))
        rest_expr = Expr._monomial(_pack(rest), c, e._den)
        if trans is None:
            parts.append(rest_expr * v_expr ** (k + 1) / (k + 1))
            continue
        slope = diff_partial(trans.arg, v).as_rational()
        if slope is None or slope == 0:
            raise UnsupportedIntegrandError(
                f"argument of {trans} is not linear in {v} with rational slope"
            )
        table = _ANTIDERIVATIVES.get(trans.head)
        if table is None:
            raise UnsupportedIntegrandError(f"cannot integrate {trans.head}(...)")
        heads = {head: rest_expr * fn_apply(head, trans.arg) for _, head in table}
        inverse = 1 / slope
        coeff = inverse  # (-1)^j k!/(k-j)! / a^(j+1)
        for j in range(k + 1):
            sign, head = table[j % len(table)]
            v_mono = (k - j) * v.unit
            parts.append(
                Expr._monomial(v_mono, sign * coeff.numerator, coeff.denominator) * heads[head]
            )
            coeff *= -(k - j) * inverse
    anti = Expr._sum(parts)
    return anti - substitute(anti, {v: lower})


# ---------------------------------------------------------------------------
# zero testing


class ZeroVerdict(_Record):
    """Outcome of a zero test; probabilistic=True means randomized evaluation."""

    __slots__ = ("zero", "probabilistic")


def _decidable(e: Expr) -> bool:
    # Canonical form is a complete zero test for polynomials and for sums of
    # polynomial multiples of exp with polynomial arguments (distinct
    # exponential arguments are linearly independent over polynomials).
    # sin/cos/ln identities, and exp applied to transcendental arguments,
    # are not decided structurally.
    for f in e.fn_atoms():
        if f.head != "exp":
            return False
        if f.arg.fn_atoms():
            return False
    return True


def zero_verdict(e: Expr, *, samples: int = 8, seed: int = 42) -> ZeroVerdict:
    """Decide whether e is mathematically zero.

    Exact when the canonical form is zero or the expression lies in the
    decidable fragment (polynomials and exp-monomials).  Otherwise the
    expression is evaluated at `samples` random rational points in high
    precision; a verdict reached this way is tagged probabilistic.
    """
    if e.is_zero_literal:
        return ZeroVerdict(True, False)
    if _decidable(e):
        return ZeroVerdict(False, False)
    import random  # only a sampled zero test draws points, as only it needs mpmath

    mpmath, _ = _mp()
    rng = random.Random(seed)
    atoms = sorted(e.base_atoms(), key=lambda a: a.sort_key)
    with mpmath.workdps(80):
        for _ in range(samples):
            env = {
                a: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for a in atoms
            }
            value, scale = _eval_mp(e, env)
            if abs(value) > max(scale, mpmath.mpf(1)) * mpmath.mpf("1e-50"):
                return ZeroVerdict(False, True)
    return ZeroVerdict(True, True)


def is_zero(e: Expr, *, samples: int = 8, seed: int = 42) -> bool:
    return zero_verdict(e, samples=samples, seed=seed).zero


@cache
def _mp():
    """mpmath and its functions by head, imported by the first sampled zero
    test: exact verdicts, and so most runs of the CLI, never load it."""
    import mpmath

    return mpmath, {"exp": mpmath.exp, "sin": mpmath.sin, "cos": mpmath.cos, "ln": mpmath.log}


def _mp_number(q: Fraction):
    mpmath, _ = _mp()
    return mpmath.mpf(q.numerator) / mpmath.mpf(q.denominator)


def _eval_mp(e: Expr, env: Mapping):
    """High-precision evaluation; returns (value, largest term magnitude)."""
    mpmath, funcs = _mp()
    total = mpmath.mpf(0)
    scale = mpmath.mpf(0)
    for mono, c in e._factored_terms():
        term = _mp_number(Fraction(c, e._den))
        for a, p in mono:
            if isinstance(a, Fn):
                inner, _ = _eval_mp(a.arg, env)
                term = term * funcs[a.head](inner) ** p
            else:
                term = term * _mp_number(env[a]) ** p
        total = total + term
        scale = max(scale, abs(term))
    return total, scale


_FLOAT_FUNCS = {"exp": math.exp, "sin": math.sin, "cos": math.cos, "ln": math.log}


def evaluate_float(e: Expr, env: Mapping) -> float:
    """Double-precision evaluation; env maps every Sym/Jet atom to a float."""
    total = 0.0
    den = e._den
    for mono, c in e._factored_terms():  # one summation order, however e was built
        term = c / den  # int true division rounds correctly, as float(Fraction) does
        for a, p in mono:
            if isinstance(a, Fn):
                term *= _FLOAT_FUNCS[a.head](evaluate_float(a.arg, env)) ** p
            else:
                term *= float(env[a]) ** p
        total += term
    return total


# ---------------------------------------------------------------------------
# parsing


_PUNCT = set("+-*/^()[],")
# names are ASCII: str.isalnum() would glue a superscript onto one, as in w²
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_NAME_CHARS = _NAME_START | frozenset("0123456789")


def _tokenize(text: str):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch.isdecimal():  # isdigit() admits superscripts, which int() rejects
            start = pos
            while pos < n and text[pos].isdecimal():
                pos += 1
            tokens.append(("int", text[start:pos], start))
            continue
        if ch in _NAME_START:
            start = pos
            while pos < n and text[pos] in _NAME_CHARS:
                pos += 1
            tokens.append(("name", text[start:pos], start))
            continue
        if ch in _PUNCT:
            tokens.append((ch, ch, pos))
            pos += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", "", n))
    return tokens


def _int_value(tok) -> int:
    """The value of an int token; a literal longer than the interpreter's
    int-string limit (``sys.set_int_max_str_digits``) is a ParseError."""
    try:
        return int(tok[1])
    except ValueError:  # the token is all decimal digits, so only the limit refuses it
        raise ParseError(f"integer literal of {len(tok[1])} digits is too long", tok[2]) from None


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self) -> Expr:
        e = self.expression()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing {tok[1]!r}", tok[2])
        return e

    def expression(self) -> Expr:
        negate = self.peek()[0] == "-"
        if self.peek()[0] in ("+", "-"):
            self.next()
        terms = []
        while True:
            e = self.term()
            terms.append(-e if negate else e)
            if self.peek()[0] not in ("+", "-"):
                break
            negate = self.next()[0] == "-"
        return terms[0] if len(terms) == 1 else Expr._sum(terms)

    def term(self) -> Expr:
        e = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.next()
            if op[0] == "*":
                right = self.factor()
                try:
                    e = e * right
                except ExponentLimitError as exc:
                    raise ParseError(str(exc), op[2]) from exc
            else:
                e = e / self.integer_token()
        return e

    def factor(self) -> Expr:
        base = self.base()
        if self.peek()[0] == "^":
            caret = self.next()
            n = self.signed_int()
            try:
                return base**n
            except (UnsupportedExpressionError, ExponentLimitError) as exc:
                raise ParseError(str(exc), caret[2]) from exc
        return base

    def signed_int(self) -> int:
        sign = 1
        if self.peek()[0] == "-":
            self.next()
            sign = -1
        return sign * _int_value(self.expect("int"))

    def integer_token(self) -> int:
        tok = self.expect("int")
        value = _int_value(tok)
        if value == 0:
            raise ParseError("division by zero", tok[2])
        return value

    def base(self) -> Expr:
        tok = self.next()
        kind, text, at = tok
        if kind == "int":
            return Expr.from_rational(_int_value(tok))
        if kind == "(":
            e = self.expression()
            self.expect(")")
            return e
        if kind == "name":
            if text in SYMBOL_NAMES:
                return Expr.from_atom(Sym(text))
            if text in FUNCTION_NAMES:
                self.expect("(")
                arg = self.expression()
                self.expect(")")
                try:
                    return fn_apply(text, arg)
                except ValueError as exc:  # ln of a constant <= 0
                    raise ParseError(str(exc), at) from exc
            if self.peek()[0] == "[":
                self.next()
                i = self.signed_int()
                self.expect(",")
                j = self.signed_int()
                close = self.expect("]")
                if i < 0 or j < 0:
                    raise ParseError(f"negative jet index in {text}[{i},{j}]", at)
                return Expr.from_atom(Jet(text, i, j))
            # a bare dependent-variable name stands for its (0,0) jet
            return Expr.from_atom(Jet(text, 0, 0))
        raise ParseError(f"unexpected {text!r}", at)


@cache
def _printed_patterns():
    """The term pattern's match and the factor pattern's findall, compiled
    on the first parse rather than at import.

    A factor is an integer, or a name with an optional index [i,j], then
    an optional natural power.  A term is an optional sign, then factors
    joined by ``*``, each ``/`` taking an integer divisor.  The factor
    pattern, led by its ``*`` or ``/``, splits a term the term pattern has
    matched.  ``\\s`` and ``\\d`` match what the tokenizer's ``str.isspace``
    and ``str.isdecimal`` do; names are ASCII, as there.
    """
    factor = r"(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)(?:\s*\[\s*(\d+)\s*,\s*(\d+)\s*\])?)(?:\s*\^\s*(\d+))?"
    term = re.compile(rf"\s*([-+]?)\s*({factor}(?:\s*(?:\*\s*{factor}|/\s*\d+))*)\s*")
    return term.match, re.compile(rf"\s*([*/]?)\s*{factor}").findall


def _parse_printed(text: str) -> Expr | None:
    """The value of text read in one pass, or None when text is not a
    printed polynomial: a signed sum of terms, each a product of integers,
    symbols and jets with optional natural powers, and integer divisors.

    Each term is one match of the term pattern; its numerator, denominator
    and atom powers go straight into the coefficient dicts, one per
    denominator, that ``Expr._sum`` collects in, and no Expr is made
    before the result.  Any other text, malformed text included, gives
    None, so that ``_Parser`` reads it and raises every ParseError.
    """
    match_term, split_term = _printed_patterns()
    groups: dict = {}  # term denominator -> the numerators of terms over it
    atoms: dict = {}  # (name, i, j) as written -> its atom
    pos, end = 0, len(text)
    try:
        while True:
            m = match_term(text, pos)
            if m is None:
                return None
            sign, body = m.group(1, 2)
            if pos and not sign:  # a term after the first needs its sign
                return None
            pos = m.end()
            num = -1 if sign == "-" else 1
            den = 1
            powers: dict = {}
            for op, digits, name, i, j, p in split_term(body):
                if digits:
                    value = int(digits)
                    if op != "/":
                        num *= value ** int(p) if p else value
                    elif value:
                        den *= value
                    else:  # division by zero
                        return None
                    continue
                atom = atoms.get((name, i, j))
                if atom is None:
                    if name in SYMBOL_NAMES and not i:
                        atom = Sym(name)
                    else:  # Jet refuses a symbol or a function name
                        atom = Jet(name, int(i), int(j)) if i else Jet(name, 0, 0)
                    atoms[name, i, j] = atom
                powers[atom] = powers.get(atom, 0) + (int(p) if p else 1)
            if num:
                mono = 0
                for atom, p in powers.items():
                    if p > EXPONENT_LIMIT:  # for _Parser to report
                        return None
                    mono += p * atom.unit
                coeffs = _group(groups, den)
                acc = coeffs.get(mono)
                coeffs[mono] = num if acc is None else acc + num
            if pos == end:
                break
    except ValueError:  # a jet of a reserved name, or an integer longer than int() reads
        return None
    return _build_grouped(groups)


def parse(text: str) -> Expr:
    """Parse expression text to a canonical Expr.

    Grammar: sums of terms, terms are products of factors with division
    only by integer literals, factors are bases with an optional integer
    exponent, bases are integers, symbols, jets ``name[i,j]``, function
    applications, or parenthesized expressions.  A sign may start only an
    expression (the input, a parenthesized group, a function argument) or
    an exponent, so ``xi+-1`` and ``xi*-1`` are errors and ``xi+(-1)`` is not.

    A printed polynomial (a signed sum of terms, each a product of
    integers, symbols, jets and bare names with optional natural powers,
    and ``/integer`` divisors) is read in one pass by ``_parse_printed``.
    All other text, with parentheses, functions or negative exponents, and
    every malformed text goes to ``_Parser``, which raises every ParseError.
    An integer literal longer than the interpreter's int-string limit is
    a ParseError that names its digit count.
    """
    e = _parse_printed(text)
    return _Parser(text).parse() if e is None else e
