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
value, so ``==`` and ``hash`` are the identity defaults of ``object`` and
a monomial's dict lookup hashes no fields.  Each atom stores its sort key
as a plain attribute when it is made, so sorting never rebuilds one, and
a product of two monomials is a linear merge of their sorted atom tuples
(only exp factors, which fuse into one, take a dict and a sort).  The
``Jet`` and ``Fn`` intern tables hold their atoms weakly: an atom, and
with it an ``Fn``'s argument expression, lives only as long as something
else refers to it.  Pickling and copying return the interned instance.

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
from functools import cache

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


# ---------------------------------------------------------------------------
# atoms

_INTERN_LOCK = threading.Lock()


def _refuse_mutation(self, *_):
    """__setattr__ and __delattr__ of the immutable classes."""
    raise AttributeError(f"{type(self).__name__} is immutable")


class _Atom:
    """Base of the interned atoms: one instance per value, never mutated.

    Equal values are the same object, so ``==`` and ``hash`` are the
    identity defaults of ``object``.  ``sort_key`` is computed once, when
    the instance is made.  Each subclass's own ``__slots__`` are its fields.
    The records below (``_Record``) share the immutability and the repr
    but are not interned, so they compare and hash by their fields.
    """

    __slots__ = ("sort_key", "__weakref__")

    @classmethod
    def _intern(cls, key, sort_key, *fields):
        """The one instance for key, made from fields the first time."""
        with _INTERN_LOCK:  # two threads must not make two instances of one value
            self = cls._interned.get(key)
            if self is None:
                self = object.__new__(cls)
                for name, value in zip(cls.__slots__, fields):
                    object.__setattr__(self, name, value)
                object.__setattr__(self, "sort_key", sort_key)
                cls._interned[key] = self
            return self

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in type(self).__slots__)

    __setattr__ = __delattr__ = _refuse_mutation

    def __reduce__(self):
        # unpickling and copying go through __new__, which returns the interned instance
        return type(self), self._values()

    def __repr__(self):
        body = ", ".join(f"{n}={v!r}" for n, v in zip(type(self).__slots__, self._values()))
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


class Sym(_Atom):
    """An independent variable: one of xi, eta, t, x."""

    __slots__ = ("name",)
    _interned: dict = {}  # name -> Sym, four entries at most

    def __new__(cls, name: str):
        if name not in SYMBOL_NAMES:
            raise ValueError(f"unknown independent symbol {name!r}")
        return cls._interned.get(name) or cls._intern(name, (0, SYMBOL_NAMES.index(name)), name)

    def __str__(self):
        return self.name


class Jet(_Atom):
    """Jet coordinate var[i,j]: d^(i+j) var / d(first)^i d(second)^j."""

    __slots__ = ("var", "i", "j")
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

    def shifted(self, axis: int) -> "Jet":
        """The jet one derivative deeper along axis 0 (first) or 1 (second)."""
        if axis == 0:
            return Jet(self.var, self.i + 1, self.j)
        return Jet(self.var, self.i, self.j + 1)

    def __str__(self):
        return f"{self.var}[{self.i},{self.j}]"


class Fn(_Atom):
    """A transcendental factor head(arg) with head in exp/sin/cos/ln.

    Instances are created through :func:`fn_apply`, which folds special
    values (exp(0), sin(0), cos(0), ln(1)) and normalizes the sign of
    sin/cos arguments, so two mathematically identical factors share one
    representation.
    """

    __slots__ = ("head", "arg")
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


# A monomial is a tuple of (atom, exponent) pairs, ascending in atom sort
# key, exponents >= 1.  The empty tuple is the constant monomial.
Mono = tuple


def _mono_key(mono: Mono):
    """The canonical-order key of a monomial: its degree, then its atoms
    from the last, each with its exponent."""
    return (sum([p for _, p in mono]), tuple([(a.sort_key, p) for a, p in reversed(mono)]))


def _mono_mul(m1: Mono, m2: Mono) -> Mono:
    """Merge two monomials; products of exp factors fuse their arguments.

    Function atoms sort last, so unless both monomials end in one, no exp
    factors meet and the product is a merge of the two sorted tuples.
    """
    if not m2:
        return m1
    if not m1:
        return m2
    if type(m1[-1][0]) is Fn and type(m2[-1][0]) is Fn:
        return _mono_mul_fused(m1, m2)
    a1, p1 = m1[0]
    a2, p2 = m2[0]
    k1, k2 = a1.sort_key, a2.sort_key
    if m1[-1][0].sort_key < k2:  # all of m1 sorts before all of m2
        return m1 + m2
    n1, n2 = len(m1), len(m2)
    i = j = 0
    out = []
    while True:
        if a1 is a2:
            out.append((a1, p1 + p2))
            i += 1
            j += 1
            if i == n1 or j == n2:
                break
            a1, p1 = m1[i]
            a2, p2 = m2[j]
            k1, k2 = a1.sort_key, a2.sort_key
        elif k1 < k2:
            out.append(m1[i])
            i += 1
            if i == n1:
                break
            a1, p1 = m1[i]
            k1 = a1.sort_key
        else:
            out.append(m2[j])
            j += 1
            if j == n2:
                break
            a2, p2 = m2[j]
            k2 = a2.sort_key
    return (*out, *m1[i:], *m2[j:])


def _mono_mul_fused(m1: Mono, m2: Mono) -> Mono:
    """The product through a power dict and a sort, fusing exp factors."""
    powers: dict[Sym | Jet | Fn, int] = {}
    exp_arg = None
    for a, p in (*m1, *m2):
        if isinstance(a, Fn) and a.head == "exp":
            contrib = a.arg if p == 1 else a.arg * Expr.from_rational(p)
            exp_arg = contrib if exp_arg is None else exp_arg + contrib
        else:
            powers[a] = powers.get(a, 0) + p
    factors = [(a, p) for a, p in powers.items() if p != 0]
    if exp_arg is not None and not exp_arg.is_zero_literal:
        factors.append((Fn("exp", exp_arg), 1))
    factors.sort(key=lambda ap: ap[0].sort_key)
    return tuple(factors)


def _mul_into(coeffs: dict, left, right) -> dict:
    """Add every product of a left and a right (monomial, numerator) pair
    into coeffs."""
    for m1, c1 in left:
        for m2, c2 in right:
            m = _mono_mul(m1, m2)
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

    ``_terms`` holds (monomial, integer numerator) pairs, one per distinct
    monomial, with no zero numerator, in the order they were collected in;
    every coefficient is its numerator over the one positive ``_den``.  The
    pair is reduced, ``gcd(_den, *numerators) == 1``, and zero is
    ``Expr(())`` with ``_den == 1``, so each value has one set of terms and
    ``==`` and ``hash`` compare that set and ``_den``.  ``_sorted_terms()``
    is the same pairs in canonical order, which printing and evaluation read.
    """

    # _hash, _atoms, _sorted and _fraction_terms are filled on the first
    # hash(), base_atoms(), _sorted_terms() and terms call
    __slots__ = ("_terms", "_den", "_hash", "_atoms", "_sorted", "_fraction_terms")

    def __init__(self, terms: tuple, den: int = 1):
        # internal: terms must already be canonical (distinct monomials of
        # sorted atoms, nonzero numerators, reduced against den), in any order
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_den", den)

    def __setattr__(self, *_):
        raise AttributeError("Expr is immutable")

    def __reduce__(self):
        return Expr, (self._terms, self._den)

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
    def _monomial(mono: Mono, num: int, den: int) -> "Expr":
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
        return Expr((((), q.numerator),), q.denominator)

    @staticmethod
    def from_atom(a: Sym | Jet | Fn) -> "Expr":
        return Expr(((((a, 1),), 1),))

    # -- inspection --------------------------------------------------------

    def _sorted_terms(self) -> tuple:
        """The (monomial, numerator) pairs in canonical order: by degree, then
        by atoms from the last, largest first.  Made on first use."""
        try:
            return self._sorted
        except AttributeError:
            pass
        terms = self._terms
        if len(terms) > 1:
            terms = tuple(sorted(terms, key=lambda mc: _mono_key(mc[0]), reverse=True))
        object.__setattr__(self, "_sorted", terms)
        return terms

    @property
    def terms(self) -> tuple:
        """The (monomial, Fraction coefficient) pairs, in canonical order."""
        try:
            return self._fraction_terms
        except AttributeError:
            pass
        den = self._den
        value = tuple([(m, Fraction(c, den)) for m, c in self._sorted_terms()])
        object.__setattr__(self, "_fraction_terms", value)
        return value

    @property
    def is_zero_literal(self) -> bool:
        return not self._terms

    def as_rational(self) -> Fraction | None:
        """The value as a rational constant, or None if non-constant."""
        if not self._terms:
            return Fraction(0)
        if len(self._terms) == 1 and self._terms[0][0] == ():
            return Fraction(self._terms[0][1], self._den)
        return None

    def base_atoms(self) -> frozenset:
        """All Sym and Jet atoms, including those inside function arguments."""
        try:
            return self._atoms
        except AttributeError:
            pass
        found = set()
        for mono, _ in self._terms:
            for a, _p in mono:
                if isinstance(a, Fn):
                    found |= a.arg.base_atoms()
                else:
                    found.add(a)
        atoms = frozenset(found)
        object.__setattr__(self, "_atoms", atoms)
        return atoms

    def fn_atoms(self) -> frozenset:
        """All transcendental factors, including nested ones."""
        found = set()
        for mono, _ in self._terms:
            for a, _p in mono:
                if isinstance(a, Fn):
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
            return Expr._monomial(_mono_mul(m1, m2), c1 * c2, self._den * other._den)
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
        for a, _p in mono:
            if not (isinstance(a, Fn) and a.head == "exp"):
                raise UnsupportedExpressionError(
                    f"negative power of non-invertible factor {a}"
                )
        inv = Expr.from_rational(Fraction(self._den, c))
        for a, p in mono:
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
                str(a) + (f"^{p}" if p > 1 else "") for a, p in mono
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
_ONE = Expr((((), 1),))


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
    return _derive(e, lambda a: _ONE if a == v else _ZERO)


def _derive(e: Expr, base_derivative) -> Expr:
    """Apply the derivation that maps each Sym/Jet atom a to base_derivative(a).

    ``diff_partial`` and ``jets.total_derivative`` are this one pass with
    different atom maps.  Terms are visited in the order they were built;
    only when a factor cannot be differentiated is the pass made once more
    in printed order, so the error names the first such factor there.
    """
    memo: dict = {}
    try:
        return _derive_pass(e, base_derivative, memo, ordered=False)
    except UnsupportedExpressionError:
        return _derive_pass(e, base_derivative, memo, ordered=True)


def _derive_pass(e: Expr, base_derivative, memo: dict, ordered: bool) -> Expr:
    """One pass of ``_derive``; function atoms follow the chain rule through
    their arguments, and each atom's derivative is computed once (memo,
    shared with the recursion into arguments, which inherits ``ordered``)."""
    groups: dict = {}  # denominator of the atom derivative -> numerators over it
    for mono, c in e._sorted_terms() if ordered else e._terms:
        for idx, (a, p) in enumerate(mono):
            da = memo.get(a)
            if da is None:
                if isinstance(a, Fn):
                    da = _chain_rule(a, _derive_pass(a.arg, base_derivative, memo, ordered))
                else:
                    da = base_derivative(a)
                memo[a] = da
            if not da._terms:
                continue
            if p > 1:
                rest = (*mono[:idx], (a, p - 1), *mono[idx + 1 :])
            else:
                rest = mono[:idx] + mono[idx + 1 :]
            _mul_into(_group(groups, da._den), ((rest, c * p),), da._terms)
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
    a call, so a caller may keep the powers across calls; function atoms are
    rebuilt from their substituted arguments in every call."""
    images: dict = {}  # (atom, exponent) -> its image, None where it stays
    groups: dict = {}  # product of the image denominators -> numerators over it
    for mono, c in e._terms:
        kept = []
        factors = []
        den = 1
        for ap in mono:
            image = images.get(ap, False)
            if image is False:
                a, p = ap
                if isinstance(a, Fn):
                    arg = _substitute(a.arg, power)
                    try:
                        base = fn_apply(a.head, arg)
                    except UnsupportedExpressionError as exc:  # ln of a constant <= 0
                        raise UnsupportedExpressionError(f"{a} becomes {exc}") from exc
                    image = base**p
                else:
                    image = power(a, p)
                images[ap] = image
            if image is None:
                kept.append(ap)
                continue
            factors.append(image._terms)
            den *= image._den
        coeffs = _group(groups, den)
        if not factors:
            acc = coeffs.get(mono)
            coeffs[mono] = c if acc is None else acc + c
            continue
        # the term's product of images, expanded in raw numerator dicts
        product = ((tuple(kept), c),)  # kept is a sub-tuple of a canonical monomial
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
        for a, p in mono:
            if isinstance(a, (Sym, Jet)) and a == v:
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
        rest_expr = Expr._monomial(tuple(rest), c, e._den)
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
            v_mono = ((v, k - j),) if j < k else ()
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
    for mono, c in e._sorted_terms():
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
    for mono, c in e._sorted_terms():  # one summation order, however e was built
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
            op = self.next()[0]
            if op == "*":
                e = e * self.factor()
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
            except UnsupportedExpressionError as exc:
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
                mono = tuple(sorted([ap for ap in powers.items() if ap[1]], key=lambda ap: ap[0].sort_key))
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
