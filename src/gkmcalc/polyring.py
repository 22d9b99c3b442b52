"""Exact sparse multivariate polynomials over the rationals.

A polynomial in n variables is stored as a map from monomials to nonzero
rational coefficients, and each monomial t1^e1 ... tn^en is packed into
one int of n + 1 eight-bit fields: the total degree e1 + ... + en in the
top field, then e1, ..., en, with e1 the most significant.  Graded-lex
order is then plain int order, a product of monomials is a sum of keys
and the quotient by a variable a difference.  Every field must fit in
eight bits, so the total degree of a polynomial is at most
``MAX_DEGREE`` (255); a reader, power or product whose result would pass
it raises ``ValueError`` instead of letting a field overflow.  Exponent
tuples appear only at the boundary: ``terms()``, ``coefficient()`` and
the three readers, the ``Polynomial(n, terms)`` constructor, the text
form and the JSON ``exp`` lists.  The readers share one path: it sums
the terms of one exponent, drops a zero sum and only then refuses a term
above the bound, so a term that cancels or has coefficient 0 is never
refused.

An integral coefficient is stored as an ``int`` and any other as a
``Fraction``, so the integer classes that dominate the package never pay
for ``Fraction`` arithmetic; only a division (``exact_divide``, a scalar
like 1/|W|) leaves a ``Fraction``.  Every sum is stored in that form as
it is formed, a zero one dropped, so no result is scanned again; the
public accessors (``terms``, ``coefficient``, ``constant_term``) still
return ``Fraction``.  Variables are 1-indexed and print as ``t1``,
``t2``, ... by default; the general-type modules render the same ring
with an ``a`` prefix for simple-root coordinates.  The representation is
canonical: two polynomials are equal exactly when their term maps are
equal, and serialization orders terms in descending graded-lexicographic
order.

A polynomial never changes after it is built; it only caches its hash.
A compiled :class:`Substitution` keeps the powers of its images between
calls.  Neither cache changes a value, so values can be shared freely.

>>> t1, t2 = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
>>> str(t1 - t2)
't1 - t2'
>>> exact_divide((t1 - t2) * (t1 + t2), t1 - t2) == t1 + t2
True
>>> poly_divided_difference(t1 * t2, 1).is_zero()
True

``Polynomial.substitute`` takes a plain assignment and analyses it on
every call.  A caller that applies one assignment many times compiles it
once as a :class:`Substitution`; ``hyperplane(f)`` is the compiled
elimination of f's pivot variable on f = 0, which reduces modulo f:

>>> swap = Substitution(2, swap_substitution(2, 1, 2))
>>> [str(p.substitute(swap)) for p in (t1, t1 * t1 - 3 * t2)]
['t2', 't2^2 - 3*t1']
>>> on_line = hyperplane(t1 - 2 * t2)  # t1 = 2*t2 on the line
>>> [str(p.substitute(on_line)) for p in (t1, t1 * t1 - 4 * t2 * t2)]
['2*t2', '0']

Every product of two polynomials runs through one multiply-accumulate
loop, which adds the product of two term maps into a third (S. C.
Johnson's one-target accumulation); a product accumulates into an empty
map.  A substitution that is not a relabelling adds each term's image
into its result in one pass: the term times the kept powers of the
images, added straight in with that loop's order and stored-form rules;
powers are multiplied together first only for a term in which three or
more variables move.  A sum runs through a plain add loop.  Code that
sums many terms runs the two loops in place into term maps it owns,
never a given polynomial's, drops an entry whose sum cancels and makes
each polynomial once, as the result leaves (basis expansion and
reconstruction, the divided difference of an expansion, the action's
step, the decomposition's identity check).  ``add_mul(p, a, b)`` is
p + a * b, the first loop run into one copy of p's terms (Billey's step,
the vertex solver).  ``exact_divide`` keeps its own heap loop.
``to_strings`` forms the text of many polynomials of one ring: each
distinct polynomial object and each distinct monomial is put into text
once per call; ``to_string`` is its one-polynomial case:

>>> str(add_mul(t1, t1 - t2, t2))
't1*t2 - t2^2 + t1'
>>> to_strings([t1 - t2, 2 * t1, t1 - t1], prefix="a")
['a1 - a2', '2*a1', '0']
"""

from __future__ import annotations

import heapq
import re
from fractions import Fraction
from operator import neg
from typing import Iterable, Mapping

__all__ = [
    "Exponent",
    "ExactDivisionError",
    "MAX_DEGREE",
    "Polynomial",
    "Substitution",
    "add_mul",
    "divides",
    "exact_divide",
    "hyperplane",
    "reduce_modulo",
    "poly_divided_difference",
    "is_homogeneous",
    "is_linear_form",
    "swap_substitution",
    "to_string",
    "to_strings",
    "parse_polynomial",
    "polynomial_to_json",
    "polynomial_from_json",
]

Exponent = tuple[int, ...]
Coefficient = int | Fraction  # int when integral, see the module docstring

_BITS = 8  # width of one field of a packed monomial
MAX_DEGREE = (1 << _BITS) - 1  # the largest total degree a field holds: 255
_FIELD = MAX_DEGREE  # mask of one field

_ZERO = Fraction(0)
_UNIT = {0: 1}  # the term map of the constant 1; read, never written


class ExactDivisionError(ArithmeticError):
    """The dividend is not an exact multiple of the divisor."""


# -- packed monomials ----------------------------------------------------------


def _degree_error(d: int) -> ValueError:
    return ValueError(f"total degree {d} is above MAX_DEGREE = {MAX_DEGREE}")


def _pack(exp: Exponent) -> int:
    """The key of an exponent vector of total degree at most MAX_DEGREE."""
    return int.from_bytes(bytes((sum(exp), *exp)), "big")


def _unpack(key: int, n: int) -> Exponent:
    return tuple(key.to_bytes(n + 1, "big")[1:])


def _shift(n: int, pos: int) -> int:
    """Bit offset of the field of the variable at 0-based position pos."""
    return _BITS * (n - 1 - pos)


def _variable_key(n: int, pos: int) -> int:
    return 1 << _BITS * n | 1 << _shift(n, pos)


def _position(n: int, key: int) -> int:
    """0-based position of the variable whose key (degree one) is given."""
    return n - 1 - ((key ^ (1 << _BITS * n)).bit_length() - 1) // _BITS


def _coeff(c) -> Coefficient:
    """A scalar in stored form, int when integral: the one rule of every
    reader.  A scalar is an int (not a bool), a Fraction or a rational
    string; a float is refused, not read at its binary value."""
    if c.__class__ is int:
        return c
    if not isinstance(c, Fraction):
        if not isinstance(c, str):
            raise ValueError(f"a coefficient is a rational string or an integer, not {c!r}")
        try:
            c = Fraction(c)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad coefficient {c!r}") from None
    return c.numerator if c.denominator == 1 else c


def _add_mul_terms(out: dict, a: dict, b: dict, n: int) -> dict:
    """Add the product of the term maps a and b in n variables into out.

    The ring's one multiply-accumulate loop (see the module docstring).
    The degree of a * b is checked from the largest keys before any term
    is formed.  A coefficient is dropped as soon as it cancels and an
    integral Fraction is stored as int, so out stays canonical when it
    starts so.  Returns out.
    """
    if a and b:
        s = _BITS * n
        d = (max(a) >> s) + (max(b) >> s)
        if d > MAX_DEGREE:
            raise _degree_error(d)
        if len(a) < len(b):
            a, b = b, a
        get = out.get
        a_items = a.items()
        for eb, cb in b.items():
            for ea, ca in a_items:
                e = ea + eb
                c = get(e)  # a new term skips a Fraction's costly 0 + c
                c = ca * cb if c is None else c + ca * cb
                if not c:
                    del out[e]
                elif c.__class__ is Fraction and c.denominator == 1:
                    out[e] = c.numerator
                else:
                    out[e] = c
    return out


def _add_terms(out: dict, items: Iterable[tuple[int, Coefficient]]) -> dict:
    """Add the terms items, keys with nonzero stored coefficients, into
    out, which stays canonical as in _add_mul_terms; a sum needs no degree
    check.  Returns out."""
    get = out.get
    for e, ca in items:
        c = get(e)
        if c is None:
            out[e] = ca
            continue
        c += ca
        if not c:
            del out[e]
        elif c.__class__ is Fraction and c.denominator == 1:
            out[e] = c.numerator
        else:
            out[e] = c
    return out


def _read_terms(n: int, items: Iterable[tuple[Iterable[int], object]]) -> dict:
    """The canonical term map of (exponent, coefficient) items in n
    variables: the one reader behind the constructor, text and JSON forms.

    Each exponent must be n ints >= 0, not bools.  A term within MAX_DEGREE
    is packed and summed into the map by _add_terms; one above it cannot be
    packed, so it is summed aside and only a nonzero sum is refused.
    """
    if n < 0:
        raise ValueError(f"ring dimension must be non-negative, got {n}")
    over: dict[Exponent, Coefficient] = {}

    def packed():
        for exp, c in items:
            exp = tuple(exp)
            if len(exp) != n or any(type(e) is not int or e < 0 for e in exp):
                raise ValueError(f"bad exponent vector {exp!r} for dimension {n}")
            c = _coeff(c)
            d = sum(exp)
            if d > MAX_DEGREE:
                over[exp] = over.get(exp, 0) + c
            elif c:
                yield _pack(exp), c

    out = _add_terms({}, packed())
    for exp, c in over.items():
        if c:
            raise _degree_error(sum(exp))
    return out


def _div(a: Coefficient, b: Coefficient) -> Coefficient:
    """a / b in stored form, never through float."""
    if a.__class__ is int and b.__class__ is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    q = a / b
    return q.numerator if q.denominator == 1 else q


def _single_variable(terms: dict, n: int) -> int | None:
    """Position of the variable a term map equals, if it is one with coefficient 1."""
    if len(terms) != 1:
        return None
    ((key, c),) = terms.items()
    if c != 1 or key >> _BITS * n != 1:
        return None
    return _position(n, key)


class Polynomial:
    """Immutable sparse polynomial with rational coefficients."""

    __slots__ = ("n", "_terms", "_hash")

    def __init__(self, n: int, terms: Mapping[Exponent, object] | None = None):
        self.n = n
        self._terms = _read_terms(n, terms.items() if terms else ())
        self._hash = None

    @classmethod
    def _make(cls, n: int, terms: dict[int, Coefficient]) -> "Polynomial":
        # internal fast path: terms must already be canonical
        self = object.__new__(cls)
        self.n = n
        self._terms = terms
        self._hash = None
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls._make(n, {})

    @classmethod
    def one(cls, n: int) -> "Polynomial":
        return cls.constant(n, 1)

    @classmethod
    def constant(cls, n: int, c) -> "Polynomial":
        c = _coeff(c)
        return cls._make(n, {0: c} if c else {})

    @classmethod
    def variable(cls, n: int, i: int) -> "Polynomial":
        """The variable with 1-based index i."""
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} outside 1..{n}")
        return cls._make(n, {_variable_key(n, i - 1): 1})

    @classmethod
    def linear_form(cls, n: int, coeffs: Mapping[int, object]) -> "Polynomial":
        """Degree-one form from a map of 1-based variable index to coefficient."""
        terms: dict[int, Coefficient] = {}
        for i, c in coeffs.items():
            if not 1 <= i <= n:
                raise ValueError(f"variable index {i} outside 1..{n}")
            c = _coeff(c)
            if c:
                terms[_variable_key(n, i - 1)] = c
        return cls._make(n, terms)

    # -- inspection --------------------------------------------------------

    def terms(self) -> dict[Exponent, Fraction]:
        n = self.n
        return {_unpack(k, n): Fraction(c) for k, c in self._terms.items()}

    def coefficient(self, exp: Iterable[int]) -> Fraction:
        exp = tuple(exp)
        try:
            key = _pack(exp) if len(exp) == self.n else None
        except (TypeError, ValueError):  # not an exponent vector of this ring
            key = None
        return Fraction(self._terms.get(key, 0))

    def constant_term(self) -> Fraction:
        return Fraction(self._terms.get(0, 0))

    def is_zero(self) -> bool:
        return not self._terms

    def total_degree(self) -> int:
        """Maximum term degree; -1 for the zero polynomial."""
        return max(self._terms) >> _BITS * self.n if self._terms else -1

    def is_homogeneous(self, d: int) -> bool:
        """True when every term has total degree d (vacuously true for 0)."""
        terms = self._terms
        s = _BITS * self.n
        return not terms or min(terms) >> s == d == max(terms) >> s

    # -- arithmetic --------------------------------------------------------

    def _check_dim(self, other: "Polynomial") -> None:
        if self.n != other.n:
            raise ValueError(f"ring dimension mismatch: {self.n} vs {other.n}")

    def _combine(self, other, negate: bool):
        # self + other, or self - other when negate
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.n, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_dim(other)
        b = other._terms
        terms = zip(b, map(neg, b.values())) if negate else b.items()
        return Polynomial._make(self.n, _add_terms(dict(self._terms), terms))

    def __add__(self, other):
        return self._combine(other, False)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._make(self.n, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        return self._combine(other, True)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):  # one scale loop, in stored form
            c = _coeff(other)
            return Polynomial._make(self.n, {
                e: q.numerator if (q := ca * c).__class__ is Fraction and q.denominator == 1 else q
                for e, ca in self._terms.items()
            } if c else {})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_dim(other)
        return Polynomial._make(self.n, _add_mul_terms({}, self._terms, other._terms, self.n))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not defined")
        if self.total_degree() * k > MAX_DEGREE:
            raise _degree_error(self.total_degree() * k)
        out = Polynomial.one(self.n)
        for _ in range(k):
            out = out * self
        return out

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __hash__(self) -> int:
        # hash(k) == hash(Fraction(k)), so this matches the Fraction-only form
        h = self._hash
        if h is None:
            h = hash((self.n, tuple(sorted(self._terms.items()))))
            self._hash = h
        return h

    def __str__(self) -> str:
        return to_string(self)

    def __repr__(self) -> str:
        return f"Polynomial({self.n}, {to_string(self)!r})"

    # -- substitution ------------------------------------------------------

    def substitute(
        self, assignment: "Mapping[int, Polynomial] | Substitution"
    ) -> "Polynomial":
        """Simultaneously replace variables by polynomials.

        Keys are 1-based variable indices; variables absent from the
        assignment stay fixed.  A plain mapping is compiled on the spot;
        pass a :class:`Substitution` to analyse an assignment applied
        many times only once.
        """
        if assignment.__class__ is not Substitution:
            assignment = Substitution(self.n, assignment)
        elif assignment.n != self.n:
            raise ValueError(f"ring dimension mismatch: {self.n} vs {assignment.n}")
        return Polynomial._make(self.n, assignment._apply(self._terms))


def add_mul(p: Polynomial, a: Polynomial, b: Polynomial) -> Polynomial:
    """p + a * b, accumulated into one copy of p's terms in one pass.

    The product is never built: the ring's one multiply-accumulate loop
    adds each term product into the copy, after the degree check a
    product makes.
    """
    p._check_dim(a)
    p._check_dim(b)
    out = _add_mul_terms(dict(p._terms), a._terms, b._terms, p.n)
    return Polynomial._make(p.n, out)


class Substitution:
    """A variable assignment analysed once and applied to many polynomials.

    The analysis picks one of four ways to apply it.  When every image is
    a single variable with coefficient 1 (a Weyl group element of type A,
    a swap, the hyperplane of a type-A root), the fields of each packed
    monomial are relabelled and no product is formed: by one xor for a
    transposition of two variables, otherwise by adding e * (unit of t -
    unit of p) to the key for each exponent e that moves from position p
    to t (when images collide, terms that land on the same monomial are
    summed), or not at all for the identity.  Otherwise the substituted
    fields, and their share of the degree, are stripped from each key, and
    the rest times the powers of the images is added into one result
    dict.  Those powers are kept for later calls, at most one per image
    and exponent.  The caller's mapping is not kept: changing it after
    compiling changes no result.
    """

    __slots__ = ("n", "_swap", "_moves", "_images", "_powers")

    def __init__(self, n: int, assignment: Mapping[int, Polynomial]):
        target = list(range(n))  # where each variable's exponent moves
        images: dict[int, dict] = {}
        relabel = True
        for i, q in assignment.items():
            if not 1 <= i <= n:
                raise ValueError(f"variable index {i} outside 1..{n}")
            if q.n != n:
                raise ValueError(f"ring dimension mismatch: {n} vs {q.n}")
            images[i - 1] = q._terms
            j = _single_variable(q._terms, n)
            if j is None:
                relabel = False
            else:
                target[i - 1] = j
        self.n = n
        self._swap = self._moves = self._images = None
        self._powers: dict[tuple[int, int], dict] = {}
        moved = [(p, t) for p, t in enumerate(target) if p != t]
        if not relabel:
            # (position, field offset, key of the variable, image, its degree)
            self._images = [
                (p, _shift(n, p), _variable_key(n, p), q,
                 max(q) >> _BITS * n if q else MAX_DEGREE + 1)
                for p, q in images.items()
            ]
        elif len(moved) == 2 and moved[0] == moved[1][::-1]:
            # a transposition of the fields at offsets sq + d and sq
            sq = _shift(n, moved[1][0])
            d = _shift(n, moved[0][0]) - sq
            self._swap = (d, _FIELD << sq, 1 << d | 1)
        elif moved:
            self._moves = [
                (_shift(n, p), (1 << _shift(n, t)) - (1 << _shift(n, p)))
                for p, t in moved
            ]

    def _apply(self, terms: dict) -> dict:
        """A canonical term map in n variables with the assignment
        substituted: a new map, or terms itself for the identity."""
        if self._swap is not None:
            # the xor of the two fields, at the lower one, then spread to both
            d, low, spread = self._swap
            return {k ^ ((k >> d ^ k) & low) * spread: c for k, c in terms.items()}
        if self._moves is not None:
            return _relabel(terms, self._moves)
        if self._images is not None:
            return _expand(terms, self.n, self._images, self._powers)
        return terms


def _relabel(terms: dict, moves: list[tuple[int, int]]) -> dict:
    """Move each exponent at field offset s by step, for every (s, step) in moves.

    step is the unit of the target field minus the unit of the source, so
    the moved key is k + e * step, with e read from the unmoved key.
    """
    out: dict = {}
    for k, c in terms.items():
        moved = k
        for s, step in moves:
            moved += ((k >> s) & _FIELD) * step
        if moved in out:  # colliding terms are summed, in stored form
            c += out[moved]
            if not c:
                del out[moved]
                continue
            if c.__class__ is Fraction and c.denominator == 1:
                c = c.numerator
        out[moved] = c
    return out


def _expand(terms: dict, n: int, images: list, powers: dict) -> dict:
    """Substitute the image of each variable in images for it.

    images lists (position, field offset, variable key, image terms, image
    degree); powers maps (position, e) to the e-th power of that image;
    missing powers are computed and added to it.  Each term takes one
    pass: its image, c * plain * f1 * ... * fm over its untouched part
    plain and the powers fi of the variables that move, is added straight
    into the result, in the order in which that chain's last product would
    add it.  No term map is built for the term, and powers are multiplied
    together only when three or more variables of it move.  A term whose
    image passes MAX_DEGREE takes the chain's degree checks, so the error
    names the degree the chain would; a zero image has degree
    MAX_DEGREE + 1 to send its terms there too.
    """

    def power(pos: int, image: dict, e: int) -> dict:
        key = (pos, e)
        if key not in powers:
            powers[key] = (
                image
                if e == 1
                else _add_mul_terms({}, power(pos, image, e - 1), image, n)
            )
        return powers[key]

    top = _BITS * n
    out: dict = {}
    get = out.get
    for k, c in terms.items():
        plain = k  # untouched part of the monomial
        factors = []
        d = 0  # the degree of the term's image
        for pos, s, var, image, deg in images:
            e = (k >> s) & _FIELD
            if e:
                plain -= e * var
                f = powers.get((pos, e))
                factors.append(power(pos, image, e) if f is None else f)
                d += e * deg
        d += plain >> top
        if d > MAX_DEGREE and not _chain_degree(plain >> top, factors, top):
            continue  # a zero image
        head = last = _UNIT
        if factors:
            last = factors.pop()
            if factors:
                head = factors[0]
                for f in factors[1:]:
                    head = _add_mul_terms({}, head, f, n)
        # the chain's last product, head * last, loops over the smaller map
        outer, inner = (head, last) if len(head) < len(last) else (last, head)
        for eo, co in outer.items():
            eo += plain
            co *= c
            for ei, ci in inner.items():
                e = eo + ei
                cur = get(e)  # a new term skips a Fraction's costly 0 + c
                cur = co * ci if cur is None else cur + co * ci
                if not cur:
                    del out[e]
                elif cur.__class__ is Fraction and cur.denominator == 1:
                    out[e] = cur.numerator
                else:
                    out[e] = cur
    return out


def _chain_degree(d: int, factors: list, top: int) -> bool:
    """The degree checks of a product chain from degree d through the
    factors, in order, as the multiply loop makes them: raises at the
    first partial degree above MAX_DEGREE.  False when a factor is zero,
    which ends the chain and its checks; True otherwise."""
    for f in factors:
        if not f:
            return False
        d += max(f) >> top
        if d > MAX_DEGREE:
            raise _degree_error(d)
    return True


# -- module-level operations (the public contract) --------------------------


def is_homogeneous(p: Polynomial, d: int) -> bool:
    return p.is_homogeneous(d)


def is_linear_form(p: Polynomial) -> bool:
    """Nonzero and homogeneous of total degree exactly one."""
    return bool(p) and p.is_homogeneous(1)


def _pivot(f: Polynomial) -> tuple[int, Coefficient]:
    """Key of the smallest-index variable of a linear form, and its coefficient.

    t1's field is the most significant, so that is the largest key.
    """
    if not is_linear_form(f):
        raise ValueError(f"not a nonzero linear form: {f}")
    key = max(f._terms)
    return key, f._terms[key]


def hyperplane(f: Polynomial) -> Substitution:
    """The elimination of f's pivot variable on the hyperplane f = 0.

    Substituting it reduces modulo the ideal generated by the linear form
    f; compile it once for a label that reduces many polynomials.
    """
    key, c = _pivot(f)
    k = _position(f.n, key) + 1
    # on f = 0 the pivot variable equals t_k - f/c
    return Substitution(f.n, {k: Polynomial.variable(f.n, k) - f * Fraction(1, c)})


def _form_vector(f: Polynomial, n: int) -> tuple[Fraction, ...]:
    """The n coefficients of a linear form, as Fractions."""
    vec = [_ZERO] * n
    for exp, c in f.terms().items():
        vec[exp.index(1)] = Fraction(c)
    return tuple(vec)


def _line(f: Polynomial) -> tuple[tuple[Fraction, ...], int] | None:
    """(coefficients over the first nonzero one, that one's sign) of a
    nonzero linear form, so proportional forms share the vector; None for
    any other polynomial."""
    if not is_linear_form(f):
        return None
    vec = _form_vector(f, f.n)
    lead = next(x for x in vec if x)
    return tuple(x / lead for x in vec), 1 if lead > 0 else -1


def reduce_modulo(p: Polynomial, f: Polynomial) -> Polynomial:
    """Residue of p modulo the principal ideal generated by a linear form.

    The pivot variable of f is eliminated by substituting the solved
    hyperplane f = 0; the result is zero exactly when f divides p.
    """
    return p.substitute(hyperplane(f))


def divides(f: Polynomial, p: Polynomial) -> bool:
    """True iff p lies in the ideal generated by the linear form f."""
    if p.is_zero():
        return True
    return reduce_modulo(p, f).is_zero()


def exact_divide(p: Polynomial, f: Polynomial) -> Polynomial:
    """Quotient q with q * f == p; raises ExactDivisionError otherwise.

    Division by the pivot (smallest-index) variable of f: each step cancels
    the grlex-leading term of the remainder, and the terms it adds are
    grlex-smaller (they move one degree from the pivot to a later
    variable), so the leading terms come off a heap in strictly
    decreasing order and each is handled once.  Keys are grlex-ordered
    ints, so the heap holds them negated and a quotient monomial is the
    remainder's leading key minus the pivot's.
    """
    pivot, c = _pivot(f)
    if p.n != f.n:
        raise ValueError(f"ring dimension mismatch: {p.n} vs {f.n}")
    s = _shift(p.n, _position(p.n, pivot))
    rem = dict(p._terms)
    heap = [-k for k in rem]  # a max-heap on the keys
    heapq.heapify(heap)
    f_items = list(f._terms.items())
    quo: dict[int, Coefficient] = {}
    while rem:
        k = -heapq.heappop(heap)
        if k not in rem:
            continue  # cancelled after it was pushed
        if not (k >> s) & _FIELD:
            raise ExactDivisionError(f"{to_string(f)} does not divide {to_string(p)}")
        qc = _div(rem[k], c)
        qk = k - pivot
        quo[qk] = qc
        for fk, fc in f_items:
            e = qk + fk
            c0 = rem.get(e, 0) - qc * fc
            if not c0:
                del rem[e]
                continue
            if c0.__class__ is Fraction and c0.denominator == 1:
                c0 = c0.numerator
            if e not in rem:
                heapq.heappush(heap, -e)
            rem[e] = c0
    return Polynomial._make(p.n, quo)


def swap_substitution(n: int, i: int, j: int) -> dict[int, Polynomial]:
    """Assignment exchanging two variables."""
    return {i: Polynomial.variable(n, j), j: Polynomial.variable(n, i)}


def poly_divided_difference(p: Polynomial, i: int) -> Polynomial:
    """Ordinary divided difference (p - swap_i(p)) / (t_i - t_{i+1}).

    Always exact: the numerator is antisymmetric in t_i, t_{i+1}.
    """
    if not 1 <= i <= p.n - 1:
        raise ValueError(f"simple index {i} outside 1..{p.n - 1}")
    num = p - p.substitute(swap_substitution(p.n, i, i + 1))
    if num.is_zero():
        return Polynomial.zero(p.n)
    den = Polynomial.variable(p.n, i) - Polynomial.variable(p.n, i + 1)
    return exact_divide(num, den)


# -- text and JSON forms -----------------------------------------------------


def to_string(p: Polynomial, prefix: str = "t") -> str:
    """Human-readable form like ``t1 - t2`` or ``3/2*a1^2*a2``."""
    return to_strings([p], prefix)[0]


def to_strings(polys: Iterable[Polynomial], prefix: str = "t") -> list[str]:
    """The :func:`to_string` forms of polynomials of one ring, in order.

    Each distinct polynomial object and each distinct monomial is put into
    text once per call, however often it recurs: the localizations of one
    class repeat the same few hundred monomials across all their vertices,
    and a Billey class shares one value across each coset of its vertices.
    """
    out: list[str] = []
    n = names = None
    monos: dict[int, str] = {}  # key -> "*t1^2*t3", "" for the constant
    # id(p) -> (p, text): holding p keeps its id from a later temporary
    done: dict[int, tuple[Polynomial, str]] = {}
    for p in polys:
        got = done.get(id(p))
        if got is not None:
            out.append(got[1])
            continue
        if p.n != n:
            if names is not None:
                raise ValueError(f"ring dimension mismatch: {n} vs {p.n}")
            n = p.n
            names = [f"{prefix}{i}" for i in range(1, n + 1)]
        terms = p._terms
        if not terms:
            text = "0"
        else:
            parts: list[str] = []
            for key in sorted(terms, reverse=True):
                mono = monos.get(key)
                if mono is None:
                    mono = monos[key] = "".join(
                        f"*{name}" if e == 1 else f"*{name}^{e}"
                        for name, e in zip(names, key.to_bytes(n + 1, "big")[1:])
                        if e
                    )
                c = terms[key]
                sign = "+ " if c > 0 else "- "
                if c == 1 or c == -1:
                    parts.append(sign + mono[1:] if mono else sign + "1")
                else:
                    parts.append(f"{sign}{abs(c)}{mono}")
            text = " ".join(parts)
            # the leading term has no "+ " and a bare "-"
            text = text[2:] if text[0] == "+" else "-" + text[2:]
        done[id(p)] = (p, text)
        out.append(text)
    return out


# a variable: letters, then its 1-based index; "t1" and "a1" both mean t1
_VARIABLE = re.compile(r"[A-Za-z]+(?P<index>\d+)")
_TOKEN = re.compile(
    rf"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<var>{_VARIABLE.pattern})|(?P<op>[-+*^])|(?P<bad>\S))"
)


def parse_polynomial(text: str, n: int) -> Polynomial:
    """Parse the text form produced by :func:`to_string`.

    Accepts any alphabetic variable prefix (``t1`` and ``a1`` both mean the
    first variable), optional ``*`` between factors, and ``^`` powers.
    The whole text is split into tokens before any is read, so a stray
    character is reported before a misplaced operator.
    """
    tokens: list[tuple[str, str, str | None]] = []  # (kind, text, variable index)
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ValueError(f"cannot parse polynomial near {text[m.start():]!r}")
        tokens.append((kind, m[kind], m["index"]))

    items: list[tuple[list[int], Coefficient]] = []  # (exponent, coefficient) per term
    sign, coeff, exp = 1, None, [0] * n
    seen_factor = False
    pending = False  # an operator awaits its term
    star = False  # a '*' awaits its factor
    i = 0
    while i < len(tokens):
        kind, val, index = tokens[i]
        if star and kind not in ("num", "var"):
            raise ValueError(f"'*' must be followed by a factor in {text!r}")
        if kind == "op" and val in "+-":
            if seen_factor:
                items.append((exp, sign if coeff is None else sign * coeff))
                sign, coeff, exp, seen_factor = 1, None, [0] * n, False
            if val == "-":
                sign = -sign
            pending = True
        elif kind == "op" and val == "*":
            if not seen_factor:
                raise ValueError(f"misplaced '*' in {text!r}")
            star = True
        elif kind == "num":
            try:
                c = Fraction(val)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {val!r}") from None
            coeff = c if coeff is None else coeff * c
            seen_factor, pending, star = True, False, False
        elif kind == "var":
            idx = int(index)
            if not 1 <= idx <= n:
                raise ValueError(f"variable {val!r} outside ring of dimension {n}")
            power = 1
            if i + 2 < len(tokens) and tokens[i + 1][1] == "^":
                if tokens[i + 2][0] != "num" or "/" in tokens[i + 2][1]:
                    raise ValueError(f"bad exponent after {val!r}")
                power = int(tokens[i + 2][1])
                i += 2
            exp[idx - 1] += power
            seen_factor, pending, star = True, False, False
        else:
            raise ValueError(f"unexpected token {val!r}")
        i += 1
    if star:
        raise ValueError(f"'*' must be followed by a factor in {text!r}")
    if pending or not seen_factor:
        raise ValueError(f"incomplete polynomial text {text!r}")
    items.append((exp, sign if coeff is None else sign * coeff))
    return Polynomial._make(n, _read_terms(n, items))


def polynomial_to_json(p: Polynomial) -> dict:
    width = p.n + 1
    return {
        "n": p.n,
        "terms": [
            {"exp": list(k.to_bytes(width, "big")[1:]), "coeff": str(p._terms[k])}
            for k in sorted(p._terms, reverse=True)
        ],
    }


def polynomial_from_json(obj, n: int | None = None) -> Polynomial:
    """Parse either the JSON object form or the plain string form."""
    if isinstance(obj, str):
        if n is None:
            raise ValueError("string polynomial form needs an explicit dimension")
        return parse_polynomial(obj, n)
    if not isinstance(obj, dict):
        raise ValueError(f"a polynomial is a string or an object, not {obj!r}")
    dim = obj.get("n") if n is None else n
    if type(dim) is not int:
        raise ValueError(f"polynomial dimension must be an integer, not {dim!r}")
    if "n" in obj and n is not None and obj["n"] != n:
        raise ValueError(f"polynomial dimension {obj['n']} != expected {n}")
    terms = obj.get("terms")
    if not isinstance(terms, list):
        raise ValueError(f"polynomial terms must be a list, not {terms!r}")
    items = []
    for t in terms:
        if not isinstance(t, dict) or not isinstance(t.get("exp"), list):
            raise ValueError(f"a polynomial term needs an exp list, not {t!r}")
        items.append((t["exp"], _coeff(t.get("coeff"))))
    return Polynomial._make(dim, _read_terms(dim, items))
