"""Exact sparse multivariate polynomials over the rationals.

A polynomial in n variables is stored as a map from exponent vectors
(length-n tuples of non-negative ints) to nonzero rational coefficients.
An integral coefficient is stored as an ``int`` and any other as a
``Fraction``, so the integer classes that dominate the package never pay
for ``Fraction`` arithmetic; only a division (``exact_divide``, a scalar
like 1/|W|) leaves a ``Fraction``.  Every constructor and every operation
restores that form, and the public accessors (``terms``, ``coefficient``,
``constant_term``) still return ``Fraction``.  Variables are 1-indexed and
print as ``t1``, ``t2``, ... by default; the general-type modules render
the same ring with an ``a`` prefix for simple-root coordinates.  The
representation is canonical: two polynomials are equal exactly when their
term maps are equal, and serialization orders terms in descending
graded-lexicographic order.

Everything here is pure and immutable, so values can be shared freely.

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
"""

from __future__ import annotations

import heapq
import re
from fractions import Fraction
from operator import add, itemgetter, sub
from types import MappingProxyType
from typing import Iterable, Mapping

__all__ = [
    "Exponent",
    "ExactDivisionError",
    "Polynomial",
    "Substitution",
    "divides",
    "exact_divide",
    "hyperplane",
    "reduce_modulo",
    "poly_divided_difference",
    "is_homogeneous",
    "is_linear_form",
    "swap_substitution",
    "to_string",
    "parse_polynomial",
    "polynomial_to_json",
    "polynomial_from_json",
]

Exponent = tuple[int, ...]
Coefficient = int | Fraction  # int when integral, see the module docstring

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ExactDivisionError(ArithmeticError):
    """The dividend is not an exact multiple of the divisor."""


def _grlex(exp: Exponent):
    # graded lex: compare total degree first, then the exponent vector
    return (sum(exp), exp)


def _coeff(c) -> Coefficient:
    """Any rational scalar in stored form: int when integral."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _canon(terms: dict) -> dict:
    """Drop zero coefficients and store integral ones as int, in place."""
    fix = [
        e
        for e, c in terms.items()
        if not c or (c.__class__ is Fraction and c.denominator == 1)
    ]
    for e in fix:
        c = terms[e]
        if c:
            terms[e] = c.numerator
        else:
            del terms[e]
    return terms


def _mul_terms(a: dict, b: dict) -> dict:
    """Product of two term maps, canonical."""
    if len(a) < len(b):
        a, b = b, a
    out: dict = {}
    get = out.get
    b_items = list(b.items())
    for ea, ca in a.items():
        for eb, cb in b_items:
            e = tuple(map(add, ea, eb))
            out[e] = get(e, 0) + ca * cb
    return _canon(out)


def _div(a: Coefficient, b: Coefficient) -> Coefficient:
    """a / b in stored form, never through float."""
    if a.__class__ is int and b.__class__ is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    q = a / b
    return q.numerator if q.denominator == 1 else q


def _single_variable(terms: dict) -> int | None:
    """Position of the variable a term map equals, if it is one with coefficient 1."""
    if len(terms) != 1:
        return None
    ((exp, c),) = terms.items()
    if c != 1 or sum(exp) != 1:
        return None
    return exp.index(1)


class Polynomial:
    """Immutable sparse polynomial with rational coefficients."""

    __slots__ = ("n", "_terms", "_hash")

    def __init__(self, n: int, terms: Mapping[Exponent, object] | None = None):
        if n < 0:
            raise ValueError(f"ring dimension must be non-negative, got {n}")
        clean: dict[Exponent, Coefficient] = {}
        if terms:
            for exp, coeff in terms.items():
                exp = tuple(exp)
                if len(exp) != n or any(not isinstance(e, int) or e < 0 for e in exp):
                    raise ValueError(f"bad exponent vector {exp!r} for dimension {n}")
                clean[exp] = clean.get(exp, 0) + _coeff(coeff)
        self.n = n
        self._terms = _canon(clean)
        self._hash = None

    @classmethod
    def _make(cls, n: int, terms: dict[Exponent, Coefficient]) -> "Polynomial":
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
        return cls._make(n, {(0,) * n: c} if c else {})

    @classmethod
    def variable(cls, n: int, i: int) -> "Polynomial":
        """The variable with 1-based index i."""
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} outside 1..{n}")
        exp = [0] * n
        exp[i - 1] = 1
        return cls._make(n, {tuple(exp): 1})

    @classmethod
    def linear_form(cls, n: int, coeffs: Mapping[int, object]) -> "Polynomial":
        """Degree-one form from a map of 1-based variable index to coefficient."""
        terms: dict[Exponent, Coefficient] = {}
        for i, c in coeffs.items():
            if not 1 <= i <= n:
                raise ValueError(f"variable index {i} outside 1..{n}")
            c = _coeff(c)
            if c:
                exp = [0] * n
                exp[i - 1] = 1
                terms[tuple(exp)] = c
        return cls._make(n, terms)

    # -- inspection --------------------------------------------------------

    def terms(self) -> dict[Exponent, Fraction]:
        return {e: Fraction(c) for e, c in self._terms.items()}

    def coefficient(self, exp: Iterable[int]) -> Fraction:
        return Fraction(self._terms.get(tuple(exp), 0))

    def constant_term(self) -> Fraction:
        return Fraction(self._terms.get((0,) * self.n, 0))

    def is_zero(self) -> bool:
        return not self._terms

    def total_degree(self) -> int:
        """Maximum term degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self._terms), default=-1)

    def is_homogeneous(self, d: int) -> bool:
        """True when every term has total degree d (vacuously true for 0)."""
        return all(sum(e) == d for e in self._terms)

    # -- arithmetic --------------------------------------------------------

    def _check_dim(self, other: "Polynomial") -> None:
        if self.n != other.n:
            raise ValueError(f"ring dimension mismatch: {self.n} vs {other.n}")

    def _combine(self, other: "Polynomial", op) -> "Polynomial":
        # self + other or self - other, in one dict
        self._check_dim(other)
        out = dict(self._terms)
        get = out.get
        for exp, c in other._terms.items():
            c0 = op(get(exp, 0), c)
            if not c0:
                del out[exp]
            elif c0.__class__ is Fraction and c0.denominator == 1:
                out[exp] = c0.numerator
            else:
                out[exp] = c0
        return Polynomial._make(self.n, out)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.n, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._combine(other, add)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._make(self.n, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.n, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._combine(other, sub)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coeff(other)
            if not c:
                return Polynomial.zero(self.n)
            return Polynomial._make(
                self.n, _canon({e: k * c for e, k in self._terms.items()})
            )
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_dim(other)
        return Polynomial._make(self.n, _mul_terms(self._terms, other._terms))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not defined")
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
        return Polynomial._make(self.n, assignment._apply(self))


class Substitution:
    """A variable assignment analysed once and applied to many polynomials.

    The analysis picks one of four ways to apply it.  When every image is a
    single variable with coefficient 1 (a Weyl group element of type A, a
    swap, the hyperplane of a type-A root), the exponent vectors are
    relabelled and no product is formed: by one ``itemgetter`` for a
    permutation of the variables, by moving the exponents that change
    when images collide (terms that land on the same exponent are summed),
    or not at all for the identity.  Otherwise each term is expanded into
    one result dict.  The powers of the images that expansion needs are
    kept for later calls, at most one per image and exponent.

    ``assignment`` is the read-only map the object was compiled from.
    """

    __slots__ = ("n", "assignment", "_pick", "_moves", "_images", "_powers")

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
            j = _single_variable(q._terms)
            if j is None:
                relabel = False
            else:
                target[i - 1] = j
        self.n = n
        self.assignment = MappingProxyType(dict(assignment))
        self._pick = self._moves = self._images = None
        self._powers: dict[tuple[int, int], dict] = {}
        if not relabel:
            self._images = images
        elif sorted(target) != list(range(n)):
            self._moves = [(p, t) for p, t in enumerate(target) if p != t]
        elif target != list(range(n)):
            # a permutation of the variables: exponents never collide
            source = [0] * n
            for pos, t in enumerate(target):
                source[t] = pos
            self._pick = itemgetter(*source)

    def _apply(self, p: Polynomial) -> dict:
        """The term map of p with the assignment substituted, canonical."""
        if p.n != self.n:
            raise ValueError(f"ring dimension mismatch: {p.n} vs {self.n}")
        if self._pick is not None:
            pick = self._pick
            return {pick(e): c for e, c in p._terms.items()}
        if self._moves is not None:
            return _relabel(p._terms, self._moves)
        if self._images is not None:
            return _expand(p._terms, self._images, self._powers)
        return p._terms


def _relabel(terms: dict, moves: list[tuple[int, int]]) -> dict:
    """Move the exponent at each position p to t, for every (p, t) in moves."""
    out: dict = {}
    for exp, c in terms.items():
        moved = list(exp)
        for pos, t in moves:
            e = exp[pos]
            if e:
                moved[pos] -= e
                moved[t] += e
        moved = tuple(moved)
        out[moved] = out.get(moved, 0) + c
    return _canon(out)


def _expand(terms: dict, images: dict[int, dict], powers: dict) -> dict:
    """Substitute images[pos] for the variable at each position pos.

    powers maps (pos, e) to the e-th power of images[pos]; missing powers
    are computed and added to it.
    """

    def power(pos: int, e: int) -> dict:
        key = (pos, e)
        if key not in powers:
            powers[key] = (
                images[pos] if e == 1 else _mul_terms(power(pos, e - 1), images[pos])
            )
        return powers[key]

    out: dict = {}
    get = out.get
    for exp, c in terms.items():
        plain = list(exp)  # untouched part of the monomial
        factors = []
        for pos in images:
            e = exp[pos]
            if e:
                plain[pos] = 0
                factors.append(power(pos, e))
        term = {tuple(plain): c}
        for f in factors:
            term = _mul_terms(term, f)
        for e, k in term.items():
            out[e] = get(e, 0) + k
    return _canon(out)


# -- module-level operations (the public contract) --------------------------


def is_homogeneous(p: Polynomial, d: int) -> bool:
    return p.is_homogeneous(d)


def is_linear_form(p: Polynomial) -> bool:
    """Nonzero and homogeneous of total degree exactly one."""
    return bool(p) and p.is_homogeneous(1)


def _pivot(f: Polynomial) -> tuple[int, Coefficient]:
    """Smallest-index variable of a linear form together with its coefficient."""
    if not is_linear_form(f):
        raise ValueError(f"not a nonzero linear form: {f}")
    best = None
    for exp, c in f._terms.items():
        i = exp.index(1) + 1
        if best is None or i < best[0]:
            best = (i, c)
    return best


def hyperplane(f: Polynomial) -> Substitution:
    """The elimination of f's pivot variable on the hyperplane f = 0.

    Substituting it reduces modulo the ideal generated by the linear form
    f; compile it once for a label that reduces many polynomials.
    """
    k, c = _pivot(f)
    # on f = 0 the pivot variable equals t_k - f/c
    return Substitution(f.n, {k: Polynomial.variable(f.n, k) - f * Fraction(1, c)})


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
    decreasing order and each is handled once.
    """
    k, c = _pivot(f)
    if p.n != f.n:
        raise ValueError(f"ring dimension mismatch: {p.n} vs {f.n}")
    pos = k - 1
    rem = dict(p._terms)
    # max-heap on grlex: degree, then the exponent vector, both negated
    heap = [(-sum(e), tuple(-x for x in e), e) for e in rem]
    heapq.heapify(heap)
    f_items = list(f._terms.items())
    quo: dict[Exponent, Coefficient] = {}
    while rem:
        exp = heapq.heappop(heap)[2]
        if exp not in rem:
            continue  # cancelled after it was pushed
        if exp[pos] == 0:
            raise ExactDivisionError(f"{to_string(f)} does not divide {to_string(p)}")
        qc = _div(rem[exp], c)
        qe = list(exp)
        qe[pos] -= 1
        qe = tuple(qe)
        quo[qe] = qc
        for fe, fc in f_items:
            e = tuple(map(add, qe, fe))
            c0 = rem.get(e, 0) - qc * fc
            if not c0:
                del rem[e]
                continue
            if c0.__class__ is Fraction and c0.denominator == 1:
                c0 = c0.numerator
            if e not in rem:
                heapq.heappush(heap, (-sum(e), tuple(-x for x in e), e))
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
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for exp in sorted(p._terms, key=_grlex, reverse=True):
        c = p._terms[exp]
        mono = "*".join(
            f"{prefix}{i + 1}" + (f"^{e}" if e > 1 else "")
            for i, e in enumerate(exp)
            if e
        )
        mag = abs(c)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<var>[A-Za-z]+\d+)|(?P<op>[-+*^]))"
)


def parse_polynomial(text: str, n: int) -> Polynomial:
    """Parse the text form produced by :func:`to_string`.

    Accepts any alphabetic variable prefix (``t1`` and ``a1`` both mean the
    first variable), optional ``*`` between factors, and ``^`` powers.
    """
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"cannot parse polynomial near {text[pos:]!r}")
            break
        pos = m.end()
        for kind in ("num", "var", "op"):
            if m.group(kind):
                tokens.append((kind, m.group(kind)))
                break

    terms: dict[Exponent, Fraction] = {}
    sign = _ONE
    coeff: Fraction | None = None
    exp = [0] * n
    seen_factor = False
    pending = False  # an operator awaits its term
    star = False  # a '*' awaits its factor

    def flush():
        nonlocal coeff, exp, seen_factor, sign
        c = sign * (coeff if coeff is not None else _ONE)
        e = tuple(exp)
        if c:
            c0 = terms.get(e, _ZERO) + c
            if c0:
                terms[e] = c0
            else:
                terms.pop(e, None)
        coeff, exp, seen_factor, sign = None, [0] * n, False, _ONE

    i = 0
    while i < len(tokens):
        kind, val = tokens[i]
        if star and kind not in ("num", "var"):
            raise ValueError(f"'*' must be followed by a factor in {text!r}")
        if kind == "op" and val in "+-":
            if seen_factor:
                flush()
            sign = sign * (-1 if val == "-" else 1)
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
            idx = int(re.search(r"\d+$", val).group())
            if not 1 <= idx <= n:
                raise ValueError(f"variable {val!r} outside ring of dimension {n}")
            power = 1
            if i + 2 < len(tokens) and tokens[i + 1] == ("op", "^"):
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
    flush()
    return Polynomial(n, terms)


def polynomial_to_json(p: Polynomial) -> dict:
    return {
        "n": p.n,
        "terms": [
            {"exp": list(e), "coeff": str(p._terms[e])}
            for e in sorted(p._terms, key=_grlex, reverse=True)
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
    out = {}
    for t in terms:
        if not isinstance(t, dict) or not isinstance(t.get("exp"), list):
            raise ValueError(f"a polynomial term needs an exp list, not {t!r}")
        out[tuple(t["exp"])] = _coefficient_from_json(t.get("coeff"))
    return Polynomial(dim, out)


def _coefficient_from_json(c) -> Fraction:
    if type(c) is not int and not isinstance(c, str):
        raise ValueError(f"a coefficient is a rational string or an integer, not {c!r}")
    try:
        return Fraction(c)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad coefficient {c!r}") from None
