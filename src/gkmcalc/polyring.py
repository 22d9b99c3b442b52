"""Exact sparse multivariate polynomials over the rationals.

A polynomial in n variables is stored as a map from exponent vectors
(length-n tuples of non-negative ints) to nonzero ``Fraction`` coefficients.
Variables are 1-indexed and print as ``t1``, ``t2``, ... by default; the
general-type modules render the same ring with an ``a`` prefix for
simple-root coordinates.  The representation is canonical: two polynomials
are equal exactly when their term maps are equal, and serialization orders
terms in descending graded-lexicographic order.

Everything here is pure and immutable, so values can be shared freely.

>>> t1, t2 = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
>>> str(t1 - t2)
't1 - t2'
>>> exact_divide((t1 - t2) * (t1 + t2), t1 - t2) == t1 + t2
True
>>> poly_divided_difference(t1 * t2, 1).is_zero()
True
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Iterable, Mapping

__all__ = [
    "Exponent",
    "ExactDivisionError",
    "Polynomial",
    "add",
    "mul",
    "substitute",
    "divides",
    "exact_divide",
    "reduce_modulo",
    "poly_divided_difference",
    "is_homogeneous",
    "is_linear_form",
    "swap_substitution",
    "homogeneous_exponents",
    "to_string",
    "parse_polynomial",
    "polynomial_to_json",
    "polynomial_from_json",
]

Exponent = tuple[int, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ExactDivisionError(ArithmeticError):
    """The dividend is not an exact multiple of the divisor."""


def _grlex(exp: Exponent):
    # graded lex: compare total degree first, then the exponent vector
    return (sum(exp), exp)


class Polynomial:
    """Immutable sparse polynomial with rational coefficients."""

    __slots__ = ("n", "_terms", "_hash")

    def __init__(self, n: int, terms: Mapping[Exponent, object] | None = None):
        if n < 0:
            raise ValueError(f"ring dimension must be non-negative, got {n}")
        clean: dict[Exponent, Fraction] = {}
        if terms:
            for exp, coeff in terms.items():
                exp = tuple(exp)
                if len(exp) != n or any(e < 0 or not isinstance(e, int) for e in exp):
                    raise ValueError(f"bad exponent vector {exp!r} for dimension {n}")
                c = Fraction(coeff)
                if c:
                    c0 = clean.get(exp, _ZERO) + c
                    if c0:
                        clean[exp] = c0
                    else:
                        clean.pop(exp, None)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _make(cls, n: int, terms: dict[Exponent, Fraction]) -> "Polynomial":
        # internal fast path: terms must already be canonical
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_hash", None)
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
        c = Fraction(c)
        return cls._make(n, {(0,) * n: c} if c else {})

    @classmethod
    def variable(cls, n: int, i: int) -> "Polynomial":
        """The variable with 1-based index i."""
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} outside 1..{n}")
        exp = [0] * n
        exp[i - 1] = 1
        return cls._make(n, {tuple(exp): _ONE})

    @classmethod
    def linear_form(cls, n: int, coeffs: Mapping[int, object]) -> "Polynomial":
        """Degree-one form from a map of 1-based variable index to coefficient."""
        terms: dict[Exponent, Fraction] = {}
        for i, c in coeffs.items():
            if not 1 <= i <= n:
                raise ValueError(f"variable index {i} outside 1..{n}")
            c = Fraction(c)
            if c:
                exp = [0] * n
                exp[i - 1] = 1
                terms[tuple(exp)] = c
        return cls._make(n, terms)

    # -- inspection --------------------------------------------------------

    def terms(self) -> dict[Exponent, Fraction]:
        return dict(self._terms)

    def coefficient(self, exp: Iterable[int]) -> Fraction:
        return self._terms.get(tuple(exp), _ZERO)

    def constant_term(self) -> Fraction:
        return self._terms.get((0,) * self.n, _ZERO)

    def is_zero(self) -> bool:
        return not self._terms

    def total_degree(self) -> int:
        """Maximum term degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self._terms), default=-1)

    def is_homogeneous(self, d: int) -> bool:
        """True when every term has total degree d (vacuously true for 0)."""
        return all(sum(e) == d for e in self._terms)

    def leading_exponent(self) -> Exponent:
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self._terms, key=_grlex)

    # -- arithmetic --------------------------------------------------------

    def _check_dim(self, other: "Polynomial") -> None:
        if self.n != other.n:
            raise ValueError(f"ring dimension mismatch: {self.n} vs {other.n}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.n, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_dim(other)
        out = dict(self._terms)
        for exp, c in other._terms.items():
            c0 = out.get(exp, _ZERO) + c
            if c0:
                out[exp] = c0
            else:
                out.pop(exp, None)
        return Polynomial._make(self.n, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._make(self.n, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.n, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return Polynomial.zero(self.n)
            return Polynomial._make(self.n, {e: k * c for e, k in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_dim(other)
        out: dict[Exponent, Fraction] = {}
        for ea, ca in self._terms.items():
            for eb, cb in other._terms.items():
                exp = tuple(x + y for x, y in zip(ea, eb))
                c0 = out.get(exp, _ZERO) + ca * cb
                if c0:
                    out[exp] = c0
                else:
                    out.pop(exp, None)
        return Polynomial._make(self.n, out)

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
        h = self._hash
        if h is None:
            h = hash((self.n, tuple(sorted(self._terms.items()))))
            object.__setattr__(self, "_hash", h)
        return h

    def __str__(self) -> str:
        return to_string(self)

    def __repr__(self) -> str:
        return f"Polynomial({self.n}, {to_string(self)!r})"

    # -- substitution ------------------------------------------------------

    def substitute(self, assignment: Mapping[int, "Polynomial"]) -> "Polynomial":
        """Simultaneously replace variables by polynomials.

        Keys are 1-based variable indices; variables absent from the
        assignment stay fixed.
        """
        for i, q in assignment.items():
            if not 1 <= i <= self.n:
                raise ValueError(f"variable index {i} outside 1..{self.n}")
            if q.n != self.n:
                raise ValueError(f"ring dimension mismatch: {self.n} vs {q.n}")
        images = {i - 1: q for i, q in assignment.items()}
        out = Polynomial.zero(self.n)
        for exp, c in self._terms.items():
            term = Polynomial.constant(self.n, c)
            plain = [0] * self.n  # untouched part of the monomial
            for pos, e in enumerate(exp):
                if not e:
                    continue
                if pos in images:
                    term = term * images[pos] ** e
                else:
                    plain[pos] = e
            if any(plain):
                term = term * Polynomial._make(self.n, {tuple(plain): _ONE})
            out = out + term
        return out


# -- module-level operations (the public contract) --------------------------


def add(p: Polynomial, q: Polynomial) -> Polynomial:
    """Termwise sum; dimensions must agree."""
    return p + q


def mul(p: Polynomial, q: Polynomial) -> Polynomial:
    """Distributive product; dimensions must agree."""
    return p * q


def substitute(p: Polynomial, assignment: Mapping[int, Polynomial]) -> Polynomial:
    return p.substitute(assignment)


def is_homogeneous(p: Polynomial, d: int) -> bool:
    return p.is_homogeneous(d)


def is_linear_form(p: Polynomial) -> bool:
    """Nonzero and homogeneous of total degree exactly one."""
    return bool(p) and p.is_homogeneous(1)


def _pivot(f: Polynomial) -> tuple[int, Fraction]:
    """Smallest-index variable of a linear form together with its coefficient."""
    if not is_linear_form(f):
        raise ValueError(f"not a nonzero linear form: {f}")
    best = None
    for exp, c in f._terms.items():
        i = exp.index(1) + 1
        if best is None or i < best[0]:
            best = (i, c)
    return best


def reduce_modulo(p: Polynomial, f: Polynomial) -> Polynomial:
    """Residue of p modulo the principal ideal generated by a linear form.

    The pivot variable of f is eliminated by substituting the solved
    hyperplane f = 0; the result is zero exactly when f divides p.
    """
    k, c = _pivot(f)
    # on f = 0 the pivot variable equals t_k - f/c
    h = Polynomial.variable(p.n, k) - f * (_ONE / c)
    return p.substitute({k: h})


def divides(f: Polynomial, p: Polynomial) -> bool:
    """True iff p lies in the ideal generated by the linear form f."""
    if p.is_zero():
        return True
    return reduce_modulo(p, f).is_zero()


def exact_divide(p: Polynomial, f: Polynomial) -> Polynomial:
    """Quotient q with q * f == p; raises ExactDivisionError otherwise."""
    k, c = _pivot(f)
    if p.n != f.n:
        raise ValueError(f"ring dimension mismatch: {p.n} vs {f.n}")
    pos = k - 1
    rem = dict(p._terms)
    quo: dict[Exponent, Fraction] = {}
    while rem:
        exp = max(rem, key=_grlex)
        if exp[pos] == 0:
            raise ExactDivisionError(f"{to_string(f)} does not divide {to_string(p)}")
        qc = rem[exp] / c
        qe = list(exp)
        qe[pos] -= 1
        qe = tuple(qe)
        quo[qe] = quo.get(qe, _ZERO) + qc
        for fe, fc in f._terms.items():
            e = tuple(x + y for x, y in zip(qe, fe))
            c0 = rem.get(e, _ZERO) - qc * fc
            if c0:
                rem[e] = c0
            else:
                rem.pop(e, None)
    return Polynomial._make(p.n, {e: c0 for e, c0 in quo.items() if c0})


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


def homogeneous_exponents(n: int, d: int) -> list[Exponent]:
    """All exponent vectors of total degree d in n variables, grlex-descending."""
    if n == 0:
        return [()] if d == 0 else []
    exps = set()
    for combo in combinations_with_replacement(range(n), d):
        e = [0] * n
        for pos in combo:
            e[pos] += 1
        exps.add(tuple(e))
    return sorted(exps, key=_grlex, reverse=True)


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
        if kind == "op" and val in "+-":
            if seen_factor:
                flush()
            sign = sign * (-1 if val == "-" else 1)
            pending = True
        elif kind == "op" and val == "*":
            if not seen_factor:
                raise ValueError(f"misplaced '*' in {text!r}")
        elif kind == "num":
            try:
                c = Fraction(val)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {val!r}") from None
            coeff = c if coeff is None else coeff * c
            seen_factor, pending = True, False
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
            seen_factor, pending = True, False
        else:
            raise ValueError(f"unexpected token {val!r}")
        i += 1
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
    dim = obj["n"] if n is None else n
    if "n" in obj and n is not None and obj["n"] != n:
        raise ValueError(f"polynomial dimension {obj['n']} != expected {n}")
    return Polynomial(
        dim, {tuple(t["exp"]): Fraction(t["coeff"]) for t in obj["terms"]}
    )
