"""The three term readers against the readers they replaced.

``Polynomial(n, terms)``, ``parse_polynomial`` and ``polynomial_from_json``
share one path that checks, sums, bounds and packs terms.  The readers
below are the earlier ones, kept as they were: each decided for itself what
a valid term is.  On texts drawn over the token alphabet the two parsers
must give equal polynomials, stored with every integral coefficient an
``int``, or the same error.  On term lists with well-formed exponents the
JSON readers and the constructors must do the same, except for one
intended change: a term above ``MAX_DEGREE`` whose coefficients sum to 0
is dropped, where the earlier JSON reader and constructor refused it (the
earlier parser already dropped it).  So the new reader on a term list is
compared with the earlier one on the list without such terms, and the
change itself is pinned in each form by the last tests.  The constructor
also takes a coefficient by the JSON reader's rule now: a float, a bool or
a string that is not rational is refused with the JSON reader's text.
"""

import random
import re
from fractions import Fraction

import pytest

from gkmcalc.polyring import (
    MAX_DEGREE,
    Polynomial,
    _add_mul_terms,
    _coeff,
    _degree_error,
    _pack,
    _UNIT,
    parse_polynomial,
    polynomial_from_json,
    to_string,
)

# -- the earlier readers ---------------------------------------------------------


def ref_polynomial(n, terms=None):
    if n < 0:
        raise ValueError(f"ring dimension must be non-negative, got {n}")
    clean = {}
    if terms:
        for exp, coeff in terms.items():
            exp = tuple(exp)
            if len(exp) != n or any(type(e) is not int or e < 0 for e in exp):
                raise ValueError(f"bad exponent vector {exp!r} for dimension {n}")
            if sum(exp) > MAX_DEGREE:
                raise _degree_error(sum(exp))
            c = _coeff(coeff)
            if c:
                _add_mul_terms(clean, {_pack(exp): c}, _UNIT, n)
    return Polynomial._make(n, clean)


_REF_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<var>[A-Za-z]+\d+)|(?P<op>[-+*^]))"
)
_ZERO = Fraction(0)
_ONE = Fraction(1)


def ref_parse_polynomial(text, n):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REF_TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"cannot parse polynomial near {text[pos:]!r}")
            break
        pos = m.end()
        for kind in ("num", "var", "op"):
            if m.group(kind):
                tokens.append((kind, m.group(kind)))
                break

    terms = {}
    sign = _ONE
    coeff = None
    exp = [0] * n
    seen_factor = False
    pending = False  # an operator awaits its term
    star = False  # a '*' awaits its factor

    def flush():
        nonlocal coeff, exp, seen_factor, sign
        e = tuple(exp)
        terms[e] = terms.get(e, _ZERO) + sign * (coeff if coeff is not None else _ONE)
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
    return ref_polynomial(n, {e: c for e, c in terms.items() if c})


def ref_polynomial_from_json(obj, n=None):
    if isinstance(obj, str):
        if n is None:
            raise ValueError("string polynomial form needs an explicit dimension")
        return ref_parse_polynomial(obj, n)
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
        exp = tuple(t["exp"])
        if any(type(e) is not int for e in exp):  # bools and lists included
            raise ValueError(f"bad exponent vector {exp!r} for dimension {dim}")
        out[exp] = out.get(exp, 0) + _ref_coefficient_from_json(t.get("coeff"))
    return ref_polynomial(dim, out)


def _ref_coefficient_from_json(c):
    if type(c) is not int and not isinstance(c, str):
        raise ValueError(f"a coefficient is a rational string or an integer, not {c!r}")
    try:
        return Fraction(c)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad coefficient {c!r}") from None


# -- comparison ------------------------------------------------------------------


def outcome(read, *args):
    """The polynomial a reader returns, or the type and text of its error."""
    try:
        return read(*args)
    except Exception as exc:  # any error the reader lets through must match too
        return type(exc), str(exc)


def assert_same(got, want, case):
    if isinstance(want, Polynomial):
        assert isinstance(got, Polynomial), (case, got, want)
        assert got == want and to_string(got) == to_string(want), case
        for c in got._terms.values():  # stored form: nonzero, int when integral
            assert c and (type(c) is int or c.denominator > 1), (case, got._terms)
    else:
        assert got == want, case


# -- texts -----------------------------------------------------------------------

VARIABLES = ["t1", "t2", "t3", "a1", "a2", "t4", "t0", "x12", "tt3"]
NUMBERS = ["0", "1", "2", "10", "1/2", "3/4", "2/2", "0/3", "1/0"]
EXPONENTS = ["0", "1", "2", "255", "256", "300", "1/2"]
OPERATORS = ["+", "-", "*", "^"]
STRAY = ["@", "/", ".", "t", "(", "\t"]
ALPHABET = VARIABLES + NUMBERS + EXPONENTS + OPERATORS + STRAY + [" "]


def random_term(rng, names):
    """One term, as text: a coefficient and factors with their powers,
    mostly variables named in names."""
    parts = []
    if rng.random() < 0.5:
        parts.append(rng.choice(NUMBERS))
    for _ in range(rng.randint(0 if parts else 1, 3)):
        factor = rng.choice(names if names and rng.random() < 0.9 else VARIABLES)
        if rng.random() < 0.4:
            factor += "^" + rng.choice(EXPONENTS)
        parts.append(factor)
    return rng.choice(["*", " ", "", " * "]).join(parts)


def random_text(rng, n):
    """A text over the alphabet: a sum of terms in n variables, some of
    them repeated (with the other sign they cancel) and a few tokens
    perturbed; or tokens drawn with no structure at all."""
    if rng.random() < 0.3:
        k = rng.randint(0, 8)
        return "".join(rng.choice(ALPHABET) + rng.choice(["", " "]) for _ in range(k))
    names = [name for name in VARIABLES[:5] if int(name[1:]) <= n]
    terms = [random_term(rng, names) for _ in range(rng.randint(1, 4))]
    for _ in range(rng.randint(0, 2)):
        terms.insert(rng.randint(0, len(terms)), rng.choice(terms))
    text = rng.choice(["", "-", "- "])
    for k, term in enumerate(terms):
        if k:
            text += rng.choice([" + ", " - ", "-", "+", " - - ", " + -"])
        text += term
    tokens = text.split(" ")
    for _ in range(rng.choice([0, 0, 0, 0, 1, 2])):
        tokens.insert(rng.randint(0, len(tokens)), rng.choice(ALPHABET))
    return rng.choice([" ", ""]).join(tokens)


def test_texts_parse_as_before():
    rng = random.Random(20240611)
    parsed = over_the_bound = 0
    for _ in range(100_000):
        n = rng.choice((0, 1, 2, 3, 3, 3))
        text = random_text(rng, n)
        want = outcome(ref_parse_polynomial, text, n)
        assert_same(outcome(parse_polynomial, text, n), want, (text, n))
        if isinstance(want, Polynomial):
            parsed += 1
        elif "above MAX_DEGREE" in want[1]:
            over_the_bound += 1
    # the draw reaches both the values and the degree bound
    assert parsed > 15_000 and over_the_bound > 5_000, (parsed, over_the_bound)


# -- term lists: the JSON form and the constructor --------------------------------


def _json(*terms):
    return {"n": 3, "terms": [{"exp": e, "coeff": c} for e, c in terms]}


FIELDS = [0, 0, 0, 1, 2, 100, 255, 256, 300]
JSON_COEFFICIENTS = ["0", "1", "-1", "1/2", "-1/2", "2", "0/5", "1.5", 0, 1, -3]
JSON_FAULTS = ["1/0", "x", None, 0.5, True]
COEFFICIENTS = [0, 1, -1, 3, Fraction(1, 2), Fraction(-1, 2), Fraction(4, 2), "1/2"]
# the earlier constructor read 0.5 at its binary value and True as 1
CONSTRUCTOR_FAULTS = [0.5, True, None, "1/0", "x"]


def random_items(rng, coefficients, faults=()):
    """(exponent, coefficient) pairs: exponent lists of length 3, some
    repeated with the negated coefficient, and now and then a coefficient
    drawn from faults."""
    items = []
    for _ in range(rng.randint(0, 5)):
        if items and rng.random() < 0.3:
            exp, c = rng.choice(items)
            c = "-" + c if isinstance(c, str) and not c.startswith("-") else c
            c = -c if isinstance(c, (int, Fraction)) and type(c) is not bool else c
        else:
            exp = [rng.choice(FIELDS) for _ in range(3)]
            c = rng.choice(faults) if faults and rng.random() < 0.05 else rng.choice(coefficients)
        items.append((exp, c))
    return items


def without_cancelled_terms_above_the_bound(items):
    """items without the terms of an exponent above MAX_DEGREE whose
    coefficients sum to 0; unchanged if a coefficient is not rational."""
    try:
        sums = {}
        for exp, c in items:
            if type(c) not in (int, str, Fraction):
                return items
            sums[tuple(exp)] = sums.get(tuple(exp), 0) + Fraction(c)
    except (ValueError, ZeroDivisionError):
        return items
    return [
        (exp, c) for exp, c in items if sum(exp) <= MAX_DEGREE or sums[tuple(exp)]
    ]


def test_json_objects_read_as_before_but_for_cancelled_terms():
    rng = random.Random(7)
    changed = 0
    for _ in range(20_000):
        items = random_items(rng, JSON_COEFFICIENTS, JSON_FAULTS)
        kept = without_cancelled_terms_above_the_bound(items)
        changed += kept != items
        obj = {"n": 3, "terms": [{"exp": e, "coeff": c} for e, c in items]}
        ref_obj = {"n": 3, "terms": [{"exp": e, "coeff": c} for e, c in kept]}
        want = outcome(ref_polynomial_from_json, ref_obj)
        assert_same(outcome(polynomial_from_json, obj), want, obj)
    assert changed > 500, changed


def coefficient_fault(c):
    """The JSON reader's refusal of c, or None for an int, a Fraction or a
    rational string: the one rule of every reader."""
    if type(c) in (int, Fraction):
        return None
    if type(c) is not str:
        return f"a coefficient is a rational string or an integer, not {c!r}"
    try:
        Fraction(c)
    except (ValueError, ZeroDivisionError):
        return f"bad coefficient {c!r}"
    return None


def test_constructor_builds_as_before_but_for_cancelled_terms():
    """A term map whose exponents are well formed is refused at its first
    faulty coefficient, with the JSON reader's text, before any sum is
    bounded; any other is built as before but for cancelled terms."""
    rng = random.Random(11)
    changed = refused = 0
    for _ in range(20_000):
        terms = {tuple(e): c for e, c in random_items(rng, COEFFICIENTS, CONSTRUCTOR_FAULTS)}
        fault = next(filter(None, map(coefficient_fault, terms.values())), None)
        if fault is not None:
            refused += 1
            assert outcome(Polynomial, 3, terms) == (ValueError, fault), terms
            continue
        kept = {e: c for e, c in terms.items() if sum(e) <= MAX_DEGREE or c}
        changed += kept != terms
        want = outcome(ref_polynomial, 3, kept)
        assert_same(outcome(Polynomial, 3, terms), want, terms)
    assert changed > 500, changed
    assert refused > 500, refused


@pytest.mark.parametrize("c", [0.5, 0.1, True, None, "1/0", "x", [1]])
def test_every_reader_refuses_a_coefficient_by_one_rule(c):
    want = (ValueError, coefficient_fault(c))
    assert outcome(Polynomial, 2, {(1, 0): c}) == want
    assert outcome(Polynomial.constant, 2, c) == want
    assert outcome(Polynomial.linear_form, 2, {1: c}) == want
    obj = {"n": 2, "terms": [{"exp": [1, 0], "coeff": c}]}
    assert outcome(polynomial_from_json, obj) == want


@pytest.mark.parametrize(
    "exp", [[-1, 0, 0], [1, 0], [1, 0, 0, 0], [True, 0, 0], [1.0, 0, 0], ["1", 0, 0], [[1], 0, 0]]
)
def test_a_bad_exponent_is_refused_as_before(exp):
    obj = _json((exp, "1"))
    want = outcome(ref_polynomial_from_json, obj)
    assert want[1].startswith("bad exponent vector")
    assert outcome(polynomial_from_json, obj) == want
    if exp != [[1], 0, 0]:  # a list cannot be a key of the constructor's map
        terms = {tuple(exp): 1, (0, 0, 0): 2}
        assert outcome(Polynomial, 3, terms) == outcome(ref_polynomial, 3, terms)


# -- the intended change, in each form -------------------------------------------

ABOVE = f"total degree 300 is above MAX_DEGREE = {MAX_DEGREE}"


@pytest.mark.parametrize(
    "text,json_terms",
    [
        ("t1^300 - t1^300", [([300, 0, 0], "1"), ([300, 0, 0], "-1")]),
        ("0*t1^300", [([300, 0, 0], "0")]),
        ("1/2*t2^300 + t1 - 1/2*t2^300", [([0, 300, 0], "1/2"), ([1, 0, 0], "1"), ([0, 300, 0], "-1/2")]),
    ],
)
def test_a_term_above_the_bound_that_cancels_is_dropped(text, json_terms):
    want = ref_parse_polynomial(text, 3)  # the text form always dropped it
    assert parse_polynomial(text, 3) == want
    assert polynomial_from_json(_json(*json_terms)) == want
    with pytest.raises(ValueError, match=ABOVE):  # the earlier JSON reader refused it
        ref_polynomial_from_json(_json(*json_terms))


def test_the_constructor_drops_a_zero_term_above_the_bound():
    assert Polynomial(3, {(300, 0, 0): 0, (1, 0, 0): 1}) == Polynomial.variable(3, 1)
    assert Polynomial(3, {(0, 0, 300): Fraction(0)}).is_zero()
    with pytest.raises(ValueError, match=ABOVE):  # the earlier constructor refused it
        ref_polynomial(3, {(300, 0, 0): 0})


@pytest.mark.parametrize(
    "read",
    [
        lambda: parse_polynomial("t1^300 + 0*t2 - t1^300 + t1^300", 3),
        lambda: polynomial_from_json(_json(([300, 0, 0], "1"), ([300, 0, 0], "1"))),
        lambda: Polynomial(3, {(1, 0, 0): 1, (300, 0, 0): Fraction(1, 2)}),
    ],
)
def test_a_nonzero_term_above_the_bound_is_still_refused(read):
    with pytest.raises(ValueError, match=f"^{ABOVE}$"):
        read()
