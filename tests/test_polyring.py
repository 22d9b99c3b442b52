"""Polynomial ring: examples with independently computed values, plus
randomized algebra laws."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gkmcalc.polyring import (
    MAX_DEGREE,
    ExactDivisionError,
    Polynomial,
    divides,
    exact_divide,
    is_homogeneous,
    is_linear_form,
    parse_polynomial,
    poly_divided_difference,
    polynomial_from_json,
    polynomial_to_json,
    reduce_modulo,
    swap_substitution,
    to_string,
)
from monomials import homogeneous_exponents


def var(i, n=3):
    return Polynomial.variable(n, i)


def form(n, coeffs):
    return Polynomial.linear_form(n, coeffs)


t1, t2, t3 = var(1), var(2), var(3)


class TestAdd:
    def test_additive_inverse(self):
        assert ((t1 - t2) + (t2 - t1)).is_zero()

    def test_telescoping(self):
        assert (t1 - t2) + (t2 - t3) == t1 - t3

    def test_localization_sum(self):
        # the value at the top vertex after acting by the first transposition
        assert (t1 - t3) + (t2 - t1) == t2 - t3

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            t1 + Polynomial.variable(2, 1)


class TestMul:
    def test_identity(self):
        p = 2 * t1 * t2 - t3
        assert p * Polynomial.one(3) == p

    def test_full_inversion_product(self):
        # (t1-t2)(t1-t3)(t2-t3), expanded by hand
        prod = (t1 - t2) * (t1 - t3) * (t2 - t3)
        assert prod == Polynomial(
            3,
            {
                (2, 1, 0): 1,
                (2, 0, 1): -1,
                (1, 2, 0): -1,
                (1, 0, 2): 1,
                (0, 2, 1): 1,
                (0, 1, 2): -1,
            },
        )

    def test_two_factor_product(self):
        # (t1-t2)(t1-t3) = t1^2 - t1 t2 - t1 t3 + t2 t3
        assert (t1 - t2) * (t1 - t3) == Polynomial(
            3, {(2, 0, 0): 1, (1, 1, 0): -1, (1, 0, 1): -1, (0, 1, 1): 1}
        )


class TestCoefficientContract:
    def test_accessors_return_fractions(self):
        p = 2 * t1 * t2 - 3 + t3 * Fraction(1, 2)
        assert all(type(c) is Fraction for c in p.terms().values())
        assert type(p.coefficient((1, 1, 0))) is Fraction
        assert type(p.coefficient((0, 0, 1))) is Fraction
        assert type(p.coefficient((5, 0, 0))) is Fraction
        assert type(p.constant_term()) is Fraction
        assert type(Polynomial.zero(3).constant_term()) is Fraction
        assert p.constant_term() == -3 and p.coefficient((0, 0, 1)) == Fraction(1, 2)

    def test_integral_fraction_is_the_integer(self):
        a = Polynomial(3, {(1, 0, 0): Fraction(4, 2), (0, 0, 0): Fraction(-6, 3)})
        b = Polynomial(3, {(1, 0, 0): 2, (0, 0, 0): -2})
        assert a == b and hash(a) == hash(b)
        assert to_string(a) == to_string(b) == "2*t1 - 2"
        assert polynomial_to_json(a) == polynomial_to_json(b)
        assert Polynomial.constant(3, Fraction(4, 2)) == Polynomial.constant(3, 2)
        assert hash(t1 * Fraction(4, 2)) == hash(2 * t1)


class TestSubstitute:
    def test_swap(self):
        assert (t1 - t2).substitute(swap_substitution(3, 1, 2)) == t2 - t1

    def test_identity(self):
        p = t1 * t2 - 3 * t3
        assert p.substitute({}) == p

    def test_partial_assignment_fixes_others(self):
        assert (t1 - t3).substitute(swap_substitution(3, 2, 3)) == t1 - t2


class TestDivides:
    def test_explicit_factor(self):
        assert divides(t1 - t2, (t1 - t2) * (t2 - t3))

    def test_independent_forms(self):
        assert not divides(t1 - t2, t1 - t3)

    def test_unit_multiple(self):
        assert divides(t1 - t2, t2 - t1)

    def test_zero_dividend(self):
        assert divides(t1 - t2, Polynomial.zero(3))


class TestExactDivide:
    def test_factor_removal(self):
        assert exact_divide((t1 - t2) * (t1 - t3), t1 - t2) == t1 - t3

    def test_zero(self):
        assert exact_divide(Polynomial.zero(3), t1 - t2).is_zero()

    def test_roundtrip_three_factors(self):
        prod = (t1 - t2) * (t1 - t3) * (t2 - t3)
        assert exact_divide(prod, t2 - t3) == (t1 - t2) * (t1 - t3)

    def test_failure_signaled(self):
        with pytest.raises(ExactDivisionError):
            exact_divide(t1 - t3, t1 - t2)


class TestDividedDifference:
    def test_variable(self):
        assert poly_divided_difference(t1, 1) == Polynomial.one(3)

    def test_constant(self):
        assert poly_divided_difference(Polynomial.constant(3, 5), 2).is_zero()

    def test_symmetric_product(self):
        assert poly_divided_difference(t1 * t2, 1).is_zero()


class TestHomogeneous:
    def test_linear(self):
        assert is_homogeneous(t1 - t2, 1)

    def test_zero_any_degree(self):
        assert is_homogeneous(Polynomial.zero(3), 7)

    def test_mixed(self):
        assert not is_homogeneous(t1 + t1 * t2, 1)

    def test_linear_form_predicate(self):
        assert is_linear_form(t1 - t2)
        assert not is_linear_form(Polynomial.zero(3))
        assert not is_linear_form(t1 * t2)
        assert not is_linear_form(t1 + Polynomial.one(3))


coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def polys(draw, n=3, max_deg=2, max_terms=4):
    pairs = draw(
        st.lists(
            st.tuples(
                st.tuples(*[st.integers(0, max_deg)] * n),
                coeffs,
            ),
            max_size=max_terms,
        )
    )
    out = {}
    for exp, c in pairs:
        out[exp] = out.get(exp, Fraction(0)) + c
    return Polynomial(n, out)


@st.composite
def linear_forms(draw, n=3):
    cs = draw(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(
            lambda v: any(v)
        )
    )
    return Polynomial.linear_form(n, {i + 1: c for i, c in enumerate(cs)})


@settings(max_examples=80)
@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=80)
@given(polys(), linear_forms())
def test_mul_divide_roundtrip(p, f):
    prod = p * f
    assert divides(f, prod)
    assert exact_divide(prod, f) == p


@settings(max_examples=80)
@given(polys(), linear_forms(), linear_forms())
def test_divides_iff_exact_divide(p, f, g):
    target = p * f
    claims = divides(g, target)
    try:
        exact_divide(target, g)
        succeeded = True
    except ExactDivisionError:
        succeeded = False
    assert claims == succeeded
    # and the residue characterization agrees
    assert claims == reduce_modulo(target, g).is_zero()


@settings(max_examples=60)
@given(polys(), st.integers(1, 2))
def test_divided_difference_squares_to_zero(p, i):
    assert poly_divided_difference(poly_divided_difference(p, i), i).is_zero()


@settings(max_examples=60)
@given(polys(), polys(), st.permutations([1, 2, 3]))
def test_substitution_by_permutation_is_homomorphism(p, q, perm):
    sub = {i: Polynomial.variable(3, v) for i, v in enumerate(perm, start=1)}
    assert (p * q).substitute(sub) == p.substitute(sub) * q.substitute(sub)
    assert (p + q).substitute(sub) == p.substitute(sub) + q.substitute(sub)
    assert p.substitute(sub).total_degree() == p.total_degree()


class TestTextForms:
    def test_zero_prints_as_zero(self):
        assert to_string(Polynomial.zero(3)) == "0"
        assert parse_polynomial("0", 3).is_zero()

    def test_basic_form(self):
        assert to_string(t1 - t2) == "t1 - t2"
        assert to_string(t2 - t1) == "-t1 + t2"

    def test_coefficients_and_powers(self):
        p = Polynomial(3, {(2, 1, 0): Fraction(3, 2), (0, 0, 1): -1})
        assert to_string(p) == "3/2*t1^2*t2 - t3"
        assert parse_polynomial(to_string(p), 3) == p

    def test_alpha_prefix(self):
        p = Polynomial.linear_form(2, {1: 2, 2: 1})
        assert to_string(p, prefix="a") == "2*a1 + a2"
        assert parse_polynomial("2*a1 + a2", 2) == p

    def test_bad_input(self):
        with pytest.raises(ValueError):
            parse_polynomial("t1 + t9", 3)
        with pytest.raises(ValueError):
            parse_polynomial("t1 + @", 3)
        with pytest.raises(ValueError):
            parse_polynomial("", 3)

    @pytest.mark.parametrize("text", ["t1**2", "t1*", "2*", "t1*+t2", "t1*^2"])
    def test_star_needs_a_factor(self, text):
        # "t1**2" once read as 2*t1, and a dangling '*' was dropped
        with pytest.raises(ValueError, match="followed by a factor"):
            parse_polynomial(text, 3)

    def test_every_printed_term_parses(self):
        for d in range(4):
            for e in homogeneous_exponents(3, d):
                for c in (1, -1, 2, Fraction(-1, 2)):
                    p = Polynomial(3, {e: c, (0, 1, 0): 3})
                    for prefix in ("t", "a"):
                        assert parse_polynomial(to_string(p, prefix), 3) == p

    @settings(max_examples=60)
    @given(polys())
    def test_string_roundtrip(self, p):
        assert parse_polynomial(to_string(p), 3) == p

    @settings(max_examples=60)
    @given(polys())
    def test_json_roundtrip(self, p):
        assert polynomial_from_json(polynomial_to_json(p)) == p

    @pytest.mark.parametrize(
        "obj",
        [
            {"terms": 5},
            {"terms": [5]},
            {"terms": [{"exp": 5, "coeff": "1"}]},
            {"terms": [{"exp": ["x", 0, 0], "coeff": "1"}]},
            {"terms": [{"exp": [1, 0, 0], "coeff": "1/0"}]},
            {"terms": [{"exp": [1, 0, 0], "coeff": None}]},
            {"n": "3", "terms": []},
            {"terms": [{"exp": [[1], 0, 0], "coeff": "1"}]},
            {"terms": [{"exp": [1.0, 0, 0], "coeff": "1"}]},
        ],
    )
    def test_json_bad_object_is_a_value_error(self, obj):
        with pytest.raises(ValueError):
            polynomial_from_json(obj, None if "n" in obj else 3)

    def test_json_shape(self):
        obj = polynomial_to_json(t1 - t2)
        assert obj == {
            "n": 3,
            "terms": [
                {"exp": [1, 0, 0], "coeff": "1"},
                {"exp": [0, 1, 0], "coeff": "-1"},
            ],
        }


class TestDegreeBound:
    """Each packed field holds at most MAX_DEGREE; no entry point may pass it."""

    def test_the_bound_is_the_field_width(self):
        assert MAX_DEGREE == 255

    def test_constructor(self):
        at = Polynomial(3, {(MAX_DEGREE - 1, 0, 1): 1, (0, 0, 0): 2})
        assert at.total_degree() == MAX_DEGREE
        assert at.coefficient((MAX_DEGREE - 1, 0, 1)) == 1
        for exp in ((MAX_DEGREE, 0, 1), (0, MAX_DEGREE + 1, 0), (10**12, 0, 0)):
            with pytest.raises(ValueError, match=f"above MAX_DEGREE = {MAX_DEGREE}$"):
                Polynomial(3, {exp: 1})

    def test_parse(self):
        assert parse_polynomial(f"t1^{MAX_DEGREE}", 3).total_degree() == MAX_DEGREE
        assert parse_polynomial(f"t2^{MAX_DEGREE - 1}*t3 - 1", 3).total_degree() == MAX_DEGREE
        for text in (
            f"t1^{MAX_DEGREE + 1}",
            f"t2^{MAX_DEGREE}*t3",
            "t1^1000000000000",
        ):
            with pytest.raises(ValueError, match="MAX_DEGREE"):
                parse_polynomial(text, 3)

    def test_json(self):
        def obj(exp):
            return {"n": 3, "terms": [{"exp": exp, "coeff": "1"}]}

        assert polynomial_from_json(obj([0, 0, MAX_DEGREE])) == t3**MAX_DEGREE
        with pytest.raises(ValueError, match="MAX_DEGREE"):
            polynomial_from_json(obj([0, 1, MAX_DEGREE]))

    def test_power(self):
        assert (t1 * t2) ** (MAX_DEGREE // 2) == Polynomial(3, {(127, 127, 0): 1})
        assert (t1 + 1) ** MAX_DEGREE != 0
        assert (t2 + 3) ** 0 == Polynomial.one(3)
        for base, k in ((t1, MAX_DEGREE + 1), (t1 * t2, 128), (t1 - t3, 10**12)):
            with pytest.raises(ValueError, match="MAX_DEGREE"):
                base**k
        assert Polynomial.constant(3, 2) ** 300 == Polynomial.constant(3, 2**300)

    def test_product(self):
        p = t1 ** (MAX_DEGREE - 1) - t2
        assert (p * (t1 - t3)).total_degree() == MAX_DEGREE
        with pytest.raises(ValueError, match=f"total degree {MAX_DEGREE + 1} is above"):
            p * (t1 * t3)
        with pytest.raises(ValueError, match="MAX_DEGREE"):
            (t1**200).substitute({1: t2 * t3})

    def test_bool_exponents_are_refused(self):
        with pytest.raises(ValueError, match=r"bad exponent vector \(True, 0\)"):
            Polynomial(2, {(True, 0): 1})
        with pytest.raises(ValueError, match="bad exponent vector"):
            polynomial_from_json({"n": 2, "terms": [{"exp": [True, False], "coeff": "3"}]})
        with pytest.raises(ValueError, match="bad exponent vector"):
            polynomial_from_json({"n": 2, "terms": [{"exp": [1, False], "coeff": "3"}]})


def test_homogeneous_exponents_enumeration():
    assert homogeneous_exponents(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert homogeneous_exponents(3, 0) == [(0, 0, 0)]
    assert len(homogeneous_exponents(4, 3)) == 20
