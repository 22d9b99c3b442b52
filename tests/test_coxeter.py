"""Permutations and parsing, and the type-A worked examples through type_a(n)."""

import copy
import pickle

import pytest

from gkmcalc.coxeter import (
    Permutation,
    all_permutations,
    inversion_pairs,
    parse_permutation,
)
from gkmcalc.polyring import Polynomial, swap_substitution
from gkmcalc.root_system import type_a


def perm(s):
    return parse_permutation(s)


def form(n, i, j):
    return Polynomial.linear_form(n, {i: 1, j: -1})


def inversion_forms(w):
    rs = type_a(w.n)
    return frozenset(rs.root_form(r) for r in rs.inversions(w))


def act_on_variables(u, p):
    return p.substitute(type_a(u.n).coadjoint_substitution(u))


class TestCompose:
    def test_involution(self):
        s1 = Permutation.simple(3, 1)
        assert s1 * s1 == Permutation.identity(3)

    def test_simple_product_is_three_cycle(self):
        s1, s2 = Permutation.simple(3, 1), Permutation.simple(3, 2)
        got = s1 * s2
        assert got.one_line == (2, 3, 1)
        assert got.length() == 2

    def test_identity_neutral(self):
        w = perm("231")
        assert w * Permutation.identity(3) == w

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            Permutation.identity(2) * Permutation.identity(3)

    def test_convention_composes_as_functions(self):
        u, v = perm("231"), perm("213")
        for i in (1, 2, 3):
            assert (u * v)(i) == u(v(i))

    def test_constructor_still_validates(self):
        for bad in ((1, 1, 2), (0, 1, 2), (1, 2, 4)):
            with pytest.raises(ValueError):
                Permutation(bad)

    def test_products_and_inverses_are_ordinary_permutations(self):
        for u in all_permutations(4):
            inv = u.inverse()
            assert u * inv == Permutation.identity(4) == inv * u
            assert hash(u * inv) == hash(Permutation.identity(4))
            assert type((u * u).one_line) is tuple
            assert Permutation((u * u).one_line) == u * u


class TestValueContract:
    """Equality, hashing, repr and immutability that sets and dicts rely on."""

    def test_equality(self):
        p = Permutation((2, 3, 1))
        assert p == Permutation((2, 3, 1)) and not p != Permutation((2, 3, 1))
        assert p != Permutation((3, 1, 2))
        assert p != (2, 3, 1) and p != "231" and p != None  # noqa: E711
        assert p.__eq__((2, 3, 1)) is NotImplemented

    def test_hash_is_the_field_tuple_hash(self):
        # kept in a slot at construction, through the constructor or a product
        s1 = Permutation.simple(3, 1)
        for p in all_permutations(3):
            for q in (p, p * s1, s1 * p, p.inverse()):
                assert hash(q) == hash((q.one_line,))

    def test_repr(self):
        assert repr(Permutation((2, 3, 1))) == "Permutation(one_line=(2, 3, 1))"

    def test_immutable(self):
        p = Permutation((2, 1))
        with pytest.raises(AttributeError):
            p.one_line = (1, 2)
        with pytest.raises(AttributeError):
            del p.one_line
        with pytest.raises(AttributeError):
            p.other = 1
        with pytest.raises(AttributeError):
            p._hash = 0
        assert p.one_line == (2, 1) and hash(p) == hash(((2, 1),))

    def test_constructor(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 2))
        p = Permutation([2, 1, 3])
        assert type(p.one_line) is tuple and p == Permutation(one_line=(2, 1, 3))

    def test_copy_and_pickle(self):
        p = Permutation((3, 1, 2))
        for q in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert q == p and hash(q) == hash(p)


class TestLength:
    def test_identity(self):
        assert type_a(3).length(Permutation.identity(3)) == 0

    def test_longest(self):
        assert type_a(3).length(perm("321")) == 3

    def test_three_cycle(self):
        assert type_a(3).length(perm("231")) == 2


class TestInversions:
    def test_simple(self):
        assert inversion_forms(perm("213")) == frozenset({form(3, 1, 2)})

    def test_three_cycle(self):
        assert inversion_forms(perm("231")) == frozenset(
            {form(3, 1, 2), form(3, 1, 3)}
        )
        assert inversion_pairs(perm("231")) == [(1, 2), (1, 3)]

    def test_identity_empty(self):
        assert inversion_forms(Permutation.identity(3)) == frozenset()


class TestBruhat:
    def test_identity_below_everything(self):
        e = Permutation.identity(4)
        assert all(type_a(4).bruhat_leq(e, w) for w in all_permutations(4))

    def test_edge_from_figure(self):
        assert type_a(3).bruhat_leq(perm("213"), perm("231"))

    def test_incomparable_length_one(self):
        assert not type_a(3).bruhat_leq(perm("213"), perm("132"))

    def test_lower_interval_identity(self):
        e = Permutation.identity(3)
        assert type_a(3).lower_interval(e) == frozenset({e})

    def test_lower_interval_top(self):
        assert type_a(3).lower_interval(perm("321")) == frozenset(all_permutations(3))

    def test_lower_interval_three_cycle(self):
        got = {str(w) for w in type_a(3).lower_interval(perm("231"))}
        assert got == {"123", "213", "132", "231"}


class TestReducedWords:
    def test_identity(self):
        assert type_a(4).reduced_word(Permutation.identity(4)) == []

    def test_simple(self):
        assert type_a(3).reduced_word(perm("213")) == [1]

    def test_longest_element_leftmost_rule(self):
        w = perm("321")
        word = type_a(3).reduced_word(w)
        assert word == [1, 2, 1]
        prod = Permutation.identity(3)
        for i in word:
            prod = prod * Permutation.simple(3, i)
        assert prod == w


class TestVariableAction:
    def test_simple_swap(self):
        p = form(3, 1, 2)
        assert act_on_variables(Permutation.simple(3, 1), p) == -p

    def test_identity(self):
        p = form(3, 1, 3) * form(3, 2, 3)
        assert act_on_variables(Permutation.identity(3), p) == p

    def test_three_cycle(self):
        # t1 -> t2, t3 -> t1 under w = 231
        assert act_on_variables(perm("231"), form(3, 1, 3)) == form(3, 1, 2).substitute(
            swap_substitution(3, 1, 2)
        )
        assert act_on_variables(perm("231"), form(3, 1, 3)) == Polynomial.linear_form(
            3, {2: 1, 1: -1}
        )


class TestParsing:
    def test_one_line_and_commas(self):
        assert parse_permutation("231") == parse_permutation("2,3,1")

    def test_cycles(self):
        assert parse_permutation("(12)", 3).one_line == (2, 1, 3)
        assert parse_permutation("(123)").one_line == (2, 3, 1)
        assert parse_permutation("(132)").one_line == (3, 1, 2)
        assert parse_permutation("(12)(34)").one_line == (2, 1, 4, 3)

    def test_identity_needs_n(self):
        assert parse_permutation("e", 3) == Permutation.identity(3)
        with pytest.raises(ValueError, match=r"^'e' needs an explicit n$"):
            parse_permutation("e")

    def test_refusal_texts(self):
        for text in ("", "  "):
            with pytest.raises(ValueError, match=r"^empty permutation text$"):
                parse_permutation(text)
        with pytest.raises(ValueError, match=r"^need 1 <= j < k <= n, got j=2 k=2 n=3$"):
            Permutation.transposition(3, 2, 2)

    def test_cycle_output(self):
        assert perm("213").cycle_str() == "(12)"
        assert perm("231").cycle_str() == "(123)"
        assert Permutation.identity(3).cycle_str() == "e"

    def test_rejects_garbage(self):
        for bad in ("0", "11", "2,3", "(12)(21)", "abc"):
            with pytest.raises(ValueError):
                parse_permutation(bad, 3)


# -- the inversion lemma in linear forms, exhaustively --------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_simple_inversion_recursion(n):
    """Inv(s_i w) = {t_i - t_{i+1}} union s_i . Inv(w) whenever s_i w > w."""
    for w in all_permutations(n):
        for i in range(1, n):
            s = Permutation.simple(n, i)
            sw = s * w
            if sw.length() <= w.length():
                continue
            swapped = {
                f.substitute(swap_substitution(n, i, i + 1))
                for f in inversion_forms(w)
            }
            assert inversion_forms(sw) == frozenset(swapped | {form(n, i, i + 1)})
