"""Root system data and the general-type inversion and Bruhat facts."""

from collections import Counter

import pytest

from gkmcalc.coxeter import all_permutations, inversion_pairs
from gkmcalc.polyring import Polynomial, reduce_modulo, to_string
from gkmcalc.root_system import RankTwoRootSystem, root_system, type_a


class TestReflect:
    def test_negates_own_root(self):
        for label in ("A:3", "B2", "G2"):
            rs = root_system(label)
            for alpha in rs.positive_roots:
                assert rs.reflect(alpha, alpha) == tuple(-x for x in alpha)

    def test_a2_cartan_minus_one(self):
        rs = type_a(3)
        a1, a2 = rs.simple_roots
        assert rs.reflect(a1, a2) == (1, 0, -1)  # alpha1 + alpha2

    def test_g2_cartan_minus_three(self):
        rs = root_system("G2")
        a1, a2 = rs.simple_roots
        assert rs.reflect(a1, a2) == (3, 1)  # 3 alpha1 + alpha2

    def test_b2_cartan_minus_two(self):
        rs = root_system("B2")
        a1, a2 = rs.simple_roots
        assert rs.reflect(a1, a2) == (2, 1)
        assert rs.reflect(a2, a1) == (1, 1)

    def test_rejects_non_roots(self):
        rs = root_system("B2")
        with pytest.raises(ValueError):
            rs.reflect((1, 0), (5, 5))


class TestCartanData:
    def test_matrices(self):
        assert type_a(3).cartan_matrix() == [[2, -1], [-1, 2]]
        assert root_system("B2").cartan_matrix() == [[2, -2], [-1, 2]]
        assert root_system("G2").cartan_matrix() == [[2, -3], [-1, 2]]

    def test_positive_root_counts(self):
        assert len(type_a(4).positive_roots) == 6
        assert len(root_system("B2").positive_roots) == 4
        assert len(root_system("G2").positive_roots) == 6

    def test_positive_roots_are_nonneg_combinations(self):
        for label in ("B2", "G2"):
            rs = root_system(label)
            assert all(
                all(c >= 0 for c in r) for r in rs.positive_roots
            )

    def test_descriptor_shape(self):
        d = root_system("B2").descriptor()
        assert d["type"] == "B2"
        assert d["rank"] == 2
        assert d["cartan_matrix"] == [[2, -2], [-1, 2]]
        assert [1, 1] in d["positive_roots"]


class TestEnumeration:
    def test_orders_and_lengths(self):
        cases = {
            "A:3": [0, 1, 1, 2, 2, 3],
            "B2": [0, 1, 1, 2, 2, 3, 3, 4],
            "G2": [0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6],
        }
        for label, lengths in cases.items():
            rs = root_system(label)
            assert sorted(rs.length(w) for w in rs.elements()) == lengths

    def test_type_a_order_matches_all_permutations(self):
        for n in (1, 2, 3, 4, 5):
            assert list(type_a(n).elements()) == all_permutations(n)

    def test_simple_index_range(self):
        for label in ("A:3", "B2"):
            rs = root_system(label)
            for i in (0, -1, rs.rank + 1):
                with pytest.raises(ValueError, match="simple index"):
                    rs.simple_reflection(i)

    def test_type_a_size_guard(self):
        assert len(type_a(6).elements()) == 720
        with pytest.raises(ValueError, match=r"limited to 8") as exc:
            root_system("A:9")
        assert "n!" in str(exc.value) and "\n" not in str(exc.value)

    def test_one_table_per_type_whatever_the_spelling(self):
        assert root_system("a:3") is root_system(" A:03 ") is type_a(3)
        assert root_system("b2") is root_system(" B2 ")
        with pytest.raises(ValueError, match="type selector"):
            root_system("A:x")

    def test_longest_element_inverts_all_positives(self):
        for label in ("A:4", "B2", "G2"):
            rs = root_system(label)
            w0 = rs.longest_element()
            assert set(rs.inversions(w0)) == set(rs.positive_roots)

    def test_inversions_examples(self):
        rs = root_system("B2")
        assert rs.inversions(rs.identity()) == ()
        for i in (1, 2):
            assert rs.inversions(rs.simple_reflection(i)) == (
                rs.simple_roots[i - 1],
            )


class TestCoadjoint:
    def test_type_a_is_variable_permutation(self):
        rs = type_a(3)
        s1 = rs.simple_reflection(1)
        sub = rs.coadjoint_substitution(s1)
        assert sub[1] == Polynomial.variable(3, 2)
        assert sub[2] == Polynomial.variable(3, 1)

    def test_rank_two_simple_reflection(self):
        rs = root_system("B2")
        sub = rs.coadjoint_substitution(rs.simple_reflection(1))
        assert to_string(sub[1], "a") == "-a1"
        assert to_string(sub[2], "a") == "2*a1 + a2"

    def test_action_on_simple_roots(self):
        rs = type_a(3)
        s1 = rs.simple_reflection(1)
        a1, a2 = rs.simple_roots
        assert rs.act_on_root(s1, a1) == (-1, 1, 0)
        assert rs.act_on_root(s1, a2) == (1, 0, -1)  # alpha1 + alpha2

    def test_divided_difference_matches_type_a(self):
        from gkmcalc.polyring import poly_divided_difference

        rs = type_a(3)
        p = Polynomial(3, {(2, 0, 0): 1, (0, 1, 1): 2})
        for i in (1, 2):
            assert rs.divided_difference(p, i) == poly_divided_difference(p, i)


class TestWordsAndIntervals:
    def test_parse_and_str_rank_two(self):
        rs = root_system("B2")
        w = rs.parse_element("121")
        assert rs.length(w) == 3
        assert rs.element_str(w) == "121"
        assert rs.parse_element("e") == rs.identity()
        with pytest.raises(ValueError):
            rs.parse_element("13")

    def test_reduced_words_multiply_back(self):
        for label in ("A:4", "B2", "G2"):
            rs = root_system(label)
            for w in rs.elements():
                word = rs.reduced_word(w)
                assert len(word) == rs.length(w)
                prod = rs.identity()
                for i in word:
                    prod = rs.mul(prod, rs.simple_reflection(i))
                assert prod == w

    def test_lower_interval_of_longest_is_group(self):
        for label in ("B2", "G2"):
            rs = root_system(label)
            assert rs.lower_interval(rs.longest_element()) == frozenset(rs.elements())


@pytest.mark.parametrize("label", ["A:2", "A:3", "A:4", "A:5", "B2", "G2"])
def test_simple_edge_recursion(label):
    """Inv(s_i w) = s_i Inv(w) + {alpha_i} for every ascent, all types."""
    rs = root_system(label)
    for w in rs.elements():
        for i in range(1, rs.rank + 1):
            s = rs.simple_reflection(i)
            sw = rs.mul(s, w)
            if rs.length(sw) <= rs.length(w):
                continue
            want = {rs.act_on_root(s, b) for b in rs.inversions(w)}
            want.add(rs.simple_roots[i - 1])
            assert set(rs.inversions(sw)) == want


@pytest.mark.parametrize("label", ["A:2", "A:3", "A:4", "B2", "G2"])
def test_covering_reflection_multiset_mod_alpha(label):
    """Inv(s_a w) = {a} + s_a Inv(w) as multisets after reducing mod a."""
    rs = root_system(label)
    for w in rs.elements():
        for alpha in rs.positive_roots:
            sa = rs.reflection(alpha)
            saw = rs.mul(sa, w)
            if rs.length(saw) != rs.length(w) + 1:
                continue
            aform = rs.root_form(alpha)
            left = Counter(
                reduce_modulo(rs.root_form(b), aform) for b in rs.inversions(saw)
            )
            right = Counter(
                reduce_modulo(rs.root_form(rs.act_on_root(sa, b)), aform)
                for b in rs.inversions(w)
            )
            right[reduce_modulo(aform, aform)] += 1
            assert left == right


@pytest.mark.parametrize("label", ["A:2", "A:3", "A:4", "A:5", "B2", "G2"])
def test_covering_preserves_other_ascents_general(label):
    """s_i w > w and s_a w covering w (s_i != s_a) forces s_i s_a w > s_a w."""
    rs = root_system(label)
    for w in rs.elements():
        for alpha in rs.positive_roots:
            sa = rs.reflection(alpha)
            saw = rs.mul(sa, w)
            if rs.length(saw) != rs.length(w) + 1:
                continue
            for i in range(1, rs.rank + 1):
                si = rs.simple_reflection(i)
                if si == sa:
                    continue
                if rs.length(rs.mul(si, w)) > rs.length(w):
                    assert rs.length(rs.mul(si, saw)) > rs.length(saw)


@pytest.mark.parametrize("label", ["A:2", "A:3", "A:4", "B2", "G2"])
def test_bruhat_refines_length_and_is_order(label):
    rs = root_system(label)
    els = rs.elements()
    for v in els:
        assert rs.bruhat_leq(v, v)
        for w in els:
            if rs.bruhat_leq(v, w) and rs.bruhat_leq(w, v):
                assert v == w
            if rs.bruhat_leq(v, w) and v != w:
                assert rs.length(v) < rs.length(w)


def _tableau_leq(v, w):
    """Type-A Bruhat order by the tableau criterion on one-line notation."""
    return all(
        all(a <= b for a, b in zip(sorted(v.one_line[:k]), sorted(w.one_line[:k])))
        for k in range(1, v.n)
    )


@pytest.mark.parametrize("label", ["A:2", "A:3", "A:4", "A:5", "B2", "G2"])
def test_bruhat_leq_matches_lower_interval(label):
    """The lifting-property order agrees with the subword intervals, and in
    type A with the tableau criterion."""
    rs = root_system(label)
    els = rs.elements()
    for w in els:
        below = rs.lower_interval(w)
        for v in els:
            assert rs.bruhat_leq(v, w) == (v in below)
            if label.startswith("A:"):
                assert rs.bruhat_leq(v, w) == _tableau_leq(v, w)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_type_a_matches_coxeter_module(n):
    """Root-system inversions biject with the inversion pairs of the group."""
    rs = type_a(n)
    for w in all_permutations(n):
        want = set()
        for i, j in inversion_pairs(w):
            vec = [0] * n
            vec[i - 1], vec[j - 1] = 1, -1
            want.add(tuple(vec))
        assert set(rs.inversions(w)) == want
        assert rs.length(w) == w.length()
        assert rs.bruhat_leq(w, rs.longest_element())


@pytest.mark.parametrize("label", ["A:1", "A:2", "A:3", "A:4", "A:5", "A:6", "B2", "G2"])
def test_coset_chain_factors_the_group(label):
    rs = root_system(label)
    chain = rs.coset_chain()
    assert len(chain) == rs.rank
    products = [rs.identity()]
    for k, word in enumerate(chain, start=1):
        reps = [rs.identity()]
        for i in word:  # the representatives are the prefixes of the word
            assert 1 <= i <= k
            c = rs.mul(rs.simple_reflection(i), reps[-1])
            assert rs.length(c) == rs.length(reps[-1]) + 1
            for j in range(1, k):  # minimal in its coset of W_{1..k-1}
                assert rs.length(rs.mul(c, rs.simple_reflection(j))) > rs.length(c)
            reps.append(c)
        products = [rs.mul(c, u) for c in reps for u in products]
    # every element of W is c_rank ... c_1 in exactly one way
    assert len(products) == len(set(products)) == len(rs.elements())
    steps = sum(len(word) for word in chain)
    if label.startswith("A:"):
        n = rs.rank + 1
        assert steps == n * (n - 1) // 2
        assert chain == tuple(tuple(range(k, 0, -1)) for k in range(1, n))
    else:
        assert steps == len(rs.elements()) // 2
    assert rs.coset_chain() is chain


def _coset_level_by_walk(rs, k):
    """Level k's word found in the group tables: from the identity, step to
    the first s_i c (i <= k) that is one longer and still has no right
    descent in {1..k-1}, until there is none."""
    length, c, word = rs.lengths, 0, []
    while True:
        for i in range(1, k + 1):
            sc = rs.lmul[i - 1][c]
            if length[sc] > length[c] and all(
                length[rs.rmul[j][sc]] > length[sc] for j in range(k - 1)
            ):
                break
        else:
            return tuple(word)
        c = sc
        word.append(i)


@pytest.mark.parametrize("label", [f"A:{n}" for n in range(1, 9)] + ["B2", "G2"])
def test_coset_chain_words_match_the_table_walk(label):
    rs = root_system(label)
    walked = tuple(_coset_level_by_walk(rs, k) for k in range(1, rs.rank + 1))
    assert rs.coset_chain() == walked


def test_refusals_name_the_fault():
    b2, a3 = root_system("B2"), type_a(3)
    cases = [
        (lambda: RankTwoRootSystem("F4"), "unsupported rank-two type 'F4'"),
        (lambda: b2.reflection((5, 5)), "not a root of B2: (5, 5)"),
        (lambda: b2.act_on_root(b2.identity(), (5, 5)), "not a root of B2: (5, 5)"),
        (lambda: a3.reflection((1, 1, 0)), "not a type A root: (1, 1, 0)"),
    ]
    for make, message in cases:
        with pytest.raises(ValueError) as exc:
            make()
        assert exc.value.args == (message,)


BACKEND_METHODS = (
    "identity", "mul", "inv", "inversions", "reflection", "act_on_root",
    "coadjoint_substitution", "element_str", "parse_element",
)


def test_each_backend_defines_the_group_operations():
    """The base class names the nine group operations in its docstring and
    defines none of them; each backend defines all nine."""
    from gkmcalc.root_system import RootSystem, TypeARootSystem

    for name in BACKEND_METHODS:
        assert name not in RootSystem.__dict__
        assert f"``{name}(" in RootSystem.__doc__
        for backend in (TypeARootSystem, RankTwoRootSystem):
            assert callable(backend.__dict__[name])
