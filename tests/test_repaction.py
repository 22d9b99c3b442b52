"""Weyl group action, divided differences, averaging, and decomposition."""

import re
from collections import Counter
from fractions import Fraction

import pytest

from gkmcalc import gkm
from gkmcalc.coxeter import all_permutations
from gkmcalc.gkm import (
    EquivariantClass,
    KnutsonTaoBasis,
    apply_group_element,
    check_gkm,
    expand_in_basis,
    expansion_to_json,
    expansions_equal,
    flag_basis,
    knutson_tao_class_descent,
    point_class_top,
    restrict,
)
from gkmcalc.moment_graph import (
    build_flag_moment_graph,
    build_schubert_moment_graph,
    toric_hexagon_graph,
)
from gkmcalc.polyring import Polynomial, exact_divide, parse_polynomial
from gkmcalc.repaction import (
    _as_polynomials,
    act,
    act_on_schubert_basis,
    act_word,
    average_class,
    decompose,
    divided_difference_closure,
    divided_difference_expansion,
    left_divided_difference,
    right_divided_difference,
    symmetrize,
)
from gkmcalc.root_system import root_system, type_a

ACTED_12 = {
    "123": "-t1 + t2",
    "213": "0",
    "132": "-t1 + t2",
    "231": "0",
    "312": "t2 - t3",
    "321": "t2 - t3",
}


@pytest.fixture(scope="module")
def flag3():
    return build_flag_moment_graph(type_a(3))


@pytest.fixture(scope="module")
def basis3(flag3):
    return KnutsonTaoBasis(flag3)


def table(c):
    from gkmcalc.polyring import to_string

    return {c.graph.vertex_str(v): to_string(p, c.graph.var_prefix) for v, p in c.items()}


class TestAct:
    def test_displayed_action(self, flag3, basis3):
        rs = flag3.rs
        s1 = rs.parse_element("213")
        got = act(s1, basis3.cls(s1))
        assert table(got) == ACTED_12

    def test_identity(self, flag3, basis3):
        rs = flag3.rs
        c = basis3.cls(rs.parse_element("231"))
        assert act(rs.identity(), c) == c

    def test_other_transposition_fixes_class(self, flag3, basis3):
        rs = flag3.rs
        c = basis3.cls(rs.parse_element("213"))
        assert act(rs.parse_element("132"), c) == c

    def test_pointwise_closure_violation(self):
        rs = type_a(3)
        xg = build_schubert_moment_graph(rs, rs.parse_element("231"))
        c = point_class_top(xg)
        with pytest.raises(ValueError):
            apply_group_element(rs.parse_element("132"), c)

    def test_schubert_action_through_basis(self, flag3, basis3):
        # the restricted action agrees with restriction of the flag action
        rs = flag3.rs
        xg = build_schubert_moment_graph(rs, rs.parse_element("231"))
        xb = KnutsonTaoBasis(xg)
        for vname in ("123", "213", "132", "231"):
            v = rs.parse_element(vname)
            for uname in ("213", "132", "231"):
                u = rs.parse_element(uname)
                got = act(u, xb.cls(v), xb)
                want = restrict(apply_group_element(u, basis3.cls(v)), xg)
                assert got == want

    def test_no_action_on_external_graphs(self):
        g = toric_hexagon_graph()
        ones = EquivariantClass(g, {v: Polynomial.one(3) for v in g.vertices})
        with pytest.raises(ValueError):
            act(type_a(3).simple_reflection(1), ones)

    def test_general_type_restricted_action(self):
        rs = root_system("B2")
        fb = flag_basis(rs)
        xg = build_schubert_moment_graph(rs, rs.parse_element("12"))
        xb = KnutsonTaoBasis(xg)
        for v in xg.vertices:
            for u in rs.elements():
                got = act(u, xb.cls(v), xb)
                want = restrict(apply_group_element(u, fb.cls(v)), xg)
                assert got == want


class TestSimpleBasisFormula:
    def test_descent_adds_lower_class(self, flag3):
        rs = flag3.rs
        v = rs.parse_element("213")
        got = act_on_schubert_basis(1, v, flag3)
        assert got == {
            v: Polynomial.one(3),
            rs.identity(): parse_polynomial("-t1 + t2", 3),
        }

    def test_ascent_fixes(self, flag3):
        rs = flag3.rs
        v = rs.parse_element("213")
        assert act_on_schubert_basis(2, v, flag3) == {v: Polynomial.one(3)}
        e = rs.identity()
        assert act_on_schubert_basis(1, e, flag3) == {e: Polynomial.one(3)}

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_pointwise_action_exhaustively(self, n):
        rs = type_a(n)
        fb = flag_basis(rs)
        g = fb.graph
        for v in rs.elements():
            for i in range(1, n):
                lhs = apply_group_element(rs.simple_reflection(i), fb.cls(v))
                rhs = fb.reconstruct(act_on_schubert_basis(i, v, g))
                assert lhs == rhs


class TestActWord:
    def test_two_step_word(self, flag3, basis3):
        rs = flag3.rs
        s1, s2 = rs.simple_reflection(1), rs.simple_reflection(2)
        u = rs.mul(s1, s2)
        v = rs.parse_element("213")
        start = {v: Polynomial.one(3)}
        got = act_word(u, start, flag3)
        want = expand_in_basis(
            apply_group_element(s1, apply_group_element(s2, basis3.cls(v))), basis3
        )
        assert expansions_equal(got, want)

    def test_identity_word(self, flag3):
        rs = flag3.rs
        start = {rs.parse_element("213"): parse_polynomial("t1", 3)}
        assert expansions_equal(act_word(rs.identity(), start, flag3), start)

    def test_group_law_on_expansions(self, flag3, basis3):
        rs = flag3.rs
        v = rs.parse_element("213")
        start = {v: Polynomial.one(3)}
        for u1 in rs.elements():
            for u2 in rs.elements():
                lhs = act_word(rs.mul(u1, u2), start, flag3)
                rhs = act_word(u1, act_word(u2, start, flag3), flag3)
                assert expansions_equal(lhs, rhs)

    def test_matches_pointwise_for_all_elements(self, flag3, basis3):
        rs = flag3.rs
        for v in rs.elements():
            start = {v: Polynomial.one(3)}
            for u in rs.elements():
                got = act_word(u, start, flag3)
                want = expand_in_basis(apply_group_element(u, basis3.cls(v)), basis3)
                assert expansions_equal(got, want)


class TestLeftDividedDifference:
    def test_drops_one_step(self, flag3, basis3):
        rs = flag3.rs
        s1 = rs.parse_element("213")
        got = left_divided_difference(1, basis3.cls(s1), basis3)
        assert got == basis3.cls(rs.identity())

    def test_zero_on_ascent(self, flag3, basis3):
        rs = flag3.rs
        c = basis3.cls(rs.parse_element("213"))
        assert left_divided_difference(2, c, basis3).is_zero()

    def test_kills_invariant_class(self, flag3, basis3):
        ones = basis3.cls(flag3.rs.identity())
        assert left_divided_difference(1, ones, basis3).is_zero()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_squares_to_zero_on_basis(self, n):
        rs = type_a(n)
        fb = flag_basis(rs)
        for v in rs.elements():
            for i in range(1, n):
                once = left_divided_difference(i, fb.cls(v), fb)
                assert left_divided_difference(i, once, fb).is_zero()

    def test_output_stays_gkm(self, flag3, basis3):
        for v in flag3.vertices:
            for i in (1, 2):
                assert check_gkm(left_divided_difference(i, basis3.cls(v), basis3)).ok


class TestRightDividedDifference:
    def test_point_class_to_ones(self, flag3, basis3):
        rs = flag3.rs
        got = right_divided_difference(1, basis3.cls(rs.parse_element("213")))
        assert got == basis3.cls(rs.identity())

    def test_kills_constant_class(self, flag3, basis3):
        ones = basis3.cls(flag3.rs.identity())
        assert right_divided_difference(2, ones).is_zero()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_output_always_gkm(self, n):
        rs = type_a(n)
        fb = flag_basis(rs)
        for v in rs.elements():
            for i in range(1, n):
                assert check_gkm(right_divided_difference(i, fb.cls(v))).ok

    def test_needs_flag_graph(self):
        rs = type_a(3)
        xg = build_schubert_moment_graph(rs, rs.parse_element("231"))
        with pytest.raises(ValueError):
            right_divided_difference(1, point_class_top(xg))

    @pytest.mark.parametrize("label", ["A:3", "B2", "G2"])
    def test_accepts_the_flag_graph_built_at_w0(self, label):
        # build_schubert_moment_graph at the longest element is the flag graph
        rs = root_system(label)
        g = build_flag_moment_graph(rs)
        xg = build_schubert_moment_graph(rs, rs.longest_element())
        assert (xg.variety, xg.vertices, xg.edges) == ("flag", g.vertices, g.edges)
        for v in xg.vertices:
            c = knutson_tao_class_descent(xg, v)
            flag_c = knutson_tao_class_descent(g, v)
            assert c == flag_c
            for i in range(1, rs.rank + 1):
                got = right_divided_difference(i, c)
                assert got.graph is xg
                assert got == right_divided_difference(i, flag_c)

    @pytest.mark.parametrize("label", ["B2", "G2"])
    def test_general_type_output_gkm(self, label):
        rs = root_system(label)
        fb = flag_basis(rs)
        for v in rs.elements():
            for i in (1, 2):
                assert check_gkm(right_divided_difference(i, fb.cls(v))).ok


class TestExpansionFormula:
    def test_single_basis_class(self, flag3):
        rs = flag3.rs
        v = rs.parse_element("213")
        got = divided_difference_expansion(1, {v: Polynomial.one(3)}, flag3)
        assert expansions_equal(got, {rs.identity(): Polynomial.one(3)})

    def test_ascent_only_differentiates_coefficient(self, flag3):
        rs = flag3.rs
        v = rs.parse_element("213")
        c = parse_polynomial("t1*t2", 3)
        got = divided_difference_expansion(2, {v: c}, flag3)
        want = {v: rs.divided_difference(c, 2)}
        assert expansions_equal(got, want)

    def test_matches_direct_operator_on_random_expansions(self, flag3, basis3):
        import random

        rs = flag3.rs
        rng = random.Random(3)
        for _ in range(30):
            exp = {}
            for v in rng.sample(rs.elements(), k=3):
                exp[v] = Polynomial(
                    3,
                    {
                        tuple(rng.randint(0, 1) for _ in range(3)): Fraction(
                            rng.randint(-3, 3)
                        )
                    },
                )
            exp = {v: p for v, p in exp.items() if p}
            i = rng.randint(1, 2)
            direct = left_divided_difference(i, basis3.reconstruct(exp), basis3)
            assert expansions_equal(
                divided_difference_expansion(i, exp, flag3),
                expand_in_basis(direct, basis3),
            )


class TestAveraging:
    def test_identity_average_is_identity_class(self, flag3):
        rs = flag3.rs
        avg = average_class(rs.identity(), flag3)
        assert expansions_equal(avg, {rs.identity(): Polynomial.one(3)})

    def test_first_transposition_average_value(self, flag3):
        # orbit sum over all six group elements, divided by six, computed by
        # hand from the simple-transposition formula
        rs = flag3.rs
        v = rs.parse_element("213")
        avg = average_class(v, flag3)
        q = parse_polynomial("-2/3*t1 + 1/3*t2 + 1/3*t3", 3)
        assert expansions_equal(avg, {v: Polynomial.one(3), rs.identity(): q})

    @pytest.mark.parametrize("n", [2, 3])
    def test_invariance_under_generators(self, n):
        rs = type_a(n)
        g = build_flag_moment_graph(rs)
        for v in rs.elements():
            avg = average_class(v, g)
            for i in range(1, n):
                s_i = rs.simple_reflection(i)
                assert expansions_equal(act_word(s_i, avg, g), avg)


class TestDecompose:
    def test_full_flag_n3(self, flag3):
        rep = decompose(flag3)
        assert rep.ok
        assert rep.poincare == [1, 2, 2, 1]
        assert rep.multiplicities == {0: 1, 1: 2, 2: 2, 3: 1}

    def test_point(self):
        rs = type_a(3)
        g = build_schubert_moment_graph(rs, rs.identity())
        rep = decompose(g)
        assert rep.ok and rep.multiplicities == {0: 1}

    def test_three_cycle_interval(self):
        rs = type_a(3)
        g = build_schubert_moment_graph(rs, rs.parse_element("231"))
        rep = decompose(g)
        assert rep.ok
        assert rep.poincare == [1, 2, 1]

    @pytest.mark.parametrize("label", ["B2", "G2"])
    def test_general_type(self, label):
        rs = root_system(label)
        g = build_flag_moment_graph(rs)
        rep = decompose(g)
        assert rep.ok
        assert rep.multiplicities == dict(
            Counter(rs.length(w) for w in rs.elements())
        )

    def test_multiplicities_count_lengths(self):
        rs = type_a(3)
        for w in all_permutations(3):
            g = build_schubert_moment_graph(rs, w)
            rep = decompose(g)
            assert rep.ok
            assert rep.multiplicities == dict(
                Counter(rs.length(v) for v in g.vertices)
            )


def _ddiff_through_the_action(i, expansion, g):
    """(E - s_i . E) / alpha_i, with s_i . E formed by the action step and
    the difference by immutable polynomial arithmetic."""
    out = _as_polynomials(expansion, g)
    zero = Polynomial.zero(g.n)
    for v, p in act_word(g.rs.simple_reflection(i), out, g).items():
        out[v] = out.get(v, zero) - p
    alpha = g.rs.simple_root_form(i)
    return {v: exact_divide(p, alpha) for v, p in out.items() if p}


class TestClosure:
    def test_interval_closure_misses_one_simple_class(self):
        rs = type_a(3)
        g = build_schubert_moment_graph(rs, rs.parse_element("231"))
        reached = divided_difference_closure(g)
        keys = [
            frozenset((g.vertex_str(v), p) for v, p in exp.items() if p)
            for exp in reached
        ]
        one = Polynomial.one(3)

        def delta(name):
            return frozenset({(name, one)})

        assert len(keys) == 4
        assert delta("231") in keys  # the top class
        assert delta("123") in keys  # the point class
        assert frozenset() in keys  # zero
        # exactly one of the two length-one classes is reachable
        assert (delta("213") in keys) + (delta("132") in keys) == 1

    def test_closure_forms_no_products(self, flag3, monkeypatch):
        products = []
        mul = Polynomial.__mul__

        def counting(self, other):
            products.append(other)
            return mul(self, other)

        monkeypatch.setattr(Polynomial, "__mul__", counting)
        monkeypatch.setattr(Polynomial, "__rmul__", counting)
        assert len(divided_difference_closure(flag3)) == 7
        assert products == []

    @pytest.mark.parametrize("label", ["A:2", "A:3", "A:4", "B2", "G2"])
    def test_matches_the_action_formula_on_every_schubert_graph(self, label):
        rs = root_system(label)
        for w in rs.elements():
            g = build_schubert_moment_graph(rs, w)
            for exp in divided_difference_closure(g):
                for i in range(1, rs.rank + 1):
                    got = divided_difference_expansion(i, exp, g)
                    want = _ddiff_through_the_action(i, exp, g)
                    assert list(got.items()) == list(want.items())

    def test_full_flag_reaches_every_class(self, flag3):
        reached = divided_difference_closure(flag3)
        one = Polynomial.one(3)
        keys = {
            frozenset((flag3.vertex_str(v), p) for v, p in exp.items() if p)
            for exp in reached
        }
        for v in flag3.vertices:
            assert frozenset({(flag3.vertex_str(v), one)}) in keys


class TestEntryChecks:
    """Each entry point of the action refuses a foreign vertex or a simple
    index outside 1..rank before any simple-reflection step runs."""

    def test_foreign_vertex_is_refused(self):
        rs = type_a(3)
        xg = build_schubert_moment_graph(rs, rs.parse_element("231"))
        w0 = rs.longest_element()
        outside = {w0: 1}
        for call in (
            lambda: act_word(rs.identity(), outside, xg),
            lambda: act_word(rs.simple_reflection(1), outside, xg),
            lambda: symmetrize(outside, xg),
            lambda: average_class(w0, xg),
            lambda: act_on_schubert_basis(1, w0, xg),
            lambda: divided_difference_expansion(1, outside, xg),
            lambda: expansion_to_json(outside, xg),
            lambda: KnutsonTaoBasis(xg).reconstruct(outside),
        ):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == "vertex Permutation(one_line=(3, 2, 1)) not in graph"

    def test_coefficient_outside_the_ring_is_refused(self, flag3):
        # gkm's one gate for basis expansions, behind every entry point
        v = flag3.vertex_by_str("213")
        for coefficient, line in (
            (Polynomial.variable(2, 1), "polynomial dimension 2 != graph dimension 3"),
            (0.5, "coefficient 0.5 is not a polynomial, int or Fraction"),
        ):
            expansion = {v: coefficient}
            for call in (
                lambda: expansion_to_json(expansion, flag3),
                lambda: KnutsonTaoBasis(flag3).reconstruct(expansion),
                lambda: act_word(flag3.rs.simple_reflection(1), expansion, flag3),
                lambda: symmetrize(expansion, flag3),
                lambda: divided_difference_expansion(1, expansion, flag3),
            ):
                with pytest.raises(ValueError) as exc:
                    call()
                assert str(exc.value) == line

    def test_foreign_vertex_is_refused_without_steps(self):
        # A:1 has no simple reflection, so no step would notice the vertex
        g = build_flag_moment_graph(type_a(1))
        w0 = type_a(3).longest_element()
        with pytest.raises(ValueError, match="not in graph"):
            symmetrize({w0: 1}, g)
        with pytest.raises(ValueError, match="not in graph"):
            average_class(w0, g)

    @pytest.mark.parametrize("label", ["A:3", "B2", "G2"])
    def test_simple_index_outside_the_rank_is_refused(self, label):
        rs = root_system(label)
        g = build_flag_moment_graph(rs)
        v = rs.longest_element()
        t1 = Polynomial.variable(g.n, 1)
        for i in (0, -1, rs.rank + 1):
            with pytest.raises(ValueError, match="simple index"):
                act_on_schubert_basis(i, v, g)
            with pytest.raises(ValueError, match="simple index"):
                divided_difference_expansion(i, {v: t1}, g)
            with pytest.raises(ValueError, match="simple index"):
                right_divided_difference(i, EquivariantClass(g, {v: t1}))
            with pytest.raises(ValueError, match="simple index"):
                rs.divided_difference(t1, i)

    def test_external_graph_is_refused(self):
        g = toric_hexagon_graph()
        e = g.vertex_by_str("e")
        for call in (
            lambda: act_word(e, {e: 1}, g),
            lambda: symmetrize({e: 1}, g),
            lambda: divided_difference_expansion(1, {e: 1}, g),
            lambda: divided_difference_closure(g),
            lambda: left_divided_difference(1, EquivariantClass(g, {})),
            lambda: decompose(g),
        ):
            with pytest.raises(ValueError, match="root-system graph"):
                call()

    def test_element_of_another_group_is_refused(self):
        a3 = build_flag_moment_graph(type_a(3))
        b2 = build_flag_moment_graph(root_system("B2"))
        g2 = build_flag_moment_graph(root_system("G2"))
        b2_w0 = root_system("B2").longest_element()
        g2_w0 = root_system("G2").longest_element()
        for u, g, line in (
            (
                type_a(4).longest_element(),
                a3,
                "4321 is not an element of the Weyl group of A:3",
            ),
            (
                b2_w0,
                g2,
                f"the B2 element {b2_w0} is not an element of the Weyl group of G2",
            ),
            (
                g2_w0,
                b2,
                f"the G2 element {g2_w0} is not an element of the Weyl group of B2",
            ),
        ):
            rs, e = g.rs, g.rs.identity()
            for call in (
                lambda: act_word(u, {e: 1}, g),
                lambda: apply_group_element(u, point_class_top(g)),
                lambda: rs.length(u),
                lambda: rs.lower_interval(u),
                lambda: rs.bruhat_leq(u, e),
                lambda: rs.bruhat_leq(e, u),
                lambda: build_schubert_moment_graph(rs, u),
            ):
                with pytest.raises(ValueError, match=re.escape(line)):
                    call()


@pytest.mark.parametrize("label", ["A:3", "B2", "G2"])
def test_descent_route_never_calls_billey(label, monkeypatch):
    # the descent route is an independent check on Billey's classes
    calls = []
    billey, cls = gkm.knutson_tao_class_billey, KnutsonTaoBasis.cls
    monkeypatch.setattr(
        gkm, "knutson_tao_class_billey", lambda *a: calls.append("billey") or billey(*a)
    )
    monkeypatch.setattr(
        KnutsonTaoBasis, "cls", lambda self, v: calls.append("cls") or cls(self, v)
    )
    rs = root_system(label)
    g = build_flag_moment_graph(rs)
    for v in rs.elements():
        knutson_tao_class_descent(g, v)
    assert calls == []
    KnutsonTaoBasis(g).cls(rs.identity())  # the counters do see those calls
    assert calls == ["cls", "billey"]


@pytest.mark.parametrize("label", ["A:3", "B2", "G2"])
def test_the_action_writes_no_input(label):
    """The action, the basis expansion and reconstruction, class sums and
    the divided difference add in place, into term maps they own: no
    coefficient of an input expansion, no localization of an input or
    basis class, no -alpha_i of the root system and no edge label changes,
    and a second identical call gives an equal result.  The identity has
    no out-edge, so the expansion's quotient there is its whole residue."""
    rs = root_system(label)
    g = build_flag_moment_graph(rs)
    basis = KnutsonTaoBasis(g)
    t1 = Polynomial.variable(g.n, 1)
    elements = rs.elements()
    expansion = {
        rs.longest_element(): Polynomial.constant(g.n, Fraction(1, 2)),
        elements[len(elements) // 2]: t1 - 3,
        rs.simple_reflection(1): 2 * t1,
        rs.identity(): Polynomial.one(g.n),
    }
    c = basis.reconstruct(expansion)
    other = basis.cls(rs.simple_reflection(1))
    classes = [c, *(basis.cls(v) for v in g.vertices)]
    shared = [*expansion.values(), *(a for _, a in rs.simple_twists)]
    shared += [e.label for e in g.edges]
    shared += [p for cls in classes for p in cls._loc.values()]
    before = [dict(p._terms) for p in shared]
    inputs = [dict(expansion), *(dict(cls._loc) for cls in classes)]
    assert expand_in_basis(c, basis) == expansion
    for call in (
        lambda: symmetrize(expansion, g),
        lambda: act_word(rs.longest_element(), expansion, g),
        lambda: act_word(rs.simple_reflection(1), expansion, g),
        lambda: decompose(g).to_json(),
        lambda: basis.reconstruct(expansion),
        lambda: expand_in_basis(c, basis),
        lambda: c + other,
        lambda: other - c,
        lambda: divided_difference_expansion(1, expansion, g),
    ):
        first = call()
        assert [p._terms for p in shared] == before
        assert [dict(expansion), *(dict(cls._loc) for cls in classes)] == inputs
        assert call() == first


@pytest.mark.parametrize("i", [0, 3])
def test_act_simple_on_expansion_refuses_an_index_outside_the_rank(flag3, i):
    """i = 0 would otherwise read the last row of the tables: s_rank."""
    with pytest.raises(ValueError, match=f"simple index {i} outside 1..2"):
        act_word(flag3.rs.simple_reflection(i), {flag3.rs.longest_element(): 1}, flag3)
