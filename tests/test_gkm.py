"""Equivariant classes: GKM checking, Knutson-Tao construction by both
routes, restriction, and basis expansion."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gkmcalc.coxeter import all_permutations
from gkmcalc.gkm import (
    EquivariantClass,
    GkmReport,
    KnutsonTaoBasis,
    KtReport,
    SolveError,
    SpanError,
    apply_group_element,
    check_gkm,
    class_from_json,
    class_to_json,
    expand_in_basis,
    expansions_equal,
    flag_basis,
    knutson_tao_class_billey,
    knutson_tao_class_descent,
    knutson_tao_class_solve,
    kt_report,
    point_class_top,
    restrict,
)
from gkmcalc.moment_graph import (
    AxiomReport,
    PalaisSmaleResult,
    build_flag_moment_graph,
    build_schubert_moment_graph,
    load_external_graph,
    schubert_graph,
    toric_hexagon_graph,
    toric_hexagon_json,
)
from gkmcalc.polyring import (
    ExactDivisionError,
    Polynomial,
    exact_divide,
    parse_polynomial,
)
from gkmcalc.repaction import DecompositionReport
from gkmcalc.root_system import root_system, type_a
from gkmcalc.verify import CheckResult


def fixed_class(g, table, base=None):
    loc = {
        g.vertex_by_str(name): parse_polynomial(text, g.n)
        for name, text in table.items()
    }
    b = g.vertex_by_str(base) if base else None
    return EquivariantClass(g, loc, base=b)


def localization_table(c):
    g = c.graph
    from gkmcalc.polyring import to_string

    return {g.vertex_str(v): to_string(p, g.var_prefix) for v, p in c.items()}


# The three displayed classes on the rank-two flag graph (vertices keyed by
# one-line notation; the cycle names are 213=(12), 132=(23), 231=(123),
# 312=(132), 321=(13)).
CLASS_12 = {
    "123": "0",
    "213": "t1 - t2",
    "132": "0",
    "231": "t1 - t2",
    "312": "t1 - t3",
    "321": "t1 - t3",
}
CLASS_E = {
    "123": "1",
    "213": "1",
    "132": "1",
    "231": "1",
    "312": "1",
    "321": "1",
}
CLASS_23 = {
    "123": "0",
    "213": "0",
    "132": "t2 - t3",
    "231": "t1 - t3",
    "312": "t2 - t3",
    "321": "t1 - t3",
}


@pytest.fixture(scope="module")
def flag3():
    return build_flag_moment_graph(type_a(3))


@pytest.fixture(scope="module")
def basis3(flag3):
    return KnutsonTaoBasis(flag3)


class TestCheckGkm:
    def test_all_ones_class(self, flag3):
        ones = fixed_class(flag3, CLASS_E)
        assert check_gkm(ones).ok
        hexagon = toric_hexagon_graph()
        ones_hex = EquivariantClass(
            hexagon, {v: Polynomial.one(3) for v in hexagon.vertices}
        )
        assert check_gkm(ones_hex).ok

    def test_displayed_class(self, flag3):
        assert check_gkm(fixed_class(flag3, CLASS_12)).ok

    def test_constructed_violation(self, flag3):
        bad = fixed_class(flag3, {"213": "t1 - t2", "123": "t3"})
        rep = check_gkm(bad)
        assert not rep.ok
        assert ("213", "123", "t1 - t2") in rep.violations

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), label=st.sampled_from(["A:3", "B2", "G2"]))
    def test_corrupted_classes_match_the_per_edge_check(self, data, label):
        """check_gkm skips edges whose ends hold one object; on a Knutson-Tao
        class with one localization perturbed, or a term moved across an
        edge, it still reports exactly the edges that fail divisibility, in
        edge order."""
        g = build_flag_moment_graph(root_system(label))
        pick = st.sampled_from
        c = KnutsonTaoBasis(g).cls(data.draw(pick(g.vertices)))
        loc = dict(c._loc)
        t = Polynomial.variable(g.n, data.draw(st.integers(1, g.n)))
        if data.draw(st.booleans()):
            x = data.draw(pick(g.vertices))
            loc[x] = c[x] + data.draw(st.integers(-2, 2)) * t * t
        else:
            e = data.draw(pick(g.edges))
            moved = data.draw(st.integers(1, 3)) * t
            loc[e.tail] = c[e.tail] - moved
            loc[e.head] = c[e.head] + moved
        bad = EquivariantClass(g, loc, base=c.base)
        want = []
        for e in g.edges:
            try:
                exact_divide(bad[e.tail] - bad[e.head], e.label)
            except ExactDivisionError:
                want.append(
                    (g.vertex_str(e.tail), g.vertex_str(e.head), g.label_str(e.label))
                )
        rep = check_gkm(bad)
        assert rep.violations == want
        assert rep.ok == (not want)


class TestKtReport:
    """Each failure kt_report names, on the A:3 flag class of 213 altered."""

    @pytest.fixture
    def c213(self, basis3):
        return basis3.cls(basis3.graph.vertex_by_str("213"))

    def _altered(self, c, name, text):
        g = c.graph
        v = g.vertex_by_str(name)
        loc = dict(c._loc)
        loc[v] = c[v] + parse_polynomial(text, g.n)
        return EquivariantClass(g, loc, base=c.base)

    def test_no_base(self, c213):
        rep = kt_report(EquivariantClass(c213.graph, c213._loc))
        assert rep.failures == ["class has no base vertex"]
        assert not rep.ok

    def test_doubled_base_value(self, c213):
        doubled = {v: p + p for v, p in c213._loc.items()}
        rep = kt_report(EquivariantClass(c213.graph, doubled, base=c213.base))
        assert rep.failures == ["localization at the base is not the out-label product"]

    def test_inhomogeneous_value(self, c213):
        rep = kt_report(self._altered(c213, "321", "1"))
        assert rep.failures == [
            "localization at 321 is not homogeneous of degree 1",
            "GKM condition fails on 3 edge(s)",
        ]

    def test_value_off_the_upper_set(self, c213):
        rep = kt_report(self._altered(c213, "132", "t1 - t2"))
        assert rep.failures == [
            "nonzero localization at 132 with no path to the base",
            "GKM condition fails on 2 edge(s)",
        ]


class TestPointClassTop:
    def test_full_flag_top(self, flag3):
        c = point_class_top(flag3)
        expect = parse_polynomial("t1 - t2", 3) * parse_polynomial(
            "t1 - t3", 3
        ) * parse_polynomial("t2 - t3", 3)
        assert c[flag3.vertex_by_str("321")] == expect
        assert all(c[v].is_zero() for v in flag3.vertices if flag3.vertex_str(v) != "321")

    def test_single_point(self):
        rs = type_a(3)
        g = build_schubert_moment_graph(rs, rs.identity())
        c = point_class_top(g)
        assert c[g.top_vertex()] == Polynomial.one(3)

    def test_simple_reflection_variety(self):
        rs = type_a(3)
        g = build_schubert_moment_graph(rs, rs.parse_element("213"))
        c = point_class_top(g)
        assert localization_table(c) == {"123": "0", "213": "t1 - t2"}


class TestDescentRoute:
    def test_displayed_classes(self, flag3):
        for name, table in (("213", CLASS_12), ("132", CLASS_23), ("123", CLASS_E)):
            got = knutson_tao_class_descent(flag3, flag3.vertex_by_str(name))
            assert localization_table(got) == table

    def test_kt_conditions_hold(self, flag3):
        b = KnutsonTaoBasis(flag3)
        for v in flag3.vertices:
            got = knutson_tao_class_descent(flag3, v)
            assert kt_report(got).ok
            assert got == b.cls(v)

    def test_needs_flag_graph(self):
        rs = type_a(3)
        xg = build_schubert_moment_graph(rs, rs.parse_element("231"))
        with pytest.raises(ValueError):
            knutson_tao_class_descent(xg, xg.top_vertex())


class TestSolveRoute:
    @pytest.mark.parametrize("label", ["A:2", "A:3", "B2"])
    def test_agrees_with_descent(self, label):
        rs = root_system(label)
        g = build_flag_moment_graph(rs)
        b = flag_basis(rs)
        for v in rs.elements():
            assert knutson_tao_class_solve(g, v) == b.cls(v)

    def test_top_class_needs_no_solving(self, flag3):
        v = flag3.vertex_by_str("321")
        assert knutson_tao_class_solve(flag3, v) == point_class_top(flag3)

    def test_b2_simple_reflection_base_value(self):
        rs = root_system("B2")
        g = build_flag_moment_graph(rs)
        for i in (1, 2):
            s = rs.simple_reflection(i)
            c = knutson_tao_class_solve(g, s)
            assert c[s] == rs.simple_root_form(i)
            assert kt_report(c).ok

    def test_external_solver_failure_reported(self):
        # the top vertex must vanish mod t1 and mod t1+t2 (so it is zero in
        # degree one) yet equal t1 mod t2: no class exists
        g = load_external_graph(
            {
                "vertices": ["top", "l", "r", "m", "bot"],
                "edges": [
                    {"tail": "top", "head": "l", "label": "t2"},
                    {"tail": "top", "head": "r", "label": "t1"},
                    {"tail": "top", "head": "m", "label": "t1 + t2"},
                    {"tail": "l", "head": "bot", "label": "t1"},
                ],
                "metadata": {"n": 2},
            }
        )
        with pytest.raises(SolveError):
            knutson_tao_class_solve(g, g.vertex_by_str("l"))

    def test_hexagon_degree_one_class_not_unique(self):
        # out-degrees do not descend, so uniqueness fails at some vertex
        g = toric_hexagon_graph()
        with pytest.raises(SolveError):
            knutson_tao_class_solve(g, g.vertex_by_str("(12)"))


class TestRestrict:
    def test_displayed_restriction(self, flag3, basis3):
        rs = flag3.rs
        xg = build_schubert_moment_graph(rs, rs.parse_element("231"))
        got = restrict(basis3.cls(flag3.vertex_by_str("213")), xg)
        assert localization_table(got) == {
            "123": "0",
            "213": "t1 - t2",
            "132": "0",
            "231": "t1 - t2",
        }

    def test_identity_class_restricts_to_ones(self, flag3, basis3):
        rs = flag3.rs
        for w in all_permutations(3):
            xg = build_schubert_moment_graph(rs, w)
            got = restrict(basis3.cls(flag3.vertex_by_str("123")), xg)
            assert all(p == Polynomial.one(3) for _, p in got.items())

    def test_restriction_preserves_kt(self, flag3, basis3):
        rs = flag3.rs
        for w in all_permutations(3):
            xg = build_schubert_moment_graph(rs, w)
            for v in xg.vertices:
                assert kt_report(restrict(basis3.cls(v), xg)).ok

    def test_vertex_mismatch(self, flag3, basis3):
        rs4 = type_a(4)
        other = build_flag_moment_graph(rs4)
        with pytest.raises(ValueError):
            restrict(basis3.cls(flag3.vertex_by_str("123")), other)


class TestExpand:
    def test_acted_class_from_action_figure(self, flag3, basis3):
        acted = fixed_class(
            flag3,
            {
                "123": "-t1 + t2",
                "213": "0",
                "132": "-t1 + t2",
                "231": "0",
                "312": "t2 - t3",
                "321": "t2 - t3",
            },
        )
        exp = expand_in_basis(acted, basis3)
        want = {
            flag3.vertex_by_str("213"): Polynomial.one(3),
            flag3.vertex_by_str("123"): parse_polynomial("-t1 + t2", 3),
        }
        assert expansions_equal(exp, want)

    def test_basis_class_expands_to_delta(self, flag3, basis3):
        for v in flag3.vertices:
            assert expansions_equal(
                expand_in_basis(basis3.cls(v), basis3), {v: Polynomial.one(3)}
            )

    def test_zero_class(self, flag3, basis3):
        zero = EquivariantClass(flag3, {})
        assert expand_in_basis(zero, basis3) == {}

    def test_empty_graph_degenerates_gracefully(self):
        g = load_external_graph({"vertices": [], "edges": []})
        empty = EquivariantClass(g, {})
        assert check_gkm(empty).ok
        assert expand_in_basis(empty, KnutsonTaoBasis(g)) == {}

    def test_one_element_group(self):
        rs = type_a(1)
        g = build_flag_moment_graph(rs)
        b = KnutsonTaoBasis(g)
        cls = b.cls(rs.identity())
        assert cls[rs.identity()] == Polynomial.one(1)
        assert kt_report(cls).ok

    def test_non_gkm_input_rejected(self, flag3, basis3):
        bad = fixed_class(flag3, {"213": "t3"})
        with pytest.raises(SpanError):
            expand_in_basis(bad, basis3)

    def test_reconstruct_roundtrip(self, flag3, basis3):
        exp = {
            flag3.vertex_by_str("213"): parse_polynomial("t1", 3),
            flag3.vertex_by_str("132"): parse_polynomial("2*t3 - t2", 3),
            flag3.vertex_by_str("123"): parse_polynomial("t1*t2", 3),
        }
        cls = basis3.reconstruct(exp)
        assert check_gkm(cls).ok
        assert expansions_equal(expand_in_basis(cls, basis3), exp)

    @pytest.mark.parametrize("label, w", [("A:3", "321"), ("G2", "2121")])
    def test_reconstruct_takes_scalar_coefficients(self, label, w):
        # an int or Fraction coefficient is a constant: {v: 1} is v's class
        g = schubert_graph(label, w)
        b = KnutsonTaoBasis(g)
        for v in g.vertices:
            assert b.reconstruct({v: 1}) == b.cls(v)
            half = Fraction(1, 2)
            assert b.reconstruct({v: half}) == b.cls(v).scale(half)


class TestLocalizationLemmas:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_support_and_degree(self, n):
        rs = type_a(n)
        b = flag_basis(rs)
        for v in rs.elements():
            cls = b.cls(v)
            lv = rs.length(v)
            for u in rs.elements():
                p = cls[u]
                if not rs.bruhat_leq(v, u):
                    assert p.is_zero()
                elif p:
                    assert p.is_homogeneous(lv)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_covering_vertex_localization(self, n):
        # one Bruhat step above v, the localization is the inversion product
        # of the higher vertex with the edge label removed
        rs = type_a(n)
        g = build_flag_moment_graph(rs)
        b = flag_basis(rs)
        for e in g.edges:
            u, v = e.tail, e.head
            if rs.length(u) != rs.length(v) + 1:
                continue
            prod = Polynomial.one(n)
            for out in g.out_edges(u):
                if out.label != e.label:
                    prod = prod * out.label
            assert b.cls(v)[u] == prod

    @pytest.mark.parametrize("label", ["A:2", "A:3", "A:4", "B2", "G2"])
    def test_neighbor_localization_identities(self, label):
        rs = root_system(label)
        b = flag_basis(rs)
        for v in rs.elements():
            for i in range(1, rs.rank + 1):
                s = rs.simple_reflection(i)
                sv = rs.mul(s, v)
                if rs.length(sv) <= rs.length(v):
                    continue
                sub = rs.coadjoint_substitution(s)
                pvv = b.cls(v)[v]
                assert b.cls(v)[sv].substitute(sub) == pvv
                assert (
                    exact_divide(
                        b.cls(sv)[sv].substitute(sub), -rs.simple_root_form(i)
                    )
                    == pvv
                )


class TestClassJson:
    def test_roundtrip_via_graph_ref(self, flag3, basis3):
        c = basis3.cls(flag3.vertex_by_str("213"))
        obj = class_to_json(c)
        assert obj["graph_ref"] == {"type": "A:3", "w": "321"}
        again = class_from_json(obj)
        assert again == c
        assert again.base is not None

    def test_external_class_roundtrip(self):
        g = toric_hexagon_graph()
        ones = EquivariantClass(g, {v: Polynomial.one(3) for v in g.vertices})
        again = class_from_json(class_to_json(ones))
        assert localization_table(again) == localization_table(ones)

    def test_external_payloads_do_not_share_the_graph(self):
        from gkmcalc.gkm import expansion_to_json

        g = toric_hexagon_graph()
        ones = EquivariantClass(g, {v: Polynomial.one(3) for v in g.vertices})
        exp = {g.vertices[0]: 1}
        for payload in (lambda: class_to_json(ones), lambda: expansion_to_json(exp, g)):
            first = payload()
            want = json.loads(json.dumps(first))
            ref = first["graph_ref"]["graph"]
            ref["vertices"].pop()
            ref["edges"][0]["label"] = "t9"
            ref["metadata"]["name"] = "changed"
            assert payload() == want

    @pytest.mark.parametrize("label", ["A:3", "B2", "G2", "external"])
    def test_text_forms_match_to_string(self, label):
        """class_to_json, expansion_to_json, repr and the CLI table format a
        whole class in one batch; each text equals to_string of its own."""
        from fractions import Fraction

        from gkmcalc.cli import _class_table
        from gkmcalc.gkm import expansion_to_json
        from gkmcalc.polyring import to_string

        if label == "external":
            hexagon = json.loads(json.dumps(toric_hexagon_json()))
            hexagon["metadata"]["var_prefix"] = "x"
            g = load_external_graph(hexagon)
            t = [Polynomial.variable(3, i) for i in (1, 2, 3)]
            polys = [t[0] - t[1], Fraction(-3, 2) * t[2] * t[2], Polynomial.one(3)]
            classes = [EquivariantClass(g, dict(zip(g.vertices[::2], polys)))]
        else:
            g = build_flag_moment_graph(root_system(label))
            basis = KnutsonTaoBasis(g)
            classes = [basis.cls(v).scale(Fraction(-1, 3)) for v in g.vertices]
            classes += [basis.cls(v) for v in g.vertices]
        prefix = g.var_prefix
        assert prefix == {"A:3": "t", "B2": "a", "G2": "a", "external": "x"}[label]
        for c in classes:
            texts = {g.vertex_str(v): to_string(p, prefix) for v, p in c.items()}
            assert class_to_json(c)["localizations"] == texts
            assert repr(c) == "EquivariantClass(" + ", ".join(
                f"{name}: {text}" for name, text in texts.items()
            ) + ")"
            width = max(map(len, texts))
            assert _class_table(c) == "".join(
                f"{name:>{width}}  {text}\n" for name, text in texts.items()
            )
        exp = {v: p for v, p in classes[0].items()}
        exp[g.vertices[0]] = Fraction(5, 7)
        exp[g.vertices[-1]] = -2
        want = {}
        for v, p in exp.items():
            if not isinstance(p, Polynomial):
                p = Polynomial.constant(g.n, p)
            if p:
                want[g.vertex_str(v)] = to_string(p, prefix)
        assert expansion_to_json(exp, g)["coefficients"] == want

    def test_expansion_roundtrip(self, flag3, basis3):
        from gkmcalc.gkm import expansion_from_json, expansion_to_json

        exp = {
            flag3.vertex_by_str("213"): Polynomial.one(3),
            flag3.vertex_by_str("123"): parse_polynomial("-t1 + t2", 3),
        }
        obj = expansion_to_json(exp, flag3)
        assert expansions_equal(expansion_from_json(obj), exp)

    def test_scalar_coefficients_are_constants(self, flag3, basis3):
        """expansion_to_json, act_word and reconstruct read an int or
        Fraction coefficient as its constant polynomial; so does the test of
        equal expansions."""
        from gkmcalc.gkm import expansion_to_json
        from gkmcalc.repaction import act_word

        v, u = flag3.vertex_by_str("213"), flag3.vertex_by_str("123")
        t1 = parse_polynomial("t1", 3)
        s1 = flag3.rs.simple_reflection(1)
        for c in (1, -2, Fraction(1, 2)):
            const = Polynomial.constant(3, c)
            for a, b in [({v: c}, {v: const}), ({v: const, u: t1}, {v: c, u: t1})]:
                assert expansions_equal(a, b) and expansions_equal(b, a)
                assert expansion_to_json(a, flag3) == expansion_to_json(b, flag3)
                assert act_word(s1, a, flag3) == act_word(s1, b, flag3)
                assert basis3.reconstruct(a) == basis3.reconstruct(b)
            assert not expansions_equal({v: c}, {v: const + t1})
            assert not expansions_equal({v: c + 1}, {v: const})
            assert not expansions_equal({v: c}, {u: const})
        assert expansions_equal({v: 2, u: 0}, {v: Fraction(2)})
        assert not expansions_equal({v: Polynomial.one(2)}, {v: Polynomial.one(3)})


# The result records of gkm, moment_graph, repaction and verify: constructor
# fields in positional order, how many are required, and the to_json keys
# (None where the record has no to_json).
REPORTS = [
    (GkmReport, ("violations",), 1, {"ok", "violations"}),
    (KtReport, ("failures",), 1, {"ok", "failures"}),
    (
        AxiomReport,
        ("cycle",),
        1,
        {
            "ok", "acyclic", "cycle", "independence_violations", "degree_violations",
            "label_set_violations", "checked_schubert",
        },
    ),
    (
        PalaisSmaleResult,
        ("mode", "violations", "covector", "orientation", "chambers_tried"),
        1,
        {
            "holds", "mode", "violations", "covector", "orientation",
            "chambers_tried", "detail",
        },
    ),
    (
        DecompositionReport,
        ("type_label", "w_label"),
        2,
        {
            "type", "w", "ok", "rows", "multiplicities", "poincare",
            "generator_invariance", "mod_t_identity", "unitriangular",
        },
    ),
    (CheckResult, ("suite", "name", "ok", "detail"), 3, None),
]


@pytest.mark.parametrize(
    "cls,fields,required,keys", REPORTS, ids=[r[0].__name__ for r in REPORTS]
)
def test_report_records(cls, fields, required, keys):
    values = [object() for _ in fields]
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    for name, value in zip(fields, values):
        assert getattr(by_position, name) is value
        assert getattr(by_keyword, name) is value

    # an empty list serves every required value, the summarised lists too
    args = tuple([] for _ in range(required))
    a, b = cls(*args), cls(*args)
    for name, default in vars(a).items():
        if name not in fields[:required] and isinstance(default, (list, dict)):
            assert not default and default is not getattr(b, name)
    if keys is not None:
        assert set(a.to_json()) == keys


def decomposition_row(v, degree, invariant=True, unitriangular=True):
    return {
        "v": v, "degree": degree, "invariant": invariant,
        "unitriangular": unitriangular, "support": [v],
    }


def test_reports_derive_their_verdicts():
    for cls in (GkmReport, KtReport):
        assert cls([]).ok and cls([]).to_json()["ok"] is True
        assert not cls(["x"]).ok and cls(["x"]).to_json()["ok"] is False

    rep = DecompositionReport("A:2", "231")
    assert rep.ok and rep.unitriangular and rep.poincare == [0]
    rep.rows.append(decomposition_row("123", 0))
    rep.rows.append(decomposition_row("213", 1, invariant=False))
    rep.rows.append(decomposition_row("132", 1))
    assert not rep.ok and rep.unitriangular
    rep.rows[1]["invariant"] = True
    assert rep.ok
    rep.rows.append(decomposition_row("231", 2, unitriangular=False))
    assert not rep.ok and not rep.unitriangular
    assert rep.multiplicities == {0: 1, 1: 2, 2: 1}
    assert rep.poincare == [1, 2, 1]
    out = rep.to_json()
    assert out["ok"] is False and out["unitriangular"] is False
    assert out["multiplicities"] == {"0": 1, "1": 2, "2": 1}
    assert "all checks pass: False" in rep.table()
    rep.rows.pop()
    rep.mod_t_identity = False
    assert not rep.ok and rep.unitriangular

    axioms = AxiomReport(None)
    assert axioms.acyclic and axioms.ok
    axioms.cycle = ["a", "b", "a"]
    assert not axioms.acyclic and not axioms.ok
    assert axioms.to_json()["acyclic"] is False

    # the four texts is_palais_smale reports, read off the stored fields
    flaw = [("a", "b", 1, 1)]
    for result, holds, detail in [
        (PalaisSmaleResult("given"), True, "stored orientation"),
        (PalaisSmaleResult("given", flaw), False, "out-degree descent fails"),
        (PalaisSmaleResult("search", covector=[], chambers_tried=1), True,
         "flow orientation found"),
        (PalaisSmaleResult("search", flaw, chambers_tried=3), False,
         "no flow-induced orientation works (3 chambers tried)"),
    ]:
        assert (result.holds, result.detail) == (holds, detail)
        assert result.to_json()["holds"] is holds
        assert result.to_json()["detail"] == detail

    derived = {
        GkmReport: ("ok",),
        KtReport: ("ok",),
        AxiomReport: ("ok", "acyclic"),
        PalaisSmaleResult: ("holds", "detail"),
        DecompositionReport: ("ok", "unitriangular", "multiplicities", "poincare"),
    }
    for cls, names in derived.items():
        for name in names:
            assert isinstance(getattr(cls, name), property)
            assert getattr(cls, name).fset is None


class TestRefusals:
    """Misuse of the class API is refused with a message naming the fault."""

    @staticmethod
    def refused(exc_type, make, message):
        with pytest.raises(exc_type) as exc:
            make()
        assert exc.value.args == (message,)

    def test_class_construction(self, flag3):
        v = flag3.vertex_by_str("213")
        one = Polynomial.one(3)
        self.refused(
            ValueError,
            lambda: EquivariantClass(flag3, {"x": one}),
            "localization at unknown vertex 'x'",
        )
        self.refused(
            ValueError,
            lambda: EquivariantClass(flag3, {v: Polynomial.one(2)}),
            "polynomial dimension 2 != graph dimension 3",
        )
        self.refused(
            ValueError,
            lambda: EquivariantClass(flag3, {v: 1}),
            "localization at 213 is 1, not a polynomial",
        )
        self.refused(
            ValueError,
            lambda: EquivariantClass(flag3, {v: one}, base="x"),
            "base vertex 'x' not in graph",
        )
        c = EquivariantClass(flag3, {v: one})
        self.refused(KeyError, lambda: c["x"], "vertex 'x' not in graph")
        other = schubert_graph("A:3", "231")
        self.refused(
            ValueError,
            lambda: c + EquivariantClass(other, {}),
            "classes live on different vertex sets",
        )
        self.refused(
            ValueError,
            lambda: expand_in_basis(c, KnutsonTaoBasis(other)),
            "basis and class live on different vertex sets",
        )

    def test_routes_refuse_unknown_vertices(self, flag3):
        for route in (knutson_tao_class_descent, knutson_tao_class_solve):
            self.refused(ValueError, lambda: route(flag3, "x"), "unknown vertex 'x'")
        # Billey's walk, on a vertex outside X_231 and on a non-element
        xg = schubert_graph("A:3", "231")
        w0 = type_a(3).longest_element()
        self.refused(
            ValueError,
            lambda: knutson_tao_class_billey(xg, w0),
            "unknown vertex Permutation(one_line=(3, 2, 1))",
        )
        self.refused(
            ValueError, lambda: knutson_tao_class_billey(xg, "x"), "unknown vertex 'x'"
        )
        self.refused(
            ValueError,
            lambda: apply_group_element(
                type_a(3).simple_reflection(1),
                EquivariantClass(toric_hexagon_graph(), {}),
            ),
            "group action needs a root-system graph",
        )

    def test_equal_classes_hash_equal(self, flag3):
        v = flag3.vertex_by_str("213")
        billey = knutson_tao_class_billey(flag3, v)
        solved = knutson_tao_class_solve(flag3, v)
        assert billey is not solved and billey == solved
        assert hash(billey) == hash(solved)
