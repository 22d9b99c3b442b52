"""The int element tables of RootSystem against the group operations.

Every root system numbers its elements in (length, name) order and keeps
flat tables of lengths, left and right products by simple reflections and
inverses.  These tests compare the tables with ``mul``, ``inv`` and
``length`` on the element objects, check the lower intervals against
products of subwords by ``mul`` and the reduced factorizations against
lengths of products, and guard that the production Billey route
and the solver do their group and axiom bookkeeping once, not per call.
The first right descents, which Billey's walk reads, must match a scan of
``rmul``.  The per-type simple twists (coadjoint substitution of s_i,
compiled once, and -alpha_i) must match the reflections, and the
action's steps must only read them.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gkmcalc import moment_graph
from gkmcalc.coxeter import Permutation
from gkmcalc.gkm import KnutsonTaoBasis, SolveError, knutson_tao_class_solve
from gkmcalc.moment_graph import (
    build_flag_moment_graph,
    graph_to_json,
    load_external_graph,
)
from gkmcalc.polyring import Polynomial, Substitution
from gkmcalc.repaction import act_word, decompose
from gkmcalc.root_system import (
    RankTwoRootSystem,
    RootSystem,
    TypeARootSystem,
    root_system,
)

LABELS = ["A:1", "A:2", "A:3", "A:4", "A:5", "A:6", "B2", "G2"]


@pytest.mark.parametrize("label", LABELS)
def test_tables_match_the_group(label):
    rs = root_system(label)
    els = rs.elements()
    assert rs.index == {w: k for k, w in enumerate(els)}
    assert els[0] == rs.identity() and els[-1] == rs.longest_element()
    assert [rs.length(w) for w in els] == list(rs.lengths)
    assert list(rs.lengths) == sorted(rs.lengths)
    assert all(len(rs.inversions(w)) == rs.lengths[k] for k, w in enumerate(els))
    assert [rs.index[rs.inv(w)] for w in els] == list(rs.inverse)
    assert len(rs.lmul) == len(rs.rmul) == rs.rank
    for i in range(1, rs.rank + 1):
        s = rs.simple_reflection(i)
        assert [rs.index[rs.mul(s, w)] for w in els] == list(rs.lmul[i - 1])
        assert [rs.index[rs.mul(w, s)] for w in els] == list(rs.rmul[i - 1])


@pytest.mark.parametrize("label", ["A:2", "A:3", "A:4", "A:5", "B2", "G2"])
def test_first_right_descents_match_a_scan_of_rmul(label):
    rs = root_system(label)
    assert rs.rdescent[0] is None  # the identity has no descent
    for k in range(1, len(rs.elements())):
        lk = rs.lengths[k]
        shorter = [i for i, row in enumerate(rs.rmul) if rs.lengths[row[k]] < lk]
        assert rs.rdescent[k] == shorter[0]
    assert len(rs.rdescent) == len(rs.elements())


@pytest.mark.parametrize("label", [f"A:{n}" for n in range(1, 9)] + ["B2", "G2"])
def test_simple_twists_match_the_reflections(label):
    rs = root_system(label)
    assert len(rs.simple_twists) == rs.rank
    rng = random.Random(label)
    samples = [
        Polynomial(
            rs.dim,
            {tuple(rng.randint(0, 3) for _ in range(rs.dim)): c for c in (1, -2, c0)},
        )
        for c0 in (5, Fraction(1, 3))
    ]
    for i, (sub, minus_alpha) in enumerate(rs.simple_twists, start=1):
        want = rs.coadjoint_substitution(rs.simple_reflection(i))
        assert isinstance(sub, Substitution) and sub.n == rs.dim
        for p in samples:
            assert p.substitute(sub) == p.substitute(want)
        assert minus_alpha == -rs.simple_root_form(i)


def _subword_interval(rs, w) -> set:
    """[e, w] as the products of the subwords of a reduced word, by mul."""
    out = {rs.identity()}
    for i in rs.reduced_word(w):
        s = rs.simple_reflection(i)
        out |= {rs.mul(u, s) for u in out}
    return out


@pytest.mark.parametrize("label", ["A:2", "A:3", "A:4", "B2", "G2"])
def test_lower_interval_is_the_subword_products(label):
    rs = root_system(label)
    for w in rs.elements():
        assert rs.lower_interval(w) == _subword_interval(rs, w)


@pytest.mark.parametrize("label", ["A:2", "A:3", "A:4", "B2", "G2"])
def test_factorizations_are_the_reduced_pairs(label):
    """The walk maps exactly the x with l(x) + l(x^{-1} v) = l(v) to x^{-1} v."""
    rs = root_system(label)
    for k, v in enumerate(rs.elements()):
        want = {}
        for x in rs.elements():
            y = rs.mul(rs.inv(x), v)
            if rs.length(x) + rs.length(y) == rs.length(v):
                want[rs.index[x]] = rs.index[y]
        assert rs.factorizations(k) == want, rs.element_str(v)


def test_billey_and_decompose_walk_each_vertex_once(monkeypatch):
    calls = []
    original = RootSystem.factorizations

    def counting(self, v):
        calls.append(v)
        return original(self, v)

    monkeypatch.setattr(RootSystem, "factorizations", counting)
    rs = root_system("A:4")
    g = build_flag_moment_graph(rs)
    ids = [rs.index[v] for v in g.vertices]
    assert decompose(g).ok
    assert sorted(calls) == ids
    calls.clear()
    basis = KnutsonTaoBasis(g)
    for v in g.vertices:
        basis.cls(v)
    assert sorted(calls) == ids


def _times_word(rs, k: int, word) -> int:
    """The id of element k times s_{i_1} ... s_{i_m}, through the right table."""
    for i in word:
        k = rs.rmul[i - 1][k]
    return k


A7 = root_system("A:7")


@settings(max_examples=60, deadline=None)
@given(
    u=st.permutations(range(1, 8)),
    w=st.permutations(range(1, 8)),
    i=st.integers(min_value=1, max_value=6),
)
def test_random_pairs_in_a7(u, w, i):
    rs = A7
    u, w = Permutation(tuple(u)), Permutation(tuple(w))
    ku = rs.index[u]
    assert rs.lengths[ku] == u.length() == len(rs.reduced_word(u))
    assert rs.elements()[rs.inverse[ku]] == u.inverse()
    s = rs.simple_reflection(i)
    assert rs.elements()[rs.lmul[i - 1][ku]] == s * u
    assert rs.elements()[rs.rmul[i - 1][ku]] == u * s
    assert rs.elements()[_times_word(rs, ku, rs.reduced_word(w))] == u * w
    assert _times_word(rs, 0, rs.reduced_word(u)) == ku
    assert rs.bruhat_leq(u, w) == (u in rs.lower_interval(w))


def test_billey_classes_need_no_group_products(monkeypatch):
    rs = root_system("A:5")
    g = build_flag_moment_graph(rs)
    calls = []
    original = Permutation.__mul__

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(Permutation, "__mul__", counting)
    basis = KnutsonTaoBasis(g)
    classes = [basis.cls(v) for v in g.vertices]
    assert len(classes) == 120 and basis.route == "billey"
    assert calls == []


def test_decompose_intervals_need_no_reduced_words(monkeypatch):
    g = build_flag_moment_graph(root_system("A:4"))
    calls = []
    original = RootSystem.reduced_word

    def counting(self, w):
        calls.append(w)
        return original(self, w)

    monkeypatch.setattr(RootSystem, "reduced_word", counting)
    report = decompose(g)
    assert report.ok and len(report.rows) == 24
    assert calls == []


def test_simple_steps_need_no_coadjoint_substitutions(monkeypatch):
    rs = root_system("A:4")
    g = build_flag_moment_graph(rs)
    calls = []
    for cls in (TypeARootSystem, RankTwoRootSystem):
        original = cls.__dict__["coadjoint_substitution"]

        def counting(self, w, original=original):
            calls.append(w)
            return original(self, w)

        monkeypatch.setattr(cls, "coadjoint_substitution", counting)
    report = decompose(g)
    acted = act_word(rs.longest_element(), {v: 1 for v in g.vertices}, g)
    assert report.ok and len(report.rows) == 24 and acted
    assert calls == []


def _proportional_graph():
    return load_external_graph(
        {
            "vertices": ["a", "b", "c"],
            "edges": [
                {"tail": "c", "head": "a", "label": "t1 - t2"},
                {"tail": "c", "head": "b", "label": "2*t1 - 2*t2"},
                {"tail": "b", "head": "a", "label": "t1"},
            ],
            "metadata": {"n": 2},
        }
    )


def test_axiom_failure_refuses_every_class():
    g = _proportional_graph()
    for v in ("a", "b"):
        with pytest.raises(SolveError, match="axioms violated"):
            knutson_tao_class_solve(g, v)
    assert g.axioms() is g.axioms()
    assert g.axioms().independence_violations == [("c", "t1 - t2", "2*t1 - 2*t2")]


def test_solver_validates_a_graph_once(monkeypatch):
    g = load_external_graph(
        json.dumps(graph_to_json(build_flag_moment_graph(root_system("A:3"))))
    )
    calls = []
    original = moment_graph.validate_axioms

    def counting(graph):
        calls.append(graph)
        return original(graph)

    monkeypatch.setattr(moment_graph, "validate_axioms", counting)
    basis = KnutsonTaoBasis(g)
    assert basis.route == "solve"
    for name in ("123", "213", "321"):
        assert basis.cls(name).base == name
    assert calls == [g]
