"""The root rows of a root system, and the graphs built from them.

Each ``RootSystem`` keeps one row per positive root beta: its label
``root_form(beta)``, that label's line and the ``lmul`` rows along a word
for the reflection t_beta.  The builder finds every edge w -> t_beta * w by
walking w's id through the rows.  These tests compare every flag and
Schubert graph of the small types with a pointwise reference kept here (one
inversion set, reflection and group product per vertex and edge), check
each row's word against ``reflection``, and guard that a graph build does
no root arithmetic and no group product once its root system exists.
"""

import importlib
from fractions import Fraction

import pytest

from gkmcalc import moment_graph
from gkmcalc.coxeter import Permutation
from gkmcalc.moment_graph import (
    Edge,
    GraphParseError,
    MomentGraph,
    build_flag_moment_graph,
    build_schubert_moment_graph,
)
from gkmcalc.polyring import Polynomial, _line
from gkmcalc.root_system import (
    RankTwoRootSystem,
    RootSystem,
    TypeARootSystem,
    root_system,
)

SMALL = ["A:1", "A:2", "A:3", "A:4", "A:5", "B2", "G2"]


def reference_graph(rs, w):
    """X_w built pointwise: one out-edge s_a * v per inversion a of v."""
    if rs.element_id(w) == len(rs.elements()) - 1:
        vertices, variety = rs.elements(), "flag"
    else:
        vertices, variety = rs.lower_interval(w), "schubert"
    by_root = {a: (rs.reflection(a), rs.root_form(a)) for a in rs.positive_roots}
    edges = [
        Edge(v, rs.mul(s, v), label)
        for v in vertices
        for s, label in map(by_root.__getitem__, rs.inversions(v))
    ]
    meta = {"variety": variety, "n": rs.dim, "var_prefix": rs.var_prefix}
    return MomentGraph(vertices, edges, meta, rs=rs)


def triples(g):
    return [
        (g.vertex_str(e.tail), g.vertex_str(e.head), g.label_str(e.label))
        for e in g.edges
    ]


@pytest.mark.parametrize("label", SMALL + ["A:6"])
def test_graphs_match_the_pointwise_reference(label):
    rs = root_system(label)
    els = rs.elements()
    tops = els[-1:] if label == "A:6" else els  # A:6: the flag graph only
    for w in tops:
        g, want = build_schubert_moment_graph(rs, w), reference_graph(rs, w)
        assert g.vertices == want.vertices
        assert triples(g) == triples(want)
        for e, r in zip(g.edges, want.edges):
            assert e.label == r.label
            assert g.label_line(e.label) == _line(r.label)
            assert e.tail is els[rs.index[e.tail]]
            assert e.head is els[rs.index[e.head]]
    flag = build_flag_moment_graph(rs)
    assert triples(flag) == triples(reference_graph(rs, els[-1]))


@pytest.mark.parametrize("label", [f"A:{n}" for n in range(1, 9)] + ["B2", "G2"])
def test_each_row_walks_the_identity_to_its_reflection(label):
    rs = root_system(label)
    assert len(rs.root_rows) == len(rs.positive_roots)
    for beta, (form, line, steps) in zip(rs.positive_roots, rs.root_rows):
        k = 0
        for row in steps:
            k = row[k]
        assert rs.elements()[k] == rs.reflection(beta)
        assert form == rs.root_form(beta) and line == _line(form)


def test_hand_built_graph_lines_a_label_that_is_no_root_label():
    rs = root_system("A:2")
    e, s = rs.elements()
    t1, t2 = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
    for label, want in [
        (t1 - t2, ((1, -1), 1)),  # a root label: the line of its row
        (t2 - t1, ((1, -1), -1)),
        (2 * t1 + t2, ((1, Fraction(1, 2)), 1)),
    ]:
        g = MomentGraph([e, s], [Edge(s, e, label)], {"n": 2}, rs=rs)
        assert g.label_line(label) == want
    # a label with no line makes no graph
    with pytest.raises(GraphParseError, match="'t1\\*t2' is not a nonzero linear form$"):
        MomentGraph([e, s], [Edge(s, e, t1 * t2)], {"n": 2}, rs=rs)


@pytest.fixture
def builder_calls(monkeypatch):
    """Names of the group products, root arithmetic and line helpers called
    while the test runs."""
    calls = []

    def count(owner, name):
        f = owner.__dict__[name]
        monkeypatch.setattr(
            owner, name, lambda *a, _f=f, _n=name: calls.append(_n) or _f(*a)
        )

    count(Permutation, "__mul__")
    for cls in (TypeARootSystem, RankTwoRootSystem):
        for name in ("mul", "reflection", "act_on_root"):
            count(cls, name)
    for name in ("reflect", "root_form"):
        count(RootSystem, name)
    # import_module: the package re-exports the function root_system
    for module in (moment_graph, importlib.import_module("gkmcalc.root_system")):
        count(module, "_line")
    return calls


@pytest.mark.parametrize("label", ["A:1", "A:3", "A:4", "B2", "G2"])
def test_graph_builds_need_no_root_arithmetic(label, builder_calls):
    rs = root_system(label)
    builder_calls.clear()  # building the root system itself may count
    build_flag_moment_graph(rs)
    for w in rs.elements():
        build_schubert_moment_graph(rs, w)
    assert builder_calls == []
