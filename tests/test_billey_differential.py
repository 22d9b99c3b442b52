"""Billey's formula against the descent and solve routes.

``knutson_tao_class_billey`` is the production route for flag and Schubert
graphs.  Descent (divided differences from the top point class) and the
remainder-theorem solver build the same classes independently, so they are
the references here: over whole groups for A:2..A:4, B2 and G2, on two A:5
Schubert varieties for the solver, and at the longest element of A:5 and
A:6, where the row pruning keeps one row per column.
"""

import pytest

import gkmcalc.gkm as gkm
import gkmcalc.moment_graph as moment_graph
from gkmcalc.gkm import (
    KnutsonTaoBasis,
    expand_in_basis,
    kt_report,
    knutson_tao_class_billey,
    knutson_tao_class_descent,
    knutson_tao_class_solve,
    point_class_top,
    restrict,
)
from gkmcalc.moment_graph import (
    build_flag_moment_graph,
    build_schubert_moment_graph,
    schubert_graph,
)
from gkmcalc.polyring import Polynomial
from gkmcalc.repaction import act, act_on_schubert_basis
from gkmcalc.root_system import root_system

LABELS = ["A:2", "A:3", "A:4", "B2", "G2"]


@pytest.mark.parametrize("label", LABELS)
def test_flag_classes_match_descent(label):
    rs = root_system(label)
    g = build_flag_moment_graph(rs)
    for v in g.vertices:
        got = knutson_tao_class_billey(g, v)
        assert got == knutson_tao_class_descent(g, v), g.vertex_str(v)
        assert got.base == v


@pytest.mark.parametrize("label", LABELS)
def test_schubert_classes_match_restricted_descent(label):
    rs = root_system(label)
    g = build_flag_moment_graph(rs)
    descent = {v: knutson_tao_class_descent(g, v) for v in g.vertices}
    for top in rs.elements():
        xg = build_schubert_moment_graph(rs, top)
        for v in xg.vertices:
            got = knutson_tao_class_billey(xg, v)
            assert got == restrict(descent[v], xg), (
                xg.vertex_str(xg.top_vertex()),
                xg.vertex_str(v),
            )
            assert got.base == v


@pytest.mark.parametrize("top", ["24153", "25134"])
def test_a5_schubert_classes_match_solve(top):
    xg = schubert_graph("A:5", top)
    for v in xg.vertices:
        got = knutson_tao_class_billey(xg, v)
        assert got == knutson_tao_class_solve(xg, v), xg.vertex_str(v)
        assert kt_report(got).ok


@pytest.mark.parametrize("label", ["A:5", "A:6"])
def test_longest_element_is_the_top_point_class(label):
    # the top class keeps only the row of w0 at its own column: every
    # other row is pruned
    rs = root_system(label)
    g = build_flag_moment_graph(rs)
    got = knutson_tao_class_billey(g, rs.longest_element())
    assert got == point_class_top(g)
    assert got.base == rs.longest_element()


def test_rejects_external_graphs_and_unknown_vertices():
    hexagon = moment_graph.toric_hexagon_graph()
    with pytest.raises(ValueError):
        knutson_tao_class_billey(hexagon, "e")
    xg = schubert_graph("A:3", "231")
    with pytest.raises(ValueError):
        knutson_tao_class_billey(xg, root_system("A:3").longest_element())


def test_default_routes():
    assert KnutsonTaoBasis(schubert_graph("A:3", "321")).route == "billey"
    assert KnutsonTaoBasis(schubert_graph("A:3", "231")).route == "billey"
    assert KnutsonTaoBasis(moment_graph.toric_hexagon_graph()).route == "solve"


def test_schubert_basis_never_builds_the_flag_graph(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a Schubert class built the flag graph")

    xg = schubert_graph("A:5", "35142")
    monkeypatch.setattr(gkm, "build_flag_moment_graph", refuse)
    monkeypatch.setattr(gkm, "flag_basis", refuse)
    monkeypatch.setattr(moment_graph, "build_flag_moment_graph", refuse)
    basis = KnutsonTaoBasis(xg)
    for v in xg.vertices:
        assert kt_report(basis.cls(v)).ok
    rs = xg.rs
    v = rs.parse_element("21453")
    acted = act(rs.simple_reflection(2), basis.cls(v), basis)
    assert expand_in_basis(acted, basis) == act_on_schubert_basis(2, v, xg)
    assert expand_in_basis(basis.cls(v), basis) == {v: Polynomial.one(xg.n)}
