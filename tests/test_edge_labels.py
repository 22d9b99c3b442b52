"""Roots come from the moment graph's edge labels.

The graph builder forms one label per positive root, shared by all of that
root's edges.  Billey's formula and the right divided difference read
their roots off the edges, so they do no root arithmetic of their own.
The right divided difference is checked here against the vertex formula
(p(v s_i) - p(v)) / (v . alpha_i), kept as the reference, on Knutson-Tao
classes and on seeded random classes that are mostly not GKM, error lines
included.
"""

import random

import pytest

from gkmcalc.gkm import EquivariantClass, flag_basis, knutson_tao_class_billey
from gkmcalc.moment_graph import build_flag_moment_graph, build_schubert_moment_graph
from gkmcalc.polyring import ExactDivisionError, Polynomial, exact_divide
from gkmcalc.repaction import right_divided_difference
from gkmcalc.root_system import (
    RankTwoRootSystem,
    RootSystem,
    TypeARootSystem,
    root_system,
)

LABELS = ["A:2", "A:3", "A:4", "B2", "G2"]


@pytest.fixture
def root_calls(monkeypatch):
    """Names of the root-arithmetic methods called while the test runs."""
    calls = []
    for cls, name in (
        (RootSystem, "root_form"),
        (TypeARootSystem, "act_on_root"),
        (RankTwoRootSystem, "act_on_root"),
    ):
        f = cls.__dict__[name]
        monkeypatch.setattr(
            cls, name, lambda self, *a, _f=f, _n=name: calls.append(_n) or _f(self, *a)
        )
    return calls


def vertex_formula(i, c):
    """(p(v s_i) - p(v)) / root_form(v . alpha_i), one vertex at a time."""
    g = c.graph
    rs = g.rs
    s = rs.simple_reflection(i)
    out = {}
    for v in g.vertices:
        num = c[rs.mul(v, s)] - c[v]
        if num:
            beta = rs.root_form(rs.act_on_root(v, rs.simple_roots[i - 1]))
            try:
                out[v] = exact_divide(num, beta)
            except ExactDivisionError as exc:
                raise ExactDivisionError(
                    f"right divided difference failed at {g.vertex_str(v)}: {exc}"
                ) from exc
    return EquivariantClass(g, out)


def outcome(f, *args):
    try:
        return f(*args)
    except ExactDivisionError as exc:
        return str(exc)


@pytest.mark.parametrize("label", ["A:3", "A:4", "B2", "G2"])
def test_one_label_object_per_root(label):
    rs = root_system(label)
    g = build_flag_moment_graph(rs)
    assert len({id(e.label) for e in g.edges}) == len(rs.positive_roots)
    assert {e.label for e in g.edges} == {rs.root_form(a) for a in rs.positive_roots}


def test_in_edges_mirror_out_edges():
    g = build_flag_moment_graph(root_system("B2"))
    for v in g.vertices:
        assert g.in_edges(v) == tuple(e for e in g.edges if e.head == v)
        assert g.out_edges(v) == tuple(e for e in g.edges if e.tail == v)


@pytest.mark.parametrize("label", ["A:3", "B2", "G2"])
def test_consumers_do_no_root_arithmetic(label, root_calls):
    rs = root_system(label)
    g = build_flag_moment_graph(rs)
    xg = build_schubert_moment_graph(rs, rs.elements()[-2])
    root_calls.clear()
    classes = [knutson_tao_class_billey(g, v) for v in g.vertices]
    for v in xg.vertices:
        knutson_tao_class_billey(xg, v)
    for c in classes:
        for i in range(1, rs.rank + 1):
            right_divided_difference(i, c)
    assert root_calls == []


@pytest.mark.parametrize("label", LABELS)
def test_right_divided_difference_is_the_vertex_formula(label, root_calls):
    rs = root_system(label)
    basis = flag_basis(rs)
    for v in basis.graph.vertices:
        c = basis.cls(v)
        for i in range(1, rs.rank + 1):
            want = vertex_formula(i, c)
            seen = len(root_calls)
            assert right_divided_difference(i, c) == want
            assert len(root_calls) == seen


@pytest.mark.parametrize("label", ["A:3", "A:4", "B2", "G2"])
def test_right_divided_difference_on_random_classes(label, root_calls):
    rs = root_system(label)
    g = build_flag_moment_graph(rs)
    rng = random.Random(2024)
    errors = 0
    for _ in range(30):
        loc = {}
        for v in g.vertices:
            if rng.random() < 0.6:
                coeffs = {k: x for k in range(1, g.n + 1) if (x := rng.randint(-2, 2))}
                loc[v] = Polynomial.linear_form(g.n, coeffs) + rng.randint(-1, 1)
        c = EquivariantClass(g, loc)
        for i in range(1, rs.rank + 1):
            want = outcome(vertex_formula, i, c)
            seen = len(root_calls)
            got = outcome(right_divided_difference, i, c)
            assert len(root_calls) == seen
            assert got == want
            errors += isinstance(got, str)
    assert errors  # the error lines were compared too
