"""The remainder-theorem solver against dense rational elimination.

The reference below is the per-vertex linear system the solver used to
build: one unknown per degree-d monomial, one row per residue coefficient
of every out-edge, solved by Gaussian elimination over ``Fraction``
(``solve_unique``).  Both must give the same class, or the same SolveError
text, at every vertex.  The reference checks the divisibility condition on
the edges out of the vertices it pins (the base, and those with no path
down to it); the solver does not, and the tests here check that the
reference's check never fails on an acyclic graph.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gkmcalc import moment_graph
from gkmcalc.gkm import SolveError, knutson_tao_class_solve
from gkmcalc.moment_graph import (
    build_flag_moment_graph,
    build_schubert_moment_graph,
    graph_to_json,
    load_external_graph,
    toric_hexagon_json,
    validate_axioms,
)
from gkmcalc.polyring import (
    Polynomial,
    divides,
    parse_polynomial,
    reduce_modulo,
    to_string,
)
from gkmcalc.root_system import root_system
from monomials import homogeneous_exponents


class LinearSystemError(ValueError):
    """Raised when a linear system is inconsistent or underdetermined."""

    def __init__(self, status: str, message: str = ""):
        self.status = status  # "inconsistent" | "underdetermined"
        super().__init__(message or status)


def solve_unique(rows, rhs):
    """Solve rows * x = rhs, requiring a unique solution.

    Raises LinearSystemError("inconsistent") when no solution exists and
    LinearSystemError("underdetermined") when the solution is not unique.
    """
    m = len(rows)
    if m != len(rhs):
        raise ValueError("row/rhs length mismatch")
    ncols = len(rows[0]) if m else 0
    a = [list(map(Fraction, row)) + [Fraction(v)] for row, v in zip(rows, rhs)]

    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        # prefer unit pivots to keep fractions small
        pick = None
        for i in range(r, m):
            if a[i][c]:
                if abs(a[i][c]) == 1:
                    pick = i
                    break
                if pick is None:
                    pick = i
        if pick is None:
            continue
        a[r], a[pick] = a[pick], a[r]
        pc = a[r][c]
        if pc != 1:
            a[r] = [x / pc for x in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if a[i][ncols]:
            raise LinearSystemError("inconsistent")
    if len(pivots) < ncols:
        raise LinearSystemError("underdetermined")
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = a[i][ncols]
    return x


def pinned(g, v):
    """The localizations the class of v is pinned to: the out-label product
    at v, and 0 at every vertex with no path down to v."""
    above = g.above(v)
    loc = {u: Polynomial.zero(g.n) for u in g.vertices if u not in above}
    prod = Polynomial.one(g.n)
    for e in g.out_edges(v):
        prod = prod * e.label
    loc[v] = prod
    return loc


def check_pinned(g, loc, u):
    """Raise SolveError unless loc satisfies divisibility on u's out-edges."""
    for e in g.out_edges(u):
        if not divides(e.label, loc[u] - loc[e.head]):
            raise SolveError(
                f"no class: edge {g.vertex_str(u)} -> "
                f"{g.vertex_str(e.head)} violates divisibility"
            )


def dense_solve(g, v):
    """Knutson-Tao class of v by dense Fraction elimination at each vertex."""
    axioms = validate_axioms(g)
    if not axioms.acyclic or axioms.independence_violations:
        raise SolveError(f"moment-graph axioms violated: {axioms.to_json()}")
    n = g.n
    d = g.out_degree(v)
    monos = homogeneous_exponents(n, d)
    col = {exp: k for k, exp in enumerate(monos)}
    reduced_by_label: dict = {}
    fixed = pinned(g, v)
    loc: dict = {}
    for u in g.topo_min_first():
        if u in fixed:
            loc[u] = fixed[u]
            check_pinned(g, loc, u)
            continue
        rows, rhs = [], []
        for e in g.out_edges(u):
            reduced = reduced_by_label.get(e.label)
            if reduced is None:
                reduced = reduced_by_label[e.label] = {
                    exp: reduce_modulo(Polynomial(n, {exp: 1}), e.label)
                    for exp in monos
                }
            target = reduce_modulo(loc[e.head], e.label)
            support = set(target.terms())
            for exp in monos:
                support |= set(reduced[exp].terms())
            for mu in sorted(support):
                row = [Fraction(0)] * len(monos)
                for exp in monos:
                    row[col[exp]] = reduced[exp].coefficient(mu)
                rows.append(row)
                rhs.append(target.coefficient(mu))
        if not rows:
            raise SolveError(
                f"vertex {g.vertex_str(u)} has no out-edges but must carry a "
                f"degree-{d} class: underdetermined"
            )
        try:
            x = solve_unique(rows, rhs)
        except LinearSystemError as exc:
            raise SolveError(
                f"constraints at vertex {g.vertex_str(u)} are {exc.status}"
            ) from exc
        loc[u] = Polynomial(n, {exp: x[col[exp]] for exp in monos})
    return {u: p for u, p in loc.items() if p}


def outcome(solve, g, v):
    try:
        got = solve(g, v)
    except SolveError as exc:
        return ("error", str(exc))
    if not isinstance(got, dict):
        got = {u: p for u, p in got.items() if p}
    return ("ok", got)


def assert_same_everywhere(g) -> list:
    statuses = []
    for v in g.vertices:
        want = outcome(dense_solve, g, v)
        got = outcome(knutson_tao_class_solve, g, v)
        assert got == want, g.vertex_str(v)
        statuses.append(want[0] if want[0] == "ok" else want[1].rsplit(" ", 1)[-1])
    return statuses


def reloaded(g):
    return load_external_graph(json.loads(json.dumps(graph_to_json(g))))


@pytest.mark.parametrize("label", ["A:3", "A:4", "B2", "G2"])
def test_flag_graphs_reloaded(label):
    g = reloaded(build_flag_moment_graph(root_system(label)))
    assert set(assert_same_everywhere(g)) == {"ok"}


@pytest.mark.parametrize("label", ["A:3", "B2", "G2"])
def test_every_schubert_graph(label):
    rs = root_system(label)
    for w in rs.elements():
        g = reloaded(build_schubert_moment_graph(rs, w))
        assert set(assert_same_everywhere(g)) == {"ok"}


def test_solver_compiles_each_label_once_per_graph(monkeypatch):
    g = reloaded(build_flag_moment_graph(root_system("A:4")))
    compiled, substituted = [], [0]
    hyperplane, substitute = moment_graph.hyperplane, Polynomial.substitute

    def counting_hyperplane(f):
        compiled.append(f)
        return hyperplane(f)

    def counting_substitute(self, assignment):
        substituted[0] += 1
        return substitute(self, assignment)

    monkeypatch.setattr(moment_graph, "hyperplane", counting_hyperplane)
    monkeypatch.setattr(Polynomial, "substitute", counting_substitute)
    for v in g.vertices:
        knutson_tao_class_solve(g, v)
    # the graph keeps each label's hyperplane: every class reuses it
    assert len(compiled) == len(set(compiled))
    assert set(compiled) == {e.label for e in g.edges}
    # each label pair is restricted once per graph (22 pairs of the 6
    # labels), and otherwise only localizations are reduced: 778 out-edge
    # residues and 1201 first residues t_1 of a recursion level
    assert substituted[0] == 2001


def test_label_pair_table_fills_once_per_graph():
    g = reloaded(build_flag_moment_graph(root_system("A:4")))
    assert g._restrictions == {}
    labels = {e.label for e in g.edges}
    for v in g.vertices:
        knutson_tao_class_solve(g, v)
    table = dict(g._restrictions)
    assert 0 < len(table) <= len(labels) * (len(labels) - 1)
    for (a, b), (plane, a_on_plane) in table.items():
        assert a != b and {a, b} <= labels
        assert plane is g.label_hyperplane(b)
        assert a_on_plane == a.substitute(plane)
    for v in g.vertices:
        knutson_tao_class_solve(g, v)
    assert g._restrictions.keys() == table.keys()
    assert all(g._restrictions[k] is got for k, got in table.items())
    # the table lives on the graph: a freshly loaded one starts empty
    assert reloaded(build_flag_moment_graph(root_system("A:4")))._restrictions == {}


def test_toric_hexagon_statuses():
    g = load_external_graph(toric_hexagon_json())
    assert sorted(assert_same_everywhere(g)) == ["ok"] * 4 + ["underdetermined"] * 2


SINGLE_VARIABLE_CHAIN = {
    "vertices": ["a", "b", "c"],
    "edges": [
        {"tail": "a", "head": "b", "label": "t1"},
        {"tail": "b", "head": "c", "label": "2*t1"},
    ],
    "metadata": {"n": 1},
}


def test_single_variable_chain_names_the_vertex():
    # n = 1: every degree-1 monomial vanishes modulo t1, so the dense system
    # had no rows and blamed missing out-edges; the vertex has one.
    g = load_external_graph(SINGLE_VARIABLE_CHAIN)
    with pytest.raises(SolveError) as exc:
        knutson_tao_class_solve(g, "b")
    assert str(exc.value) == "constraints at vertex a are underdetermined"


_BASES = [
    graph_to_json(build_flag_moment_graph(root_system(label)))
    for label in ("A:3", "B2", "G2")
] + [
    graph_to_json(build_schubert_moment_graph(rs, w))
    for rs in (root_system("A:3"), root_system("B2"))
    for w in rs.elements()
    if rs.length(w) == 2
] + [toric_hexagon_json()]


@st.composite
def corrupted_graphs(draw):
    obj = json.loads(json.dumps(draw(st.sampled_from(_BASES))))
    edges = obj["edges"]
    n = obj["metadata"]["n"]
    kind = draw(st.sampled_from(["swap", "drop", "perturb"]))
    i = draw(st.integers(0, len(edges) - 1))
    if kind == "swap":
        j = draw(st.integers(0, len(edges) - 1))
        edges[i]["label"], edges[j]["label"] = edges[j]["label"], edges[i]["label"]
    elif kind == "drop":
        edges.pop(i)
    else:
        shift = Polynomial.linear_form(
            n, {k: draw(st.integers(-2, 2)) for k in range(1, n + 1)}
        )
        label = parse_polynomial(edges[i]["label"], n) + shift
        if label:
            edges[i]["label"] = to_string(label)
    return load_external_graph(obj)


@settings(max_examples=60, deadline=None)
@given(corrupted_graphs())
def test_corrupted_external_graphs(g):
    assert_same_everywhere(g)


def assert_pinned_edges_divisible(g):
    """The reference's check holds at every pinned vertex of every class,
    whether or not the rest of the class can be solved."""
    assert g.axioms().acyclic
    for v in g.vertices:
        loc = pinned(g, v)
        for u in loc:
            check_pinned(g, loc, u)  # a head outside loc raises KeyError


def differential_graphs():
    for label in ("A:3", "A:4", "B2", "G2"):
        yield reloaded(build_flag_moment_graph(root_system(label)))
    for label in ("A:3", "B2", "G2"):
        rs = root_system(label)
        for w in rs.elements():
            yield reloaded(build_schubert_moment_graph(rs, w))
    yield load_external_graph(toric_hexagon_json())
    yield load_external_graph(SINGLE_VARIABLE_CHAIN)


def test_pinned_edges_divisible_on_every_differential_graph():
    for g in differential_graphs():
        assert_pinned_edges_divisible(g)


@settings(max_examples=60, deadline=None)
@given(corrupted_graphs())
def test_pinned_edges_divisible_on_corrupted_graphs(g):
    # a corruption changes labels or drops an edge, so g stays acyclic
    assert_pinned_edges_divisible(g)
