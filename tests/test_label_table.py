"""A moment graph keeps one table row per distinct edge label.

Each row holds the label's text, its line (the coefficient vector over its
first nonzero entry, and that entry's sign) and its compiled hyperplane.
The independence check and the Palais-Smale search compare lines; both are
checked here against the computations they replaced, kept as references:
pairwise cross-multiplication of coefficient vectors, and the search over
every sign vector of the label lines in mask order.
"""

import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gkmcalc import moment_graph
from gkmcalc.gkm import check_gkm, flag_basis
from gkmcalc.moment_graph import (
    Edge,
    GraphParseError,
    MomentGraph,
    PalaisSmaleResult,
    _degree_check,
    _find_cycle,
    build_flag_moment_graph,
    build_schubert_moment_graph,
    graph_to_json,
    is_palais_smale,
    load_external_graph,
    strict_feasible,
    toric_hexagon_graph,
    validate_axioms,
)
from gkmcalc.polyring import Polynomial, _form_vector, parse_polynomial
from gkmcalc.root_system import root_system

LABELS = ["A:2", "A:3", "A:4", "B2", "G2"]

# twelve distinct lines in t1..t3 on which no flow orientation of the path
# is Palais-Smale, so the search visits every chamber
FAILING_FORMS = [
    "t1 + 2*t2 + 2*t3", "t1 - 2*t2 - 2*t3", "t1 - 2*t3", "2*t1 + 2*t2 - t3",
    "2*t2 - t3", "2*t1 - t2 + 2*t3", "t1 - t2 + t3", "2*t1 - 2*t2 + t3",
    "2*t1 - t2 + t3", "t1 - 2*t2 - t3", "t1 - t3", "2*t1 + t2",
]


def path_json(labels, n=3):
    return {
        "vertices": [f"p{i}" for i in range(len(labels) + 1)],
        "edges": [
            {"tail": f"p{i}", "head": f"p{i + 1}", "label": text}
            for i, text in enumerate(labels)
        ],
        "metadata": {"n": n},
    }


def reloaded(g):
    return load_external_graph(json.loads(json.dumps(graph_to_json(g))))


def builder_graphs():
    for label in LABELS:
        rs = root_system(label)
        for w in rs.elements():
            yield build_schubert_moment_graph(rs, w)  # the flag graph at w0


# -- the references ---------------------------------------------------------------


def _proportional(a, b):
    return all(
        a[i] * b[j] == a[j] * b[i] for i in range(len(a)) for j in range(i + 1, len(a))
    )


def reference_independence(g):
    """Every pair of out-labels whose coefficient vectors cross-multiply equal."""
    out = []
    for v in g.vertices:
        edges = g.out_edges(v)
        vecs = [_form_vector(e.label, g.n) for e in edges]
        for i in range(len(vecs)):
            for j in range(i + 1, len(vecs)):
                if _proportional(vecs[i], vecs[j]):
                    out.append(
                        (
                            g.vertex_str(v),
                            g.label_str(edges[i].label),
                            g.label_str(edges[j].label),
                        )
                    )
    return out


def reference_search(g):
    """The Palais-Smale search over all 2^k sign vectors, in mask order."""
    dirs, edge_dir = [], []
    for e in g.edges:
        vec = _form_vector(e.label, g.n)
        lead = next(x for x in vec if x)
        sign = 1 if lead > 0 else -1
        canon = tuple(x * sign / abs(lead) for x in vec)
        if canon not in dirs:
            dirs.append(canon)
        edge_dir.append((dirs.index(canon), sign))
    tried, first_bad = 0, []
    for mask in range(1 << len(dirs)):
        signs = [1 if mask & (1 << k) else -1 for k in range(len(dirs))]
        xi = strict_feasible([tuple(s * x for x in d) for s, d in zip(signs, dirs)])
        if xi is None:
            continue
        tried += 1
        directed = [
            (e.tail, e.head) if signs[idx] * sign > 0 else (e.head, e.tail)
            for e, (idx, sign) in zip(g.edges, edge_dir)
        ]
        heads = {v: [] for v in g.vertices}
        for a, b in directed:
            heads[a].append(b)
        if _find_cycle(g.vertices, heads) is not None:
            continue
        bad = _degree_check(g, directed)
        if not bad:
            return PalaisSmaleResult(
                "search",
                covector=list(xi),
                orientation=[(g.vertex_str(a), g.vertex_str(b)) for a, b in directed],
                chambers_tried=tried,
            ).to_json()
        first_bad = first_bad or bad
    return PalaisSmaleResult(
        "search", violations=first_bad, chambers_tried=tried
    ).to_json()


@pytest.fixture
def feasibility_calls(monkeypatch):
    calls = [0]
    real = moment_graph.strict_feasible

    def counting(rows):
        calls[0] += 1
        return real(rows)

    monkeypatch.setattr(moment_graph, "strict_feasible", counting)
    return calls


# -- the table ----------------------------------------------------------------------


def test_lines_of_labels():
    g = load_external_graph(path_json(["t1 - t2", "-2*t1 + 2*t2", "t3", "1/2*t2 - 3*t3"]))
    lines = {g.label_str(e.label): g.label_line(e.label) for e in g.edges}
    assert lines == {
        "t1 - t2": ((1, -1, 0), 1),
        "-2*t1 + 2*t2": ((1, -1, 0), -1),
        "t3": ((0, 0, 1), 1),
        "1/2*t2 - 3*t3": ((0, 1, -6), 1),
    }
    assert all(type(x) is Fraction for line, _ in lines.values() for x in line)


def test_edges_sharing_a_text_share_one_label_object():
    obj = path_json(["t1 - t2", "t3", "t1 - t2", "t1 - t2", "t3", "t1-t2"])
    g = load_external_graph(obj)
    by_text: dict = {}
    for e, rec in zip(sorted(g.edges, key=lambda e: e.tail), obj["edges"]):
        assert g.vertex_str(e.tail) == rec["tail"]
        by_text.setdefault(rec["label"], set()).add(id(e.label))
    assert {text: len(ids) for text, ids in by_text.items()} == {
        "t1 - t2": 1,
        "t3": 1,
        "t1-t2": 1,
    }


def test_each_text_parsed_once(monkeypatch):
    texts = []
    parse = moment_graph.parse_polynomial
    monkeypatch.setattr(
        moment_graph, "parse_polynomial", lambda s, n: texts.append(s) or parse(s, n)
    )
    g = reloaded(build_flag_moment_graph(root_system("A:4")))
    assert len(texts) == len(set(texts)) == len({e.label for e in g.edges}) == 6


@pytest.mark.parametrize("label", ["A:4", "G2"])
def test_each_label_compiled_once_per_graph(monkeypatch, label):
    compiled = []
    hyperplane = moment_graph.hyperplane
    monkeypatch.setattr(
        moment_graph, "hyperplane", lambda f: compiled.append(f) or hyperplane(f)
    )
    basis = flag_basis(root_system(label))
    for v in basis.graph.vertices[:8]:
        assert check_gkm(basis.cls(v)).ok
    assert len(compiled) == len(set(compiled)) == len({e.label for e in basis.graph.edges})


# -- independence by lines ----------------------------------------------------------


def test_independence_matches_cross_multiplication_on_builder_graphs():
    for g in builder_graphs():
        for h in (g, reloaded(g)):
            got = validate_axioms(h).independence_violations
            assert got == reference_independence(h) == []


_FORMS = [(1, -1, 0), (0, 1, -1), (1, 0, -1), (1, 2, 0), (0, 0, 1), (2, 1, 1)]
_SCALES = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-3, 2), Fraction(1, 3)]


def _text(vec):
    return " + ".join(f"{c}*t{i + 1}" for i, c in enumerate(vec) if c)


@st.composite
def external_graphs(draw):
    n_vertices = draw(st.integers(2, 6))
    names = [f"v{i}" for i in range(n_vertices)]
    edges = []
    for _ in range(draw(st.integers(0, 12))):
        tail, head = draw(st.sampled_from(names)), draw(st.sampled_from(names))
        form = draw(st.sampled_from(_FORMS))  # repeated and independent lines
        scale = draw(st.sampled_from(_SCALES))  # proportional labels
        edges.append(
            {"tail": tail, "head": head, "label": _text([scale * c for c in form])}
        )
    return {"vertices": names, "edges": edges, "metadata": {"n": 3}}


@settings(max_examples=150, deadline=None)
@given(external_graphs())
def test_independence_matches_cross_multiplication_on_external_graphs(obj):
    g = load_external_graph(obj)
    assert validate_axioms(g).independence_violations == reference_independence(g)


def test_label_without_a_line_is_refused_by_construction():
    # alone at its vertex, it has no pair for validate_axioms to report
    two = Polynomial.constant(2, 2)
    with pytest.raises(GraphParseError, match="^edge label '2' is not a nonzero linear form$"):
        MomentGraph(["a", "b"], [Edge("b", "a", two)], {"n": 2})
    # beside a good label at the same vertex, and on a root-system graph
    t1 = parse_polynomial("t1", 2)
    edges = [Edge("c", "a", t1), Edge("c", "b", parse_polynomial("t1^2", 2))]
    with pytest.raises(GraphParseError, match="'t1\\^2' is not a nonzero linear form$"):
        MomentGraph(["a", "b", "c"], edges, {"n": 2})
    rs = root_system("A:2")
    e, s = rs.elements()
    with pytest.raises(GraphParseError, match="'2' is not a nonzero linear form$"):
        MomentGraph([e, s], [Edge(s, e, two)], {"n": 2}, rs=rs)


@pytest.mark.parametrize("text", ["t1^2", "0", "t1 + 1"])
def test_search_refuses_a_label_without_a_line(text):
    # no graph holds such a label, so neither search mode ever sees one
    with pytest.raises(GraphParseError) as exc:
        MomentGraph(["a", "b"], [Edge("b", "a", parse_polynomial(text, 2))], {"n": 2})
    assert str(exc.value) == f"edge label {text!r} is not a nonzero linear form"


def test_label_from_another_ring_is_refused_by_construction():
    # nothing after construction compares a label's ring with the graph's
    t3 = Polynomial.variable(3, 3)
    with pytest.raises(GraphParseError, match="'t3' is not a nonzero linear form in 2 var"):
        MomentGraph(["a", "b"], [Edge("b", "a", t3)], {"n": 2})
    t1 = Polynomial.variable(3, 1)
    with pytest.raises(GraphParseError, match="'t1' is not a nonzero linear form in 2 var"):
        MomentGraph(["a", "b"], [Edge("b", "a", t1)], {"n": 2})
    rs = root_system("A:2")
    e, s = rs.elements()
    with pytest.raises(GraphParseError, match="in 2 variables"):
        MomentGraph([e, s], [Edge(s, e, t1 - Polynomial.variable(3, 2))], {"n": 2}, rs=rs)


_PREFIXES = ["t", "a", "xy", "T", "t1", "1", 5, "", "t_", "\u00e9", None]


@settings(max_examples=150, deadline=None)
@given(external_graphs(), st.sampled_from(_PREFIXES))
def test_every_loaded_graph_reloads_from_its_own_json(obj, prefix):
    """What the loader accepts, graph_to_json writes in a form it reads back
    as the same graph; a prefix parse_polynomial cannot read is refused."""
    obj["metadata"]["var_prefix"] = prefix
    letters = isinstance(prefix, str) and re.fullmatch("[A-Za-z]+", prefix)
    try:
        g = load_external_graph(obj)
    except GraphParseError as exc:
        assert not letters and "var_prefix must be ASCII letters" in str(exc)
        return
    again = load_external_graph(json.loads(json.dumps(graph_to_json(g))))
    assert graph_to_json(again) == graph_to_json(g)  # names, edge texts, metadata
    assert again.edges == g.edges


# -- the pruned Palais-Smale search -------------------------------------------------


def test_search_matches_every_sign_vector_on_builder_graphs():
    graphs = [g for g in builder_graphs() if g.rs.label != "A:2"]
    graphs.append(build_flag_moment_graph(root_system("A:5")))
    for g in graphs:
        assert is_palais_smale(g, mode="search").to_json() == reference_search(g)


@pytest.mark.parametrize(
    "labels",
    [
        [],
        ["t1 - t2", "t2 - t1", "2*t1 - 2*t2", "t3", "-t3", "t1 + t3", "t2"],
        FAILING_FORMS[:4],
        FAILING_FORMS[:8],
        ["t1", "t2", "t3", "t1 - t2", "t2 - t3", "t1 - t3", "t1 + t2"],
    ],
)
def test_search_matches_every_sign_vector_on_paths(labels):
    g = load_external_graph(path_json(labels))
    assert is_palais_smale(g, mode="search").to_json() == reference_search(g)


def test_search_matches_every_sign_vector_on_the_hexagon():
    g = toric_hexagon_graph()
    assert is_palais_smale(g, mode="search").to_json() == reference_search(g)


def test_failing_path_prunes_the_sign_vectors(feasibility_calls):
    # 4096 sign vectors, each tested before; 124 of them are chambers
    res = is_palais_smale(load_external_graph(path_json(FAILING_FORMS)), mode="search")
    assert not res.holds and res.chambers_tried == 124
    assert feasibility_calls[0] == 862


def test_search_that_succeeds_at_once_tests_one_prefix_per_line(feasibility_calls):
    res = is_palais_smale(build_flag_moment_graph(root_system("G2")), mode="search")
    assert res.holds and res.chambers_tried == 1
    assert feasibility_calls[0] == 6
