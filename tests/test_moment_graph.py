"""Moment graph builders, axiom validation, Palais-Smale, and serialization."""

import json
from fractions import Fraction

import pytest

from gkmcalc import moment_graph
from gkmcalc.cli import main
from gkmcalc.coxeter import Permutation, all_permutations
from gkmcalc.moment_graph import (
    MAX_EXTERNAL_N,
    Edge,
    GraphParseError,
    MomentGraph,
    _find_cycle,
    build_flag_moment_graph,
    build_schubert_moment_graph,
    graph_to_dot,
    graph_to_json,
    is_palais_smale,
    load_external_graph,
    schubert_graph,
    toric_hexagon_graph,
    toric_hexagon_json,
    validate_axioms,
)
from gkmcalc.polyring import MAX_DEGREE, Polynomial, _form_vector, to_string
from gkmcalc.root_system import root_system, type_a


def form(n, i, j):
    return Polynomial.linear_form(n, {i: 1, j: -1})


class TestFlagBuilder:
    def test_n3_counts_and_top_labels(self):
        g = build_flag_moment_graph(type_a(3))
        assert len(g.vertices) == 6
        assert len(g.edges) == 9
        top = g.vertex_by_str("321")
        assert {e.label for e in g.out_edges(top)} == {
            form(3, 1, 2),
            form(3, 1, 3),
            form(3, 2, 3),
        }

    def test_n2_trivial(self):
        g = build_flag_moment_graph(type_a(2))
        assert len(g.vertices) == 2
        assert len(g.edges) == 1
        assert g.edges[0].label == form(2, 1, 2)

    def test_b2_counts(self):
        g = build_flag_moment_graph(root_system("B2"))
        assert len(g.vertices) == 8
        assert len(g.edges) == 16

    def test_edges_descend_in_length(self):
        g = build_flag_moment_graph(type_a(4))
        rs = g.rs
        assert all(rs.length(e.tail) > rs.length(e.head) for e in g.edges)

    def test_out_degree_equals_length(self):
        g = build_flag_moment_graph(type_a(4))
        assert all(g.out_degree(v) == g.rs.length(v) for v in g.vertices)

    def test_figure_edge(self):
        # the dashed edge from the 3-cycle down to the first transposition
        g = build_flag_moment_graph(type_a(3))
        tails = {
            (g.vertex_str(e.tail), g.vertex_str(e.head)): e.label for e in g.edges
        }
        assert tails[("231", "213")] == form(3, 1, 3)


class TestSchubertBuilder:
    def test_single_point(self):
        rs = type_a(3)
        g = build_schubert_moment_graph(rs, rs.identity())
        assert len(g.vertices) == 1
        assert len(g.edges) == 0

    def test_three_cycle_interval(self):
        rs = type_a(3)
        g = build_schubert_moment_graph(rs, rs.parse_element("231"))
        assert sorted(g.vertex_str(v) for v in g.vertices) == [
            "123",
            "132",
            "213",
            "231",
        ]
        assert sorted(g.out_degree(v) for v in g.vertices) == [0, 1, 1, 2]

    def test_top_interval_is_full_graph(self):
        rs = type_a(3)
        full = build_flag_moment_graph(rs)
        top = build_schubert_moment_graph(rs, rs.longest_element())
        assert top.vertices == full.vertices
        assert top.edges == full.edges

    def test_induced_subgraph_property(self):
        rs = type_a(4)
        full = build_flag_moment_graph(rs)
        for w in all_permutations(4):
            sub = build_schubert_moment_graph(rs, w)
            verts = set(sub.vertices)
            induced = {
                (e.tail, e.head, e.label)
                for e in full.edges
                if e.tail in verts and e.head in verts
            }
            assert {(e.tail, e.head, e.label) for e in sub.edges} == induced

    def test_schubert_graph_helper(self):
        g = schubert_graph("A:3", "321")
        assert g.variety == "flag"
        g2 = schubert_graph("A:3", "231")
        assert g2.variety == "schubert"
        assert len(g2.vertices) == 4


class TestValidation:
    def test_flag_graphs_pass(self):
        for label in ("A:4", "B2", "G2"):
            rep = validate_axioms(build_flag_moment_graph(root_system(label)))
            assert rep.ok and rep.checked_schubert

    def test_two_cycle_reported(self):
        g = load_external_graph(
            {
                "vertices": ["a", "b"],
                "edges": [
                    {"tail": "a", "head": "b", "label": "t1 - t2"},
                    {"tail": "b", "head": "a", "label": "t1 - t3"},
                ],
                "metadata": {"n": 3},
            }
        )
        rep = validate_axioms(g)
        assert not rep.acyclic and rep.cycle == ["a", "b", "a"]
        assert not rep.ok

    def test_one_cycle_walk_for_names_and_orientations(self):
        # validate_axioms names the vertices; the Palais-Smale search only
        # asks whether an orientation has a cycle
        assert _find_cycle("abc", {"a": ["b"], "b": ["c"], "c": ["a"]}) == [
            "a", "b", "c", "a",
        ]
        assert _find_cycle("abc", {"a": ["b", "c"], "b": ["c"], "c": []}) is None

    def test_proportional_labels_reported(self):
        g = load_external_graph(
            {
                "vertices": ["a", "b", "c"],
                "edges": [
                    {"tail": "a", "head": "b", "label": "t1 - t2"},
                    {"tail": "a", "head": "c", "label": "2*t1 - 2*t2"},
                ],
                "metadata": {"n": 2},
            }
        )
        rep = validate_axioms(g)
        assert rep.acyclic
        assert len(rep.independence_violations) == 1
        assert not rep.ok


class TestPalaisSmale:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_schubert_graphs_pass_given(self, n):
        rs = type_a(n)
        for w in all_permutations(n):
            res = is_palais_smale(build_schubert_moment_graph(rs, w), mode="given")
            assert res.holds

    def test_flag_graph_passes_search(self):
        res = is_palais_smale(build_flag_moment_graph(type_a(3)), mode="search")
        assert res.holds
        assert res.covector is not None
        assert res.orientation is not None

    @pytest.mark.parametrize("label", ["A:3", "G2"])
    def test_search_covector_prints_exact_rationals(self, label, capsys):
        argv = ["graph", "--type", label, "--check", "palais-smale", "--orientation", "search"]
        assert main(argv) == 0
        covector = json.loads(capsys.readouterr().out)["covector"]
        assert covector
        for entry in covector:
            assert "." not in entry
            assert str(Fraction(entry)) == entry

    def test_form_vector_entries_are_fractions(self):
        label = Polynomial.linear_form(3, {1: 2, 3: Fraction(-1, 2)})
        vec = _form_vector(label, 3)
        assert vec == (2, 0, Fraction(-1, 2))
        assert all(type(x) is Fraction for x in vec)

    def test_single_vertex(self):
        rs = type_a(2)
        g = build_schubert_moment_graph(rs, rs.identity())
        assert is_palais_smale(g, mode="given").holds
        assert is_palais_smale(g, mode="search").holds

    def test_hexagon_fails_search(self):
        res = is_palais_smale(toric_hexagon_graph(), mode="search")
        assert not res.holds
        assert res.chambers_tried == 6

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            is_palais_smale(toric_hexagon_graph(), mode="sideways")


class TestExternalLoading:
    def test_hexagon_loads_and_passes_axioms(self):
        g = toric_hexagon_graph()
        assert len(g.vertices) == 6
        assert len(g.edges) == 6
        assert validate_axioms(g).ok

    def test_empty_graph(self):
        g = load_external_graph({"vertices": [], "edges": []})
        assert g.vertices == ()
        assert validate_axioms(g).ok

    def test_edges_may_come_from_a_generator(self):
        t1, t2 = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
        listed = MomentGraph(["a", "b"], [Edge("b", "a", t1 - t2)], {"n": 2})
        generated = MomentGraph(
            ["a", "b"], (Edge("b", "a", t1 - t2) for _ in range(1)), {"n": 2}
        )
        assert len(listed.edges) == 1
        assert generated.edges == listed.edges
        assert generated.out_edges("b") == listed.out_edges("b")
        hexagon = toric_hexagon_graph()
        again = MomentGraph(hexagon.vertices, iter(hexagon.edges), hexagon.metadata)
        assert again.edges == hexagon.edges
        assert [again.in_edges(v) for v in again.vertices] == [
            hexagon.in_edges(v) for v in hexagon.vertices
        ]

    def test_dangling_endpoint(self):
        with pytest.raises(GraphParseError):
            load_external_graph(
                {
                    "vertices": ["a"],
                    "edges": [{"tail": "a", "head": "zz", "label": "t1 - t2"}],
                    "metadata": {"n": 2},
                }
            )

    def test_bad_label(self):
        with pytest.raises(GraphParseError):
            load_external_graph(
                {
                    "vertices": ["a", "b"],
                    "edges": [{"tail": "a", "head": "b", "label": "t1*t2"}],
                    "metadata": {"n": 2},
                }
            )

    def test_zero_denominator_label(self):
        with pytest.raises(GraphParseError, match="zero denominator"):
            load_external_graph(
                {
                    "vertices": ["a", "b"],
                    "edges": [{"tail": "a", "head": "b", "label": "1/0*t1"}],
                    "metadata": {"n": 2},
                }
            )

    def test_duplicate_vertices(self):
        with pytest.raises(GraphParseError):
            load_external_graph({"vertices": ["a", "a"], "edges": []})

    def test_bad_json_text(self):
        with pytest.raises(GraphParseError):
            load_external_graph("{not json")

    def test_dimension_inferred_from_labels(self):
        g = load_external_graph(toric_hexagon_json() | {"metadata": {}})
        assert g.n == 3

    @pytest.mark.parametrize("n", [3, 3.0, "3", MAX_EXTERNAL_N])
    def test_integral_dimension_in_range_loads(self, n):
        g = load_external_graph(toric_hexagon_json() | {"metadata": {"n": n}})
        assert g.n == int(n) and graph_to_json(g)["metadata"]["n"] == int(n)

    @pytest.mark.parametrize(
        "n",
        [3.5, -1, MAX_EXTERNAL_N + 1, 10**30, float("inf"), float("nan"), "x", True, False],
    )
    def test_dimension_out_of_range_refused(self, n):
        with pytest.raises(GraphParseError, match="'n' must be an integer in 0..64"):
            load_external_graph(toric_hexagon_json() | {"metadata": {"n": n}})

    @pytest.mark.parametrize("k", [MAX_DEGREE, MAX_DEGREE + 1])
    def test_out_degree_bound(self, k):
        # the class of the centre of a k-edge star has total degree k
        star = _star_json(k)
        if k <= MAX_DEGREE:
            assert load_external_graph(star).out_degree("top") == k
        else:
            with pytest.raises(GraphParseError, match="more than 255 out-edges"):
                load_external_graph(star)

    @pytest.mark.parametrize("k", [MAX_DEGREE, MAX_DEGREE + 1])
    def test_out_degree_bound_on_a_hand_built_graph(self, k):
        t1, t2 = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
        names = ["top", *(f"v{i}" for i in range(k))]
        edges = [Edge("top", f"v{i}", t1 + i * t2) for i in range(k)]
        if k <= MAX_DEGREE:
            assert MomentGraph(names, edges, {"n": 2}).out_degree("top") == k
        else:
            with pytest.raises(GraphParseError, match="vertex top has more than 255 out-"):
                MomentGraph(names, edges, {"n": 2})

    @pytest.mark.parametrize("end", ["tail", "head"])
    def test_edge_without_an_end_refused(self, end):
        # str() of a missing end would name the vertex "None"
        rec = {"tail": "b", "head": "a", "label": "t1"}
        del rec[end]
        obj = {"vertices": ["None", "a", "b"], "edges": [rec], "metadata": {"n": 1}}
        with pytest.raises(GraphParseError, match="edge needs a 'tail' and a 'head'"):
            load_external_graph(obj)

    @pytest.mark.parametrize("prefix", ["t1", "5", 5, "", "t-", "\u00e9"])
    def test_prefix_that_does_not_read_back_refused(self, prefix):
        hexagon = toric_hexagon_json()
        hexagon["metadata"]["var_prefix"] = prefix
        with pytest.raises(GraphParseError, match="var_prefix must be ASCII letters"):
            load_external_graph(hexagon)
        rs = root_system("A:2")
        with pytest.raises(GraphParseError, match="var_prefix must be ASCII letters"):
            MomentGraph(rs.elements(), [], {"n": 2, "var_prefix": prefix}, rs=rs)

    def test_vertex_by_str(self):
        for g in (toric_hexagon_graph(), build_flag_moment_graph(root_system("B2"))):
            for v in g.vertices:
                assert g.vertex_by_str(g.vertex_str(v)) == v
            for bad in ("nope", ["e"]):
                with pytest.raises(KeyError):
                    g.vertex_by_str(bad)


def _star_json(k):
    """A graph in two variables with k edges out of the vertex 'top'."""
    return {
        "vertices": ["top", *(f"v{i}" for i in range(k))],
        "edges": [
            {"tail": "top", "head": f"v{i}", "label": f"t1 + {i}*t2"} for i in range(k)
        ],
        "metadata": {"n": 2},
    }


class TestSerialization:
    def test_json_roundtrip_external(self):
        g = toric_hexagon_graph()
        again = load_external_graph(graph_to_json(g))
        assert graph_to_json(again) == graph_to_json(g)

    def test_json_shape(self):
        g = build_flag_moment_graph(type_a(2))
        obj = graph_to_json(g)
        assert obj["vertices"] == ["12", "21"]
        assert obj["edges"] == [{"tail": "21", "head": "12", "label": "t1 - t2"}]
        assert obj["metadata"]["variety"] == "flag"
        assert obj["metadata"]["n"] == 2

    def test_dot_output(self):
        g = build_flag_moment_graph(type_a(3))
        dot = graph_to_dot(g)
        assert dot.startswith("digraph")
        assert dot.count("->") == 9
        assert '"321" [label="321\\n(13)"]' in dot
        # one style per distinct label, legend included
        assert "// label t1 - t2" in dot

    def test_json_is_fresh_per_call(self):
        g = toric_hexagon_graph()
        first = graph_to_json(g)
        want = json.loads(json.dumps(first))
        first["vertices"].append("x")
        first["edges"][0]["label"] = "t9"
        first["metadata"]["n"] = 7
        assert graph_to_json(g) == want

    @pytest.mark.parametrize("label", ["A:4", "G2"])
    def test_each_distinct_label_formatted_once(self, monkeypatch, label):
        calls = []
        monkeypatch.setattr(
            moment_graph,
            "to_string",
            lambda p, prefix="t": calls.append(p) or to_string(p, prefix),
        )
        rs = root_system(label)
        g = build_flag_moment_graph(rs)
        graph_to_json(g), graph_to_dot(g), validate_axioms(g)
        assert len(calls) == len(set(calls)) == len(rs.positive_roots)

    def test_dot_deterministic(self):
        g = toric_hexagon_graph()
        assert graph_to_dot(g) == graph_to_dot(toric_hexagon_graph())


class TestOrderStructure:
    def test_reaches_matches_bruhat(self):
        for label in ("A:3", "A:4", "B2", "G2"):
            rs = root_system(label)
            g = build_flag_moment_graph(rs)
            for v in g.vertices:
                above = g.above(v)
                for w in g.vertices:
                    assert rs.bruhat_leq(v, w) == (w in above)

    def test_topological_order(self):
        g = build_flag_moment_graph(type_a(3))
        order = g.topo_min_first()
        pos = {v: k for k, v in enumerate(order)}
        assert all(pos[e.head] < pos[e.tail] for e in g.edges)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: build_flag_moment_graph(type_a(3)),
            lambda: schubert_graph("A:4", "3412"),
            lambda: schubert_graph("G2", "2121"),
            toric_hexagon_graph,
        ],
        ids=["flag A:3", "schubert A:4 3412", "schubert G2 2121", "hexagon"],
    )
    def test_accessors_hand_out_the_stored_tuples(self, make):
        g = make()
        order = g.topo_min_first()
        assert isinstance(order, tuple) and g.topo_min_first() is order
        for v in g.vertices:
            for edges in (g.out_edges, g.in_edges):
                assert isinstance(edges(v), tuple) and edges(v) is edges(v)
        # the order picks the least ready vertex by (length, name), the sort
        # key of the vertices, at every step
        rs = g.rs
        key = (lambda v: (rs.length(v), g.vertex_str(v))) if rs else g.vertex_str
        remaining = {v: g.out_degree(v) for v in g.vertices}
        want = []
        while len(want) < len(g.vertices):
            v = min((u for u, k in remaining.items() if k == 0), key=key)
            want.append(v)
            remaining[v] = -1
            for e in g.in_edges(v):
                remaining[e.tail] -= 1
        assert order == tuple(want)

    def test_top_vertex(self):
        rs = type_a(3)
        g = build_schubert_moment_graph(rs, rs.parse_element("231"))
        assert g.vertex_str(g.top_vertex()) == "231"
        two_sources = load_external_graph(
            {
                "vertices": ["a", "b", "c"],
                "edges": [
                    {"tail": "a", "head": "c", "label": "t1 - t2"},
                    {"tail": "b", "head": "c", "label": "t1 - t3"},
                ],
                "metadata": {"n": 3},
            }
        )
        with pytest.raises(ValueError):
            two_sources.top_vertex()
