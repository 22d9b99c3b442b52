"""Exact operation counts on fixed inputs: the ledger of what the kernels do.

Wall time on a shared machine spreads too widely to show a change in work,
and an answer stays right when a pruning step is lost.  The counts here
do not depend on the machine or the hash seed: each test wraps a kernel
binding (``add_mul`` where gkm calls it, with the product loop
``_add_mul_terms`` where gkm and repaction add into term maps they own,
``Substitution._apply``, which makes every substitution, the
``exact_divide`` of repaction or root_system, ``Polynomial._make``,
which makes every polynomial, or ``MomentGraph.in_edges``), runs one
computation and pins the number of calls with ``==``.  A count that
moves, either way, is a change in the work done and is stated old -> new
where the change is described.
"""

import importlib
import json

import pytest

from gkmcalc import gkm, repaction
from gkmcalc.gkm import (
    KnutsonTaoBasis,
    expand_in_basis,
    knutson_tao_class_billey,
    knutson_tao_class_solve,
    kt_report,
)
from gkmcalc.moment_graph import (
    MomentGraph,
    build_flag_moment_graph,
    build_schubert_moment_graph,
    graph_to_json,
    load_external_graph,
)
from gkmcalc.polyring import Polynomial, Substitution
from gkmcalc.repaction import (
    act,
    decompose,
    divided_difference_closure,
    divided_difference_expansion,
    left_divided_difference,
    right_divided_difference,
    symmetrize,
)
from gkmcalc.root_system import root_system

# the module, which the package's root_system factory shadows as an attribute
root_system_module = importlib.import_module("gkmcalc.root_system")


@pytest.fixture
def count(monkeypatch):
    """count(owner, name, key) wraps owner.name to add one to calls[key]
    per call; several bindings may share a key."""
    calls: dict[str, int] = {}

    def wrap(owner, name, key):
        real = getattr(owner, name)

        def counting(*args, **kwargs):
            calls[key] = calls.get(key, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    wrap.calls = calls
    return wrap


def count_add_mul(count):
    """Every multiply-add: add_mul, and the in-place product loop of the
    basis expansion, reconstruction, simple-reflection step and
    decompose's identity check."""
    count(gkm, "add_mul", "add_mul")
    count(gkm, "_add_mul_terms", "add_mul")
    count(repaction, "_add_mul_terms", "add_mul")


def a4_class(w: str, v: str):
    """The class of v on the A:4 graph X_w (the flag graph for w = 4321)."""
    rs = root_system("A:4")
    g = build_schubert_moment_graph(rs, rs.parse_element(w))
    return knutson_tao_class_billey(g, rs.parse_element(v))


def test_a5_flag_basis_one_class_at_a_time(count):
    g = build_flag_moment_graph(root_system("A:5"))
    basis = KnutsonTaoBasis(g)
    count_add_mul(count)
    for v in g.vertices:
        basis.cls(v)
    assert count.calls == {"add_mul": 7245}


def test_a5_all_ones_reconstruct_and_expand(count):
    """One multiply-add per nonzero localization of each basis class in
    the sum, both ways: the expansion peels what reconstruction added."""
    g = build_flag_moment_graph(root_system("A:5"))
    basis = KnutsonTaoBasis(g)
    for v in g.vertices:
        basis.cls(v)
    count_add_mul(count)
    c = basis.reconstruct({v: 1 for v in g.vertices})
    assert count.calls == {"add_mul": 3781}
    assert expand_in_basis(c, basis) == {v: Polynomial.one(g.n) for v in g.vertices}
    assert count.calls == {"add_mul": 7562}


def test_billey_columns_on_every_a4_schubert_graph(count):
    """Each column Billey's walk builds reads its children off in_edges;
    a column whose rows are all dropped ends the walk below it."""
    rs = root_system("A:4")
    graphs = [build_schubert_moment_graph(rs, w) for w in rs.elements()]
    count(MomentGraph, "in_edges", "in_edges")
    for g in graphs:
        for v in g.vertices:
            knutson_tao_class_billey(g, v)
    assert count.calls == {"in_edges": 1210}


def test_a6_decompose(count):
    rs = root_system("A:6")
    g = build_schubert_moment_graph(rs, rs.parse_element("462513"))
    count_add_mul(count)
    count(Substitution, "_apply", "substitute")
    decompose(g)
    assert count.calls == {"add_mul": 3340, "substitute": 8014}


@pytest.mark.parametrize("label,calls", [
    ("B2", {"add_mul": 18, "substitute": 29}),
    ("G2", {"add_mul": 33, "substitute": 55}),
])
def test_rank_two_flag_decompose(count, label, calls):
    """The twists of B2 and G2 expand products: one substitution per
    symmetrize step and identity check, one multiply-add per descent."""
    g = build_flag_moment_graph(root_system(label))
    count_add_mul(count)
    count(Substitution, "_apply", "substitute")
    assert decompose(g).ok
    assert count.calls == calls


@pytest.mark.parametrize("label,w", [
    ("A:6", "462513"), ("A:4", None), ("B2", None), ("G2", None),
])
def test_decompose_builds_no_polynomial(count, label, w):
    """decompose holds S, its rows and the identity check's maps as term
    maps by element id, and makes no polynomial of them."""
    rs = root_system(label)
    g = (
        build_flag_moment_graph(rs)
        if w is None
        else build_schubert_moment_graph(rs, rs.parse_element(w))
    )
    count(Polynomial, "_make", "polynomials")
    assert decompose(g).ok
    assert count.calls.get("polynomials", 0) == 0


def test_symmetrize_on_the_a5_flag_graph(count):
    """The orbit sum of w0's class: one twist per coefficient and one
    multiply-add per descent, along the 10 steps of the coset chain."""
    rs = root_system("A:5")
    g = build_flag_moment_graph(rs)
    count_add_mul(count)
    count(Substitution, "_apply", "substitute")
    assert len(symmetrize({rs.longest_element(): 1}, g)) == 120
    assert count.calls == {"add_mul": 201, "substitute": 283}


def test_solve_on_the_reloaded_a4_flag_graph(count):
    """A vertex takes a head's value, as the same object, when it meets
    every constraint; each value is restricted once per label and class."""
    flag = build_flag_moment_graph(root_system("A:4"))
    g = load_external_graph(json.loads(json.dumps(graph_to_json(flag))))
    count(gkm, "exact_divide", "exact_divide")
    count(Substitution, "_apply", "substitute")
    classes = [knutson_tao_class_solve(g, v) for v in g.vertices]
    # the recursion runs only where no head's value meets every constraint,
    # at 34 of the 189 vertices the classes do not pin; only the first d + 1
    # out-labels of a vertex enter it, so a vertex with k of them makes
    # m(m - 1)/2 divisions, m = min(k, d + 1).  Each label pair is
    # restricted once per graph (22 pairs of the 6 labels), and each value
    # object once per label and class, when it is first read: 406 in the
    # head-value trials, 9 residues of the first d + 1 out-edges that no
    # trial read, 135 first residues t_1 on a later label's hyperplane (one
    # per division, less 9 the memo already held) and 25 in the checks of
    # the out-edges past the first d + 1
    assert count.calls == {"exact_divide": 144, "substitute": 597}
    assert len({id(p) for c in classes for _, p in c.items() if p}) == 58


def test_kt_report_on_an_a7_flag_class(count):
    """Each value object is restricted once per label it meets."""
    rs = root_system("A:7")
    g = build_flag_moment_graph(rs)
    c = knutson_tao_class_billey(g, rs.parse_element("2134567"))
    count(Substitution, "_apply", "substitute")
    assert kt_report(c).ok
    assert count.calls == {"substitute": 42}


def test_right_divided_difference(count):
    """One division per pair v < v s_i whose values differ."""
    c = a4_class("4321", "2143")
    count(repaction, "exact_divide", "exact_divide")
    for i in (1, 2, 3):
        right_divided_difference(i, c)
    assert count.calls == {"exact_divide": 18}


def test_left_divided_difference(count):
    c = a4_class("4321", "2143")
    count(repaction, "exact_divide", "exact_divide")
    count(Substitution, "_apply", "substitute")
    for i in (1, 2, 3):
        left_divided_difference(i, c)
    assert count.calls == {"exact_divide": 36, "substitute": 42}


def test_action_on_a_flag_class(count):
    """The pointwise action twists each nonzero localization once."""
    c = a4_class("4321", "2143")
    count(Substitution, "_apply", "substitute")
    act(root_system("A:4").parse_element("4321"), c)
    assert count.calls == {"substitute": 14}
    assert sum(1 for _, p in c.items() if p) == 14


def test_action_on_a_schubert_class(count):
    """On a Schubert graph the action expands in the basis, acts on the
    coefficients and rebuilds the class from the basis classes."""
    rs = root_system("A:4")
    c = a4_class("4231", "2143")
    count_add_mul(count)
    count(Substitution, "_apply", "substitute")
    count(gkm, "exact_divide", "exact_divide")
    count(MomentGraph, "in_edges", "in_edges")
    for i in (1, 2, 3):
        act(rs.simple_reflection(i), c)
    assert count.calls == {
        "add_mul": 147, "substitute": 3, "exact_divide": 6, "in_edges": 65
    }


def count_divided_difference_work(count):
    """Twists, and divisions where repaction or the root system divides."""
    count(Substitution, "_apply", "substitute")
    count(repaction, "exact_divide", "exact_divide")
    count(root_system_module, "exact_divide", "exact_divide")


def test_divided_difference_closure_on_the_a4_flag_graph(count):
    """Each expansion reached is one class with coefficient 1: one twist
    per D_i serves both its terms, and a constant needs no division."""
    g = build_flag_moment_graph(root_system("A:4"))
    count_divided_difference_work(count)
    assert len(divided_difference_closure(g)) == 25
    assert count.calls == {"substitute": 72}  # and no exact_divide


def test_divided_difference_expansion(count):
    """One twist per coefficient, and one division per coefficient that
    s_i moves."""
    rs = root_system("A:4")
    g = build_flag_moment_graph(rs)
    t1, t2, t3, t4 = (Polynomial.variable(4, k) for k in range(1, 5))
    expansion = {
        rs.parse_element("3142"): t3 - t4,
        rs.parse_element("2143"): t1 * t2 + 1,
        rs.parse_element("1324"): t1,
        rs.identity(): 2,
    }
    count_divided_difference_work(count)
    for i in (1, 2, 3):
        divided_difference_expansion(i, expansion, g)
    assert count.calls == {"substitute": 12, "exact_divide": 4}
