"""Acceptance criteria.

Each test implements one acceptance criterion at its stated tolerance
(exact equality throughout; runtime bounds where specified) and prints one
pass line; pytest -v shows the per-criterion verdicts.  Run with -s to see
the printed ledger inline.
"""

import json
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from gkmcalc.cli import main as cli_main
from gkmcalc.coxeter import all_permutations
from gkmcalc.gkm import (
    KnutsonTaoBasis,
    apply_group_element,
    check_gkm,
    expand_in_basis,
    expansions_equal,
    flag_basis,
    knutson_tao_class_descent,
    knutson_tao_class_solve,
    kt_report,
    restrict,
)
from gkmcalc.moment_graph import (
    build_flag_moment_graph,
    build_schubert_moment_graph,
    is_palais_smale,
    toric_hexagon_graph,
)
from gkmcalc.polyring import Polynomial, parse_polynomial, reduce_modulo
from gkmcalc.repaction import (
    act_on_schubert_basis,
    average_class,
    decompose,
    divided_difference_closure,
    divided_difference_expansion,
    left_divided_difference,
    right_divided_difference,
    _act_simple_on_expansion,
)
from gkmcalc.root_system import root_system, type_a
from gkmcalc.verify import SUITES, run_suites

FIGURE_CLASSES = {
    "123": {v: "1" for v in ("123", "213", "132", "231", "312", "321")},
    "213": {
        "123": "0",
        "213": "t1 - t2",
        "132": "0",
        "231": "t1 - t2",
        "312": "t1 - t3",
        "321": "t1 - t3",
    },
    "132": {
        "123": "0",
        "213": "0",
        "132": "t2 - t3",
        "231": "t1 - t3",
        "312": "t2 - t3",
        "321": "t1 - t3",
    },
}


def report(k: int, detail: str) -> None:
    print(f"ACCEPTANCE {k}: PASS -- {detail}")


def test_criterion_1_point_localizations_via_cli(capsys, tmp_path):
    """The displayed basis classes for e, (12), (23) on the rank-two flag
    graph come out bit-exactly, in under a second."""
    t0 = time.perf_counter()
    for vname, expected in FIGURE_CLASSES.items():
        out = tmp_path / f"{vname}.json"
        code = cli_main(
            ["class", "--type", "A:3", "--w", "321", "--v", vname,
             "--output", str(out)]
        )
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["localizations"] == expected  # zero tolerance
        assert obj["kt_conditions"]["ok"] is True
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    with capsys.disabled():
        report(1, f"three classes reproduced exactly in {elapsed:.3f}s")


def test_criterion_2_transposition_action(capsys):
    """Acting by the first simple transposition on the class of (12) gives
    the displayed class with expansion {(12): 1, e: t2-t1}; the second
    transposition fixes the class."""
    rs = type_a(3)
    g = build_flag_moment_graph(rs)
    b = flag_basis(rs)
    s1, s2 = rs.parse_element("213"), rs.parse_element("132")
    c12 = b.cls(s1)

    acted = apply_group_element(s1, c12)
    expected = {
        "123": "-t1 + t2",
        "213": "0",
        "132": "-t1 + t2",
        "231": "0",
        "312": "t2 - t3",
        "321": "t2 - t3",
    }
    got = {g.vertex_str(v): str(p) for v, p in acted.items()}
    assert got == expected

    expansion = expand_in_basis(acted, b)
    assert expansions_equal(
        expansion,
        {s1: Polynomial.one(3), rs.identity(): parse_polynomial("-t1 + t2", 3)},
    )
    assert apply_group_element(s2, c12) == c12
    with capsys.disabled():
        report(2, "action and expansion match the displayed values exactly")


def test_criterion_3_simple_action_formula_exhaustive(capsys):
    """Pointwise action restricted from the flag graph equals the simple
    transposition formula for all w in S_n (n=2,3,4), v <= w, simple i."""
    t0 = time.perf_counter()
    checks = 0
    for n in (2, 3, 4):
        rs = type_a(n)
        fb = flag_basis(rs)
        acted = {
            (i, v): apply_group_element(rs.simple_reflection(i), fb.cls(v))
            for v in rs.elements()
            for i in range(1, n)
        }
        for w in rs.elements():
            xg = build_schubert_moment_graph(rs, w)
            xb = KnutsonTaoBasis(xg)
            for v in xg.vertices:
                for i in range(1, n):
                    lhs = restrict(acted[(i, v)], xg)
                    rhs = xb.reconstruct(act_on_schubert_basis(i, v, xg))
                    assert lhs == rhs
                    checks += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    with capsys.disabled():
        report(3, f"{checks} exact localization comparisons in {elapsed:.2f}s")


def test_criterion_4_route_equivalence(capsys):
    """Billey-, descent- and solver-constructed classes agree for every base
    vertex, n <= 4 and B2, G2, and each satisfies the defining conditions."""
    count = 0
    for label in ("A:2", "A:3", "A:4", "B2", "G2"):
        rs = root_system(label)
        g = build_flag_moment_graph(rs)
        b = flag_basis(rs)
        for v in rs.elements():
            via_billey = b.cls(v)
            via_descent = knutson_tao_class_descent(g, v)
            via_solve = knutson_tao_class_solve(g, v)
            assert via_descent == via_billey  # exact equality
            assert via_solve == via_billey
            assert kt_report(via_billey).ok
            assert check_gkm(via_billey).ok
            count += 1
    with capsys.disabled():
        report(4, f"{count} classes agree across all three construction routes")


def test_criterion_5_decomposition_theorems(capsys):
    """For every Schubert variety with n <= 4: averaged classes are
    invariant, the change of basis is unitriangular, the action modulo the
    variable ideal is trivial, and graded multiplicities count lengths."""
    graphs = 0
    for n in (2, 3, 4):
        rs = type_a(n)
        for w in rs.elements():
            xg = build_schubert_moment_graph(rs, w)
            rep = decompose(xg)
            assert rep.ok
            assert all(r["invariant"] for r in rep.rows)
            assert all(r["unitriangular"] for r in rep.rows)
            assert rep.mod_t_identity
            assert rep.multiplicities == dict(
                Counter(rs.length(v) for v in xg.vertices)
            )
            graphs += 1
    rep = decompose(build_flag_moment_graph(type_a(3)))
    assert rep.poincare == [1, 2, 2, 1]
    with capsys.disabled():
        report(5, f"{graphs} Schubert varieties decompose as expected")


def test_criterion_6_palais_smale(capsys):
    """Every Schubert graph (n <= 5) passes with the stored orientation;
    the antipodally-labeled hexagon fails the flow-orientation search."""
    t0 = time.perf_counter()
    graphs = 0
    for n in (2, 3, 4, 5):
        rs = type_a(n)
        for w in rs.elements():
            res = is_palais_smale(build_schubert_moment_graph(rs, w), mode="given")
            assert res.holds
            graphs += 1
    hexagon = is_palais_smale(toric_hexagon_graph(), mode="search")
    assert not hexagon.holds
    assert hexagon.chambers_tried == 6
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    with capsys.disabled():
        report(6, f"{graphs} Schubert graphs pass, hexagon fails, {elapsed:.2f}s")


def test_criterion_7_general_type(capsys):
    """On B2 and G2 the simple reflection action subtracts alpha_i times
    the lower class at every descent, and the covering-reflection multiset
    identity holds for every covering pair."""
    actions = 0
    coverings = 0
    for label in ("B2", "G2"):
        rs = root_system(label)
        b = flag_basis(rs)
        for w in rs.elements():
            for i in range(1, rs.rank + 1):
                s = rs.simple_reflection(i)
                sw = rs.mul(s, w)
                lhs = apply_group_element(s, b.cls(w))
                if rs.length(sw) < rs.length(w):
                    rhs = b.cls(w) + b.cls(sw).scale(-rs.simple_root_form(i))
                    assert lhs == rhs
                    actions += 1
                else:
                    assert lhs == b.cls(w)
        for w in rs.elements():
            for alpha in rs.positive_roots:
                sa = rs.reflection(alpha)
                saw = rs.mul(sa, w)
                if rs.length(saw) != rs.length(w) + 1:
                    continue
                aform = rs.root_form(alpha)
                left = Counter(
                    reduce_modulo(rs.root_form(x), aform) for x in rs.inversions(saw)
                )
                right = Counter(
                    reduce_modulo(rs.root_form(rs.act_on_root(sa, x)), aform)
                    for x in rs.inversions(w)
                )
                right[reduce_modulo(aform, aform)] += 1
                assert left == right
                coverings += 1
    with capsys.disabled():
        report(7, f"{actions} descents and {coverings} covering pairs verified")


def test_criterion_8_divided_differences(capsys):
    """The coefficient formula matches the direct operator on 100+ random
    expansions; the right operator output is always a valid class; the
    closure from the top of the four-element interval contains the top and
    point classes, zero, and exactly one of the two length-one classes."""
    rng = random.Random(2024)
    cases = 0
    for n in (2, 3, 4):
        rs = type_a(n)
        b = flag_basis(rs)
        g = b.graph
        for _ in range(40):
            exp = {}
            for v in rng.sample(rs.elements(), k=min(3, len(rs.elements()))):
                exp[v] = Polynomial(
                    n,
                    {
                        tuple(rng.randint(0, 1) for _ in range(n)): Fraction(
                            rng.randint(-3, 3), rng.randint(1, 2)
                        )
                    },
                )
            exp = {v: p for v, p in exp.items() if p}
            i = rng.randint(1, n - 1)
            direct = left_divided_difference(i, b.reconstruct(exp), b)
            assert expansions_equal(
                divided_difference_expansion(i, exp, g),
                expand_in_basis(direct, b),
            )
            cases += 1
    assert cases >= 100

    for n in (2, 3, 4):
        rs = type_a(n)
        b = flag_basis(rs)
        for v in rs.elements():
            for i in range(1, n):
                assert check_gkm(right_divided_difference(i, b.cls(v))).ok

    rs = type_a(3)
    xg = build_schubert_moment_graph(rs, rs.parse_element("231"))
    reached = {
        frozenset((xg.vertex_str(v), p) for v, p in exp.items() if p)
        for exp in divided_difference_closure(xg)
    }
    one = Polynomial.one(3)
    delta = lambda name: frozenset({(name, one)})
    assert delta("231") in reached
    assert delta("123") in reached
    assert frozenset() in reached
    assert (delta("213") in reached) + (delta("132") in reached) == 1
    assert len(reached) == 4
    with capsys.disabled():
        report(8, f"{cases} random formula checks; closure as predicted")


def test_criterion_9_property_suites(capsys):
    """Every module's invariant suite runs green at n <= 4 within the
    two-minute budget."""
    t0 = time.perf_counter()
    results = run_suites(list(SUITES), max_n=4)
    elapsed = time.perf_counter() - t0
    failed = [r for r in results if not r.ok]
    assert not failed, [r.line() for r in failed]
    assert elapsed < 120.0
    with capsys.disabled():
        report(9, f"{len(results)} suite checks green in {elapsed:.2f}s")
