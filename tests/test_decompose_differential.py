"""``decompose`` against the loop it replaced, and its checks under mutation.

The reference below is the decomposition loop as it ran on the averaged
classes: every check in exact rationals on ``average_class``, each
simple reflection applied term by term (``rs.mul`` and two lengths per
term), unitriangularity by one ``bruhat_leq`` per support element.
``decompose`` runs the same checks on the integral orbit sum, its steps
reading the root system's tables; reports must match in JSON and table
text.  The mutation tests corrupt the orbit sum ``decompose`` checks and
show that the checks catch it.
"""

from fractions import Fraction

import pytest

from gkmcalc import repaction
from gkmcalc.gkm import expansions_equal
from gkmcalc.moment_graph import build_flag_moment_graph, build_schubert_moment_graph
from gkmcalc.polyring import Polynomial
from gkmcalc.repaction import DecompositionReport, average_class, decompose
from gkmcalc.root_system import root_system

# the A:5 varieties the decompose benchmark workload draws from
A5_POOL = ("23451", "23514", "25134", "41253")


def simple_step(i, expansion, g):
    """s_i on a basis expansion, looking up s_i v and both lengths per term."""
    rs = g.rs
    s = rs.simple_reflection(i)
    sub = rs.coadjoint_substitution(s)
    minus_alpha = -rs.simple_root_form(i)
    out: dict = {}

    def add(v, p):
        cur = out.get(v)
        cur = p if cur is None else cur + p
        if cur:
            out[v] = cur
        else:
            out.pop(v, None)

    for v, cv in expansion.items():
        tw = cv.substitute(sub)
        add(v, tw)
        sv = rs.mul(s, v)
        if rs.length(sv) < rs.length(v):
            add(sv, tw * minus_alpha)
    return out


def reference_decompose(g) -> DecompositionReport:
    rs = g.rs
    report = DecompositionReport(
        type_label=g.metadata.get("type", rs.label),
        w_label=g.metadata.get("w", ""),
    )
    gen_ok = {i: True for i in range(1, rs.rank + 1)}
    mod_t_ok = True
    one = Polynomial.one(g.n)
    for v in g.vertices:
        deg = rs.length(v)
        avg = average_class(v, g)
        invariant = True
        for i in range(1, rs.rank + 1):
            if not expansions_equal(simple_step(i, avg.expansion, g), avg.expansion):
                invariant = False
                gen_ok[i] = False
        unitri = avg.expansion.get(v) == one and all(
            rs.bruhat_leq(u, v) for u in avg.expansion
        )
        if not unitri:
            report.unitriangular = False
        for i in range(1, rs.rank + 1):
            image = simple_step(i, {v: one}, g)
            consts = {
                u: p.constant_term() for u, p in image.items() if p.constant_term()
            }
            if consts != {v: Fraction(1)}:
                mod_t_ok = False
        report.rows.append(
            {
                "v": g.vertex_str(v),
                "degree": deg,
                "invariant": invariant,
                "unitriangular": unitri,
                "support": sorted(g.vertex_str(u) for u in avg.expansion),
            }
        )
        report.multiplicities[deg] = report.multiplicities.get(deg, 0) + 1
    top = max(report.multiplicities) if report.multiplicities else 0
    report.poincare = [report.multiplicities.get(d, 0) for d in range(top + 1)]
    report.generator_invariance = gen_ok
    report.mod_t_identity = mod_t_ok
    return report


def assert_same_report(g):
    got, want = decompose(g), reference_decompose(g)
    assert got.to_json() == want.to_json()
    assert got.table() == want.table()
    assert got.ok


@pytest.mark.parametrize("label", ["A:2", "A:3", "A:4", "B2", "G2"])
def test_every_schubert_variety(label):
    rs = root_system(label)
    for w in rs.elements():
        assert_same_report(build_schubert_moment_graph(rs, w))


@pytest.mark.parametrize("w", A5_POOL)
def test_a5_decompose_pool(w):
    rs = root_system("A:5")
    assert_same_report(build_schubert_moment_graph(rs, rs.parse_element(w)))


def _mutate_orbit_sum(monkeypatch, corrupt):
    real = repaction.symmetrize

    def mutant(expansion, g):
        total = real(expansion, g)
        (v,) = expansion
        corrupt(total, v, g)
        return total

    monkeypatch.setattr(repaction, "symmetrize", mutant)


@pytest.mark.parametrize("label", ["A:3", "B2", "G2"])
def test_dropped_term_breaks_invariance(monkeypatch, label):
    def drop_one_below(total, v, g):
        # a term one step below v; for v = e there is none
        below = [u for u in total if g.rs.length(u) == g.rs.length(v) - 1]
        if below:
            del total[below[0]]

    _mutate_orbit_sum(monkeypatch, drop_one_below)
    rs = root_system(label)
    rep = decompose(build_flag_moment_graph(rs))
    e = rs.element_str(rs.identity())
    assert all(not r["invariant"] for r in rep.rows if r["v"] != e)
    assert not all(rep.generator_invariance.values())
    assert not rep.ok


@pytest.mark.parametrize("label", ["A:3", "B2", "G2"])
def test_changed_top_coefficient_breaks_unitriangularity(monkeypatch, label):
    def bump_top(total, v, g):
        total[v] = total[v] + Polynomial.one(g.n)

    _mutate_orbit_sum(monkeypatch, bump_top)
    rep = decompose(build_flag_moment_graph(root_system(label)))
    assert not any(r["unitriangular"] for r in rep.rows)
    assert not rep.unitriangular
    assert not rep.ok


@pytest.mark.parametrize("label", ["A:3", "B2", "G2"])
def test_term_outside_the_interval_breaks_unitriangularity(monkeypatch, label):
    def add_top_element(total, v, g):
        w0 = g.rs.longest_element()
        if w0 != v:
            total[w0] = Polynomial.one(g.n)

    _mutate_orbit_sum(monkeypatch, add_top_element)
    rs = root_system(label)
    rep = decompose(build_flag_moment_graph(rs))
    w0 = rs.element_str(rs.longest_element())
    assert all(r["unitriangular"] == (r["v"] == w0) for r in rep.rows)
    assert not rep.ok


@pytest.mark.parametrize("label", ["A:2", "A:3", "A:4", "B2", "G2"])
def test_divided_differences_of_the_identity_coefficients(label):
    """P_x, the coefficient of the identity class in the average of x, obeys
    d_i P_x = -P_{x s_i} when x s_i < x and d_i P_x = 0 otherwise."""
    rs = root_system(label)
    g = build_flag_moment_graph(rs)
    e, zero = rs.identity(), Polynomial.zero(g.n)
    P = {x: average_class(x, g).expansion.get(e, zero) for x in rs.elements()}
    for x in rs.elements():
        for i in range(1, rs.rank + 1):
            xs = rs.mul(x, rs.simple_reflection(i))
            want = -P[xs] if rs.length(xs) < rs.length(x) else zero
            assert rs.divided_difference(P[x], i) == want, (label, x, i)


def test_vertex_outside_the_graph_is_refused():
    rs = root_system("A:3")
    g = build_schubert_moment_graph(rs, rs.parse_element("231"))
    outside = {rs.longest_element(): Polynomial.one(g.n)}
    with pytest.raises(ValueError, match="not in graph"):
        repaction.act_word(rs.simple_reflection(1), outside, g)
