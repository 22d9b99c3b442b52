"""``decompose`` against the loop it replaced, and its checks under mutation.

The reference below is the decomposition loop as it ran on the averaged
classes: every check in exact rationals on ``average_class``, each
simple reflection applied term by term (``rs.mul`` and two lengths per
term), unitriangularity by one ``bruhat_leq`` per support element.
``decompose`` runs the same checks on the integral orbit sum, its steps
reading the root system's tables; reports must match in JSON and table
text.  ``decompose`` reads every row off a table S_x built from the orbit
sums of the vertices with no right ascent in the graph; the mutation tests
corrupt those orbit sums and show that the checks catch it, computing the
rows each corruption must fail from ``rs.mul`` and ``rs.length``.  A
constant term put into one generator's -alpha_i must make the mod-t
identity fail wherever some vertex descends by that generator.  The
table S itself is anchored by the BGG divided differences of the product
of the positive roots, formed without the simple twists the steps read.
"""

from fractions import Fraction

import pytest

from gkmcalc import repaction
from gkmcalc.gkm import expansions_equal
from gkmcalc.moment_graph import build_flag_moment_graph, build_schubert_moment_graph
from gkmcalc.polyring import Polynomial, exact_divide
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
            if not expansions_equal(simple_step(i, avg, g), avg):
                invariant = False
                gen_ok[i] = False
        unitri = avg.get(v) == one and all(rs.bruhat_leq(u, v) for u in avg)
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
                "support": sorted(g.vertex_str(u) for u in avg),
            }
        )
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


def reads(rs, v, x) -> bool:
    """x <= v in right weak order: v = x y with l(x) + l(y) = l(v)."""
    return rs.length(x) + rs.length(rs.mul(rs.inv(x), v)) == rs.length(v)


def right_maximal(g) -> set:
    """The vertices of g with no right ascent inside g."""
    rs = g.rs
    return {
        v
        for v in g.vertices
        if not any(
            rs.mul(v, s) in g and rs.length(rs.mul(v, s)) > rs.length(v)
            for s in map(rs.simple_reflection, range(1, rs.rank + 1))
        )
    }


def _mutate_orbit_sum(monkeypatch, corrupt):
    """Corrupt every orbit sum decompose reads its table S from.  The sums
    are term maps by element id; corrupt sees them as polynomials by
    element, and its changes are read back by id."""
    real = repaction._orbit_sum

    def mutant(terms, g):
        total = repaction._by_element(real(terms, g), g)
        (k,) = terms
        corrupt(total, g.rs.elements()[k], g)
        return repaction._by_id(total, g)

    monkeypatch.setattr(repaction, "_orbit_sum", mutant)


def _count_orbit_sums(monkeypatch, calls):
    """Record the elements of the expansion of every orbit sum taken."""
    real = repaction._orbit_sum

    def counting(terms, g):
        calls.append(tuple(g.rs.elements()[k] for k in terms))
        return real(terms, g)

    monkeypatch.setattr(repaction, "_orbit_sum", counting)


def _corrupt_coefficient(monkeypatch, label, change):
    """Change S_x for one mid-length x in the flag graph's one orbit sum;
    return the graph and x.  S_x is the coefficient of x^{-1} w0 there."""
    rs = root_system(label)
    x = rs.elements()[len(rs.elements()) // 2]
    y = rs.mul(rs.inv(x), rs.longest_element())

    def corrupt(total, v, g):
        assert v == rs.longest_element()
        change(total, y, g)

    _mutate_orbit_sum(monkeypatch, corrupt)
    return build_flag_moment_graph(rs), x


def assert_rows_reading_x_fail(rep, g, x):
    rs = g.rs
    want = {g.vertex_str(v): not reads(rs, v, x) for v in g.vertices}
    assert {r["v"]: r["invariant"] for r in rep.rows} == want
    assert not all(rep.generator_invariance.values())
    assert all(r["unitriangular"] for r in rep.rows)
    assert not rep.ok


@pytest.mark.parametrize("label", ["A:3", "B2", "G2"])
def test_dropped_term_breaks_invariance(monkeypatch, label):
    g, x = _corrupt_coefficient(monkeypatch, label, lambda total, y, g: total.pop(y))
    assert_rows_reading_x_fail(decompose(g), g, x)


@pytest.mark.parametrize("label", ["A:3", "B2", "G2"])
def test_changed_coefficient_breaks_invariance(monkeypatch, label):
    def add_t1(total, y, g):
        total[y] = total[y] + Polynomial.variable(g.n, 1)

    g, x = _corrupt_coefficient(monkeypatch, label, add_t1)
    assert_rows_reading_x_fail(decompose(g), g, x)


@pytest.mark.parametrize(
    "label,k,want",
    [("A:3", 3, {1: True, 2: False}), ("A:4", 1, {1: False, 2: True, 3: True})],
)
def test_corrupted_entry_names_its_generator(monkeypatch, label, k, want):
    """S_{w0} is the coefficient at e of the flag graph's one orbit sum, and
    only the identity at x = w0 reads it: s_i(S_{w0}) = S_{w0} +
    alpha_i S_{w0 s_i} for every i.  Adding t_k to it breaks that identity
    for the generators that move t_k, and only w0's row fails."""
    rs = root_system(label)

    def add_tk(total, v, g):
        e = g.vertices[0]
        total[e] = total.get(e, Polynomial.zero(g.n)) + Polynomial.variable(g.n, k)

    _mutate_orbit_sum(monkeypatch, add_tk)
    g = build_flag_moment_graph(rs)
    rep = decompose(g)
    assert rep.generator_invariance == want
    assert rep.to_json()["generator_invariance"] == {str(i): ok for i, ok in want.items()}
    top = g.vertex_str(rs.longest_element())
    assert {r["v"]: r["invariant"] for r in rep.rows} == {
        g.vertex_str(v): g.vertex_str(v) != top for v in g.vertices
    }
    assert rep.unitriangular and not rep.ok


@pytest.mark.parametrize("label", ["A:3", "B2", "G2"])
def test_changed_top_coefficient_breaks_unitriangularity(monkeypatch, label):
    """The top coefficient of an orbit sum is S_e, which every row reads at v."""

    def bump_top(total, v, g):
        total[v] = total[v] + Polynomial.one(g.n)

    _mutate_orbit_sum(monkeypatch, bump_top)
    rs = root_system(label)
    for g in (
        build_flag_moment_graph(rs),
        build_schubert_moment_graph(rs, rs.elements()[-2]),
    ):
        rep = decompose(g)
        assert not any(r["unitriangular"] for r in rep.rows)
        assert not rep.unitriangular
        assert not rep.ok


@pytest.mark.parametrize("label", ["A:3", "B2", "G2"])
def test_term_outside_the_interval_breaks_unitriangularity(monkeypatch, label):
    """A term of a symmetrized orbit sum at a vertex y not <= v in left weak
    order, so outside its factorization walk (whether or not y <= v in
    Bruhat order), is never dropped: it makes the row of v fail."""

    def add_outside(total, v, g):
        rs = g.rs
        outside = [y for y in g.vertices if not reads(rs, v, rs.mul(v, rs.inv(y)))]
        for y in outside:
            total[y] = Polynomial.one(g.n)

    _mutate_orbit_sum(monkeypatch, add_outside)
    rs = root_system(label)
    failed = 0
    for w in rs.elements():
        g = build_schubert_moment_graph(rs, w)
        rep = decompose(g)
        want = {
            g.vertex_str(v)
            for v in right_maximal(g)
            if any(not reads(rs, v, rs.mul(v, rs.inv(y))) for y in g.vertices)
        }
        assert {r["v"] for r in rep.rows if not r["unitriangular"]} == want
        for r in rep.rows:
            if r["v"] in want:
                assert set(r["support"]) == {g.vertex_str(y) for y in g.vertices}
        assert rep.ok == (not want)
        failed += len(want)
    assert failed


def test_disagreeing_second_reading_breaks_unitriangularity(monkeypatch):
    """S_e is read off every symmetrized orbit sum; each reading after the
    first that disagrees with it fails its own row."""
    first = {}

    def bump_later_tops(total, v, g):
        if first.setdefault(g, v) != v:
            total[v] = total[v] + Polynomial.one(g.n)

    _mutate_orbit_sum(monkeypatch, bump_later_tops)
    rs = root_system("A:4")
    failed = 0
    for w in rs.elements():
        g = build_schubert_moment_graph(rs, w)
        rep = decompose(g)
        top = [v for v in g.vertices if v in right_maximal(g)]
        want = {g.vertex_str(v) for v in top[1:]}
        assert {r["v"] for r in rep.rows if not r["unitriangular"]} == want
        assert all(r["invariant"] for r in rep.rows)
        failed += len(want)
    assert failed


@pytest.mark.parametrize("label", ["A:3", "B2", "G2"])
def test_flag_graph_symmetrizes_w0_alone(monkeypatch, label):
    calls = []
    _count_orbit_sums(monkeypatch, calls)
    rs = root_system(label)
    assert decompose(build_flag_moment_graph(rs)).ok
    assert calls == [(rs.longest_element(),)]


def test_schubert_graphs_symmetrize_each_right_maximal_vertex_once(monkeypatch):
    calls = []
    _count_orbit_sums(monkeypatch, calls)
    rs = root_system("A:4")
    several = 0
    for w in rs.elements():
        calls.clear()
        g = build_schubert_moment_graph(rs, w)
        assert decompose(g).ok
        assert len(calls) == len(set(calls))
        assert {v for (v,) in calls} == right_maximal(g)
        several += len(calls) > 1
    assert several


@pytest.mark.parametrize(
    "label,w", [("A:5", "54321"), ("A:6", "351624")], ids=["A:5-flag", "A:6-351624"]
)
def test_read_off_rows_equal_orbit_sums(label, w):
    rs = root_system(label)
    g = build_schubert_moment_graph(rs, rs.parse_element(w))
    ids = [rs.index[v] for v in g.vertices]
    _, rows = repaction._read_off(g, ids)
    for k in ids:
        row, _, clean = rows[k]
        assert clean
        assert row == repaction._orbit_sum({k: {0: 1}}, g)


@pytest.mark.parametrize("label", ["A:2", "A:3", "A:4", "B2", "G2"])
def test_divided_differences_of_the_identity_coefficients(label):
    """P_x, the coefficient of the identity class in the average of x, obeys
    d_i P_x = -P_{x s_i} when x s_i < x and d_i P_x = 0 otherwise."""
    rs = root_system(label)
    g = build_flag_moment_graph(rs)
    e, zero = rs.identity(), Polynomial.zero(g.n)
    P = {x: average_class(x, g).get(e, zero) for x in rs.elements()}
    for x in rs.elements():
        for i in range(1, rs.rank + 1):
            xs = rs.mul(x, rs.simple_reflection(i))
            want = -P[xs] if rs.length(xs) < rs.length(x) else zero
            assert rs.divided_difference(P[x], i) == want, (label, x, i)


def bgg_table(rs) -> dict:
    """S by element id from the top down, without the root system's simple
    twists (BGG 1973): S_{w0} = (-1)^{|Phi+|} times the product of the
    positive roots, and S_{x s_i} = -d_i S_x whenever x s_i < x, each d_i
    formed from the coadjoint substitution of s_i and alpha_i."""
    steps = [
        (rs.coadjoint_substitution(rs.simple_reflection(i)), rs.simple_root_form(i))
        for i in range(1, rs.rank + 1)
    ]
    top = Polynomial.constant(rs.dim, (-1) ** len(rs.positive_roots))
    for beta in rs.positive_roots:
        top = top * rs.root_form(beta)
    w0 = len(rs.elements()) - 1
    table = {w0: top}
    for x in range(w0, -1, -1):  # ids by length: x s_i > x comes first
        p = table[x]
        for (sub, alpha), row in zip(steps, rs.rmul):
            xs = row[x]
            if rs.lengths[xs] < rs.lengths[x] and xs not in table:
                table[xs] = -exact_divide(p - p.substitute(sub), alpha)
    return table


def read_off_table(g) -> dict:
    """decompose's table S of g, its term maps as polynomials."""
    table, _ = repaction._read_off(g, [g.rs.index[v] for v in g.vertices])
    return {x: Polynomial._make(g.n, c) for x, c in table.items()}


@pytest.mark.parametrize("label", ["A:2", "A:3", "A:4", "A:5", "A:6", "B2", "G2"])
def test_read_off_table_is_the_bgg_table(label):
    """Every S_x decompose reads off the orbit sums is, up to sign, the BGG
    harmonic polynomial d_{x^{-1} w0} of the product of the roots."""
    rs = root_system(label)
    assert read_off_table(build_flag_moment_graph(rs)) == bgg_table(rs)


@pytest.mark.parametrize("label,ok", [("A:3", False), ("B2", True), ("G2", True)])
def test_wrong_sign_of_alpha_breaks_the_bgg_table(monkeypatch, label, ok):
    """With +alpha_1 in place of -alpha_1 in the steps' simple twist, the
    rank-two orbit sums still pass decompose's own checks, which read the
    same twist; the BGG table, which does not, tells them apart."""
    rs = root_system(label)
    g = build_flag_moment_graph(rs)
    twists = list(rs.simple_twists)
    sub, minus_alpha = twists[0]
    twists[0] = (sub, -minus_alpha)
    monkeypatch.setattr(rs, "simple_twists", tuple(twists))
    assert decompose(g).ok is ok
    assert read_off_table(g) != bgg_table(rs)


def _constant_in_minus_alpha(monkeypatch, rs, i):
    """Give -alpha_i in the simple_twists entry of s_i the constant term 1."""
    twists = list(rs.simple_twists)
    sub, minus_alpha = twists[i - 1]
    twists[i - 1] = (sub, minus_alpha + Polynomial.one(rs.dim))
    monkeypatch.setattr(rs, "simple_twists", tuple(twists))


@pytest.mark.parametrize(
    "label,w,i",
    [("A:3", None, 1), ("A:3", None, 2), ("G2", None, 2), ("A:4", "2413", 2)],
    ids=["A:3-flag-1", "A:3-flag-2", "G2-flag-2", "A:4-2413-2"],
)
def test_constant_term_breaks_the_mod_t_identity(monkeypatch, label, w, i):
    """Mod t the step moves the constant term of -alpha_i down to s_i v."""
    rs = root_system(label)
    top = rs.longest_element() if w is None else rs.parse_element(w)
    g = build_schubert_moment_graph(rs, top)
    assert decompose(g).mod_t_identity
    _constant_in_minus_alpha(monkeypatch, rs, i)
    rep = decompose(g)
    assert rep.to_json()["mod_t_identity"] is False
    assert not rep.ok


def test_generator_that_moves_nothing_keeps_the_mod_t_identity(monkeypatch):
    """On X_{s_1} no vertex descends by s_2, so s_2 moves no term at all."""
    rs = root_system("A:3")
    g = build_schubert_moment_graph(rs, rs.simple_reflection(1))
    _constant_in_minus_alpha(monkeypatch, rs, 2)
    assert decompose(g).mod_t_identity


def test_vertex_outside_the_graph_is_refused():
    rs = root_system("A:3")
    g = build_schubert_moment_graph(rs, rs.parse_element("231"))
    outside = {rs.longest_element(): Polynomial.one(g.n)}
    with pytest.raises(ValueError, match="not in graph"):
        repaction.act_word(rs.simple_reflection(1), outside, g)
