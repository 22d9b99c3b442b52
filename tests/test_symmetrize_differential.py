"""The coset-chain symmetrizer against the plain orbit sum.

The reference below is the averaging loop ``average_class`` used to run:
every element u of W applied to the expansion on its own, letter by letter
along its reduced word, and the |W| images added up.  Its simple-reflection
step is its own, term by term: s_i v and both lengths from ``rs.mul`` and
``rs.length``, the twist by ``coadjoint_substitution`` and every sum by
immutable ``+``, so it shares no code with the step ``symmetrize`` and
``act_word`` run.  ``symmetrize``, ``act_word`` and ``average_class`` must
give exactly the same expansions.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gkmcalc.moment_graph import build_flag_moment_graph, build_schubert_moment_graph
from gkmcalc.polyring import Polynomial
from gkmcalc.repaction import act_word, average_class, symmetrize
from gkmcalc.root_system import root_system

# the A:5 varieties the decompose benchmark workload draws from
A5_POOL = ("23451", "23514", "25134", "41253")


def add(total: dict, v, p) -> None:
    s = total.get(v)
    s = p if s is None else s + p
    if s:
        total[v] = s
    else:
        total.pop(v, None)


def simple_step(i, expansion, g) -> dict:
    """s_i on an expansion: each coefficient twisted, and -alpha_i times the
    twist moved to s_i v when s_i v is shorter."""
    rs = g.rs
    s = rs.simple_reflection(i)
    sub = rs.coadjoint_substitution(s)
    minus_alpha = -rs.simple_root_form(i)
    out: dict = {}
    for v, cv in expansion.items():
        tw = cv.substitute(sub)
        add(out, v, tw)
        sv = rs.mul(s, v)
        if rs.length(sv) < rs.length(v):
            add(out, sv, tw * minus_alpha)
    return out


def act(u, expansion, g) -> dict:
    for i in reversed(g.rs.reduced_word(u)):
        expansion = simple_step(i, expansion, g)
    return expansion


def orbit_sum(expansion, g) -> dict:
    """Sum of u . E over every u in W, one element at a time."""
    total: dict = {}
    for u in g.rs.elements():
        for x, p in act(u, expansion, g).items():
            add(total, x, p)
    return total


def orbit_average(v, g) -> dict:
    scale = Fraction(1, len(g.rs.elements()))
    return {x: p * scale for x, p in orbit_sum({v: Polynomial.one(g.n)}, g).items()}


@pytest.mark.parametrize("label", ["A:2", "A:3", "A:4", "B2", "G2"])
def test_average_class_every_schubert_variety(label):
    # s_i acting on the class of v only involves v and s_i v <= v, so the
    # orbit sum of [v] is the same on every graph that contains v; the
    # reference is taken once per element on the flag graph
    rs = root_system(label)
    want = {v: orbit_average(v, build_flag_moment_graph(rs)) for v in rs.elements()}
    for w in rs.elements():
        xg = build_schubert_moment_graph(rs, w)
        for v in xg.vertices:
            assert average_class(v, xg) == want[v], (label, w, v)


@pytest.mark.parametrize("w", A5_POOL)
def test_average_class_a5_decompose_pool(w):
    rs = root_system("A:5")
    xg = build_schubert_moment_graph(rs, rs.parse_element(w))
    for v in xg.vertices:
        assert average_class(v, xg) == orbit_average(v, xg), (w, v)


@st.composite
def expansions(draw, g):
    """A few flag vertices with int or Fraction coefficients of degree at
    most one, and terms that cancel: a pair s_1 v < v with coefficients
    -alpha_1 c and c, which the chain's first step (s_1) cancels at s_1 v,
    in either order, and E - u . E, whose orbit sum is zero."""
    rs = g.rs
    small = st.fractions(-3, 3, max_denominator=2)
    vs = draw(
        st.lists(st.sampled_from(rs.elements()), min_size=1, max_size=3, unique=True)
    )
    out = {}
    for v in vs:
        linear = {i: draw(small) for i in range(1, rs.dim + 1)}
        out[v] = Polynomial.linear_form(rs.dim, linear) + draw(small)
    if draw(st.booleans()):
        s1 = rs.simple_reflection(1)
        above = [v for v in rs.elements() if rs.length(rs.mul(s1, v)) < rs.length(v)]
        v = draw(st.sampled_from(above))
        c = Polynomial.constant(rs.dim, draw(small))
        pair = {rs.mul(s1, v): -rs.simple_root_form(1) * c, v: c}
        for x in draw(st.permutations(list(pair))):
            out.pop(x, None)
            out[x] = pair[x]
    if draw(st.booleans()):
        for x, p in act(draw(st.sampled_from(rs.elements())), dict(out), g).items():
            out[x] = out.get(x, 0) - p
    return out


@pytest.mark.parametrize("label", ["A:3", "A:4", "B2", "G2"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_symmetrize_random_expansions(label, data):
    rs = root_system(label)
    g = build_flag_moment_graph(rs)
    exp = data.draw(expansions(g))
    assert symmetrize(exp, g) == orbit_sum(exp, g)
    u = data.draw(st.sampled_from(rs.elements()))
    assert act_word(u, exp, g) == act(u, {v: p for v, p in exp.items() if p}, g)
