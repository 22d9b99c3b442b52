"""The coset-chain symmetrizer against the plain orbit sum.

The reference below is the averaging loop ``average_class`` used to run:
every element u of W applied to the expansion on its own, letter by letter
through ``act_word``, and the |W| images added up.  ``symmetrize`` and
``average_class`` must give exactly the same expansions.
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


def orbit_sum(expansion, g) -> dict:
    """Sum of u . E over every u in W, one act_word call per element."""
    total: dict = {}
    for u in g.rs.elements():
        for x, p in act_word(u, expansion, g).items():
            s = total.get(x)
            s = p if s is None else s + p
            if s:
                total[x] = s
            else:
                total.pop(x, None)
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
            assert average_class(v, xg).expansion == want[v], (label, w, v)


@pytest.mark.parametrize("w", A5_POOL)
def test_average_class_a5_decompose_pool(w):
    rs = root_system("A:5")
    xg = build_schubert_moment_graph(rs, rs.parse_element(w))
    for v in xg.vertices:
        assert average_class(v, xg).expansion == orbit_average(v, xg), (w, v)


@st.composite
def expansions(draw, rs):
    """A few flag vertices with integer coefficients of degree at most one."""
    vs = draw(
        st.lists(st.sampled_from(rs.elements()), min_size=1, max_size=3, unique=True)
    )
    small = st.integers(-3, 3)
    out = {}
    for v in vs:
        linear = {i: draw(small) for i in range(1, rs.dim + 1)}
        out[v] = Polynomial.linear_form(rs.dim, linear) + draw(small)
    return out


@pytest.mark.parametrize("label", ["A:3", "A:4", "B2", "G2"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_symmetrize_random_expansions(label, data):
    rs = root_system(label)
    g = build_flag_moment_graph(rs)
    exp = data.draw(expansions(rs))
    assert symmetrize(exp, g) == orbit_sum(exp, g)
