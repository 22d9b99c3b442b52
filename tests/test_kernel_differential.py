"""The polynomial kernel against a naive Fraction-only reference.

The reference below is the straightforward kernel: every coefficient a
``Fraction``, substitution by multiplying each term by powers of the
images and adding term by term, and exact division by rescanning the
remainder for its grlex-leading term.  The kernel in ``gkmcalc.polyring``
relabels exponents for variable permutations, accumulates into one dict,
stores integral coefficients as ``int`` and divides off a heap; on every
input here it must give the same polynomial, the same hash and the same
text and JSON bytes.  A compiled ``Substitution`` keeps the powers of its
images between calls, so one object is applied to many polynomials.  The
fused ``add_mul(p, a, b)`` must equal ``p + a * b``, and the batch text
form ``to_strings`` the straightforward per-polynomial formatter below.

The kernel packs each monomial into one int (see ``gkmcalc.polyring``);
the last section checks the packing itself, and every way of applying a
substitution, at the degree bound where a field is full.
"""

import json
import random
import sys
from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from gkmcalc import polyring, repaction
from gkmcalc.gkm import KnutsonTaoBasis
from gkmcalc.moment_graph import MAX_EXTERNAL_N, build_flag_moment_graph
from gkmcalc.polyring import (
    MAX_DEGREE,
    ExactDivisionError,
    Polynomial,
    Substitution,
    add_mul,
    exact_divide,
    hyperplane,
    parse_polynomial,
    polynomial_to_json,
    reduce_modulo,
    swap_substitution,
    to_string,
    to_strings,
)
from gkmcalc.repaction import decompose
from gkmcalc.root_system import root_system


# -- the reference: term maps {exponent: Fraction} ---------------------------


def _grlex(exp):
    return (sum(exp), exp)


def ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        c0 = out.get(e, Fraction(0)) + c
        if c0:
            out[e] = c0
        else:
            out.pop(e, None)
    return out


def ref_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out = ref_add(out, {tuple(x + y for x, y in zip(ea, eb)): ca * cb})
    return out


def ref_substitute(terms, n, assignment):
    images = {i - 1: q for i, q in assignment.items()}
    out = {}
    for exp, c in terms.items():
        term = {(0,) * n: c}
        plain = [0] * n
        for pos, e in enumerate(exp):
            if pos in images:
                for _ in range(e):
                    term = ref_mul(term, images[pos])
            else:
                plain[pos] = e
        term = ref_mul(term, {tuple(plain): Fraction(1)})
        out = ref_add(out, term)
    return out


def ref_pivot(f):
    return min((exp.index(1), c) for exp, c in f.items())


def ref_exact_divide(p, f):
    pos, c = ref_pivot(f)
    rem, quo = dict(p), {}
    while rem:
        exp = max(rem, key=_grlex)
        if exp[pos] == 0:
            raise ExactDivisionError("not a multiple")
        qc = rem[exp] / c
        qe = list(exp)
        qe[pos] -= 1
        qe = tuple(qe)
        quo = ref_add(quo, {qe: qc})
        rem = ref_add(rem, ref_mul({qe: -qc}, f))
    return quo


def ref_reduce_modulo(p, f, n):
    pos, c = ref_pivot(f)
    var = [0] * n
    var[pos] = 1
    h = ref_add({tuple(var): Fraction(1)}, {e: -k / c for e, k in f.items()})
    return ref_substitute(p, n, {pos + 1: h})


def ref_to_string(terms, prefix="t"):
    """The text form, one term at a time, from an exponent -> Fraction map."""
    if not terms:
        return "0"
    parts = []
    for exp in sorted(terms, key=_grlex, reverse=True):
        c = terms[exp]
        mono = "*".join(
            f"{prefix}{i}" if e == 1 else f"{prefix}{i}^{e}"
            for i, e in enumerate(exp, 1)
            if e
        )
        mag = abs(c)
        body = mono if mono and mag == 1 else f"{mag}*{mono}" if mono else str(mag)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


# -- comparison ----------------------------------------------------------------


def assert_matches(got, ref, n):
    """got (kernel) and ref (reference term map) are the same polynomial."""
    assert all(type(c) is Fraction for c in got.terms().values())
    assert got.terms() == ref
    for c in got._terms.values():
        # stored form: nonzero, int exactly when integral
        assert c and (type(c) is int or (type(c) is Fraction and c.denominator > 1))
    # the reference as the Fraction-only kernel stored it, under packed keys
    old = Polynomial._make(n, {polyring._pack(e): c for e, c in ref.items()})
    assert got == old and hash(got) == hash(old)
    assert to_string(got) == to_string(old) == ref_to_string(ref)
    assert to_string(got, prefix="a") == to_string(old, prefix="a")
    assert json.dumps(polynomial_to_json(got)) == json.dumps(polynomial_to_json(old))


def random_poly(rng, n, terms=6, max_deg=3, fractional=True):
    out = {}
    for _ in range(terms):
        exp = tuple(rng.randint(0, max_deg) for _ in range(n))
        c = Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)) if fractional else 1)
        out[exp] = out.get(exp, Fraction(0)) + c
    return Polynomial(n, out)


# -- substitution over whole Weyl groups ----------------------------------------


@pytest.mark.parametrize("label", ["A:2", "A:3", "A:4", "A:5", "B2", "G2"])
def test_coadjoint_substitution_whole_group(label):
    rs = root_system(label)
    n = rs.simple_root_form(1).n
    rng = random.Random(label)
    samples = [
        random_poly(rng, n, fractional=False),
        random_poly(rng, n, fractional=True),
        rs.simple_root_form(1) * Fraction(1, 2),
    ]
    for w in rs.elements():
        sub = rs.coadjoint_substitution(w)
        ref_sub = {i: q.terms() for i, q in sub.items()}
        for p in samples:
            assert_matches(p.substitute(sub), ref_substitute(p.terms(), n, ref_sub), n)


def test_permutations_relabel_without_products(monkeypatch):
    def no_expansion(*args):
        raise AssertionError("a variable permutation must not expand products")

    monkeypatch.setattr(polyring, "_expand", no_expansion)
    rs = root_system("A:4")
    p = random_poly(random.Random(4), 4)
    for w in rs.elements():
        p.substitute(rs.coadjoint_substitution(w))
        p.substitute(Substitution(4, rs.coadjoint_substitution(w)))
    p.substitute(swap_substitution(4, 1, 3))


# -- compiled substitutions: one object, many polynomials ---------------------


def _t(n, i):
    return Polynomial.variable(n, i)


_G2 = root_system("G2")


COMPILED_PATHS = {
    # name: (dimension, assignment), one per way of applying it
    "permutation": (4, {1: _t(4, 3), 2: _t(4, 1), 3: _t(4, 2)}),
    "transposition": (4, {2: _t(4, 4), 4: _t(4, 2)}),
    "collision": (4, {1: _t(4, 2), 3: _t(4, 2)}),
    "collision chain": (4, {1: _t(4, 2), 2: _t(4, 3)}),
    "identity": (4, {2: _t(4, 2)}),
    "empty": (4, {}),
    "type-A hyperplane": (4, {2: _t(4, 4)}),
    "general": (3, {1: _t(3, 2) * Fraction(1, 2) - _t(3, 3), 3: 2 * _t(3, 1)}),
    "G2 twist": (2, _G2.coadjoint_substitution(_G2.simple_reflection(2))),
}


@pytest.mark.parametrize("name", sorted(COMPILED_PATHS))
def test_one_compiled_substitution_for_rising_degrees(name):
    n, assignment = COMPILED_PATHS[name]
    sub = Substitution(n, assignment)
    assert sub.n == n
    ref_sub = {i: q.terms() for i, q in assignment.items()}
    rng = random.Random(name)
    samples = [random_poly(rng, n, max_deg=d) for d in range(7)]
    # rising degrees grow the kept powers; applying again must not change
    # an answer, nor must falling degrees
    for p in samples + samples[::-1]:
        want = ref_substitute(p.terms(), n, ref_sub)
        assert_matches(p.substitute(sub), want, n)
        assert_matches(p.substitute(assignment), want, n)
    # at most one kept power per image and exponent up to the highest seen
    assert len(sub._powers) <= len(assignment) * 6


def test_compiled_relabel_paths_form_no_products(monkeypatch):
    def no_products(*args):
        raise AssertionError("a relabelling must not form products")

    p = random_poly(random.Random(5), 4)
    # building the hyperplane forms a difference, so it comes before the patch
    plane = hyperplane(_t(4, 2) - _t(4, 4))
    monkeypatch.setattr(polyring, "_expand", no_products)
    monkeypatch.setattr(polyring, "_add_mul_terms", no_products)
    relabellings = ("permutation", "transposition", "collision", "collision chain")
    for name in (*relabellings, "identity", "empty"):
        p.substitute(Substitution(*COMPILED_PATHS[name]))
    p.substitute(plane)
    assert p.substitute(Substitution(4, {}))._terms is p._terms


def test_compiled_assignment_is_read_only():
    # editing the caller's mapping after compiling changes no result
    assignment = {1: _t(3, 2)}
    sub = Substitution(3, assignment)
    p = _t(3, 2) * _t(3, 1)
    assignment[2] = _t(3, 1)
    assignment[1] = _t(3, 3)
    assert p.substitute(sub) == _t(3, 2) ** 2
    assert p.substitute(assignment) == _t(3, 3) * _t(3, 1)


@pytest.mark.parametrize(
    "n,assignment,poly_n,message",
    [
        (3, {4: _t(3, 1)}, 3, "variable index 4 outside 1..3"),
        (3, {0: _t(3, 1)}, 3, "variable index 0 outside 1..3"),
        (3, {1: _t(2, 1)}, 3, "ring dimension mismatch: 3 vs 2"),
        (2, {1: _t(2, 2)}, 3, "ring dimension mismatch: 3 vs 2"),
    ],
)
def test_compiled_errors_keep_their_text(n, assignment, poly_n, message):
    p = _t(poly_n, 1) + 1
    with pytest.raises(ValueError, match=f"^{message}$"):
        p.substitute(Substitution(n, assignment))
    if n == poly_n:
        # a plain mapping is compiled for the polynomial's own dimension
        with pytest.raises(ValueError, match=f"^{message}$"):
            p.substitute(assignment)


# -- hypothesis: collisions and the general path --------------------------------

N = 3
coeffs = st.one_of(
    st.integers(-6, 6), st.fractions(min_value=-4, max_value=4, max_denominator=4)
)


@st.composite
def polys(draw, max_deg=3, max_terms=6):
    pairs = draw(
        st.lists(
            st.tuples(st.tuples(*[st.integers(0, max_deg)] * N), coeffs),
            max_size=max_terms,
        )
    )
    return Polynomial(N, dict(pairs))


@st.composite
def linear_forms(draw):
    cs = draw(st.lists(coeffs, min_size=N, max_size=N).filter(any))
    return Polynomial.linear_form(N, {i + 1: c for i, c in enumerate(cs)})


def v(i):
    return Polynomial.variable(N, i)


SPECIAL_ASSIGNMENTS = {
    "t1->t2 (collides with the fixed t2)": {1: v(2)},
    "t1->t2, t2->t2": {1: v(2), 2: v(2)},
    "t1->-t2": {1: -v(2)},
    "t1->2*t2": {1: 2 * v(2)},
    "t1->t2/2, t3->t1": {1: v(2) * Fraction(1, 2), 3: v(1)},
    "cycle": {1: v(2), 2: v(3), 3: v(1)},
    "t1->0": {1: Polynomial.zero(N)},
    # t1 + t2 goes to t2 + t3/2: halves that sum to an int
    "t1->(t2 + t3)/2, t2->t2/2": {
        1: (v(2) + v(3)) * Fraction(1, 2), 2: v(2) * Fraction(1, 2)
    },
    # every variable of a term moves, so its image chains three powers
    "t1->t1 + t2, t2->t2 + t3, t3->t1 - t3": {
        1: v(1) + v(2), 2: v(2) + v(3), 3: v(1) - v(3)
    },
}


# compiled once for the whole module: every example reuses the kept powers
COMPILED = {name: Substitution(N, sub) for name, sub in SPECIAL_ASSIGNMENTS.items()}


@pytest.mark.parametrize("name", sorted(SPECIAL_ASSIGNMENTS))
@settings(max_examples=60, deadline=None)
@given(p=polys())
def test_substitute_matches_reference(name, p):
    sub = SPECIAL_ASSIGNMENTS[name]
    ref_sub = {i: q.terms() for i, q in sub.items()}
    want = ref_substitute(p.terms(), N, ref_sub)
    assert_matches(p.substitute(sub), want, N)
    assert_matches(p.substitute(COMPILED[name]), want, N)


@settings(max_examples=60, deadline=None)
@given(p=polys(), f=linear_forms(), g=linear_forms())
def test_substitute_linear_images_matches_reference(p, f, g):
    sub = {1: f, 3: g}
    ref_sub = {i: q.terms() for i, q in sub.items()}
    assert_matches(p.substitute(sub), ref_substitute(p.terms(), N, ref_sub), N)


def test_collisions_cancel():
    t1, t2 = v(1), v(2)
    assert (t1 - t2).substitute({1: t2}).is_zero()
    assert (t1 * t1 - t1 * t2).substitute({1: t2, 2: t2}).is_zero()


def test_collisions_that_sum_to_an_integer_are_stored_as_int():
    """t1 -> t2 relabels 1/2*t1 onto 1/2*t2; their sum 1 is stored as int."""
    t1, t2 = v(1), v(2)
    half = Fraction(1, 2) * t1 + Fraction(1, 2) * t2
    sub = {1: t2}
    want = ref_substitute(half.terms(), N, {1: t2.terms()})
    assert_matches(half.substitute(sub), want, N)
    assert_matches(half.substitute(Substitution(N, sub)), want, N)


def test_expansions_that_sum_to_an_integer_are_stored_as_int():
    """Each term's image is added into the result as it is formed: the
    images of t1 and t2 put 1/2*t2 twice on t2, whose sum 1 is an int."""
    name = "t1->(t2 + t3)/2, t2->t2/2"
    sub = SPECIAL_ASSIGNMENTS[name]
    p = v(1) + v(2) + 2 * v(1) * v(2)
    want = ref_substitute(p.terms(), N, {i: q.terms() for i, q in sub.items()})
    assert want[(0, 1, 0)] == 1
    assert_matches(p.substitute(sub), want, N)
    assert_matches(p.substitute(COMPILED[name]), want, N)


def test_three_moving_variables_chain_every_power():
    """The image of t1*t2*t3 is the product of three two-term images; each
    of them must enter it, and t1^2*t3's square power beside them."""
    name = "t1->t1 + t2, t2->t2 + t3, t3->t1 - t3"
    sub = SPECIAL_ASSIGNMENTS[name]
    p = v(1) * v(2) * v(3) + 2 * v(1) * v(1) * v(3)
    want = ref_substitute(p.terms(), N, {i: q.terms() for i, q in sub.items()})
    assert_matches(p.substitute(sub), want, N)
    assert_matches(p.substitute(COMPILED[name]), want, N)


@settings(max_examples=80, deadline=None)
@given(p=polys(), q=polys())
def test_mul_matches_reference(p, q):
    assert_matches(p * q, ref_mul(p.terms(), q.terms()), N)


@settings(max_examples=80, deadline=None)
@given(p=polys(), q=polys(), c=coeffs)
def test_add_and_scale_match_reference(p, q, c):
    assert_matches(p + q, ref_add(p.terms(), q.terms()), N)
    assert_matches(p - q, ref_add(p.terms(), (-q).terms()), N)
    assert_matches(p * c, ref_mul(p.terms(), {(0,) * N: Fraction(c)} if c else {}), N)


@pytest.mark.parametrize("c", [3, -1, Fraction(2, 3), Fraction(-3, 2), Fraction(6), 0])
def test_scale_matches_reference(c):
    """A scalar product scales each term once, on either side: by an int, a
    Fraction, a Fraction whose products are integral (3/2 and 6 times
    multiples of 2/3) and 0."""
    rng = random.Random(7)
    ints = random_poly(rng, N, terms=12, fractional=False)
    for p in (ints, random_poly(rng, N, terms=12), ints * Fraction(2, 3)):
        want = ref_mul(p.terms(), {(0,) * N: Fraction(c)} if c else {})
        assert_matches(p * c, want, N)
        assert_matches(c * p, want, N)


@settings(max_examples=80, deadline=None)
@given(p=polys(), f=linear_forms(), r=polys(max_deg=1, max_terms=2), g=linear_forms())
def test_exact_divide_matches_reference(p, f, r, g):
    for num, den in ((p * f, f), (p * f, g), (p * f + r, f)):
        try:
            want = ref_exact_divide(num.terms(), den.terms())
        except ExactDivisionError:
            with pytest.raises(ExactDivisionError):
                exact_divide(num, den)
        else:
            assert_matches(exact_divide(num, den), want, N)


@settings(max_examples=80, deadline=None)
@given(p=polys(), f=linear_forms())
def test_reduce_modulo_matches_reference(p, f):
    assert_matches(reduce_modulo(p, f), ref_reduce_modulo(p.terms(), f.terms(), N), N)


@settings(max_examples=40, deadline=None)
@given(ps=st.lists(polys(max_deg=4), min_size=1, max_size=6), f=linear_forms())
def test_one_hyperplane_reduces_many(ps, f):
    plane = hyperplane(f)
    for p in sorted(ps, key=Polynomial.total_degree) + ps:
        assert_matches(p.substitute(plane), ref_reduce_modulo(p.terms(), f.terms(), N), N)


def test_exact_divide_failures():
    t1, t2, t3 = v(1), v(2), v(3)
    for num, den in ((t1 - t3, t1 - t2), (t1 * t1 + 1, t1), (t2 * t3, 2 * t1 + t3)):
        with pytest.raises(ExactDivisionError):
            ref_exact_divide(num.terms(), den.terms())
        with pytest.raises(ExactDivisionError):
            exact_divide(num, den)


# -- the fused multiply-add ------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(p=polys(), a=polys(), b=polys())
def test_add_mul_matches_reference(p, a, b):
    want = ref_add(p.terms(), ref_mul(a.terms(), b.terms()))
    got = add_mul(p, a, b)
    assert_matches(got, want, N)
    assert got == p + a * b
    assert_matches(add_mul(Polynomial.zero(N), a, b), ref_mul(a.terms(), b.terms()), N)
    assert add_mul(p, a, Polynomial.zero(N)) == p == add_mul(p, Polynomial.zero(N), b)


@settings(max_examples=60, deadline=None)
@given(a=polys(), b=polys(), c=polys())
def test_add_mul_cancels_to_zero(a, b, c):
    # p = -(a * b) cancels every term; with p = a * (b - c), a * c cancels
    assert add_mul(-(a * b), a, b)._terms == {}
    assert_matches(add_mul(a * (b - c), a, c), ref_mul(a.terms(), b.terms()), N)


def test_add_mul_stores_integral_fractions_as_int():
    t1, t2 = v(1), v(2)
    half = (t1 + t2) * Fraction(1, 2)
    for got, want in (
        (add_mul(half * t1, half, t1), t1 * t1 + t1 * t2),  # 1/2 + 1/2 per term
        (add_mul(t1 * t1, half, 2 * t1), 2 * t1 * t1 + t1 * t2),
        (add_mul(Polynomial.zero(N), half, 2 * (t1 - t2)), t1 * t1 - t2 * t2),
    ):
        assert got == want
        assert all(type(c) is int for c in got._terms.values())
    third = add_mul(t1, t1, Polynomial.constant(N, Fraction(-2, 3)))._terms
    assert third == {polyring._pack((1, 0, 0)): Fraction(1, 3)}


def test_add_mul_checks_the_ring():
    other = Polynomial.variable(N + 1, 1)
    for args in ((other, v(1), v(2)), (v(1), other, v(2)), (v(1), v(2), other)):
        with pytest.raises(ValueError, match="ring dimension mismatch"):
            add_mul(*args)


def test_a_perturbed_table_entry_flips_invariant(monkeypatch):
    """decompose's identity check, run through the fused product loop, still
    sees a broken table: one orbit sum that the read-off turns into S_x is
    perturbed."""
    g = build_flag_moment_graph(root_system("A:3"))
    assert decompose(g).ok
    calls = []
    add_mul_terms = repaction._add_mul_terms

    def counting(out, a, b, n):
        calls.append(1)
        return add_mul_terms(out, a, b, n)

    orbit_sum = repaction._orbit_sum

    def perturbed(terms, graph):
        total = repaction._by_element(orbit_sum(terms, graph), graph)
        y = graph.vertex_by_str("132")
        total[y] = total[y] + Polynomial.variable(graph.n, 1)
        return repaction._by_id(total, graph)

    monkeypatch.setattr(repaction, "_add_mul_terms", counting)
    monkeypatch.setattr(repaction, "_orbit_sum", perturbed)
    report = decompose(g)
    assert calls  # the identity check went through the fused kernel
    assert not report.ok
    assert report.generator_invariance[1] is False
    flipped = [r["v"] for r in report.rows if not r["invariant"]]
    assert flipped and len(flipped) < len(report.rows)


# -- the batch text form --------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(ps=st.lists(polys(), max_size=8), c=coeffs)
def test_to_strings_matches_the_reference(ps, c):
    ps = ps + [-p for p in ps] + [Polynomial.constant(N, c), Polynomial.zero(N)]
    for prefix in ("t", "a", "x"):
        want = [ref_to_string(p.terms(), prefix) for p in ps]
        assert to_strings(ps, prefix) == want
        assert [to_string(p, prefix) for p in ps] == want
        assert to_strings(iter(ps), prefix) == want


def test_to_strings_of_one_ring():
    assert to_strings([]) == []
    with pytest.raises(ValueError, match="ring dimension mismatch"):
        to_strings([v(1), Polynomial.variable(N + 1, 1)])


def test_to_strings_forms_each_object_once():
    # each temporary is dropped after its turn, so a later one may take its
    # id; the text is keyed by the object, which the call holds
    t1 = Polynomial.variable(2, 1)
    assert to_strings(Polynomial.variable(2, 1) * k for k in (1, 2, 3)) == [
        "t1",
        "2*t1",
        "3*t1",
    ]
    assert to_strings(t1 + k for k in range(1, 50)) == [f"t1 + {k}" for k in range(1, 50)]
    shared = t1 - 2 * Polynomial.variable(2, 2)
    assert to_strings([shared, t1, shared], "a") == ["a1 - 2*a2", "a1", "a1 - 2*a2"]


def test_to_strings_holds_each_polynomial_until_it_returns():
    # whether a freed temporary's id recurs depends on the allocator, so
    # check the cause: two items back, the call still holds a reference
    t1 = Polynomial.variable(2, 1)
    made, refs = [], []

    def temporaries():
        for k in range(1, 6):
            if k > 2:
                refs.append(sys.getrefcount(made[k - 3]))  # made, the argument
            made.append(t1 + k)
            yield made[-1]

    assert to_strings(temporaries()) == [f"t1 + {k}" for k in range(1, 6)]
    assert refs and min(refs) > 2


@pytest.mark.parametrize("label", ["A:2", "A:3", "A:4", "B2", "G2"])
def test_to_strings_of_every_class_of_a_flag_graph(label):
    """Every class's text is the reference's, and parses back to the class."""
    g = build_flag_moment_graph(root_system(label))
    basis = KnutsonTaoBasis(g)
    localizations = [p for v in g.vertices for _, p in basis.cls(v).items()]
    want = [ref_to_string(p.terms(), g.var_prefix) for p in localizations]
    texts = to_strings(localizations, g.var_prefix)
    assert texts == want
    assert [parse_polynomial(text, g.n) for text in texts] == localizations


def test_fractions_that_become_integral_are_stored_as_int():
    t1, t2 = v(1), v(2)
    half = (t1 + t2) * Fraction(1, 2)
    assert all(type(c) is Fraction for c in half._terms.values())
    for p in (half * 2, half + half, exact_divide(2 * t1 * t1 - 2 * t1 * t2, 2 * t1)):
        assert all(type(c) is int for c in p._terms.values())
    third = exact_divide(t1 * t2, 3 * t1)._terms
    assert third == {polyring._pack((0, 1, 0)): Fraction(1, 3)}
    assert all(type(c) is Fraction for c in third.values())


# -- packed monomials and the degree bound ----------------------------------------

DIMS = [*range(10), MAX_EXTERNAL_N]


@st.composite
def exponents(draw, n):
    """An exponent vector in n variables of total degree at most MAX_DEGREE."""
    exp = [0] * n
    if n:
        size = draw(
            st.one_of(st.integers(0, 6), st.integers(0, MAX_DEGREE), st.just(MAX_DEGREE))
        )
        for pos in draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size)):
            exp[pos] += 1
    return tuple(exp)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.sampled_from(DIMS))
def test_pack_unpack_round_trip(data, n):
    exp = data.draw(exponents(n))
    key = polyring._pack(exp)
    assert polyring._unpack(key, n) == exp
    assert key >> polyring._BITS * n == sum(exp)  # the degree is the top field
    p = Polynomial(n, {exp: 3})
    assert p.terms() == {exp: 3} and p.coefficient(exp) == 3
    assert p.total_degree() == sum(exp)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.sampled_from(DIMS))
def test_key_order_is_graded_lex(data, n):
    a, b = data.draw(exponents(n)), data.draw(exponents(n))
    ka, kb = polyring._pack(a), polyring._pack(b)
    assert (ka < kb) == ((sum(a), a) < (sum(b), b))
    assert (ka == kb) == (a == b)
    if sum(a) + sum(b) <= MAX_DEGREE:
        # a product of monomials is a sum of keys
        assert polyring._pack(tuple(map(add, a, b))) == ka + kb


@pytest.mark.parametrize("n", DIMS)
def test_key_order_at_the_corners(n):
    # the constant, then each variable to the power MAX_DEGREE, grlex-ascending
    corners = [(0,) * n] + [
        tuple(MAX_DEGREE if i == pos else 0 for i in range(n)) for pos in reversed(range(n))
    ]
    keys = [polyring._pack(e) for e in corners]
    assert keys == sorted(keys) and len(set(keys)) == len(keys) == n + 1
    assert [polyring._unpack(k, n) for k in keys] == corners


BOUND_PATHS = {
    # name: (assignment, the compiled path it must take)
    "xor swap": ({1: v(3), 3: v(1)}, "_swap"),
    "permutation": ({1: v(2), 2: v(3), 3: v(1)}, "_moves"),
    "move": ({2: v(3)}, "_moves"),
    "move, two sources": ({1: v(3), 2: v(3)}, "_moves"),
    "expand, monomial images": ({1: 2 * v(2), 3: v(3) * Fraction(-1, 2)}, "_images"),
    "expand, linear image": ({1: v(2) - v(3)}, "_images"),
}


@st.composite
def polys_at_the_bound(draw, low=MAX_DEGREE - 2, high=MAX_DEGREE, max_first=MAX_DEGREE):
    """Polynomials whose terms have total degree low .. high."""
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        d = draw(st.integers(low, high))
        a = draw(st.integers(0, min(d, max_first)))
        b = draw(st.integers(0, d - a))
        terms[(a, b, d - a - b)] = draw(coeffs.filter(bool))
    return Polynomial(N, terms)


@pytest.mark.parametrize("name", sorted(BOUND_PATHS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_substitution_paths_at_the_degree_bound(name, data):
    assignment, path = BOUND_PATHS[name]
    sub = Substitution(N, assignment)
    assert getattr(sub, path) is not None
    # a two-term image makes the reference expand (t2 - t3)^e term by term
    max_first = 4 if name.endswith("linear image") else MAX_DEGREE
    p = data.draw(polys_at_the_bound(max_first=max_first))
    want = ref_substitute(p.terms(), N, {i: q.terms() for i, q in assignment.items()})
    got = p.substitute(sub)
    assert_matches(got, want, N)
    assert got.total_degree() <= MAX_DEGREE


def test_expansion_checks_the_degree_in_the_chain_order():
    """The degree of a term's image is checked as the chain t3^50 * t1^200 *
    t2^180 forms it: 250, then 430.  The two powers alone (380) or the
    term's own degree (210) would name another degree."""
    t1, t2 = v(1), v(2)
    p = Polynomial(N, {(100, 60, 50): 1})
    sub = {1: t1 * t1, 2: t2 * t2 * t2}
    message = f"^total degree 430 is above MAX_DEGREE = {MAX_DEGREE}$"
    for assignment in (sub, Substitution(N, sub)):
        with pytest.raises(ValueError, match=message):
            p.substitute(assignment)
    # a zero image ends the chain, after the checks of the factors before it
    zero = {1: v(3) * v(3), 2: Polynomial.zero(N)}
    assert Polynomial(N, {(120, 5, 0): 1}).substitute(zero).is_zero()
    with pytest.raises(ValueError, match="^total degree 260 is above"):
        Polynomial(N, {(120, 1, 20): 1}).substitute(zero)


@settings(max_examples=30, deadline=None)
@given(p=polys_at_the_bound(low=MAX_DEGREE - 1, high=MAX_DEGREE - 1), f=linear_forms())
def test_product_and_exact_divide_at_the_degree_bound(p, f):
    prod = p * f
    assert_matches(prod, ref_mul(p.terms(), f.terms()), N)
    assert prod.total_degree() == MAX_DEGREE
    assert_matches(exact_divide(prod, f), ref_exact_divide(prod.terms(), f.terms()), N)
    with pytest.raises(ValueError, match=f"total degree {MAX_DEGREE + 1} is above"):
        prod * f


@settings(max_examples=30, deadline=None)
@given(p=polys_at_the_bound(low=MAX_DEGREE - 1, high=MAX_DEGREE - 1), f=linear_forms())
def test_add_mul_at_the_degree_bound(p, f):
    prod = p * f
    assert prod.total_degree() == MAX_DEGREE
    # degree 255 is accepted, with or without a polynomial to add to
    assert add_mul(prod, p, f) == prod + prod
    assert add_mul(Polynomial.zero(N), p, f) == prod
    with pytest.raises(ValueError) as product:
        prod * f
    with pytest.raises(ValueError) as fused:
        add_mul(f, prod, f)
    assert str(fused.value) == str(product.value)
    assert str(fused.value) == (
        f"total degree {MAX_DEGREE + 1} is above MAX_DEGREE = {MAX_DEGREE}"
    )
