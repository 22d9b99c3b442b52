"""Runnable invariant suites backing the ``verify`` CLI command.

Each suite re-checks the structural facts its module relies on, mostly by
exhaustive enumeration at desk scale (the Weyl groups involved are tiny)
plus seeded randomized checks for the polynomial ring.  Suites return
:class:`CheckResult` rows so the CLI can print a pass/fail ledger and the
test suite can assert on them.

Every row is one entry of ``_ROWS``, which declares its scope once: a
type-A cap runs the row on A:2 up to A:min(max n, cap), a rank-two flag
adds B2 and G2, and a polyring row runs once in min(max n, cap) variables.
A row's check sees one root system at a time and yields a verdict per
case.  Only the runner reads the entry: it builds the root systems, ANDs
and counts the verdicts, and ends the detail with the range it ran, and
the summary line names the largest size any row ran, so neither the
details nor the summary can claim more than ran.
"""

from __future__ import annotations

import random
from collections import Counter, namedtuple
from collections.abc import Iterator
from fractions import Fraction
from itertools import combinations
from math import factorial

from .coxeter import Permutation, all_permutations, inversion_pairs
from .gkm import (
    KnutsonTaoBasis,
    _polynomials,
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
from .moment_graph import (
    build_flag_moment_graph,
    build_schubert_moment_graph,
    is_palais_smale,
    toric_hexagon_graph,
    validate_axioms,
)
from .polyring import (
    Polynomial,
    divides,
    exact_divide,
    poly_divided_difference,
    reduce_modulo,
)
from .repaction import (
    _by_element,
    _read_off,
    act_on_schubert_basis,
    act_word,
    average_class,
    decompose,
    divided_difference_expansion,
    left_divided_difference,
    right_divided_difference,
    symmetrize,
)
from .root_system import root_system, type_a

__all__ = ["CheckResult", "SUITES", "ledger", "run_suite", "run_suites"]
_TRIALS = 60  # random cases per polyring check


class CheckResult:
    def __init__(self, suite: str, name: str, ok: bool, detail: str = ""):
        self.suite = suite
        self.name = name
        self.ok = ok
        self.detail = detail

    def line(self) -> str:
        mark = "PASS" if self.ok else "FAIL"
        tail = f" -- {self.detail}" if self.detail else ""
        return f"{mark} {self.suite}/{self.name}{tail}"


def _random_poly(rng: random.Random, n: int, max_deg: int = 2, terms: int = 3) -> Polynomial:
    out: dict = {}
    for _ in range(rng.randint(0, terms)):
        exp = tuple(rng.randint(0, max_deg) for _ in range(n))
        out[exp] = out.get(exp, 0) + Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Polynomial(n, out)


def _random_linear_form(rng: random.Random, n: int) -> Polynomial:
    while True:
        coeffs = {i: rng.randint(-3, 3) for i in range(1, n + 1)}
        p = Polynomial.linear_form(n, coeffs)
        if p:
            return p


# -- polyring: each check runs once, in n variables ----------------------------


def _ring_axioms(n: int, rng: random.Random) -> Iterator[bool]:
    for _ in range(_TRIALS):
        p, q, r = (_random_poly(rng, n) for _ in range(3))
        yield (p + q) + r == p + (q + r)
        yield p + q == q + p
        yield p * q == q * p
        yield (p * q) * r == p * (q * r)
        yield p * (q + r) == p * q + p * r


def _divide_roundtrip(n: int, rng: random.Random) -> Iterator[bool]:
    for _ in range(_TRIALS):
        p = _random_poly(rng, n)
        f = _random_linear_form(rng, n)
        prod = p * f
        yield divides(f, prod)
        if prod:
            yield exact_divide(prod, f) == p
        g = _random_linear_form(rng, n)
        agree_left = divides(g, prod)
        try:
            exact_divide(prod, g) if prod else None
            agree_right = True
        except Exception:
            agree_right = False
        if prod:
            yield agree_left == agree_right


def _ddiff_squares_to_zero(n: int, rng: random.Random) -> Iterator[bool]:
    for _ in range(_TRIALS):
        p = _random_poly(rng, n)
        for i in range(1, n):
            yield poly_divided_difference(poly_divided_difference(p, i), i).is_zero()


def _substitution_homomorphism(n: int, rng: random.Random) -> Iterator[bool]:
    for _ in range(_TRIALS):
        p, q = _random_poly(rng, n), _random_poly(rng, n)
        w = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        sub = {i: Polynomial.variable(n, w(i)) for i in range(1, n + 1)}
        yield (p * q).substitute(sub) == p.substitute(sub) * q.substitute(sub)
        yield (p + q).substitute(sub) == p.substitute(sub) + q.substitute(sub)
        yield p.substitute(sub).total_degree() == p.total_degree()


# -- root_system: each check sees one root system ------------------------------


def _group_orders(rs) -> Iterator[bool]:
    els = rs.elements()
    order = {"B2": 8, "G2": 12}.get(rs.label) or factorial(rs.rank + 1)
    yield len(els) == order
    yield all(len(rs.inversions(w)) == rs.length(w) for w in els)


def _reflections(rs) -> Iterator[bool]:
    for alpha in rs.positive_roots:
        s = rs.reflection(alpha)
        yield rs.mul(s, s) == rs.identity()
        yield rs.act_on_root(s, alpha) == tuple(-x for x in alpha)
        others = [r for r in rs.positive_roots if r != alpha]
        imgs = {rs.act_on_root(rs.reflection(alpha), r) for r in others}
        if rs.reflection(alpha) in {rs.simple_reflection(i) for i in range(1, rs.rank + 1)}:
            yield imgs == set(others)


def _length_and_reduced_words(rs) -> Iterator[bool]:
    for w in rs.elements():
        word = rs.reduced_word(w)
        prod = rs.identity()
        for i in word:
            prod = rs.mul(prod, rs.simple_reflection(i))
        yield prod == w and len(word) == rs.length(w) == len(rs.inversions(w))


def _simple_edge_recursion(rs) -> Iterator[bool]:
    for w in rs.elements():
        inv_w = set(rs.inversions(w))
        for i in range(1, rs.rank + 1):
            s = rs.simple_reflection(i)
            sw = rs.mul(s, w)
            if rs.length(sw) <= rs.length(w):
                continue
            want = {rs.act_on_root(s, b) for b in inv_w} | {rs.simple_roots[i - 1]}
            yield set(rs.inversions(sw)) == want


def _covering_reflection_lemma(rs) -> Iterator[bool]:
    for w in rs.elements():
        for alpha in rs.positive_roots:
            sa = rs.reflection(alpha)
            saw = rs.mul(sa, w)
            if rs.length(saw) != rs.length(w) + 1:
                continue
            aform = rs.root_form(alpha)
            red = lambda beta: reduce_modulo(rs.root_form(beta), aform)
            left = Counter(red(b) for b in rs.inversions(saw))
            right = Counter(red(rs.act_on_root(sa, b)) for b in rs.inversions(w))
            right[red(alpha)] += 1
            yield left == right
            for i in range(1, rs.rank + 1):
                si = rs.simple_reflection(i)
                if si != sa and rs.length(rs.mul(si, w)) > rs.length(w):
                    yield rs.length(rs.mul(si, saw)) > rs.length(saw)


def _bruhat_partial_order(rs) -> Iterator[bool]:
    # all triples of elements, which is why the row stops at A:4
    els = rs.elements()
    leq = {(v, w): rs.bruhat_leq(v, w) for v in els for w in els}
    for w in els:
        below = rs.lower_interval(w)
        yield all(leq[(v, w)] == (v in below) for v in els)
    for v in els:
        yield leq[(v, v)]
        for w in els:
            if leq[(v, w)] and leq[(w, v)]:
                yield v == w
            if leq[(v, w)] and v != w:
                yield rs.length(v) < rs.length(w)
            for u in els:
                if leq[(u, v)] and leq[(v, w)]:
                    yield leq[(u, w)]


def _type_a_crosscheck(rs) -> Iterator[bool]:
    n = rs.n
    for w in all_permutations(n):
        pairs = inversion_pairs(w)
        vecs = set(rs.inversions(w))
        want = set()
        for i, j in pairs:
            vec = [0] * n
            vec[i - 1], vec[j - 1] = 1, -1
            want.add(tuple(vec))
        yield vecs == want
        yield rs.length(w) == w.length()


# -- moment_graph --------------------------------------------------------------


def _flag_axioms(rs) -> Iterator[bool]:
    yield validate_axioms(build_flag_moment_graph(rs)).ok


def _edge_lifting(rs) -> Iterator[bool]:
    n = rs.n
    g = build_flag_moment_graph(rs)
    edge_set = {(e.tail, e.head) for e in g.edges}
    for w in rs.elements():
        for i1, j1 in combinations(range(1, n + 1), 2):
            t = Permutation.transposition(n, i1, j1)
            tw = t * w
            if tw.length() != w.length() + 1 or (tw, w) not in edge_set:
                continue
            for i in range(1, n):
                s = Permutation.simple(n, i)
                if s == t or (s * w, w) not in edge_set:
                    continue
                yield (s * tw, tw) in edge_set


def _out_label_recursion(rs) -> Iterator[bool]:
    g = build_flag_moment_graph(rs)
    for w in rs.elements():
        for i in range(1, rs.rank + 1):
            s = rs.simple_reflection(i)
            sw = rs.mul(s, w)
            if rs.length(sw) <= rs.length(w):
                continue
            sub = rs.coadjoint_substitution(s)
            want = {e.label.substitute(sub) for e in g.out_edges(w)}
            want.add(rs.simple_root_form(i))
            yield {e.label for e in g.out_edges(sw)} == want


def _path_order_is_bruhat(rs) -> Iterator[bool]:
    g = build_flag_moment_graph(rs)
    for v in rs.elements():
        above = g.above(v)
        for w in rs.elements():
            yield (w in above) == rs.bruhat_leq(v, w)


def _schubert_induced_subgraph(rs) -> Iterator[bool]:
    g = build_flag_moment_graph(rs)
    full = {(e.tail, e.head, e.label) for e in g.edges}
    for w in rs.elements():
        xg = build_schubert_moment_graph(rs, w)
        yield validate_axioms(xg).ok
        sub_edges = {(e.tail, e.head, e.label) for e in xg.edges}
        verts = set(xg.vertices)
        induced = {e for e in full if e[0] in verts and e[1] in verts}
        yield sub_edges == induced


def _schubert_palais_smale(rs) -> Iterator[bool]:
    for w in rs.elements():
        xg = build_schubert_moment_graph(rs, w)
        yield is_palais_smale(xg, mode="given").holds


def _hexagon_not_palais_smale() -> Iterator[bool]:
    hexagon = toric_hexagon_graph()
    yield validate_axioms(hexagon).ok
    res = is_palais_smale(hexagon, mode="search")
    yield not res.holds
    # three label lines cut the plane into six sign chambers, and a search
    # that finds no orientation has tried them all
    yield res.chambers_tried == 6


# -- gkm -----------------------------------------------------------------------


def _kt_support_and_degree(rs) -> Iterator[bool]:
    basis = flag_basis(rs)
    for v in rs.elements():
        cls = basis.cls(v)
        yield kt_report(cls).ok
        lv = rs.length(v)
        for u in rs.elements():
            p = cls[u]
            if rs.bruhat_leq(v, u):
                yield p.is_zero() or p.is_homogeneous(lv)
            else:
                yield p.is_zero()


def _covering_localization_product(rs) -> Iterator[bool]:
    basis = flag_basis(rs)
    g = basis.graph
    for e in g.edges:
        u, v = e.tail, e.head  # covering edge u -> v iff lengths differ by 1
        if rs.length(u) != rs.length(v) + 1:
            continue
        prod = Polynomial.one(rs.n)
        for f in (x.label for x in g.out_edges(u)):
            if f != e.label:
                prod = prod * f
        yield basis.cls(v)[u] == prod


def _neighbor_localizations(rs) -> Iterator[bool]:
    basis = flag_basis(rs)
    for v in rs.elements():
        for i in range(1, rs.rank + 1):
            s = rs.simple_reflection(i)
            sv = rs.mul(s, v)
            if rs.length(sv) <= rs.length(v):
                continue
            sub = rs.coadjoint_substitution(s)
            pvv = basis.cls(v)[v]
            yield basis.cls(v)[sv].substitute(sub) == pvv
            yield (
                exact_divide(
                    basis.cls(sv)[sv].substitute(sub), -rs.simple_root_form(i)
                )
                == pvv
            )


def _route_equivalence(rs) -> Iterator[bool]:
    basis = flag_basis(rs)
    g = basis.graph
    for v in rs.elements():
        billey = basis.cls(v)
        descent = knutson_tao_class_descent(g, v)
        yield descent == billey == knutson_tao_class_solve(g, v)


def _restriction_preserves_kt(rs) -> Iterator[bool]:
    basis = flag_basis(rs)
    for w in rs.elements():
        xg = build_schubert_moment_graph(rs, w)
        for v in xg.vertices:
            yield kt_report(restrict(basis.cls(v), xg)).ok


def _expansion_roundtrip(rs, rng: random.Random) -> Iterator[bool]:
    basis = flag_basis(rs)
    for _ in range(10):
        exp = {
            v: _random_poly(rng, rs.n, max_deg=1, terms=2)
            for v in rng.sample(rs.elements(), k=min(3, len(rs.elements())))
        }
        cls = basis.reconstruct(exp)
        yield expansions_equal(expand_in_basis(cls, basis), exp)


# -- repaction -----------------------------------------------------------------


def _action_composition(rs) -> Iterator[bool]:
    basis = flag_basis(rs)
    sample = basis.cls(rs.longest_element())
    gens = [rs.simple_reflection(i) for i in range(1, rs.rank + 1)]
    for a in gens:
        for b in gens:
            lhs = apply_group_element(a, apply_group_element(b, sample))
            yield lhs == apply_group_element(rs.mul(a, b), sample)


def _simple_action_formula(rs) -> Iterator[bool]:
    basis = flag_basis(rs)
    simple = range(1, rs.rank + 1)
    acted = {}
    for v in rs.elements():
        for i in simple:
            acted[(i, v)] = apply_group_element(rs.simple_reflection(i), basis.cls(v))
    for w in rs.elements():
        xg = build_schubert_moment_graph(rs, w)
        xbasis = KnutsonTaoBasis(xg)
        for v in xg.vertices:
            for i in simple:
                lhs = restrict(acted[(i, v)], xg)
                rhs = xbasis.reconstruct(act_on_schubert_basis(i, v, xg))
                yield lhs == rhs


def _general_type_action_theorem(rs) -> Iterator[bool]:
    basis = flag_basis(rs)
    for w in rs.elements():
        for i in range(1, rs.rank + 1):
            s = rs.simple_reflection(i)
            sw = rs.mul(s, w)
            lhs = apply_group_element(s, basis.cls(w))
            if rs.length(sw) > rs.length(w):
                yield lhs == basis.cls(w)
            else:
                yield lhs == basis.cls(w) + basis.cls(sw).scale(-rs.simple_root_form(i))


def _action_triangularity(rs) -> Iterator[bool]:
    g = flag_basis(rs).graph
    one = Polynomial.one(rs.n)
    for w in rs.elements():
        for u in rs.elements():
            exp = act_word(u, {w: one}, g)
            yield exp.get(w) == one
            for v, cv in exp.items():
                yield rs.bruhat_leq(v, w)
                yield cv.is_homogeneous(rs.length(w) - rs.length(v))
                if v != w:
                    yield cv.constant_term() == 0


def _word_independence(rs) -> Iterator[bool]:
    n = rs.n
    basis = flag_basis(rs)
    g = basis.graph
    w0 = rs.longest_element()
    words = [rs.reduced_word(w0)]
    alt = list(reversed(words[0]))
    prod = rs.identity()
    for i in alt:
        prod = rs.mul(prod, rs.simple_reflection(i))
    if prod == w0:
        words.append(alt)
    for v in rs.elements():
        results = []
        for word in words:
            exp = {v: Polynomial.one(n)}
            for i in reversed(word):
                exp = act_word(rs.simple_reflection(i), exp, g)
            results.append(exp)
        yield all(expansions_equal(r, results[0]) for r in results)
        yield expansions_equal(
            act_word(w0, {v: Polynomial.one(n)}, g),
            expand_in_basis(apply_group_element(w0, basis.cls(v)), basis),
        )


def _divided_difference_basics(rs) -> Iterator[bool]:
    basis = flag_basis(rs)
    for v in rs.elements():
        for i in range(1, rs.n):
            dd = left_divided_difference(i, basis.cls(v), basis)
            yield left_divided_difference(i, dd, basis).is_zero()
            sv = rs.mul(rs.simple_reflection(i), v)
            if rs.length(sv) > rs.length(v):
                yield dd.is_zero()
            else:
                yield dd == basis.cls(sv)
            rd = right_divided_difference(i, basis.cls(v))
            yield check_gkm(rd).ok


def _ddiff_expansion_formula(rs, rng: random.Random) -> Iterator[bool]:
    n = rs.n
    basis = flag_basis(rs)
    g = basis.graph
    for _ in range(40):
        exp = {
            v: _random_poly(rng, n, max_deg=1, terms=2)
            for v in rng.sample(rs.elements(), k=min(3, len(rs.elements())))
        }
        exp = {v: p for v, p in exp.items() if p}
        i = rng.randint(1, n - 1)
        direct = left_divided_difference(i, basis.reconstruct(exp), basis)
        yield expansions_equal(
            divided_difference_expansion(i, exp, g),
            expand_in_basis(direct, basis),
        )


def _averaging_invariance(rs) -> Iterator[bool]:
    g = build_flag_moment_graph(rs)
    one = Polynomial.one(g.n)
    scale = Fraction(1, len(rs.elements()))
    for v in rs.elements():
        avg = average_class(v, g)
        for i in range(1, rs.rank + 1):
            yield expansions_equal(act_word(rs.simple_reflection(i), avg, g), avg)
        # the orbit sum, one group element at a time
        orbit: dict = {}
        for u in rs.elements():
            for x, p in act_word(u, {v: one}, g).items():
                orbit[x] = orbit.get(x, 0) + p
        yield expansions_equal(avg, {x: p * scale for x, p in orbit.items()})
    yield expansions_equal(average_class(rs.identity(), g), {rs.identity(): one})


def _orbit_sum_read_off(rs) -> Iterator[bool]:
    g = build_flag_moment_graph(rs)
    one, ids = Polynomial.one(g.n), [rs.index[v] for v in g.vertices]
    table, rows = _read_off(g, ids)
    # every row decompose reads off is the orbit sum of its vertex alone
    for v, k in zip(g.vertices, ids):
        row, _, clean = rows[k]
        row = _by_element(row, g)
        yield clean and expansions_equal(row, symmetrize({v: one}, g))
    # d_i S_x = -S_{x s_i} when x s_i < x and 0 otherwise, by exact division
    table, zero = _polynomials(table, g.n), Polynomial.zero(g.n)
    for x, p in table.items():
        for i in range(1, rs.rank + 1):
            xs = rs.rmul[i - 1][x]
            want = -table[xs] if rs.lengths[xs] < rs.lengths[x] else zero
            yield rs.divided_difference(p, i) == want


def _decomposition_report(rs) -> Iterator[bool]:
    for w in rs.elements():
        xg = build_schubert_moment_graph(rs, w)
        rep = decompose(xg)
        yield rep.ok
        want = Counter(rs.length(v) for v in xg.vertices)
        yield rep.multiplicities == dict(want)


# -- the row table and its runner ----------------------------------------------

# check: the row's function.  It takes a root system, or the number of
# variables when `variables` is set, or nothing when the row has neither a
# cap nor rank_two; then a random.Random when `seed` is set.  It yields one
# verdict per case it checks.  cap: the largest A:n it runs.  rank_two: it
# also runs B2 and G2.  detail: the fixed part of the detail, where "{}"
# takes the number of verdicts.  seed: the offset added to --seed; the rows
# of a suite with one offset draw from one generator, in ledger order.
_Row = namedtuple(
    "_Row",
    "suite name check cap rank_two detail seed variables",
    defaults=(None, False, "", None, False),
)

_ROWS = (
    _Row("polyring", "ring-axioms", _ring_axioms, 4,
         detail=f"{_TRIALS} random triples", seed=0, variables=True),
    _Row("polyring", "divide-roundtrip", _divide_roundtrip, 4,
         detail="divides iff exact_divide", seed=0, variables=True),
    _Row("polyring", "ddiff-squares-to-zero", _ddiff_squares_to_zero, 4,
         seed=0, variables=True),
    _Row("polyring", "substitution-homomorphism", _substitution_homomorphism, 4,
         detail="variable permutations", seed=0, variables=True),
    _Row("root_system", "group-orders", _group_orders, 4, True,
         "orders n!, 8, 12; lengths count inversions"),
    _Row("root_system", "reflections", _reflections, 4, True,
         "involution; s_i permutes other positives"),
    _Row("root_system", "length-and-reduced-words", _length_and_reduced_words, 4, True),
    _Row("root_system", "simple-edge-recursion", _simple_edge_recursion, 4, True),
    _Row("root_system", "covering-reflection-lemma", _covering_reflection_lemma, 4, True,
         "mod-alpha multiset + lifting"),
    _Row("root_system", "bruhat-partial-order", _bruhat_partial_order, 4, True,
         "refines length, matches subword intervals"),
    _Row("root_system", "type-a-crosscheck", _type_a_crosscheck, 4,
         detail="roots match inversion pairs"),
    _Row("moment_graph", "flag-axioms", _flag_axioms, 4, True),
    _Row("moment_graph", "edge-lifting", _edge_lifting, 4),
    _Row("moment_graph", "out-label-recursion", _out_label_recursion, 4, True),
    _Row("moment_graph", "path-order-is-bruhat", _path_order_is_bruhat, 4),
    _Row("moment_graph", "schubert-induced-subgraph", _schubert_induced_subgraph, 3, True),
    _Row("moment_graph", "schubert-palais-smale", _schubert_palais_smale, 5,
         detail="{} Schubert graphs"),
    _Row("moment_graph", "hexagon-not-palais-smale", _hexagon_not_palais_smale,
         detail="no flow-induced orientation works (6 chambers tried)"),
    _Row("gkm", "kt-support-and-degree", _kt_support_and_degree, 4),
    _Row("gkm", "covering-localization-product", _covering_localization_product, 4),
    _Row("gkm", "neighbor-localizations", _neighbor_localizations, 4, True),
    _Row("gkm", "route-equivalence", _route_equivalence, 4, True,
         "{} classes, billey == descent == solve"),
    _Row("gkm", "restriction-preserves-kt", _restriction_preserves_kt, 3),
    _Row("gkm", "expansion-roundtrip", _expansion_roundtrip, 3,
         detail="random coefficients", seed=7),
    _Row("repaction", "action-composition", _action_composition, 4, True,
         "{} generator pairs"),
    _Row("repaction", "simple-action-formula", _simple_action_formula, 4, True,
         "{} pointwise-vs-formula comparisons"),
    _Row("repaction", "general-type-action-theorem", _general_type_action_theorem,
         rank_two=True),
    _Row("repaction", "action-triangularity", _action_triangularity, 4,
         detail="all group elements: support below, graded, trivial mod variables"),
    _Row("repaction", "word-independence", _word_independence, 3,
         detail="two reduced words of w0"),
    _Row("repaction", "divided-difference-basics", _divided_difference_basics, 4,
         detail="D_i D_i = 0; D_i drops to s_i v; right operator stays GKM"),
    _Row("repaction", "ddiff-expansion-formula", _ddiff_expansion_formula, 4,
         detail="{} random expansions", seed=11),
    _Row("repaction", "averaging-invariance", _averaging_invariance, 4, True,
         "invariant under every s_i, equals the orbit sum"),
    _Row("repaction", "orbit-sum-read-off", _orbit_sum_read_off, 4, True,
         "rows equal symmetrize per vertex, S obeys d_i"),
    _Row("repaction", "decomposition-report", _decomposition_report, 3),
)

# the CLI's suite names, in ledger order, and the suite each prints
SUITES = {
    "polyring": "polyring",
    "root-system": "root_system",
    "moment-graph": "moment_graph",
    "gkm": "gkm",
    "repaction": "repaction",
}


def _top(row: _Row, max_n: int) -> int:
    """The largest A:n the row runs, or its number of variables; a row
    without a cap runs no A:n."""
    return min(max_n, row.cap or 1)


def _span(labels: list[str]) -> str:
    """'A:2–A:4, B2, G2' for the labels A:2, A:3, A:4, B2, G2."""
    a = [x for x in labels if x.startswith("A:")]
    if len(a) > 1:
        a = [f"{a[0]}–{a[-1]}"]
    return ", ".join(a + [x for x in labels if not x.startswith("A:")])


def _run(row: _Row, max_n: int, rng: random.Random | None) -> CheckResult:
    top = _top(row, max_n)
    if row.variables:
        cases, ran = [(top,)], f"t1..t{top}"
    elif row.cap or row.rank_two:
        systems = [type_a(n) for n in range(2, top + 1)]
        systems += [root_system(label) for label in ("B2", "G2") if row.rank_two]
        cases, ran = [(rs,) for rs in systems], _span([rs.label for rs in systems])
    else:  # a fixed example
        cases, ran = [()], ""
    extra = () if rng is None else (rng,)
    ok, count = True, 0
    for args in cases:
        for passed in row.check(*args, *extra):
            ok &= passed
            count += 1
    detail = "; ".join(part for part in (row.detail.format(count), ran) if part)
    return CheckResult(row.suite, row.name, ok, detail)


def run_suite(name: str, max_n: int = 4, seed: int = 0) -> list[CheckResult]:
    if max_n < 2:
        # below A:2 the type A loops are empty, and their rows would pass
        # without checking anything
        raise ValueError(f"max n must be at least 2, got {max_n}")
    rngs: dict = {}
    out: list[CheckResult] = []
    for row in _ROWS:
        if row.suite != SUITES[name]:
            continue
        if row.seed is not None and row.seed not in rngs:
            rngs[row.seed] = random.Random(seed + row.seed)
        out.append(_run(row, max_n, rngs.get(row.seed)))
    return out


def run_suites(names, max_n: int = 4, seed: int = 0) -> list[CheckResult]:
    out: list[CheckResult] = []
    for name in names:
        out.extend(run_suite(name, max_n=max_n, seed=seed))
    return out


def ledger(names, max_n: int = 4, seed: int = 0) -> tuple[str, bool]:
    """The ``verify`` printout and whether every row passed.  The summary
    line says "max n = N" when some row ran A:N (or N variables), and
    otherwise also names the largest size that ran."""
    results = run_suites(names, max_n=max_n, seed=seed)
    ok = all(r.ok for r in results)
    suites = {SUITES[name] for name in names}
    largest = max(_top(row, max_n) for row in _ROWS if row.suite in suites)
    scope = f"max n = {max_n}"
    if largest < max_n:
        scope += f" requested; largest run A:{largest}"
    lines = [r.line() for r in results]
    lines.append(
        f"{'OK' if ok else 'FAILED'}: {sum(r.ok for r in results)}/{len(results)} "
        f"checks passed ({scope})"
    )
    return "\n".join(lines) + "\n", ok
