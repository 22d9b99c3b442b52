"""Runnable invariant suites backing the ``verify`` CLI command.

Each suite re-checks the structural facts its module relies on, mostly by
exhaustive enumeration at desk scale (the Weyl groups involved are tiny)
plus seeded randomized checks for the polynomial ring.  Suites return
:class:`CheckResult` rows so the CLI can print a pass/fail ledger and the
test suite can assert on them.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

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

__all__ = ["CheckResult", "SUITES", "run_suite", "run_suites"]
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


def suite_polyring(max_n: int = 4, seed: int = 0) -> list[CheckResult]:
    rng = random.Random(seed)
    out: list[CheckResult] = []
    n = max(2, min(max_n, 4))

    ok = True
    for _ in range(_TRIALS):
        p, q, r = (_random_poly(rng, n) for _ in range(3))
        ok &= (p + q) + r == p + (q + r)
        ok &= p + q == q + p
        ok &= p * q == q * p
        ok &= (p * q) * r == p * (q * r)
        ok &= p * (q + r) == p * q + p * r
    out.append(CheckResult("polyring", "ring-axioms", ok, f"{_TRIALS} random triples"))

    ok = True
    for _ in range(_TRIALS):
        p = _random_poly(rng, n)
        f = _random_linear_form(rng, n)
        prod = p * f
        ok &= divides(f, prod)
        if prod:
            ok &= exact_divide(prod, f) == p
        g = _random_linear_form(rng, n)
        agree_left = divides(g, prod)
        try:
            exact_divide(prod, g) if prod else None
            agree_right = True
        except Exception:
            agree_right = False
        if prod:
            ok &= agree_left == agree_right
    out.append(
        CheckResult("polyring", "divide-roundtrip", ok, "divides iff exact_divide")
    )

    ok = True
    for _ in range(_TRIALS):
        p = _random_poly(rng, n)
        for i in range(1, n):
            ok &= poly_divided_difference(poly_divided_difference(p, i), i).is_zero()
    out.append(CheckResult("polyring", "ddiff-squares-to-zero", ok))

    ok = True
    for _ in range(_TRIALS):
        p, q = _random_poly(rng, n), _random_poly(rng, n)
        w = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        sub = {i: Polynomial.variable(n, w(i)) for i in range(1, n + 1)}
        ok &= (p * q).substitute(sub) == p.substitute(sub) * q.substitute(sub)
        ok &= (p + q).substitute(sub) == p.substitute(sub) + q.substitute(sub)
        ok &= p.substitute(sub).total_degree() == p.total_degree()
    out.append(
        CheckResult("polyring", "substitution-homomorphism", ok, "variable permutations")
    )
    return out


def _general_labels(max_n: int) -> list[str]:
    return [f"A:{n}" for n in range(2, max_n + 1)] + ["B2", "G2"]


def suite_root_system(max_n: int = 4, **_) -> list[CheckResult]:
    out: list[CheckResult] = []
    # the rows below walk whole groups (bruhat-partial-order all triples of
    # elements), so like the other suites they stop at A:4
    labels = _general_labels(min(max_n, 4))

    ok = True
    detail = []
    for label, order in (("A:3", 6), ("B2", 8), ("G2", 12)):
        rs = root_system(label)
        els = rs.elements()
        detail.append(f"{label}:{len(els)}")
        ok &= len(els) == order
        ok &= all(len(rs.inversions(w)) == rs.length(w) for w in els)
    out.append(CheckResult("root_system", "group-orders", ok, " ".join(detail)))

    ok = True
    for label in labels:
        rs = root_system(label)
        for alpha in rs.positive_roots:
            s = rs.reflection(alpha)
            ok &= rs.mul(s, s) == rs.identity()
            ok &= rs.act_on_root(s, alpha) == tuple(-x for x in alpha)
            others = [r for r in rs.positive_roots if r != alpha]
            imgs = {rs.act_on_root(rs.reflection(alpha), r) for r in others}
            if rs.reflection(alpha) in {rs.simple_reflection(i) for i in range(1, rs.rank + 1)}:
                ok &= imgs == set(others)
    out.append(
        CheckResult(
            "root_system", "reflections", ok, "involution; s_i permutes other positives"
        )
    )

    ok = True
    for label in labels:
        rs = root_system(label)
        for w in rs.elements():
            word = rs.reduced_word(w)
            prod = rs.identity()
            for i in word:
                prod = rs.mul(prod, rs.simple_reflection(i))
            ok &= prod == w and len(word) == rs.length(w) == len(rs.inversions(w))
    out.append(
        CheckResult(
            "root_system",
            "length-and-reduced-words",
            ok,
            ", ".join(labels),
        )
    )

    ok = True
    for label in labels:
        rs = root_system(label)
        for w in rs.elements():
            inv_w = set(rs.inversions(w))
            for i in range(1, rs.rank + 1):
                s = rs.simple_reflection(i)
                sw = rs.mul(s, w)
                if rs.length(sw) <= rs.length(w):
                    continue
                want = {rs.act_on_root(s, b) for b in inv_w} | {rs.simple_roots[i - 1]}
                ok &= set(rs.inversions(sw)) == want
    out.append(CheckResult("root_system", "simple-edge-recursion", ok))

    ok = True
    for label in labels:
        rs = root_system(label)
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
                ok &= left == right
                for i in range(1, rs.rank + 1):
                    si = rs.simple_reflection(i)
                    if si != sa and rs.length(rs.mul(si, w)) > rs.length(w):
                        ok &= rs.length(rs.mul(si, saw)) > rs.length(saw)
    out.append(
        CheckResult(
            "root_system",
            "covering-reflection-lemma",
            ok,
            "mod-alpha multiset + lifting; " + ", ".join(labels),
        )
    )

    ok = True
    for label in labels:
        rs = root_system(label)
        els = rs.elements()
        leq = {(v, w): rs.bruhat_leq(v, w) for v in els for w in els}
        for w in els:
            below = rs.lower_interval(w)
            ok &= all(leq[(v, w)] == (v in below) for v in els)
        for v in els:
            ok &= leq[(v, v)]
            for w in els:
                if leq[(v, w)] and leq[(w, v)]:
                    ok &= v == w
                if leq[(v, w)] and v != w:
                    ok &= rs.length(v) < rs.length(w)
                for u in els:
                    if leq[(u, v)] and leq[(v, w)]:
                        ok &= leq[(u, w)]
    out.append(
        CheckResult(
            "root_system",
            "bruhat-partial-order",
            ok,
            "refines length, matches subword intervals; "
            + ", ".join(labels),
        )
    )

    ok = True
    for n in range(2, min(max_n, 4) + 1):
        rs = type_a(n)
        for w in all_permutations(n):
            pairs = inversion_pairs(w)
            vecs = set(rs.inversions(w))
            want = set()
            for i, j in pairs:
                vec = [0] * n
                vec[i - 1], vec[j - 1] = 1, -1
                want.add(tuple(vec))
            ok &= vecs == want
            ok &= rs.length(w) == w.length()
    out.append(
        CheckResult("root_system", "type-a-crosscheck", ok, "roots match inversion pairs")
    )
    return out


def suite_moment_graph(max_n: int = 4, **_) -> list[CheckResult]:
    out: list[CheckResult] = []

    ok = True
    for label in _general_labels(min(max_n, 4)):
        g = build_flag_moment_graph(root_system(label))
        ok &= validate_axioms(g).ok
    out.append(CheckResult("moment_graph", "flag-axioms", ok, "all types"))

    ok = True
    for n in range(2, min(max_n, 4) + 1):
        rs = type_a(n)
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
                    ok &= (s * tw, tw) in edge_set
    out.append(CheckResult("moment_graph", "edge-lifting", ok))

    ok = True
    for label in _general_labels(min(max_n, 4)):
        rs = root_system(label)
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
                ok &= {e.label for e in g.out_edges(sw)} == want
    out.append(CheckResult("moment_graph", "out-label-recursion", ok))

    ok = True
    for n in range(2, min(max_n, 4) + 1):
        rs = type_a(n)
        g = build_flag_moment_graph(rs)
        for v in rs.elements():
            above = g.above(v)
            for w in rs.elements():
                ok &= (w in above) == rs.bruhat_leq(v, w)
    out.append(
        CheckResult("moment_graph", "path-order-is-bruhat", ok, f"n <= {min(max_n, 4)}")
    )

    ok = True
    for label in _general_labels(min(max_n, 3)):
        rs = root_system(label)
        g = build_flag_moment_graph(rs)
        full = {(e.tail, e.head, e.label) for e in g.edges}
        for w in rs.elements():
            xg = build_schubert_moment_graph(rs, w)
            ok &= validate_axioms(xg).ok
            sub_edges = {(e.tail, e.head, e.label) for e in xg.edges}
            verts = set(xg.vertices)
            induced = {e for e in full if e[0] in verts and e[1] in verts}
            ok &= sub_edges == induced
    out.append(CheckResult("moment_graph", "schubert-induced-subgraph", ok))

    ok = True
    tops = 0
    for n in range(2, min(max_n, 5) + 1):
        rs = type_a(n)
        for w in rs.elements():
            xg = build_schubert_moment_graph(rs, w)
            ok &= is_palais_smale(xg, mode="given").holds
            tops += 1
    out.append(
        CheckResult(
            "moment_graph", "schubert-palais-smale", ok, f"{tops} Schubert graphs"
        )
    )

    hexagon = toric_hexagon_graph()
    rep = validate_axioms(hexagon)
    res = is_palais_smale(hexagon, mode="search")
    out.append(
        CheckResult(
            "moment_graph",
            "hexagon-not-palais-smale",
            rep.ok and not res.holds,
            res.detail,
        )
    )
    return out


def suite_gkm(max_n: int = 4, seed: int = 0) -> list[CheckResult]:
    out: list[CheckResult] = []

    ok = True
    for n in range(2, min(max_n, 4) + 1):
        rs = type_a(n)
        basis = flag_basis(rs)
        for v in rs.elements():
            cls = basis.cls(v)
            ok &= kt_report(cls).ok
            lv = rs.length(v)
            for u in rs.elements():
                p = cls[u]
                if rs.bruhat_leq(v, u):
                    ok &= p.is_zero() or p.is_homogeneous(lv)
                else:
                    ok &= p.is_zero()
    out.append(CheckResult("gkm", "kt-support-and-degree", ok, f"n <= {min(max_n, 4)}"))

    ok = True
    for n in range(2, min(max_n, 4) + 1):
        rs = type_a(n)
        basis = flag_basis(rs)
        g = basis.graph
        for e in g.edges:
            u, v = e.tail, e.head  # covering edge u -> v iff lengths differ by 1
            if rs.length(u) != rs.length(v) + 1:
                continue
            prod = Polynomial.one(n)
            for f in (x.label for x in g.out_edges(u)):
                if f != e.label:
                    prod = prod * f
            ok &= basis.cls(v)[u] == prod
    out.append(CheckResult("gkm", "covering-localization-product", ok))

    ok = True
    for label in _general_labels(min(max_n, 4)):
        rs = root_system(label)
        basis = flag_basis(rs)
        for v in rs.elements():
            for i in range(1, rs.rank + 1):
                s = rs.simple_reflection(i)
                sv = rs.mul(s, v)
                if rs.length(sv) <= rs.length(v):
                    continue
                sub = rs.coadjoint_substitution(s)
                pvv = basis.cls(v)[v]
                ok &= basis.cls(v)[sv].substitute(sub) == pvv
                ok &= (
                    exact_divide(
                        basis.cls(sv)[sv].substitute(sub), -rs.simple_root_form(i)
                    )
                    == pvv
                )
    out.append(CheckResult("gkm", "neighbor-localizations", ok))

    ok = True
    count = 0
    for label in _general_labels(min(max_n, 4)):
        rs = root_system(label)
        basis = flag_basis(rs)
        g = basis.graph
        for v in rs.elements():
            billey = basis.cls(v)
            ok &= knutson_tao_class_descent(g, v) == billey
            ok &= knutson_tao_class_solve(g, v) == billey
            count += 1
    out.append(
        CheckResult(
            "gkm",
            "route-equivalence",
            ok,
            f"{count} classes, billey == descent == solve",
        )
    )

    ok = True
    for n in range(2, min(max_n, 3) + 1):
        rs = type_a(n)
        basis = flag_basis(rs)
        for w in rs.elements():
            xg = build_schubert_moment_graph(rs, w)
            for v in xg.vertices:
                ok &= kt_report(restrict(basis.cls(v), xg)).ok
    out.append(CheckResult("gkm", "restriction-preserves-kt", ok))

    ok = True
    rng = random.Random(seed + 7)
    for n in (2, 3):
        rs = type_a(n)
        basis = flag_basis(rs)
        for _ in range(10):
            exp = {
                v: _random_poly(rng, n, max_deg=1, terms=2)
                for v in rng.sample(rs.elements(), k=min(3, len(rs.elements())))
            }
            cls = basis.reconstruct(exp)
            ok &= expansions_equal(expand_in_basis(cls, basis), exp)
    out.append(CheckResult("gkm", "expansion-roundtrip", ok, "random coefficients"))
    return out


def suite_repaction(max_n: int = 4, seed: int = 0) -> list[CheckResult]:
    out: list[CheckResult] = []

    ok = True
    pairs = 0
    for label in _general_labels(min(max_n, 4)):
        rs = root_system(label)
        basis = flag_basis(rs)
        sample = basis.cls(rs.longest_element())
        gens = [rs.simple_reflection(i) for i in range(1, rs.rank + 1)]
        for a in gens:
            for b in gens:
                lhs = apply_group_element(a, apply_group_element(b, sample))
                ok &= lhs == apply_group_element(rs.mul(a, b), sample)
                pairs += 1
    out.append(
        CheckResult("repaction", "action-composition", ok, f"{pairs} generator pairs")
    )

    ok = True
    checks = 0
    for n in range(2, min(max_n, 4) + 1):
        rs = type_a(n)
        basis = flag_basis(rs)
        acted = {}
        for v in rs.elements():
            for i in range(1, n):
                acted[(i, v)] = apply_group_element(
                    rs.simple_reflection(i), basis.cls(v)
                )
        for w in rs.elements():
            xg = build_schubert_moment_graph(rs, w)
            xbasis = KnutsonTaoBasis(xg)
            for v in xg.vertices:
                for i in range(1, n):
                    lhs = restrict(acted[(i, v)], xg)
                    rhs = xbasis.reconstruct(act_on_schubert_basis(i, v, xg))
                    ok &= lhs == rhs
                    checks += 1
    out.append(
        CheckResult(
            "repaction",
            "simple-action-formula",
            ok,
            f"{checks} pointwise-vs-formula comparisons",
        )
    )

    ok = True
    for label in ("B2", "G2"):
        rs = root_system(label)
        basis = flag_basis(rs)
        for w in rs.elements():
            for i in range(1, rs.rank + 1):
                s = rs.simple_reflection(i)
                sw = rs.mul(s, w)
                lhs = apply_group_element(s, basis.cls(w))
                if rs.length(sw) > rs.length(w):
                    ok &= lhs == basis.cls(w)
                else:
                    ok &= lhs == basis.cls(w) + basis.cls(sw).scale(
                        -rs.simple_root_form(i)
                    )
    out.append(CheckResult("repaction", "general-type-action-theorem", ok, "B2, G2"))

    ok = True
    for n in range(2, min(max_n, 4) + 1):
        rs = type_a(n)
        basis = flag_basis(rs)
        g = basis.graph
        one = Polynomial.one(n)
        for w in rs.elements():
            for u in rs.elements():
                exp = act_word(u, {w: one}, g)
                ok &= exp.get(w) == one
                for v, cv in exp.items():
                    ok &= rs.bruhat_leq(v, w)
                    ok &= cv.is_homogeneous(rs.length(w) - rs.length(v))
                    if v != w:
                        ok &= cv.constant_term() == 0
    out.append(
        CheckResult(
            "repaction",
            "action-triangularity",
            ok,
            "all group elements: support below, graded, trivial mod variables",
        )
    )

    ok = True
    for n in (2, 3):
        rs = type_a(n)
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
            ok &= all(expansions_equal(r, results[0]) for r in results)
            ok &= expansions_equal(
                act_word(w0, {v: Polynomial.one(n)}, g),
                expand_in_basis(apply_group_element(w0, basis.cls(v)), basis),
            )
    out.append(
        CheckResult("repaction", "word-independence", ok, "two reduced words of w0")
    )

    ok = True
    for n in range(2, min(max_n, 4) + 1):
        rs = type_a(n)
        basis = flag_basis(rs)
        for v in rs.elements():
            for i in range(1, n):
                dd = left_divided_difference(i, basis.cls(v), basis)
                ok &= left_divided_difference(i, dd, basis).is_zero()
                sv = rs.mul(rs.simple_reflection(i), v)
                if rs.length(sv) > rs.length(v):
                    ok &= dd.is_zero()
                else:
                    ok &= dd == basis.cls(sv)
                rd = right_divided_difference(i, basis.cls(v))
                ok &= check_gkm(rd).ok
    out.append(
        CheckResult(
            "repaction",
            "divided-difference-basics",
            ok,
            "D_i D_i = 0; D_i drops to s_i v; right operator stays GKM",
        )
    )

    ok = True
    rng = random.Random(seed + 11)
    cases = 0
    for n in (2, 3, 4):
        if n > max_n:
            continue
        rs = type_a(n)
        basis = flag_basis(rs)
        g = basis.graph
        for _ in range(40):
            exp = {
                v: _random_poly(rng, n, max_deg=1, terms=2)
                for v in rng.sample(rs.elements(), k=min(3, len(rs.elements())))
            }
            exp = {v: p for v, p in exp.items() if p}
            i = rng.randint(1, n - 1)
            direct = left_divided_difference(
                i, basis.reconstruct(exp), basis
            )
            ok &= expansions_equal(
                divided_difference_expansion(i, exp, g),
                expand_in_basis(direct, basis),
            )
            cases += 1
    out.append(
        CheckResult(
            "repaction", "ddiff-expansion-formula", ok, f"{cases} random expansions"
        )
    )

    ok = True
    labels = _general_labels(min(max_n, 4))
    for label in labels:
        rs = root_system(label)
        g = build_flag_moment_graph(rs)
        one = Polynomial.one(g.n)
        scale = Fraction(1, len(rs.elements()))
        for v in rs.elements():
            avg = average_class(v, g)
            for i in range(1, rs.rank + 1):
                ok &= expansions_equal(act_word(rs.simple_reflection(i), avg, g), avg)
            # the orbit sum, one group element at a time
            orbit: dict = {}
            for u in rs.elements():
                for x, p in act_word(u, {v: one}, g).items():
                    orbit[x] = orbit.get(x, 0) + p
            ok &= expansions_equal(avg, {x: p * scale for x, p in orbit.items()})
        ok &= expansions_equal(average_class(rs.identity(), g), {rs.identity(): one})
    out.append(
        CheckResult(
            "repaction",
            "averaging-invariance",
            ok,
            "invariant under every s_i, equals the orbit sum; " + ", ".join(labels),
        )
    )

    ok = True
    for label in labels:
        rs = root_system(label)
        g = build_flag_moment_graph(rs)
        one, ids = Polynomial.one(g.n), [rs.index[v] for v in g.vertices]
        table, rows = _read_off(g, ids)
        # every row decompose reads off is the orbit sum of its vertex alone
        for v, k in zip(g.vertices, ids):
            row, _, clean = rows[k]
            row = _by_element(row, g)
            ok &= clean and expansions_equal(row, symmetrize({v: one}, g))
        # d_i S_x = -S_{x s_i} when x s_i < x and 0 otherwise, by exact division
        table, zero = _polynomials(table, g.n), Polynomial.zero(g.n)
        for x, p in table.items():
            for i in range(1, rs.rank + 1):
                xs = rs.rmul[i - 1][x]
                want = -table[xs] if rs.lengths[xs] < rs.lengths[x] else zero
                ok &= rs.divided_difference(p, i) == want
    out.append(
        CheckResult(
            "repaction",
            "orbit-sum-read-off",
            ok,
            "rows equal symmetrize per vertex, S obeys d_i; " + ", ".join(labels),
        )
    )

    ok = True
    for n in range(2, min(max_n, 3) + 1):
        rs = type_a(n)
        for w in rs.elements():
            xg = build_schubert_moment_graph(rs, w)
            rep = decompose(xg)
            ok &= rep.ok
            want = Counter(rs.length(v) for v in xg.vertices)
            ok &= rep.multiplicities == dict(want)
    out.append(CheckResult("repaction", "decomposition-report", ok))
    return out


SUITES = {
    "polyring": suite_polyring,
    "root-system": suite_root_system,
    "moment-graph": suite_moment_graph,
    "gkm": suite_gkm,
    "repaction": suite_repaction,
}


def run_suite(name: str, max_n: int = 4, seed: int = 0) -> list[CheckResult]:
    if max_n < 2:
        # below A:2 the type A loops are empty, and their rows would pass
        # without checking anything
        raise ValueError(f"max n must be at least 2, got {max_n}")
    return SUITES[name](max_n=max_n, seed=seed)


def run_suites(names, max_n: int = 4, seed: int = 0) -> list[CheckResult]:
    out: list[CheckResult] = []
    for name in names:
        out.extend(run_suite(name, max_n=max_n, seed=seed))
    return out
