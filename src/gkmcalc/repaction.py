"""The Weyl group action on equivariant cohomology and its consequences.

The group acts on classes over the full flag graph pointwise: the value of
u . p at a vertex x is the coadjoint image under u of p at u^{-1} x.  On a
Schubert graph the vertex set is not closed under left multiplication, so
the action is defined through the Knutson-Tao basis instead: a simple
reflection s_i fixes the class of v when s_i v is longer and otherwise adds
-alpha_i times the class of s_i v; coefficients are twisted by the
coadjoint substitution.

A left divided difference is (1 - s_i) / alpha_i over the one s_i action of
its level: the action on a class, or on a basis expansion the
simple-reflection step below.  The right divided difference is the GKM
quotient across the edges v -- v s_i, divided by their labels.  Group
averaging produces the invariant classes whose graded span exhibits the
equivariant cohomology of any Schubert variety as a sum of trivial
representations, one per fixed point, in degrees given by length;
:func:`decompose` assembles that ledger.

The orbit sum behind averaging (:func:`symmetrize`) runs along the
parabolic chain W_1 < W_12 < ... < W: the sum over W_{1..k} is the sum of
c . T over the minimal left coset representatives c of W_{1..k}/W_{1..k-1},
where T is the sum over W_{1..k-1}.  The representatives form a tree of
single left multiplications, so the whole sum costs n(n-1)/2
simple-reflection steps in A:n (m in a dihedral group of order 2m), not
one step per letter of every one of the |W| elements.

When v = x y is reduced, the class of y has one coefficient S_x in the
orbit sum of the class of v, whatever v is (Billey, Duke Math. J. 96,
1999).  So :func:`decompose` sums the orbits of only the vertices with
no right ascent in the graph, holds S as term maps, reads every orbit sum
off S, and checks invariance by the divided-difference identity once per
x, in int arithmetic.  The pairs come from ``RootSystem.factorizations``,
the walk that also gives Billey's formula its rows.  Mod t, s_i moves
only the constant term of -alpha_i, so the induced action is decided
once per generator.

Every simple-reflection step reads the root system's per-type tables:
s_i v and its length from ``lmul`` and ``lengths``, and the coadjoint
substitution of s_i with -alpha_i from ``simple_twists``.  It runs on
element ids and sums by polyring's one idiom: each twist, -alpha_i
product and level image of the orbit sum goes in place into term maps
it owns, made polynomials only as an expansion leaves the module.
:func:`decompose` builds no polynomial: its identity check adds into
the new map of a twist and compares maps.  An expansion is checked
once, where it enters, not at every step: the graph must come from a
root system, and gkm's gate gives every expansion returned here, a
dict, polynomial coefficients in the graph's ring and no zero term.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .gkm import (
    EquivariantClass,
    KnutsonTaoBasis,
    _add_into,
    _normal_expansion,
    _polynomials,
    apply_group_element,
    expand_in_basis,
)
from .moment_graph import MomentGraph
from .polyring import ExactDivisionError, Polynomial, exact_divide
from .polyring import _add_mul_terms, _add_terms

__all__ = [
    "act",
    "act_on_schubert_basis",
    "act_word",
    "left_divided_difference",
    "right_divided_difference",
    "divided_difference_expansion",
    "average_class",
    "symmetrize",
    "DecompositionReport",
    "decompose",
    "divided_difference_closure",
]


def act(
    u, c: EquivariantClass, basis: KnutsonTaoBasis | None = None
) -> EquivariantClass:
    """Group action on a class, routed by the kind of graph it lives on."""
    g = c.graph
    if g.variety == "flag":
        return apply_group_element(u, c)
    if g.variety == "schubert":
        basis = basis if basis is not None else KnutsonTaoBasis(g)
        exp = expand_in_basis(c, basis)
        return basis.reconstruct(act_word(u, exp, g))
    raise ValueError("no group action on external graphs")


def act_on_schubert_basis(i: int, v, g: MomentGraph) -> dict:
    """s_i applied to the Knutson-Tao class of v, as a basis expansion: the
    class is fixed when s_i v is longer, and otherwise the class of s_i v
    enters with coefficient -alpha_i."""
    expansion = _as_polynomials({v: 1}, g)  # refuses g and v before i
    return act_word(g.rs.simple_reflection(i), expansion, g)


def _as_polynomials(expansion: Mapping, g: MomentGraph) -> dict:
    """gkm's normal form of an expansion over a root-system graph g.  Every
    entry point of the action passes its expansion through here, so the
    simple-reflection steps after it need no checks of their own."""
    if g.rs is None:
        raise ValueError("need a root-system graph")
    return _normal_expansion(expansion, g)


def _by_id(expansion: Mapping, g: MomentGraph) -> dict:
    """The term maps of an expansion's checked coefficients, by element id."""
    expansion = _as_polynomials(expansion, g)
    return {g.rs.index[v]: p._terms for v, p in expansion.items()}


def _by_element(terms: dict, g: MomentGraph) -> dict:
    """The expansion of nonempty term maps by element id, as polynomials."""
    elements, n = g.rs.elements(), g.n
    return {elements[k]: Polynomial._make(n, c) for k, c in terms.items()}


def _step(i: int, terms: dict, rs) -> dict:
    """s_i on term maps by element id: each map is twisted by s_i, and the
    class of k also sends -alpha_i times its twist to s_i k < k.  A simple
    twist is never the identity, so the result's maps are all new and
    terms is only read.  Each twist and product is added in place into
    out's map for its key, or becomes it; a key whose sum cancels leaves
    out, as in gkm._add_into, so the keys keep that order."""
    sub, minus_alpha = rs.simple_twists[i - 1]
    twist, factor, n = sub._apply, minus_alpha._terms, minus_alpha.n
    row, length = rs.lmul[i - 1], rs.lengths
    out: dict = {}
    for k, c in terms.items():
        tw = twist(c)
        cur = out.setdefault(k, tw)
        if cur is not tw and not _add_terms(cur, tw.items()):
            del out[k]
        j = row[k]
        if length[j] < length[k]:
            if not _add_mul_terms(out.setdefault(j, {}), tw, factor, n):
                del out[j]
    return out


def act_word(u, expansion: Mapping, g: MomentGraph) -> dict:
    """Apply a group element to a basis expansion, letter by letter.

    Factors u by its reduced word and applies the simple-reflection rule
    right-to-left, twisting coefficients as it goes; the result does not
    depend on the chosen word.
    """
    out = _by_id(expansion, g)
    for i in reversed(g.rs.reduced_word(u)):
        out = _step(i, out, g.rs)
    return _by_element(out, g)


def _orbit_sum(terms: dict, g: MomentGraph) -> dict:
    """:func:`symmetrize` on term maps by element id, into new maps.

    Level k of the parabolic chain (RootSystem.coset_chain) turns the sum
    over W_{1..k-1} into the sum over W_{1..k} by adding its image under
    each minimal left coset representative.  The representatives of a
    level are the prefixes of one word, so each costs a single
    simple-reflection step on the image before it, added in place into
    the term maps of the running sum, which starts from copies of E's.
    Only g.rs is read."""
    total = {k: dict(c) for k, c in terms.items()}
    for word in g.rs.coset_chain():
        img = total
        for i in word:
            img = _step(i, img, g.rs)
            for k, c in img.items():  # total may adopt c: steps only read it
                cur = total.setdefault(k, c)
                if cur is not c and not _add_terms(cur, c.items()):
                    del total[k]
    return total


def symmetrize(expansion: Mapping, g: MomentGraph) -> dict:
    """The orbit sum of u . E over every u in W, for a basis expansion E."""
    return _by_element(_orbit_sum(_by_id(expansion, g), g), g)


def left_divided_difference(
    i: int, c: EquivariantClass, basis: KnutsonTaoBasis | None = None
) -> EquivariantClass:
    """(c - s_i . c) / alpha_i, divided exactly vertex by vertex."""
    g = c.graph
    if g.rs is None:
        raise ValueError("need a root-system graph")
    num = c - act(g.rs.simple_reflection(i), c, basis)
    alpha = g.rs.simple_root_form(i)
    out = {v: _quotient("left", g, v, p, alpha) for v, p in num._loc.items()}
    return EquivariantClass(g, out)


def right_divided_difference(i: int, c: EquivariantClass) -> EquivariantClass:
    """Vertexwise operator (p(v s_i) - p(v)) / (v . alpha_i): the GKM
    quotient across the s_i edges.

    Needs the full flag graph, whose vertex set is closed under right
    multiplication by s_i.  Each pair v < x = v s_i (x read from the root
    system's ``rmul`` table) is joined by the edge x -> v, labeled
    v . alpha_i = -(x . alpha_i), so both ends get the one quotient
    (p(x) - p(v)) / label, formed once from the lower end v.
    """
    g = c.graph
    rs = g.rs
    if rs is None or g.variety != "flag":
        raise ValueError("the right divided difference needs the full flag graph")
    row = rs.rmul[rs._simple_index(i)]
    length, index, elements = rs.lengths, rs.index, rs.elements()
    out = {}
    for v in g.vertices:
        k = index[v]
        if length[row[k]] < length[k]:
            continue  # the upper end of its pair
        x = elements[row[k]]
        num = c[x] - c[v]
        if num:
            label = next(e.label for e in g.in_edges(v) if e.tail == x)
            out[v] = out[x] = _quotient("right", g, v, num, label)
    return EquivariantClass(g, out)


def _quotient(side: str, g: MomentGraph, v, num: Polynomial, den) -> Polynomial:
    """num / den at vertex v, which only a non-GKM class leaves inexact."""
    try:
        return exact_divide(num, den)
    except ExactDivisionError as exc:
        raise ExactDivisionError(
            f"{side} divided difference failed at {g.vertex_str(v)}: {exc}"
        ) from exc


def divided_difference_expansion(i: int, expansion: Mapping, g: MomentGraph) -> dict:
    """Coefficient-level left divided difference (E - s_i . E) / alpha_i.

    s_i . E is the simple-reflection step of the action, so the quotient
    at v is the coadjoint divided difference of c_v plus, when s_i v is
    longer, the twisted coefficient of s_i v moved down to v.  One twist
    of c_v serves both, with no product by alpha_i and no division of one.
    Matches left_divided_difference after expansion.
    """
    expansion = _as_polynomials(expansion, g)
    rs = g.rs
    k = rs._simple_index(i)
    sub, minus_alpha = rs.simple_twists[k]
    row, length, index, elements = rs.lmul[k], rs.lengths, rs.index, rs.elements()
    out: dict = {}
    for v, p in expansion.items():
        tw = p.substitute(sub)
        if tw != p:  # over -alpha_i, tw - p gives (p - s_i . p) / alpha_i
            _add_into(out, v, exact_divide(tw - p, minus_alpha)._terms)
        j = index[v]
        if length[row[j]] < length[j]:
            _add_into(out, elements[row[j]], tw._terms)
    return _polynomials(out, g.n)


def average_class(v, g: MomentGraph) -> dict:
    """The class of v averaged over the whole Weyl group, as a basis expansion.

    The orbit sum comes from :func:`symmetrize`, one simple-reflection step
    per coset representative of the parabolic chain (n(n-1)/2 steps in
    A:n), and is divided by |W|.
    """
    total = symmetrize({v: Polynomial.one(g.n)}, g)
    scale = Fraction(1, len(g.rs.elements()))
    return {x: p * scale for x, p in total.items()}


class DecompositionReport:
    """Per-variety ledger for the trivial-summand decomposition.

    One row per fixed point v: degree, invariance of the averaged class
    under every generator, and unitriangularity of its expansion.  The
    graded multiplicity of the trivial summand in degree d must equal the
    number of fixed points of length d, and the induced action modulo the
    variable ideal must fix every basis class.  The multiplicities, the
    Poincare coefficients and the unitriangular and ok verdicts are read
    off the rows, so they cannot disagree with them.
    """

    def __init__(self, type_label: str, w_label: str):
        self.type_label = type_label
        self.w_label = w_label
        self.rows: list[dict] = []
        self.generator_invariance: dict[int, bool] = {}
        self.mod_t_identity = True

    @property
    def multiplicities(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for r in self.rows:
            counts[r["degree"]] = counts.get(r["degree"], 0) + 1
        return counts

    @property
    def poincare(self) -> list[int]:
        counts = self.multiplicities
        return [counts.get(d, 0) for d in range(max(counts, default=0) + 1)]

    @property
    def unitriangular(self) -> bool:
        return all(r["unitriangular"] for r in self.rows)

    @property
    def ok(self) -> bool:
        return self.mod_t_identity and all(
            r["invariant"] and r["unitriangular"] for r in self.rows
        )

    def to_json(self) -> dict:
        return {
            "type": self.type_label,
            "w": self.w_label,
            "ok": self.ok,
            "rows": self.rows,
            "multiplicities": {str(d): m for d, m in sorted(self.multiplicities.items())},
            "poincare": self.poincare,
            "generator_invariance": {
                str(i): v for i, v in sorted(self.generator_invariance.items())
            },
            "mod_t_identity": self.mod_t_identity,
            "unitriangular": self.unitriangular,
        }

    def table(self) -> str:
        lines = [
            f"decomposition of X_{self.w_label} ({self.type_label})",
            f"poincare coefficients: {self.poincare}",
            "degree  multiplicity",
        ]
        for d, m in sorted(self.multiplicities.items()):
            lines.append(f"{d:>6}  {m}")
        lines.append("vertex  degree  invariant  unitriangular")
        for r in self.rows:
            lines.append(
                f"{r['v']:>6}  {r['degree']:>6}  {str(r['invariant']):>9}  "
                f"{str(r['unitriangular']):>13}"
            )
        lines.append(f"mod-t action is identity: {self.mod_t_identity}")
        lines.append(f"all checks pass: {self.ok}")
        return "\n".join(lines) + "\n"


def _read_off(g: MomentGraph, ids: list[int]) -> tuple[dict, dict]:
    """The table S (vertex id x -> S_x) of g, and each vertex's orbit sum.

    Both are term maps, read off the orbit sums (:func:`_orbit_sum`) of
    the vertices with no right ascent in g, which lie above every vertex
    in right weak order; each vertex is walked once.  rows[v] is (row,
    failed, clean): row maps the id of y to S_x over v = x y; failed holds
    each i at which the identity fails at an x it reads; clean is false
    when v's own orbit sum has a term S does not give; it joins the row.

    The identity s_i(S_x) = S_x + alpha_i S_{x s_i}, whose last term is
    there only when x s_i < x, runs once per x and i.  The twist of S_x is
    a new map, -alpha_i S_{x s_i} (-alpha_i as simple_twists holds it) is
    added into it in place, and it must then equal S_x's map.  No
    polynomial is built and S_x is not copied.
    """
    rs = g.rs
    length = rs.lengths
    inside = set(ids)
    walks = {v: rs.factorizations(v) for v in ids}
    table: dict[int, dict] = {}
    stray: dict[int, dict] = {}
    for v in ids:
        if any(length[row[v]] > length[v] and row[v] in inside for row in rs.rmul):
            continue
        total = _orbit_sum({v: {0: 1}}, g)  # the class of v, coefficient 1
        for x, y in walks[v].items():
            c = total.pop(y, {})
            if table.setdefault(x, c) != c:
                total[y] = c
        if total:
            stray[v] = total
    steps = [
        (sub._apply, minus_alpha._terms, row)
        for (sub, minus_alpha), row in zip(rs.simple_twists, rs.rmul)
    ]
    n = g.n
    broken: dict[int, list[int]] = {x: [] for x in table}
    for x, terms in table.items():
        for i, (twist, factor, row) in enumerate(steps, 1):
            xs = row[x]
            tw = twist(terms)
            if length[xs] < length[x]:
                _add_mul_terms(tw, table[xs], factor, n)
            if tw != terms:
                broken[x].append(i)
    rows = {}
    for v, pairs in walks.items():
        row = {y: table[x] for x, y in pairs.items()}
        row.update(stray.get(v, {}))
        failed = {i for x in pairs for i in broken[x]}
        rows[v] = ({y: c for y, c in row.items() if c}, failed, v not in stray)
    return table, rows


def decompose(g: MomentGraph) -> DecompositionReport:
    """Read off every orbit sum (|W| times the averaged class) and report
    the decomposition facts.

    A row is invariant under s_i when the divided-difference identity holds
    at every x it reads.  Unitriangularity reads coefficient |W| at v and
    support inside [e, v], which needs no interval: a clean row's keys are
    the y of the reduced factorizations v = x y, right factors of v and so
    below it by the subword property, and a stray term makes the row
    unclean.  The mod-t identity reads each -alpha_i from simple_twists.
    """
    rs = g.rs
    if rs is None:
        raise ValueError("need a root-system graph")
    report = DecompositionReport(
        type_label=g.metadata.get("type", rs.label),
        w_label=g.metadata.get("w", ""),
    )
    gen_ok = {i: True for i in range(1, rs.rank + 1)}
    length, elements = rs.lengths, rs.elements()
    order = {0: len(elements)}  # the constant |W|
    ids = [rs.index[v] for v in g.vertices]
    _, rows = _read_off(g, ids)

    for v, k in zip(g.vertices, ids):
        row, failed, clean = rows[k]
        for i in failed:
            gen_ok[i] = False
        report.rows.append(
            {
                "v": g.vertex_str(v),
                "degree": length[k],
                "invariant": not failed,
                "unitriangular": clean and row.get(k) == order,
                "support": sorted(g.vertex_str(elements[y]) for y in row),
            }
        )
    report.generator_invariance = gen_ok
    # s_i fixes the class of v (a twisted 1 is 1) and moves -alpha_i times it
    # to s_i v < v: mod t, a constant term there breaks the identity
    report.mod_t_identity = not any(
        minus_alpha.constant_term() and any(length[row[k]] < length[k] for k in ids)
        for (_, minus_alpha), row in zip(rs.simple_twists, rs.lmul)
    )
    return report


def divided_difference_closure(g: MomentGraph) -> list[dict]:
    """Breadth-first closure of the top class under all left D_i.

    Works at the expansion level starting from the coefficient-1 expansion
    at the unique top vertex; returns every distinct expansion reached,
    including the zero expansion when it occurs.
    """
    start = _as_polynomials({g.top_vertex(): 1}, g)
    seen = {frozenset(start.items()): start}
    frontier = [start]
    while frontier:
        new = []
        for exp in frontier:
            for i in range(1, g.rs.rank + 1):
                img = divided_difference_expansion(i, exp, g)
                key = frozenset(img.items())
                if key not in seen:
                    seen[key] = img
                    new.append(img)
        frontier = new
    return list(seen.values())
