"""Equivariant classes on moment graphs and the Knutson-Tao basis.

An equivariant class assigns a polynomial to every vertex subject to the
GKM divisibility condition: across each edge the difference of endpoint
polynomials is divisible by the edge label.  The Knutson-Tao class for a
vertex v is the class that localizes at v to the product of v's out-edge
labels, is homogeneous of that degree everywhere, and vanishes wherever no
directed path leads down to v.

Flag and Schubert classes are built by Billey's formula, as a column
recursion down a spanning tree of graph edges: each localization costs one
product by an edge label per step, with no root arithmetic, no division
and no solving, and a Schubert graph never builds the flag graph.  The
class of v is constant on each coset w W_J of the right ascents J of v
(Kostant-Kumar, Adv. Math. 62, 1986; Billey, Duke Math. J. 96, 1999), so
the recursion builds only the column of each coset's minimal
representative and the columns on its tree path from e, and the coset's
vertices share that one value.

One helper, :func:`_agree`, decides the GKM condition on an edge: the
values at its ends are one object, or agree on the hyperplane of its
label.  The graph keeps each label's hyperplane (``label_hyperplane``)
and each label restricted to another's (``label_restriction``); values
are restricted through a memo kept for one call (``_restrictor``), so
each value object is restricted once per label.  Two independent routes
stay as checks, which the verify suites and tests call by name and
compare with Billey's classes:

* the descent route, which starts from the point class at the top of the
  full flag graph and applies left divided differences along a reduced
  word, and
* the solve route, which walks the vertices upward and determines each
  localization of degree d from the divisibility constraints: a head's
  value that meets the condition on every out-edge is the unique
  solution and is kept as the same object; otherwise d + 1 out-edge
  labels fix it by a remainder-theorem recursion, and the other out-edges
  are checked by ``_agree``.  The vertices it pins (the base and those
  with no path down to it) need no check: their edges satisfy the
  divisibility condition on every acyclic graph.

The graph alone picks the construction: :class:`KnutsonTaoBasis` uses
Billey's formula on flag and Schubert graphs and the solver on external
graphs, where it reports failure rather than assuming a class exists.

Every basis expansion taken in passes one gate, :func:`_normal_expansion`,
so each one returned has polynomial coefficients in the graph's ring and
no zero term.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .moment_graph import (
    MomentGraph,
    build_flag_moment_graph,
    graph_to_json,
    load_external_graph,
    schubert_graph,
)
from .polyring import (
    ExactDivisionError,
    Polynomial,
    Substitution,
    _add_mul_terms,
    _add_terms,
    exact_divide,
    polynomial_from_json,
    to_strings,
)

__all__ = [
    "EquivariantClass",
    "GkmReport",
    "KtReport",
    "SolveError",
    "SpanError",
    "check_gkm",
    "kt_report",
    "apply_group_element",
    "point_class_top",
    "knutson_tao_class_billey",
    "knutson_tao_class_descent",
    "knutson_tao_class_solve",
    "restrict",
    "KnutsonTaoBasis",
    "flag_basis",
    "expand_in_basis",
    "expansions_equal",
    "class_to_json",
    "class_from_json",
    "expansion_to_json",
    "expansion_from_json",
]


def _add_into(out: dict, k, a: dict, b: dict | None = None, n: int = 0) -> None:
    """Add the term map a, or a times b in n variables, into out[k]: a map
    out owns, new on first use and dropped when its sum cancels (polyring)."""
    cur = out.setdefault(k, {})
    if b is None:
        _add_terms(cur, a.items())
    else:
        _add_mul_terms(cur, a, b, n)
    if not cur:
        del out[k]


def _polynomials(terms: dict, n: int) -> dict:
    """Owned term maps by key as polynomials in n variables, made once."""
    return {k: Polynomial._make(n, c) for k, c in terms.items()}


class SolveError(RuntimeError):
    """The divisibility constraints admit no class or no unique class."""


class SpanError(ValueError):
    """A class is not a combination of Knutson-Tao classes (non-GKM input)."""


class EquivariantClass:
    """A vertex-indexed tuple of polynomials on a fixed moment graph.

    Zero localizations are not stored; indexing an existing vertex always
    works and returns the zero polynomial by default.  ``base`` marks
    Knutson-Tao classes with their defining vertex and is None otherwise.
    """

    __slots__ = ("graph", "base", "_loc")

    def __init__(
        self,
        graph: MomentGraph,
        localizations: Mapping[object, Polynomial],
        base=None,
    ):
        loc: dict = {}
        for v, p in localizations.items():
            if v not in graph:
                raise ValueError(f"localization at unknown vertex {v!r}")
            if not isinstance(p, Polynomial):
                raise ValueError(
                    f"localization at {graph.vertex_str(v)} is {p!r}, not a polynomial"
                )
            if p.n != graph.n:
                raise ValueError(
                    f"polynomial dimension {p.n} != graph dimension {graph.n}"
                )
            if p:
                loc[v] = p
        if base is not None and base not in graph:
            raise ValueError(f"base vertex {base!r} not in graph")
        self.graph = graph
        self.base = base
        self._loc = loc

    def __getitem__(self, v) -> Polynomial:
        if v not in self.graph:
            raise KeyError(f"vertex {v!r} not in graph")
        return self._loc.get(v, Polynomial.zero(self.graph.n))

    def items(self):
        """(vertex, polynomial) pairs over all vertices in canonical order."""
        zero = Polynomial.zero(self.graph.n)
        for v in self.graph.vertices:
            yield v, self._loc.get(v, zero)

    def is_zero(self) -> bool:
        return not self._loc

    def _check_compat(self, other: "EquivariantClass"):
        if self.graph.vertices != other.graph.vertices:
            raise ValueError("classes live on different vertex sets")

    def __add__(self, other: "EquivariantClass") -> "EquivariantClass":
        self._check_compat(other)
        out = dict(self._loc)
        for v, p in other._loc.items():  # the constructor drops a sum that cancels
            out[v] = out[v] + p if v in out else p
        return EquivariantClass(self.graph, out)

    def __sub__(self, other: "EquivariantClass") -> "EquivariantClass":
        return self + (-other)

    def __neg__(self) -> "EquivariantClass":
        return EquivariantClass(self.graph, {v: -p for v, p in self._loc.items()})

    def scale(self, c) -> "EquivariantClass":
        """Multiply every localization by a polynomial or rational scalar."""
        return EquivariantClass(self.graph, {v: p * c for v, p in self._loc.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, EquivariantClass):
            return NotImplemented
        return (
            self.graph.vertices == other.graph.vertices and self._loc == other._loc
        )

    def __hash__(self):
        return hash(
            (self.graph.vertices, tuple(sorted(
                (self.graph.vertex_str(v), p) for v, p in self._loc.items()
            )))
        )

    def __repr__(self) -> str:
        texts = class_to_json(self)["localizations"]
        body = ", ".join(f"{name}: {t}" for name, t in texts.items())
        return f"EquivariantClass({body})"


class GkmReport:
    def __init__(self, violations: list[tuple[str, str, str]]):
        self.violations = violations

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {"ok": self.ok, "violations": [list(v) for v in self.violations]}


def _restrictor(g: MomentGraph):
    """restricted(p, label): p on the hyperplane of an edge label of g.

    Each (value object, label) pair is substituted once for as long as the
    returned function lives; callers keep one per call, never on the graph.
    The memo holds p, so its id cannot pass to a later temporary.  With
    keep=False it stores nothing: for a p that cannot come up again.
    """
    memo: dict = {}  # (id(p), label) -> (p, p restricted)

    def restricted(p: Polynomial, label: Polynomial, keep: bool = True) -> Polynomial:
        key = (id(p), label)
        got = memo.get(key)
        if got is None:
            got = (p, p.substitute(g.label_hyperplane(label)))
            if keep:
                memo[key] = got
        return got[1]

    return restricted


def _agree(a: Polynomial, b: Polynomial, label: Polynomial, restricted) -> bool:
    """The GKM condition on an edge: its label divides a - b, the values at
    its ends, exactly when they agree on the label's hyperplane; ends that
    hold one object (both zero, or one shared value) pass untested."""
    return a is b or restricted(a, label) == restricted(b, label)


def check_gkm(c: EquivariantClass) -> GkmReport:
    """The edges where the GKM condition (:func:`_agree`) fails, listed in
    edge order; each value is restricted once per label, however many edges
    share it.  The report is ok when no edge is listed."""
    bad = []
    g = c.graph
    loc = c._loc
    zero = Polynomial.zero(g.n)
    restricted = _restrictor(g)
    for e in g.edges:
        a, b = loc.get(e.tail, zero), loc.get(e.head, zero)
        if not _agree(a, b, e.label, restricted):
            bad.append(
                (g.vertex_str(e.tail), g.vertex_str(e.head), g.label_str(e.label))
            )
    return GkmReport(bad)


class KtReport:
    def __init__(self, failures: list[str]):
        self.failures = failures

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {"ok": self.ok, "failures": list(self.failures)}


def kt_report(c: EquivariantClass) -> KtReport:
    """Check the three Knutson-Tao conditions plus the GKM condition; the
    report is ok when it lists no failure."""
    if c.base is None:
        return KtReport(["class has no base vertex"])
    g = c.graph
    failures: list[str] = []
    if c[c.base] != g.out_label_product(c.base):
        failures.append("localization at the base is not the out-label product")
    d = g.out_degree(c.base)
    above = g.above(c.base)
    for v, p in c.items():
        if p and not p.is_homogeneous(d):
            failures.append(
                f"localization at {g.vertex_str(v)} is not homogeneous of degree {d}"
            )
        if p and v not in above:
            failures.append(
                f"nonzero localization at {g.vertex_str(v)} with no path to the base"
            )
    gkm = check_gkm(c)
    if not gkm.ok:
        failures.append(f"GKM condition fails on {len(gkm.violations)} edge(s)")
    return KtReport(failures)


# -- the group action kernel (full graphs only) --------------------------------


def apply_group_element(u, c: EquivariantClass) -> EquivariantClass:
    """Pointwise action on a class over a left-multiplication-closed graph.

    The localization of the result at x is the coadjoint image under u of
    the input localization at u^{-1} x.  Raises when the vertex set is not
    closed under left multiplication by u.
    """
    g = c.graph
    rs = g.rs
    if rs is None:
        raise ValueError("group action needs a root-system graph")
    rs.element_id(u)  # ValueError for an element of another group
    uinv = rs.inv(u)
    sub = Substitution(g.n, rs.coadjoint_substitution(u))
    out = {}
    for x in g.vertices:
        y = rs.mul(uinv, x)
        if y not in g:
            raise ValueError(
                f"vertex set not closed under {rs.element_str(u)!r}; "
                "act through the basis expansion instead"
            )
        p = c[y]
        if p:
            out[x] = p.substitute(sub)
    return EquivariantClass(g, out)


# -- Knutson-Tao classes ---------------------------------------------------------


def point_class_top(g: MomentGraph) -> EquivariantClass:
    """The class supported on the unique maximal vertex.

    Localizes there to the product of its out-edge labels and vanishes
    everywhere else; on a Schubert graph this is the inversion product.
    """
    top = g.top_vertex()
    return EquivariantClass(g, {top: g.out_label_product(top)}, base=top)


def knutson_tao_class_billey(g: MomentGraph, v) -> EquivariantClass:
    """Knutson-Tao class on a flag or Schubert graph by Billey's formula.

    Write xi^u(w) for the localization of the class of u at w, with
    xi^e = 1.  For w = w' s_i with l(w) = l(w') + 1, let beta = w'(alpha_i),
    the label of the edge w -> w'.  Then xi^u(w) = xi^u(w') + beta *
    xi^{u s_i}(w') when u s_i < u, and xi^u(w) = xi^u(w') otherwise:
    Billey's sum over reduced subwords with the last letter split off.

    Each vertex w != e has the parent w s_i, for its first right descent
    i, which the root system keeps as a table (``rdescent``); a Schubert
    graph is closed under this, so its columns xi^.(w) are built depth
    first down that tree, over the in-edges of each column, with only the
    current path's columns alive.  A column holds term maps: an entry it
    changes is a copy of its parent's map, into which the ring's product
    loop adds beta * xi^{u s_i}(w') in place, so no product is built only
    to be added, and each distinct map becomes one polynomial as the
    class leaves.  Row u draws only on the rows u and u s_i < u, so row
    v needs only the rows u = v s_j ... s_k reached by length-lowering
    right multiplications: the lower ideal of v in the right weak order,
    which lies inside [e, v]: the left factors of
    RootSystem.factorizations(v).  Each step down the tree lowers the
    row length by at most one, so a row u can still reach row v from
    column x only when l(x) - l(u) <= top - l(v), where top is the
    largest length in the graph; the other rows are dropped.

    Only one column per coset w W_J is built, for J the right ascents of
    v (the j with v s_j > v).  The class is pulled back from G/P_J, so
    xi^v(w) = xi^v(w s_j) for every j in J (Kostant-Kumar, Adv. Math. 62,
    1986; Billey, Duke Math. J. 96, 1999).  One pass in (length, name)
    order finds each vertex's minimal coset representative: a vertex with
    a shorter w s_j, j in J, takes that vertex's, and any other is its own.
    A coset whose minimum is shorter than v is zero, since xi^v vanishes
    below v.  The walk visits the representatives and their ancestors in
    the tree: the minimal representatives are closed under right factors
    but not left ones, and a parent w s_i is a left factor of w (231 is
    one for J = {1}, its parent 213 is not).  Each coset's vertices share
    its one value.
    """
    rs = g.rs
    if rs is None:
        raise ValueError("Billey's formula needs a flag or Schubert graph")
    if v not in g:
        raise ValueError(f"unknown vertex {v!r}")
    # rows by element id; g.vertices comes in (length, name) order
    length, rmul, rdescent, index = rs.lengths, rs.rmul, rs.rdescent, rs.index
    top = index[v]
    rows = rs.factorizations(top)  # keyed by the rows u with v = u y reduced
    slack = length[index[g.vertices[-1]]] - length[top]
    lv = length[top]
    ascents = [row for row in rmul if length[row[top]] > lv]
    rep: dict = {}  # vertex id -> its coset's minimal representative
    members = []  # (vertex, rep) in vertex order
    needed = {0}  # the representatives and their tree ancestors, e first
    for w in g.vertices:
        k = index[w]
        lk = length[k]
        if lk < lv:
            continue
        for row in ascents:
            if length[row[k]] < lk:
                # none when the coset reaches below v, where xi^v is zero
                r = rep.get(row[k])
                break
        else:
            r = m = k
            while m not in needed:
                needed.add(m)
                m = rmul[rdescent[m]][m]
        rep[k] = r
        members.append((w, r))
    n = g.n
    loc: dict = {}  # column id -> the term map of xi^v there, when nonzero
    # (w, i, beta's term map, column of w s_i): w's column is built when
    # it is popped, so only the columns on the current path stay alive.
    # An entry a column changes is a copy it owns: the parent's is shared
    stack: list = [(g.vertices[0], None, None, None)]
    while stack:
        w, i, beta, parent = stack.pop()
        k = index[w]
        if parent is None:
            col = {0: {0: 1}}
        else:
            lw = length[k]
            col = {u: p for u, p in parent.items() if lw - length[u] <= slack}
            row = rmul[i]
            for u, p in parent.items():
                us = row[u]
                if length[us] > length[u] and us in rows and lw - length[us] <= slack:
                    # a sum of products of positive roots: never zero
                    col[us] = _add_mul_terms(dict(col.get(us, {})), beta, p, n)
            if not col:
                continue  # and so is every column below w
        if top in col:
            loc[k] = col[top]
        # the children of w: the tails y = w s_j whose first right descent
        # is j, and only those on the way to a representative
        for e in g.in_edges(w):
            y = index[e.tail]
            j = rdescent[y]
            if rmul[j][y] == k and y in needed:
                stack.append((e.tail, j, e.label._terms, col))
    # one polynomial per distinct map, so a coset's vertices share it
    made: dict = {}
    for m in loc.values():
        if id(m) not in made:
            made[id(m)] = Polynomial._make(n, m)
    return EquivariantClass(
        g, {w: made[id(loc[r])] for w, r in members if r in loc}, base=v
    )


def knutson_tao_class_descent(g: MomentGraph, v) -> EquivariantClass:
    """Knutson-Tao class on the full flag graph via divided differences.

    Writes the longest element as w0 = z * v with a reduced word for z and
    peels one letter at a time from the point class at the top, by the
    action layer's left divided difference: pointwise here, never Billey's.
    """
    from .repaction import left_divided_difference  # repaction imports gkm

    if g.variety != "flag" or g.rs is None:
        raise ValueError("the descent construction needs the full flag graph")
    rs = g.rs
    if v not in g:
        raise ValueError(f"unknown vertex {v!r}")
    z = rs.mul(rs.longest_element(), rs.inv(v))
    cls = point_class_top(g)
    for i in rs.reduced_word(z):
        cls = left_divided_difference(i, cls)
    return EquivariantClass(g, cls._loc, base=v)


def _solve_vertex(
    g: MomentGraph, u, d: int, out: tuple, heads: list, restricted
) -> Polynomial:
    """The degree-d p at vertex u that meets the GKM condition on every
    out-edge of u, each edge's head holding the value in heads.

    d + 1 labels fix p; the rest are checked.  Remainder-theorem recursion
    over the first d + 1 pairwise independent edge labels of g: with t_j
    the residue of edge j (its head's value modulo a_j),
    p = t_1 + a_1 * q, where q has degree d - 1 and must satisfy
    q = (t_j - t_1) / a_1 modulo a_j for j >= 2.  Each t_j is already
    reduced modulo a_j, and so is every quotient, so only t_1 and a_1 need
    reducing.  Every value, residue and t_1 is restricted through the
    call's memo, which keeps no quotient t_1.  a_1 restricted to the
    hyperplane of a_j depends on the label pair alone, so g keeps it
    (``label_restriction``) for every class and level that pairs them.  A
    q exists exactly when the quotient is exact; q is unique once the
    degree drops below zero.

    That p is the only one: the difference of two degree-d solutions of
    the first d + 1 constraints is divisible by d + 1 pairwise independent,
    hence pairwise coprime, linear forms, so it has degree at least d + 1
    or is 0.  Each further out-edge is then checked by :func:`_agree`.
    Dividing by its label at every level instead succeeds throughout
    exactly when p passes that check, so both raise the same error at the
    same vertex.  With d + 1 or fewer labels there is nothing to check, and
    too few labels leave p underdetermined.  The solver calls this only at
    a vertex where no head's value already meets every constraint.
    """
    name = g.vertex_str(u)
    checks = zip(out[d + 1 :], heads[d + 1 :])
    labels = [e.label for e in out[: d + 1]]
    residues = [restricted(h, a) for h, a in zip(heads, labels)]
    levels: list = []
    while d >= 0:
        if not labels:
            raise SolveError(f"constraints at vertex {name} are underdetermined")
        a1, t1 = labels[0], residues[0]
        nxt = []
        for aj, tj in zip(labels[1:], residues[1:]):
            t1_on_aj = restricted(t1, aj, keep=not levels)
            try:
                nxt.append(exact_divide(tj - t1_on_aj, g.label_restriction(a1, aj)))
            except ExactDivisionError as exc:
                raise SolveError(
                    f"constraints at vertex {name} are inconsistent"
                ) from exc
        levels.append((a1, t1))
        labels, residues, d = labels[1:], nxt, d - 1
    terms: dict = {}  # p = t_1 + a_1 * (t_2 + a_2 * (...)), made once
    for a, t in reversed(levels):
        terms = _add_mul_terms(dict(t._terms), a._terms, terms, g.n)
    p = Polynomial._make(g.n, terms)
    for e, h in checks:
        if not _agree(p, h, e.label, restricted):
            raise SolveError(f"constraints at vertex {name} are inconsistent")
    return p


def knutson_tao_class_solve(g: MomentGraph, v) -> EquivariantClass:
    """Knutson-Tao class by upward induction over the reachability order.

    Walking the vertices from minimal to maximal, each localization is the
    unique homogeneous value that meets the GKM condition (:func:`_agree`)
    on every out-edge.  The base is pinned to its out-label product and
    vertices with no path down to v are pinned to zero, all of them to one
    zero object.  At a vertex u with at least d + 1 out-edges the heads'
    values are tried first, each distinct object once, in out-edge order:
    the first that meets the condition on every out-edge becomes the
    localization at u, as the same object.  Otherwise d + 1 labels fix it
    by the remainder-theorem recursion of _solve_vertex, and the rest are
    checked against it.

    A head's value that passes is the recursion's answer.  Every stored
    localization is 0, v's out-label product or a solved value, so it is
    0 or homogeneous of degree d.  Two degree-d solutions differ by a
    multiple of the product of d + 1 pairwise independent, hence pairwise
    coprime, linear forms, a product of degree d + 1, so they are equal:
    the value that passes is the only solution at u.  A solution exists
    there, so the recursion would not have raised at u: with d + 1 labels
    its divisions are exact and its checks hold.  Every error is therefore
    raised at the same first vertex with the same text.
    With d or fewer out-edges no value is tried and the recursion raises.

    Labels are restricted on the graph and values through the call's memo
    (``_restrictor``): every trial, residue and t_1 substitutes a value
    object into a label's hyperplane once per label, however many vertices
    share the value, and only when it is read.  The graph compiles each
    label's hyperplane once and keeps each label restricted to another's
    hyperplane.  Raises SolveError when a vertex system is inconsistent (no
    class exists) or underdetermined (uniqueness fails, e.g. the graph is
    not Palais-Smale).
    """
    if v not in g:
        raise ValueError(f"unknown vertex {v!r}")
    axioms = g.axioms()
    if not axioms.acyclic or axioms.independence_violations:
        raise SolveError(f"moment-graph axioms violated: {axioms.to_json()}")

    d = g.out_degree(v)
    above = g.above(v)
    zero = Polynomial.zero(g.n)
    restricted = _restrictor(g)
    loc: dict = {}
    # The pinned vertices need no divisibility check once g is acyclic.  A
    # vertex not above v has only heads not above v (a head above v would
    # put its tail above v), so both ends of its edges carry 0.  No head of
    # v is above v (that would close a cycle), so each edge out of v joins
    # the out-label product to 0, and the product is divisible by each of
    # its factors.
    for u in g.topo_min_first():
        if u == v:
            loc[u] = g.out_label_product(v)
            continue
        if u not in above:
            loc[u] = zero
            continue
        out = g.out_edges(u)  # not empty: u has a path down to v
        heads = [loc[e.head] for e in out]
        trials = {id(h): h for h in heads}.values() if len(out) > d else ()
        for p in trials:
            if all(_agree(p, h, e.label, restricted) for e, h in zip(out, heads)):
                break
        else:
            p = _solve_vertex(g, u, d, out, heads, restricted)
        loc[u] = p
    return EquivariantClass(g, loc, base=v)


def restrict(c: EquivariantClass, g_sub: MomentGraph) -> EquivariantClass:
    """Restriction of the localization map to a subgraph's vertices."""
    missing = [v for v in g_sub.vertices if v not in c.graph]
    if missing:
        raise ValueError(
            f"subgraph vertices missing from the class: "
            f"{[g_sub.vertex_str(v) for v in missing]}"
        )
    base = c.base if c.base in g_sub else None
    return EquivariantClass(g_sub, {v: c[v] for v in g_sub.vertices}, base=base)


# -- the basis and expansions ------------------------------------------------------


def _normal_expansion(expansion: Mapping, g: MomentGraph) -> dict:
    """The nonzero terms of an expansion over g, each key a vertex of g and
    each coefficient a polynomial of g's ring (an int or Fraction made one)."""
    out = {}
    for v, p in expansion.items():
        if v not in g:
            raise ValueError(f"vertex {v!r} not in graph")
        if isinstance(p, (int, Fraction)):
            p = Polynomial.constant(g.n, p)
        elif not isinstance(p, Polynomial):
            raise ValueError(f"coefficient {p!r} is not a polynomial, int or Fraction")
        elif p.n != g.n:
            raise ValueError(f"polynomial dimension {p.n} != graph dimension {g.n}")
        if p:
            out[v] = p
    return out


class KnutsonTaoBasis:
    """Lazily computed Knutson-Tao classes for every vertex of a graph.

    The graph picks the construction, reported as ``route``: Billey's
    formula (``billey``) on flag and Schubert graphs, the upward solver
    (``solve``) on external graphs.
    """

    def __init__(self, graph: MomentGraph):
        self.graph = graph
        self.route = "solve" if graph.rs is None else "billey"
        self._cache: dict = {}

    def cls(self, v) -> EquivariantClass:
        got = self._cache.get(v)
        if got is None:
            if self.route == "billey":
                got = knutson_tao_class_billey(self.graph, v)
            else:
                got = knutson_tao_class_solve(self.graph, v)
            self._cache[v] = got
        return got

    def reconstruct(self, expansion: Mapping) -> EquivariantClass:
        """The class sum of c_v times the class of v."""
        g, out = self.graph, {}
        for v, cv in _normal_expansion(expansion, g).items():
            for x, px in self.cls(v)._loc.items():
                _add_into(out, x, px._terms, cv._terms, g.n)
        return EquivariantClass(g, _polynomials(out, g.n))


def flag_basis(rs) -> KnutsonTaoBasis:
    """The Knutson-Tao basis of the full flag graph of rs (a new one per call)."""
    return KnutsonTaoBasis(build_flag_moment_graph(rs))


def expand_in_basis(c: EquivariantClass, basis: KnutsonTaoBasis | None = None) -> dict:
    """Unique coefficients with c = sum of c_v times the class of v.

    Peels a minimal support vertex at a time: its coefficient is the exact
    quotient of the current localization by the out-label product there.
    Raises SpanError when a quotient fails (the input is not in the span,
    e.g. it violates the GKM condition).
    """
    if basis is None:
        basis = KnutsonTaoBasis(c.graph)
    if basis.graph.vertices != c.graph.vertices:
        raise ValueError("basis and class live on different vertex sets")
    g = c.graph
    work = {v: dict(p._terms) for v, p in c._loc.items()}  # maps work owns
    coeffs: dict = {}
    for u in g.topo_min_first():
        if u not in work:
            continue
        q = Polynomial._make(g.n, dict(work[u]))  # work[u] is written below
        for e in g.out_edges(u):
            try:
                q = exact_divide(q, e.label)
            except ExactDivisionError as exc:
                raise SpanError(
                    f"not in the Knutson-Tao span: localization at "
                    f"{g.vertex_str(u)} is not divisible by its out-labels"
                ) from exc
        coeffs[u] = q
        minus_q = (-q)._terms
        for x, px in basis.cls(u)._loc.items():
            _add_into(work, x, px._terms, minus_q, g.n)
    return coeffs


def expansions_equal(a: Mapping, b: Mapping) -> bool:
    """Compare coefficient maps, ignoring explicit zeros; an int or Fraction
    coefficient stands for its constant polynomial, as in expansion_to_json."""
    ca = {v: p for v, p in a.items() if p}
    cb = {v: p for v, p in b.items() if p}
    # a scalar minus a polynomial, or the reverse, is a polynomial of its ring
    return ca.keys() == cb.keys() and all(
        ca[v] == cb[v] or (type(ca[v]) is not type(cb[v]) and not ca[v] - cb[v]) for v in ca
    )


# -- serialization ------------------------------------------------------------------


def graph_ref(g: MomentGraph) -> dict:
    if g.rs is not None:
        return {"type": g.metadata["type"], "w": g.metadata["w"]}
    return {"graph": graph_to_json(g)}


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(value).__name__}")
    return value


def _field(obj: dict, key: str, what: str):
    if key not in obj:
        raise ValueError(f"{what} has no {key!r} field")
    return obj[key]


def resolve_graph_ref(ref: dict) -> MomentGraph:
    ref = _json_object(ref, "graph_ref")
    if "type" in ref:
        if not all(isinstance(ref.get(k, ""), str) for k in ("type", "w")):
            raise ValueError(f"graph_ref 'type' and 'w' must be strings: {ref!r}")
        return schubert_graph(ref["type"], _field(ref, "w", "graph_ref"))
    if "graph" in ref:
        return load_external_graph(ref["graph"])
    raise ValueError(f"cannot resolve graph reference {ref!r}")


def class_to_json(c: EquivariantClass) -> dict:
    g = c.graph
    texts = to_strings((p for _, p in c.items()), g.var_prefix)
    return {
        "graph_ref": graph_ref(g),
        "base": None if c.base is None else g.vertex_str(c.base),
        "localizations": dict(zip(map(g.vertex_str, g.vertices), texts)),
    }


def class_from_json(obj: dict) -> EquivariantClass:
    obj = _json_object(obj, "a class")
    g = resolve_graph_ref(_field(obj, "graph_ref", "a class"))
    loc = {}
    localizations = _field(obj, "localizations", "a class")
    for name, text in _json_object(localizations, "localizations").items():
        v = g.vertex_by_str(name)
        loc[v] = polynomial_from_json(text, g.n)
    base = obj.get("base")
    return EquivariantClass(
        g, loc, base=None if base is None else g.vertex_by_str(base)
    )


def expansion_to_json(expansion: Mapping, g: MomentGraph) -> dict:
    terms = _normal_expansion(expansion, g)
    texts = to_strings(terms.values(), g.var_prefix)
    names = map(g.vertex_str, terms)
    return {"graph_ref": graph_ref(g), "coefficients": dict(zip(names, texts))}


def expansion_from_json(obj: dict) -> dict:
    obj = _json_object(obj, "an expansion")
    g = resolve_graph_ref(_field(obj, "graph_ref", "an expansion"))
    coefficients = _field(obj, "coefficients", "an expansion")
    return {
        g.vertex_by_str(name): polynomial_from_json(text, g.n)
        for name, text in _json_object(coefficients, "coefficients").items()
    }
