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
and no solving, and a Schubert graph never builds the flag graph.  Two
independent routes stay as checks, which the verify suites and tests call
by name and compare with Billey's classes:

* the descent route, which starts from the point class at the top of the
  full flag graph and applies left divided differences along a reduced
  word, and
* the solve route, which walks the vertices upward and determines each
  localization from the divisibility constraints by a remainder-theorem
  recursion over the out-edge labels; it reduces modulo a label by
  substituting the hyperplane the graph compiles once per distinct label,
  and divides by one label restricted to another's hyperplane, which the
  graph keeps once per label pair.  The vertices it pins (the base and
  those with no path down to it) need no check: their edges satisfy the
  divisibility condition on every acyclic graph.

The graph alone picks the construction: :class:`KnutsonTaoBasis` uses
Billey's formula on flag and Schubert graphs and the solver on external
graphs, where it reports failure rather than assuming a class exists.
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
    add_mul,
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


def _accumulate(
    out: dict, v, p: Polynomial, factor: Polynomial | None = None
) -> None:
    """Add p, or p * factor when a factor is given, to out[v], dropping the
    entry when the sum vanishes."""
    if not p:
        return
    cur = out.get(v)
    if factor is not None:
        cur = add_mul(Polynomial.zero(p.n) if cur is None else cur, p, factor)
    else:
        cur = p if cur is None else cur + p
    if cur:
        out[v] = cur
    else:
        out.pop(v, None)


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
        for v, p in other._loc.items():
            _accumulate(out, v, p)
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
        g = self.graph
        texts = to_strings((p for _, p in self.items()), g.var_prefix)
        body = ", ".join(f"{g.vertex_str(v)}: {t}" for v, t in zip(g.vertices, texts))
        return f"EquivariantClass({body})"


class GkmReport:
    def __init__(self, ok: bool, violations: list[tuple[str, str, str]] | None = None):
        self.ok = ok
        self.violations = [] if violations is None else violations

    def to_json(self) -> dict:
        return {"ok": self.ok, "violations": [list(v) for v in self.violations]}


def check_gkm(c: EquivariantClass) -> GkmReport:
    """Divisibility of localization differences across every edge: each
    difference vanishes on the hyperplane of its label."""
    bad = []
    g = c.graph
    for e in g.edges:
        diff = c[e.tail] - c[e.head]
        if diff and diff.substitute(g.label_hyperplane(e.label)):
            bad.append(
                (g.vertex_str(e.tail), g.vertex_str(e.head), g.label_str(e.label))
            )
    return GkmReport(ok=not bad, violations=bad)


class KtReport:
    def __init__(self, ok: bool, failures: list[str] | None = None):
        self.ok = ok
        self.failures = [] if failures is None else failures

    def to_json(self) -> dict:
        return {"ok": self.ok, "failures": list(self.failures)}


def kt_report(c: EquivariantClass) -> KtReport:
    """Check the three Knutson-Tao conditions plus the GKM condition."""
    if c.base is None:
        return KtReport(False, ["class has no base vertex"])
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
    return KtReport(ok=not failures, failures=failures)


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
    current path's columns alive.  Each column entry takes its beta term
    by one fused multiply-add (``add_mul``), so no product beta *
    xi^{u s_i}(w') is built only to be added.  Row u draws only on the
    rows u and u s_i < u, so row v needs only the rows u = v s_j ... s_k
    reached by length-lowering right multiplications: the lower ideal of
    v in the right weak order, which lies inside [e, v]: the left factors
    of RootSystem.factorizations(v).  Each step down the tree lowers the
    row length by at most one, so a row u can still reach row v from
    column x only when l(x) - l(u) <= top - l(v), where top is the
    largest length in the graph; the other rows are dropped.
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
    zero = Polynomial.zero(g.n)
    loc: dict = {}
    # (w, i, beta, column of w s_i): w's column is built when it is popped,
    # so only the columns on the current path stay alive
    stack: list = [(g.vertices[0], None, None, None)]
    while stack:
        w, i, beta, parent = stack.pop()
        k = index[w]
        if parent is None:
            col = {0: Polynomial.one(g.n)}
        else:
            lw = length[k]
            col = {u: p for u, p in parent.items() if lw - length[u] <= slack}
            row = rmul[i]
            for u, p in parent.items():
                us = row[u]
                if length[us] > length[u] and us in rows and lw - length[us] <= slack:
                    # a sum of products of positive roots: never zero
                    col[us] = add_mul(col.get(us, zero), beta, p)
            if not col:
                continue  # and so is every column below w
        if top in col:
            loc[w] = col[top]
        # the children of w: the tails y = w s_j whose first right descent is j
        for e in g.in_edges(w):
            y = index[e.tail]
            j = rdescent[y]
            if rmul[j][y] == k:
                stack.append((e.tail, j, e.label, col))
    return EquivariantClass(g, loc, base=v)


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
    g: MomentGraph, u, d: int, labels: list, residues: list
) -> Polynomial:
    """The degree-d p at vertex u with p = residues[j] modulo labels[j].

    Remainder-theorem recursion over pairwise independent edge labels of g:
    p = t_1 + a_1 * q, where q has degree d - 1 and must satisfy
    q = (t_j - t_1) / a_1 modulo a_j for j >= 2.  Each residues[j] is
    already reduced modulo labels[j], and so is every quotient, so only
    t_1 and a_1 need reducing.  The hyperplane of a_j and a_1 reduced on
    it depend on the label pair alone, so g keeps them
    (``label_restriction``) for every class and level that pairs them.  A
    q exists exactly when the quotient is exact; q is unique once the
    degree drops below zero.
    """
    name = g.vertex_str(u)
    levels: list = []
    while d >= 0:
        if not labels:
            raise SolveError(f"constraints at vertex {name} are underdetermined")
        a1, t1 = labels[0], residues[0]
        nxt = []
        for aj, tj in zip(labels[1:], residues[1:]):
            plane, a1_on_plane = g.label_restriction(a1, aj)
            try:
                nxt.append(exact_divide(tj - t1.substitute(plane), a1_on_plane))
            except ExactDivisionError as exc:
                raise SolveError(
                    f"constraints at vertex {name} are inconsistent"
                ) from exc
        levels.append((a1, t1))
        labels, residues, d = labels[1:], nxt, d - 1
    if any(residues):
        raise SolveError(f"constraints at vertex {name} are inconsistent")
    p = Polynomial.zero(g.n)
    for a, t in reversed(levels):
        p = add_mul(t, a, p)
    return p


def knutson_tao_class_solve(g: MomentGraph, v) -> EquivariantClass:
    """Knutson-Tao class by upward induction over the reachability order.

    Walking the vertices from minimal to maximal, each localization is the
    unique homogeneous solution of the divisibility constraints along its
    out-edges, found by the remainder-theorem recursion of _solve_vertex;
    the base is pinned to its out-label product and vertices with no path
    down to v are pinned to zero.  Every reduction modulo an edge label
    substitutes the hyperplane the graph keeps for it, compiled once per
    graph, and each label restricted to another's hyperplane is computed
    once per graph too.  Raises SolveError when a vertex system is
    inconsistent (no class exists) or underdetermined (uniqueness fails,
    e.g. the graph is not Palais-Smale).
    """
    if v not in g:
        raise ValueError(f"unknown vertex {v!r}")
    axioms = g.axioms()
    if not axioms.acyclic or axioms.independence_violations:
        raise SolveError(f"moment-graph axioms violated: {axioms.to_json()}")

    n = g.n
    d = g.out_degree(v)
    above = g.above(v)
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
            loc[u] = Polynomial.zero(n)
            continue
        out = g.out_edges(u)
        if not out:
            raise SolveError(
                f"vertex {g.vertex_str(u)} has no out-edges but must carry a "
                f"degree-{d} class: underdetermined"
            )
        loc[u] = _solve_vertex(
            g,
            u,
            d,
            [e.label for e in out],
            [loc[e.head].substitute(g.label_hyperplane(e.label)) for e in out],
        )
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
        out: dict = {}
        for v, cv in expansion.items():
            if cv:
                if not isinstance(cv, Polynomial):  # an int or Fraction scalar
                    cv = Polynomial.constant(self.graph.n, cv)
                for x, px in self.cls(v)._loc.items():
                    _accumulate(out, x, px, cv)
        return EquivariantClass(self.graph, out)


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
    work = dict(c._loc)
    coeffs: dict = {}
    for u in g.topo_min_first():
        p = work.get(u)
        if not p:
            continue
        q = p
        for e in g.out_edges(u):
            try:
                q = exact_divide(q, e.label)
            except ExactDivisionError as exc:
                raise SpanError(
                    f"not in the Knutson-Tao span: localization at "
                    f"{g.vertex_str(u)} is not divisible by its out-labels"
                ) from exc
        coeffs[u] = q
        minus_q = -q
        for x, px in basis.cls(u)._loc.items():
            _accumulate(work, x, px, minus_q)
    if work:
        raise SpanError("expansion left a nonzero residue")  # unreachable on DAGs
    return coeffs


def expansions_equal(a: Mapping, b: Mapping) -> bool:
    """Compare coefficient maps, ignoring explicit zeros."""
    ca = {v: p for v, p in a.items() if p}
    cb = {v: p for v, p in b.items() if p}
    return ca == cb


# -- serialization ------------------------------------------------------------------


def graph_ref(g: MomentGraph) -> dict:
    if g.rs is not None:
        return {"type": g.metadata["type"], "w": g.metadata["w"]}
    return {"graph": graph_to_json(g)}


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(value).__name__}")
    return value


def resolve_graph_ref(ref: dict) -> MomentGraph:
    ref = _json_object(ref, "graph_ref")
    if "type" in ref:
        return schubert_graph(str(ref["type"]), str(ref["w"]))
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


def class_from_json(obj: dict, graph: MomentGraph | None = None) -> EquivariantClass:
    obj = _json_object(obj, "a class")
    g = graph if graph is not None else resolve_graph_ref(obj["graph_ref"])
    loc = {}
    for name, text in _json_object(obj["localizations"], "localizations").items():
        v = g.vertex_by_str(name)
        loc[v] = polynomial_from_json(text, g.n)
    base = obj.get("base")
    return EquivariantClass(
        g, loc, base=None if base is None else g.vertex_by_str(base)
    )


def expansion_to_json(expansion: Mapping, g: MomentGraph) -> dict:
    terms = {}
    for v, p in expansion.items():
        if isinstance(p, (int, Fraction)):
            p = Polynomial.constant(g.n, p)
        if p:
            terms[g.vertex_str(v)] = p
    texts = to_strings(terms.values(), g.var_prefix)
    return {"graph_ref": graph_ref(g), "coefficients": dict(zip(terms, texts))}


def expansion_from_json(obj: dict, graph: MomentGraph | None = None) -> dict:
    obj = _json_object(obj, "an expansion")
    g = graph if graph is not None else resolve_graph_ref(obj["graph_ref"])
    return {
        g.vertex_by_str(name): polynomial_from_json(text, g.n)
        for name, text in _json_object(obj["coefficients"], "coefficients").items()
    }
