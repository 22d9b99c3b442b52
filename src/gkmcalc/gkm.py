"""Equivariant classes on moment graphs and the Knutson-Tao basis.

An equivariant class assigns a polynomial to every vertex subject to the
GKM divisibility condition: across each edge the difference of endpoint
polynomials is divisible by the edge label.  The Knutson-Tao class for a
vertex v is the class that localizes at v to the product of v's out-edge
labels, is homogeneous of that degree everywhere, and vanishes wherever no
directed path leads down to v.

Two independent constructions are provided and tested against each other:

* the descent route, which starts from the point class at the top of the
  full flag graph and applies left divided differences along a reduced
  word, and
* the solve route, which walks the vertices upward and determines each
  localization from the divisibility constraints by a remainder-theorem
  recursion over the out-edge labels.

Schubert-variety classes are restrictions of the flag classes; the solver
also works for external graphs, where it reports failure rather than
assuming a class exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .moment_graph import (
    MomentGraph,
    build_flag_moment_graph,
    build_schubert_moment_graph,
    validate_axioms,
)
from .polyring import (
    ExactDivisionError,
    Polynomial,
    divides,
    exact_divide,
    polynomial_from_json,
    reduce_modulo,
    to_string,
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
    "knutson_tao_class_descent",
    "knutson_tao_class_solve",
    "restrict",
    "KnutsonTaoBasis",
    "flag_basis",
    "expand_in_basis",
    "expansion_to_class",
    "expansions_equal",
    "class_to_json",
    "class_from_json",
    "expansion_to_json",
    "expansion_from_json",
]


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
        vset = set(graph.vertices)
        loc: dict = {}
        for v, p in localizations.items():
            if v not in vset:
                raise ValueError(f"localization at unknown vertex {v!r}")
            if p.n != graph.n:
                raise ValueError(
                    f"polynomial dimension {p.n} != graph dimension {graph.n}"
                )
            if p:
                loc[v] = p
        if base is not None and base not in vset:
            raise ValueError(f"base vertex {base!r} not in graph")
        self.graph = graph
        self.base = base
        self._loc = loc

    def __getitem__(self, v) -> Polynomial:
        if v not in self.graph._vstr:
            raise KeyError(f"vertex {v!r} not in graph")
        return self._loc.get(v, Polynomial.zero(self.graph.n))

    def items(self):
        """(vertex, polynomial) pairs over all vertices in canonical order."""
        zero = Polynomial.zero(self.graph.n)
        for v in self.graph.vertices:
            yield v, self._loc.get(v, zero)

    def support(self) -> list:
        return [v for v in self.graph.vertices if v in self._loc]

    def is_zero(self) -> bool:
        return not self._loc

    def _check_compat(self, other: "EquivariantClass"):
        if self.graph.vertices != other.graph.vertices:
            raise ValueError("classes live on different vertex sets")

    def __add__(self, other: "EquivariantClass") -> "EquivariantClass":
        self._check_compat(other)
        out = dict(self._loc)
        for v, p in other._loc.items():
            q = out.get(v)
            s = p if q is None else q + p
            if s:
                out[v] = s
            else:
                out.pop(v, None)
        return EquivariantClass(self.graph, out)

    def __sub__(self, other: "EquivariantClass") -> "EquivariantClass":
        return self + (-other)

    def __neg__(self) -> "EquivariantClass":
        return EquivariantClass(self.graph, {v: -p for v, p in self._loc.items()})

    def scale(self, c) -> "EquivariantClass":
        """Multiply every localization by a polynomial or rational scalar."""
        if isinstance(c, (int, Fraction)):
            c = Polynomial.constant(self.graph.n, c)
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
        body = ", ".join(
            f"{self.graph.vertex_str(v)}: {to_string(p, self.graph.var_prefix)}"
            for v, p in self.items()
        )
        return f"EquivariantClass({body})"


@dataclass
class GkmReport:
    ok: bool
    violations: list[tuple[str, str, str]] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"ok": self.ok, "violations": [list(v) for v in self.violations]}


def check_gkm(c: EquivariantClass) -> GkmReport:
    """Divisibility of localization differences across every edge."""
    bad = []
    g = c.graph
    for e in g.edges:
        if not divides(e.label, c[e.tail] - c[e.head]):
            bad.append(
                (
                    g.vertex_str(e.tail),
                    g.vertex_str(e.head),
                    to_string(e.label, g.var_prefix),
                )
            )
    return GkmReport(ok=not bad, violations=bad)


@dataclass
class KtReport:
    ok: bool
    failures: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"ok": self.ok, "failures": list(self.failures)}


def kt_report(c: EquivariantClass) -> KtReport:
    """Check the three Knutson-Tao conditions plus the GKM condition."""
    if c.base is None:
        return KtReport(False, ["class has no base vertex"])
    g = c.graph
    failures: list[str] = []
    prod = Polynomial.one(g.n)
    for e in g.out_edges(c.base):
        prod = prod * e.label
    if c[c.base] != prod:
        failures.append("localization at the base is not the out-label product")
    d = g.out_degree(c.base)
    for v, p in c.items():
        if p and not p.is_homogeneous(d):
            failures.append(
                f"localization at {g.vertex_str(v)} is not homogeneous of degree {d}"
            )
        if p and not g.reaches(v, c.base):
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
    uinv = rs.inv(u)
    sub = rs.coadjoint_substitution(u)
    out = {}
    for x in g.vertices:
        y = rs.mul(uinv, x)
        if y not in g._vstr:
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
    prod = Polynomial.one(g.n)
    for e in g.out_edges(top):
        prod = prod * e.label
    return EquivariantClass(g, {top: prod}, base=top)


def _left_divided_difference_pointwise(i: int, c: EquivariantClass) -> EquivariantClass:
    rs = c.graph.rs
    s = rs.simple_reflection(i)
    num = c - apply_group_element(s, c)
    alpha = rs.simple_root_form(i)
    out = {}
    for v, p in num._loc.items():
        out[v] = exact_divide(p, alpha)
    return EquivariantClass(c.graph, out)


def knutson_tao_class_descent(g: MomentGraph, v) -> EquivariantClass:
    """Knutson-Tao class on the full flag graph via divided differences.

    Writes the longest element as w0 = z * v with a reduced word for z and
    peels one letter at a time from the point class at the top.
    """
    if g.variety != "flag" or g.rs is None:
        raise ValueError("the descent construction needs the full flag graph")
    rs = g.rs
    if v not in g._vstr:
        raise ValueError(f"unknown vertex {v!r}")
    z = rs.mul(rs.longest_element(), rs.inv(v))
    cls = point_class_top(g)
    for i in rs.reduced_word(z):
        cls = _left_divided_difference_pointwise(i, cls)
    return EquivariantClass(g, cls._loc, base=v)


def _solve_vertex(
    name: str, n: int, d: int, labels: list, residues: list
) -> Polynomial:
    """The degree-d p with p = residues[j] modulo labels[j] for every j.

    Remainder-theorem recursion over pairwise independent linear forms:
    p = t_1 + a_1 * q, where q has degree d - 1 and must satisfy
    q = (t_j - t_1) / a_1 modulo a_j for j >= 2.  Each residues[j] is
    already reduced modulo labels[j], and so is every quotient, so only
    t_1 and a_1 need reducing.  A q exists exactly when the quotient is
    exact; q is unique once the degree drops below zero.
    """
    levels: list = []
    while d >= 0:
        if not labels:
            raise SolveError(f"constraints at vertex {name} are underdetermined")
        a1, t1 = labels[0], residues[0]
        nxt = []
        for aj, tj in zip(labels[1:], residues[1:]):
            try:
                nxt.append(
                    exact_divide(tj - reduce_modulo(t1, aj), reduce_modulo(a1, aj))
                )
            except ExactDivisionError as exc:
                raise SolveError(
                    f"constraints at vertex {name} are inconsistent"
                ) from exc
        levels.append((a1, t1))
        labels, residues, d = labels[1:], nxt, d - 1
    if any(residues):
        raise SolveError(f"constraints at vertex {name} are inconsistent")
    p = Polynomial.zero(n)
    for a, t in reversed(levels):
        p = t + a * p
    return p


def knutson_tao_class_solve(g: MomentGraph, v) -> EquivariantClass:
    """Knutson-Tao class by upward induction over the reachability order.

    Walking the vertices from minimal to maximal, each localization is the
    unique homogeneous solution of the divisibility constraints along its
    out-edges, found by the remainder-theorem recursion of _solve_vertex;
    the base is pinned to its out-label product and vertices with no path
    down to v are pinned to zero.  Raises SolveError when a vertex system
    is inconsistent (no class exists) or underdetermined (uniqueness
    fails, e.g. the graph is not Palais-Smale).
    """
    if v not in g._vstr:
        raise ValueError(f"unknown vertex {v!r}")
    axioms = validate_axioms(g)
    if not axioms.acyclic or axioms.independence_violations:
        raise SolveError(f"moment-graph axioms violated: {axioms.to_json()}")

    n = g.n
    d = g.out_degree(v)
    prod = Polynomial.one(n)
    for e in g.out_edges(v):
        prod = prod * e.label
    loc: dict = {}

    def check_pinned(u) -> None:
        for e in g.out_edges(u):
            diff = loc[u] - loc[e.head]
            if not divides(e.label, diff):
                raise SolveError(
                    f"no class: edge {g.vertex_str(u)} -> "
                    f"{g.vertex_str(e.head)} violates divisibility"
                )

    for u in g.topo_min_first():
        if u == v:
            loc[u] = prod
            check_pinned(u)
            continue
        if not g.reaches(u, v):
            loc[u] = Polynomial.zero(n)
            check_pinned(u)
            continue
        out = g.out_edges(u)
        if not out:
            raise SolveError(
                f"vertex {g.vertex_str(u)} has no out-edges but must carry a "
                f"degree-{d} class: underdetermined"
            )
        loc[u] = _solve_vertex(
            g.vertex_str(u),
            n,
            d,
            [e.label for e in out],
            [reduce_modulo(loc[e.head], e.label) for e in out],
        )
    return EquivariantClass(g, loc, base=v)


def restrict(c: EquivariantClass, g_sub: MomentGraph) -> EquivariantClass:
    """Restriction of the localization map to a subgraph's vertices."""
    missing = [v for v in g_sub.vertices if v not in c.graph._vstr]
    if missing:
        raise ValueError(
            f"subgraph vertices missing from the class: "
            f"{[g_sub.vertex_str(v) for v in missing]}"
        )
    base = c.base if c.base in g_sub._vstr else None
    return EquivariantClass(g_sub, {v: c[v] for v in g_sub.vertices}, base=base)


# -- the basis and expansions ------------------------------------------------------


class KnutsonTaoBasis:
    """Lazily computed Knutson-Tao classes for every vertex of a graph.

    Route defaults: descent on the full flag graph, restriction of flag
    classes on Schubert graphs, and the upward solver on external graphs.
    """

    def __init__(self, graph: MomentGraph, route: str | None = None):
        if route is None:
            route = {
                "flag": "descent",
                "schubert": "restrict",
                "external": "solve",
            }[graph.variety]
        if route not in ("descent", "solve", "restrict"):
            raise ValueError(f"unknown route {route!r}")
        if route == "descent" and graph.variety != "flag":
            raise ValueError("the descent route needs the full flag graph")
        if route == "restrict" and graph.rs is None:
            raise ValueError("the restriction route needs a root-system graph")
        self.graph = graph
        self.route = route
        self._cache: dict = {}
        self._flag = None

    def _flag_pair(self):
        if self._flag is None:
            fg = build_flag_moment_graph(self.graph.rs)
            self._flag = (fg, flag_basis(self.graph.rs))
        return self._flag

    def cls(self, v) -> EquivariantClass:
        got = self._cache.get(v)
        if got is None:
            if self.route == "descent":
                got = knutson_tao_class_descent(self.graph, v)
            elif self.route == "solve":
                got = knutson_tao_class_solve(self.graph, v)
            else:
                _, fb = self._flag_pair()
                got = restrict(fb.cls(v), self.graph)
            self._cache[v] = got
        return got

    def expand(self, c: EquivariantClass) -> dict:
        return expand_in_basis(c, self)

    def reconstruct(self, expansion: Mapping) -> EquivariantClass:
        return expansion_to_class(expansion, self)


@lru_cache(maxsize=None)
def flag_basis(rs) -> KnutsonTaoBasis:
    return KnutsonTaoBasis(build_flag_moment_graph(rs), route="descent")


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
        ktc = basis.cls(u)
        for x, px in ktc._loc.items():
            cur = work.get(x)
            s = (cur if cur is not None else Polynomial.zero(g.n)) - q * px
            if s:
                work[x] = s
            else:
                work.pop(x, None)
    if work:
        raise SpanError("expansion left a nonzero residue")  # unreachable on DAGs
    return coeffs


def expansion_to_class(expansion: Mapping, basis: KnutsonTaoBasis) -> EquivariantClass:
    out = EquivariantClass(basis.graph, {})
    for v, cv in expansion.items():
        if isinstance(cv, (int, Fraction)):
            cv = Polynomial.constant(basis.graph.n, cv)
        if cv:
            out = out + basis.cls(v).scale(cv)
    return out


def expansions_equal(a: Mapping, b: Mapping) -> bool:
    """Compare coefficient maps, ignoring explicit zeros."""
    ca = {v: p for v, p in a.items() if p}
    cb = {v: p for v, p in b.items() if p}
    return ca == cb


# -- serialization ------------------------------------------------------------------


def graph_ref(g: MomentGraph) -> dict:
    from .moment_graph import graph_to_json

    if g.variety in ("flag", "schubert") and g.rs is not None:
        return {"type": g.metadata["type"], "w": g.metadata["w"]}
    return {"graph": graph_to_json(g)}


def resolve_graph_ref(ref: dict) -> MomentGraph:
    from .moment_graph import load_external_graph, schubert_graph

    if "type" in ref:
        return schubert_graph(ref["type"], ref["w"])
    if "graph" in ref:
        return load_external_graph(ref["graph"])
    raise ValueError(f"cannot resolve graph reference {ref!r}")


def class_to_json(c: EquivariantClass) -> dict:
    g = c.graph
    return {
        "graph_ref": graph_ref(g),
        "base": None if c.base is None else g.vertex_str(c.base),
        "localizations": {
            g.vertex_str(v): to_string(p, g.var_prefix) for v, p in c.items()
        },
    }


def class_from_json(obj: dict, graph: MomentGraph | None = None) -> EquivariantClass:
    g = graph if graph is not None else resolve_graph_ref(obj["graph_ref"])
    loc = {}
    for name, text in obj["localizations"].items():
        v = g.vertex_by_str(name)
        loc[v] = polynomial_from_json(text, g.n)
    base = obj.get("base")
    return EquivariantClass(
        g, loc, base=None if base is None else g.vertex_by_str(base)
    )


def expansion_to_json(expansion: Mapping, g: MomentGraph) -> dict:
    out = {}
    for v, p in expansion.items():
        if isinstance(p, (int, Fraction)):
            p = Polynomial.constant(g.n, p)
        if p:
            out[g.vertex_str(v)] = to_string(p, g.var_prefix)
    return {"graph_ref": graph_ref(g), "coefficients": out}


def expansion_from_json(obj: dict, graph: MomentGraph | None = None) -> dict:
    g = graph if graph is not None else resolve_graph_ref(obj["graph_ref"])
    return {
        g.vertex_by_str(name): polynomial_from_json(text, g.n)
        for name, text in obj["coefficients"].items()
    }
