"""Combinatorial moment graphs for flag and Schubert varieties.

A moment graph is a finite directed acyclic graph whose edges carry linear
forms (torus weights).  For the full flag variety the vertices are all Weyl
group elements and each vertex w has one out-edge per inversion root alpha,
pointing at s_alpha * w and labeled alpha; every Schubert variety gives the
subgraph induced on the lower Bruhat interval of its top element.  The
builder finds every edge in the root system's root rows, by int lookups,
and puts the row's label object on it, one per positive root shared by its
edges; the consumers read them off ``out_edges`` and ``in_edges``.
External graphs (any vertex names and labels) load from JSON, each distinct
label text parsed once.  A graph keeps, per distinct label, its text, its
line (a root label's taken from its root row) and (on first use) its
compiled hyperplane; per ordered pair of distinct labels (a, b), again on
first use, a restricted to the hyperplane of b, which the external-graph
solver divides by.

Construction refuses what is no moment graph (see :class:`MomentGraph`),
so nothing downstream checks it again.  :func:`validate_axioms` never
throws: it reports acyclicity, pairwise label independence at each vertex
(by lines), and the Schubert out-degree/label facts when they apply.  The
Palais-Smale check runs either on the stored orientation or searches the
finitely many orientations induced by generic covectors on the label
lines, fixing one sign at a time and testing each prefix for a covector by
Fourier-Motzkin elimination (:func:`strict_feasible`).
"""

from __future__ import annotations

import heapq
import json
import re
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .polyring import (
    MAX_DEGREE,
    Polynomial,
    Substitution,
    _line,
    hyperplane,
    parse_polynomial,
    to_string,
)
from .root_system import RootSystem, root_system

__all__ = [
    "Edge",
    "MomentGraph",
    "GraphParseError",
    "AxiomReport",
    "PalaisSmaleResult",
    "build_flag_moment_graph",
    "build_schubert_moment_graph",
    "validate_axioms",
    "is_palais_smale",
    "load_external_graph",
    "graph_to_json",
    "graph_to_dot",
    "toric_hexagon_json",
    "toric_hexagon_graph",
]


# the largest ring dimension an external graph may ask for
MAX_EXTERNAL_N = 64


class GraphParseError(ValueError):
    """Malformed external graph description."""


class Edge(NamedTuple):
    tail: object
    head: object
    label: Polynomial


class MomentGraph:
    """Immutable labeled DAG with canonical vertex and edge order.

    Vertices are sorted by element id (by length, then name) on a
    root-system graph, by name on an external graph; edges by the positions
    of their tail and head, then label text.  Each vertex's out- and
    in-edges and the topological order are tuples, built once and handed
    out as they are.

    GraphParseError refuses repeated vertices, an edge end outside them, a
    label that is no nonzero linear form in metadata 'n' variables, more
    than MAX_DEGREE out-edges at a vertex (the degree of its class), and a
    var_prefix that parse_polynomial cannot read back (not ASCII letters).
    """

    def __init__(
        self,
        vertices: Iterable,
        edges: Iterable[Edge],
        metadata: dict,
        rs: RootSystem | None = None,
    ):
        self.rs = rs
        self.metadata = dict(metadata)
        self.n = int(self.metadata["n"])
        prefix = self.var_prefix = self.metadata.get("var_prefix", "t")
        if not (isinstance(prefix, str) and prefix.isascii() and prefix.isalpha()):
            raise GraphParseError(f"var_prefix must be ASCII letters, got {prefix!r}")

        vlist = list(vertices)
        if len(set(vlist)) != len(vlist):
            raise GraphParseError("duplicate vertices")
        if rs is not None:
            vlist.sort(key=rs.element_id)
            self._vstr = {v: rs.element_str(v) for v in vlist}
        else:
            self._vstr = {v: str(v) for v in vlist}
            vlist.sort(key=self._vstr.__getitem__)
        self.vertices = tuple(vlist)
        pos = self._pos = {v: k for k, v in enumerate(self.vertices)}
        self._by_str = {s: v for v, s in self._vstr.items()}

        # one row per distinct label, which a builder or the loader shares
        # among its edges: its text, its line (a root label's from its root
        # row), and its hyperplane once asked; per label pair (a, b) once
        # asked, a restricted to the hyperplane of b
        text, line = self._label_text, self._label_line = {}, {}
        self._planes: dict = {}
        self._restrictions: dict = {}
        root_lines = {} if rs is None else {f: ln for f, ln, _ in rs.root_rows}
        edges = list(edges)  # read twice below; a generator is spent by one read
        for e in edges:
            if e.tail not in self._vstr or e.head not in self._vstr:
                raise GraphParseError(
                    f"edge endpoint missing from vertex set: "
                    f"{self._vstr.get(e.tail, e.tail)} -> "
                    f"{self._vstr.get(e.head, e.head)}"
                )
            if e.label not in text:
                t = text[e.label] = to_string(e.label, prefix)
                ln = line[e.label] = root_lines.get(e.label) or _line(e.label)
                if ln is None or e.label.n != self.n:
                    ring = "" if ln is None else f" in {self.n} variables"
                    msg = f"edge label {t!r} is not a nonzero linear form{ring}"
                    raise GraphParseError(msg)
        self.edges = tuple(
            sorted(edges, key=lambda e: (pos[e.tail], pos[e.head], text[e.label]))
        )
        out: dict = {v: [] for v in self.vertices}
        into: dict = {v: [] for v in self.vertices}
        for e in self.edges:
            out[e.tail].append(e)
            into[e.head].append(e)
        self._out = {v: tuple(es) for v, es in out.items()}
        for v, es in self._out.items():
            if len(es) > MAX_DEGREE:
                raise GraphParseError(
                    f"vertex {self._vstr[v]} has more than {MAX_DEGREE} out-edges "
                    f"(MAX_DEGREE, the largest degree of a class)"
                )
        self._in = {v: tuple(es) for v, es in into.items()}
        self._topo: tuple | None = None
        self._axioms = None
        self._json: tuple | None = None  # kept by graph_to_json

    # -- basic queries -------------------------------------------------------

    @property
    def variety(self) -> str:
        return self.metadata.get("variety", "external")

    def __contains__(self, v) -> bool:
        return v in self._vstr

    def vertex_str(self, v) -> str:
        return self._vstr[v]

    def label_str(self, label: Polynomial) -> str:
        """The text of an edge label of this graph."""
        return self._label_text[label]

    def label_line(self, label: Polynomial) -> tuple[tuple[Fraction, ...], int]:
        """(coefficients over the first nonzero one, that one's sign) of an
        edge label, so proportional labels share the coefficients."""
        return self._label_line[label]

    def label_hyperplane(self, label: Polynomial) -> Substitution:
        """polyring.hyperplane of an edge label, compiled on first use and kept."""
        plane = self._planes.get(label)
        if plane is None:
            plane = self._planes[label] = hyperplane(label)
        return plane

    def label_restriction(
        self, a: Polynomial, b: Polynomial
    ) -> tuple[Substitution, Polynomial]:
        """(hyperplane of edge label b, edge label a restricted to it),
        computed on first use and kept: at most L * (L - 1) pairs for L
        distinct labels, since the solver never pairs a label with itself."""
        key = (a, b)
        got = self._restrictions.get(key)
        if got is None:
            plane = self.label_hyperplane(b)
            got = self._restrictions[key] = (plane, a.substitute(plane))
        return got

    def vertex_by_str(self, s: str):
        try:
            return self._by_str[s]
        except (KeyError, TypeError):  # TypeError: an unhashable name from JSON
            raise KeyError(f"no vertex named {s!r}") from None

    def out_edges(self, v) -> tuple[Edge, ...]:
        return self._out[v]

    def in_edges(self, v) -> tuple[Edge, ...]:
        return self._in[v]

    def out_degree(self, v) -> int:
        return len(self._out[v])

    def out_label_product(self, v) -> Polynomial:
        """The product of the labels on the out-edges of v (1 at a sink)."""
        prod = Polynomial.one(self.n)
        for e in self._out[v]:
            prod = prod * e.label
        return prod

    def sources(self) -> list:
        return [v for v in self.vertices if not self._in[v]]

    def top_vertex(self):
        """The unique maximal vertex; raises if there is not exactly one."""
        src = self.sources()
        if len(src) != 1:
            names = [self._vstr[v] for v in src]
            raise ValueError(f"graph does not have a unique maximum: {names}")
        return src[0]

    def topo_min_first(self) -> tuple:
        """Vertices ordered so every edge head comes before its tail, the
        earliest in ``vertices`` first among those ready; computed once."""
        if self._topo is None:
            remaining = [len(self._out[v]) for v in self.vertices]
            # a heap of vertex positions; sorted as built, so already a heap
            ready = [k for k, deg in enumerate(remaining) if deg == 0]
            order = []
            while ready:
                v = self.vertices[heapq.heappop(ready)]
                order.append(v)
                for e in self._in[v]:
                    k = self._pos[e.tail]
                    remaining[k] -= 1
                    if remaining[k] == 0:
                        heapq.heappush(ready, k)
            if len(order) != len(self.vertices):
                raise ValueError("graph has a directed circuit")
            self._topo = tuple(order)
        return self._topo

    def axioms(self) -> "AxiomReport":
        """validate_axioms(self), computed on first use and kept."""
        if self._axioms is None:
            self._axioms = validate_axioms(self)
        return self._axioms

    def above(self, v) -> set:
        """Vertices with a directed path down to v, v included.

        One upward sweep of the topological order from v: a vertex is
        above v when one of its out-edges ends above v.
        """
        order = self.topo_min_first()
        got = {v}
        for u in order[order.index(v) + 1 :]:
            if any(e.head in got for e in self._out[u]):
                got.add(u)
        return got

    def __repr__(self) -> str:
        return (
            f"<MomentGraph {self.variety} |V|={len(self.vertices)} "
            f"|E|={len(self.edges)}>"
        )


# -- builders -----------------------------------------------------------------


def build_flag_moment_graph(rs: RootSystem) -> MomentGraph:
    """Moment graph of the full flag variety for the given root system.

    Each vertex w carries one out-edge per inversion root alpha, directed
    to s_alpha * w (the shorter element) and labeled alpha.
    """
    return _bruhat_graph(rs, rs.elements(), "flag", rs.longest_element())


def build_schubert_moment_graph(rs: RootSystem, w) -> MomentGraph:
    """Induced subgraph on the lower Bruhat interval of w.

    Every out-edge of a vertex v <= w stays inside the interval, so the
    Schubert graph keeps all ``length(v)`` out-edges of each vertex.  At
    the longest element the interval is W, and the result is the flag graph.
    """
    if rs.element_id(w) == len(rs.elements()) - 1:
        return _bruhat_graph(rs, rs.elements(), "flag", w)
    return _bruhat_graph(rs, rs.lower_interval(w), "schubert", w)


def _bruhat_graph(rs: RootSystem, vertices, variety: str, w) -> MomentGraph:
    # t_beta * v for each positive root beta: v's id walked through beta's
    # root row.  The edge is there exactly when the length drops (beta is
    # an inversion of v); it ends at the root system's own element and
    # carries the row's label.  A lower interval holds every such head.
    els, lengths, index = rs.elements(), rs.lengths, rs.index
    edges = []
    for v in vertices:
        k = index[v]
        lk = lengths[k]
        for label, _, steps in rs.root_rows:
            h = k
            for row in steps:
                h = row[h]
            if lengths[h] < lk:
                edges.append(Edge(v, els[h], label))
    meta = {
        "variety": variety,
        "type": rs.label,
        "w": rs.element_str(w),
        "n": rs.dim,
        "var_prefix": rs.var_prefix,
    }
    return MomentGraph(vertices, edges, meta, rs=rs)


def schubert_graph(label: str, w_text: str) -> MomentGraph:
    """Convenience: build X_w (the full flag graph when w is the top)."""
    rs = root_system(label)
    return build_schubert_moment_graph(rs, rs.parse_element(w_text))


# -- axiom validation ----------------------------------------------------------


class AxiomReport:
    """Structured result of the moment-graph axiom checks."""

    def __init__(
        self,
        acyclic: bool,
        cycle: list[str] | None,
        independence_violations: list[tuple[str, str, str]] | None = None,
        degree_violations: list[tuple[str, int, int]] | None = None,
        label_set_violations: list[str] | None = None,
        checked_schubert: bool = False,
    ):
        self.acyclic = acyclic
        self.cycle = cycle
        self.independence_violations = (
            [] if independence_violations is None else independence_violations
        )
        self.degree_violations = [] if degree_violations is None else degree_violations
        self.label_set_violations = (
            [] if label_set_violations is None else label_set_violations
        )
        self.checked_schubert = checked_schubert

    @property
    def ok(self) -> bool:
        return (
            self.acyclic
            and not self.independence_violations
            and not self.degree_violations
            and not self.label_set_violations
        )

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "acyclic": self.acyclic,
            "cycle": self.cycle,
            "independence_violations": [list(t) for t in self.independence_violations],
            "degree_violations": [list(t) for t in self.degree_violations],
            "label_set_violations": list(self.label_set_violations),
            "checked_schubert": self.checked_schubert,
        }


def _find_cycle(vertices, successors) -> list | None:
    """A directed cycle [v, ..., v] through successors[v], or None."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {v: WHITE for v in vertices}
    parent: dict = {}
    for root in vertices:
        if color[root] != WHITE:
            continue
        stack = [(root, iter(successors[root]))]
        color[root] = GRAY
        while stack:
            v, it = stack[-1]
            for h in it:
                if color[h] == GRAY:
                    cyc = [h, v]
                    while v != h:
                        v = parent[v]
                        cyc.append(v)
                    return cyc[::-1]
                if color[h] == WHITE:
                    color[h] = GRAY
                    parent[h] = v
                    stack.append((h, iter(successors[h])))
                    break
            else:
                color[v] = BLACK
                stack.pop()
    return None


def validate_axioms(g: MomentGraph) -> AxiomReport:
    """Check the axioms that construction leaves open; report, never raise."""
    heads = {v: [e.head for e in g.out_edges(v)] for v in g.vertices}
    cycle = _find_cycle(g.vertices, heads)
    if cycle is not None:
        cycle = [g.vertex_str(x) for x in cycle]
    report = AxiomReport(acyclic=cycle is None, cycle=cycle)

    # two labels are dependent when they share a line
    for v in g.vertices:
        out = [(e.label, g.label_line(e.label)[0]) for e in g.out_edges(v)]
        for i, (a, la) in enumerate(out):
            for b, lb in out[i + 1 :]:
                if la == lb:
                    report.independence_violations.append(
                        (g.vertex_str(v), g.label_str(a), g.label_str(b))
                    )

    if g.rs is not None:
        report.checked_schubert = True
        rs = g.rs
        for v in g.vertices:
            ell = rs.length(v)
            deg = g.out_degree(v)
            if deg != ell:
                report.degree_violations.append((g.vertex_str(v), deg, ell))
            want = {rs.root_form(a) for a in rs.inversions(v)}
            got = {e.label for e in g.out_edges(v)}
            if want != got:
                report.label_set_violations.append(g.vertex_str(v))
    return report


# -- Palais-Smale --------------------------------------------------------------


class PalaisSmaleResult:
    """Outcome of the out-degree descent check."""

    def __init__(
        self,
        holds: bool,
        mode: str,
        violations: list[tuple[str, str, int, int]] | None = None,
        covector: list[Fraction] | None = None,
        orientation: list[tuple[str, str]] | None = None,
        chambers_tried: int = 0,
        detail: str = "",
    ):
        self.holds = holds
        self.mode = mode
        self.violations = [] if violations is None else violations
        self.covector = covector
        self.orientation = orientation
        self.chambers_tried = chambers_tried
        self.detail = detail

    def to_json(self) -> dict:
        return {
            "holds": self.holds,
            "mode": self.mode,
            "violations": [list(t) for t in self.violations],
            "covector": None
            if self.covector is None
            else [str(x) for x in self.covector],
            "orientation": self.orientation,
            "chambers_tried": self.chambers_tried,
            "detail": self.detail,
        }


def _degree_check(
    g: MomentGraph, directed: list[tuple[object, object]]
) -> list[tuple[str, str, int, int]]:
    outdeg: dict = {v: 0 for v in g.vertices}
    for a, _ in directed:
        outdeg[a] += 1
    return [
        (g.vertex_str(a), g.vertex_str(b), outdeg[a], outdeg[b])
        for a, b in directed
        if outdeg[a] <= outdeg[b]
    ]


def _normalize(row: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    # scale so the first nonzero entry is +-1; preserves the inequality
    for v in row:
        if v:
            s = abs(v)
            return tuple(x / s for x in row)
    return row


def strict_feasible(rows: Sequence[Sequence[Fraction]]) -> list[Fraction] | None:
    """Find rational x with row . x > 0 for every row, or None.

    The system is homogeneous, so feasibility is scale-invariant; rows of
    zeros make it infeasible outright.  Uses Fourier-Motzkin elimination,
    which is cheap at the handful-of-labels scale this package needs.
    """
    work = [tuple(map(Fraction, r)) for r in rows]
    if not work:
        return []
    k = len(work[0])
    if any(len(r) != k for r in work):
        raise ValueError("ragged inequality rows")

    def solve(rows_k: list[tuple[Fraction, ...]], dim: int) -> list[Fraction] | None:
        rows_k = list({_normalize(r) for r in rows_k})
        if any(not any(r) for r in rows_k):
            return None  # 0 > 0
        if dim == 0:
            return [] if not rows_k else None
        pos, neg, zero = [], [], []
        for r in rows_k:
            if r[-1] > 0:
                pos.append(r)
            elif r[-1] < 0:
                neg.append(r)
            else:
                zero.append(r[:-1])
        reduced = list(zero)
        for p in pos:
            for q in neg:
                # eliminate the last variable from the pair p, q
                combo = tuple(
                    p[-1] * q[i] - q[-1] * p[i] for i in range(dim - 1)
                )
                reduced.append(combo)
        sub = solve(reduced, dim - 1)
        if sub is None:
            return None
        # back-substitute: p rows bound x from below, q rows from above
        lo = None
        for p in pos:
            v = -sum(c * x for c, x in zip(p[:-1], sub)) / p[-1]
            lo = v if lo is None or v > lo else lo
        hi = None
        for q in neg:
            v = -sum(c * x for c, x in zip(q[:-1], sub)) / q[-1]
            hi = v if hi is None or v < hi else hi
        if lo is None and hi is None:
            x = Fraction(0)
        elif lo is None:
            x = hi - 1
        elif hi is None:
            x = lo + 1
        else:
            x = (lo + hi) / 2
        return sub + [x]

    return solve(work, k)


def _chambers(dirs: list[tuple[Fraction, ...]]):
    """(signs, covector) for each sign vector whose rows signs[k] * dirs[k]
    have a strict solution, in the order of the mask with bit k set when
    signs[k] is 1.  Signs are fixed from the last direction down, and a
    branch is dropped once its rows have none: more rows cannot restore one.
    """
    k = len(dirs)
    stack: list[tuple[int, ...]] = [(1,), (-1,)] if dirs else [()]
    while stack:
        signs = stack.pop()  # the signs of dirs[k - len(signs) :]
        xi = strict_feasible(
            [tuple(s * x for x in d) for s, d in zip(signs, dirs[k - len(signs) :])]
        )
        if xi is not None and len(signs) == k:
            yield signs, xi
        elif xi is not None:
            stack += [(1,) + signs, (-1,) + signs]


def is_palais_smale(g: MomentGraph, mode: str = "given") -> PalaisSmaleResult:
    """Check that out-degrees strictly drop along every directed edge.

    mode="given" tests the stored orientation.  mode="search" enumerates
    the acyclic orientations induced by generic covectors on the label set
    (one per sign chamber of the label arrangement) and succeeds when any
    of them satisfies the descent condition.
    """
    if mode == "given":
        directed = [(e.tail, e.head) for e in g.edges]
        bad = _degree_check(g, directed)
        return PalaisSmaleResult(
            holds=not bad,
            mode=mode,
            violations=bad,
            detail="stored orientation" if not bad else "out-degree descent fails",
        )
    if mode != "search":
        raise ValueError(f"unknown mode {mode!r} (use 'given' or 'search')")

    lines = [g.label_line(e.label) for e in g.edges]
    dirs = list(dict.fromkeys(line for line, _ in lines))  # one per label line
    index = {d: k for k, d in enumerate(dirs)}

    tried = 0
    first_bad: list[tuple[str, str, int, int]] = []
    for signs, xi in _chambers(dirs):
        tried += 1
        # orient out of the endpoint whose weight is positive on xi
        directed = [
            (e.tail, e.head) if signs[index[line]] * sign > 0 else (e.head, e.tail)
            for e, (line, sign) in zip(g.edges, lines)
        ]
        heads: dict = {v: [] for v in g.vertices}
        for a, b in directed:
            heads[a].append(b)
        if _find_cycle(g.vertices, heads) is not None:
            continue
        bad = _degree_check(g, directed)
        if not bad:
            return PalaisSmaleResult(
                holds=True,
                mode=mode,
                covector=list(xi),
                orientation=[
                    (g.vertex_str(a), g.vertex_str(b)) for a, b in directed
                ],
                chambers_tried=tried,
                detail="flow orientation found",
            )
        if not first_bad:
            first_bad = bad
    return PalaisSmaleResult(
        holds=False,
        mode=mode,
        violations=first_bad,
        chambers_tried=tried,
        detail=f"no flow-induced orientation works ({tried} chambers tried)",
    )


# -- JSON and DOT ---------------------------------------------------------------


def graph_to_json(g: MomentGraph) -> dict:
    """The JSON form of g.

    Its names and label texts are collected on the first call and kept on
    the graph; every call returns new containers, which the caller may
    change.
    """
    if g._json is None:
        g._json = (
            tuple(g.vertex_str(v) for v in g.vertices),
            tuple(
                (g.vertex_str(e.tail), g.vertex_str(e.head), g.label_str(e.label))
                for e in g.edges
            ),
        )
    names, edges = g._json
    return {
        "vertices": list(names),
        "edges": [{"tail": t, "head": h, "label": text} for t, h, text in edges],
        "metadata": dict(g.metadata),
    }


def _infer_dimension(obj: dict) -> int:
    best = 0
    for e in obj.get("edges", []):
        for m in re.finditer(r"[A-Za-z]+(\d+)", str(e.get("label", ""))):
            best = max(best, int(m.group(1)))
    return best


def _dimension(raw) -> int:
    """The ring dimension given as metadata 'n': an integer (not a bool) in
    0..MAX_EXTERNAL_N, else GraphParseError."""
    try:
        n = None if isinstance(raw, bool) else int(raw)
    except (ValueError, OverflowError):  # "x", NaN, infinity
        n = None
    if n is None or (n != raw and not isinstance(raw, str)) or not 0 <= n <= MAX_EXTERNAL_N:
        raise GraphParseError(
            f"graph JSON 'n' must be an integer in 0..{MAX_EXTERNAL_N}, got {raw!r}"
        )
    return n


def load_external_graph(description) -> MomentGraph:
    """Load a user-described moment graph from JSON text or a dict.

    Vertices are strings, and every edge names its tail and head.  Each
    distinct label text is parsed once, in the ring of dimension metadata
    'n', or else the highest variable index the labels use; either way it
    is at most MAX_EXTERNAL_N, since every term of every polynomial on the
    graph holds n exponents.  A malformed description raises
    GraphParseError here, and a graph that breaks the rules of MomentGraph
    raises it there; axiom violations are left to validate_axioms.
    """
    if isinstance(description, str):
        try:
            obj = json.loads(description)
        except json.JSONDecodeError as exc:
            raise GraphParseError(f"bad JSON: {exc}") from exc
        except RecursionError:
            raise GraphParseError("bad JSON: nested too deeply") from None
    else:
        obj = description
    if not isinstance(obj, dict) or not isinstance(obj.get("vertices"), list):
        raise GraphParseError("graph JSON needs a 'vertices' list")
    records = obj.get("edges", [])
    if not isinstance(records, list) or not all(isinstance(r, dict) for r in records):
        raise GraphParseError("graph JSON 'edges' must be a list of objects")
    meta = obj.get("metadata", {})
    if not isinstance(meta, dict) or not isinstance(meta.get("n", 0), (int, float, str)):
        raise GraphParseError("graph JSON 'metadata' must be an object, 'n' a number")
    meta = dict(meta)
    n = _dimension(meta["n"]) if "n" in meta else _infer_dimension(obj)
    if n > MAX_EXTERNAL_N:
        raise GraphParseError(
            f"edge labels use variable index {n}; at most {MAX_EXTERNAL_N} are allowed"
        )
    meta["n"] = n
    meta.setdefault("var_prefix", "t")
    meta["variety"] = "external"

    edges = []
    labels: dict[str, Polynomial] = {}  # each distinct text parsed once
    for rec in records:
        if "tail" not in rec or "head" not in rec:
            raise GraphParseError(f"edge needs a 'tail' and a 'head': {rec}")
        try:
            text = str(rec["label"])
            label = labels[text] = labels.get(text) or parse_polynomial(text, n)
        except (KeyError, ValueError) as exc:
            raise GraphParseError(f"bad edge label in {rec}: {exc}") from exc
        edges.append(Edge(str(rec["tail"]), str(rec["head"]), label))
    return MomentGraph(map(str, obj["vertices"]), edges, meta, rs=None)


_DOT_STYLES = ("solid", "dashed", "bold", "dotted")
_DOT_COLORS = ("black", "gray50", "blue", "red")


def graph_to_dot(g: MomentGraph) -> str:
    """Deterministic DOT text; one line style per distinct edge label."""
    labels = sorted({g.label_str(e.label) for e in g.edges})
    style_of = {}
    for k, text in enumerate(labels):
        style = _DOT_STYLES[k % len(_DOT_STYLES)]
        color = _DOT_COLORS[(k // len(_DOT_STYLES)) % len(_DOT_COLORS)]
        style_of[text] = (style, color)

    def q(s: str) -> str:
        return '"' + s.replace('"', '\\"') + '"'

    lines = ["digraph moment_graph {"]
    for text in labels:
        style, color = style_of[text]
        lines.append(f"  // label {text}: style={style} color={color}")
    for v in g.vertices:
        name = g.vertex_str(v)
        show = name
        if (
            g.rs is not None
            and g.rs.label.startswith("A:")
            and g.rs.dim <= 9
        ):
            show = f"{name}\\n{v.cycle_str()}"
        lines.append(f"  {q(name)} [label={q(show)}];")
    for e in g.edges:
        text = g.label_str(e.label)
        style, color = style_of[text]
        lines.append(
            f"  {q(g.vertex_str(e.tail))} -> {q(g.vertex_str(e.head))} "
            f'[label={q(text)}, style={style}, color={color}];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- the hexagon example ---------------------------------------------------------


def toric_hexagon_json() -> dict:
    """Moment graph of the toric variety of the rank-two Weyl chamber fan.

    Six vertices named by S_3 elements, six edges forming a hexagon whose
    antipodal edge pairs share a label.  Satisfies the moment-graph axioms
    but is not Palais-Smale under any flow-induced orientation.
    """
    return {
        "vertices": ["e", "(12)", "(23)", "(123)", "(132)", "(13)"],
        "edges": [
            {"tail": "(12)", "head": "e", "label": "t1 - t2"},
            {"tail": "(23)", "head": "e", "label": "t2 - t3"},
            {"tail": "(123)", "head": "(12)", "label": "t1 - t3"},
            {"tail": "(132)", "head": "(23)", "label": "t1 - t3"},
            {"tail": "(13)", "head": "(123)", "label": "t2 - t3"},
            {"tail": "(13)", "head": "(132)", "label": "t1 - t2"},
        ],
        "metadata": {"n": 3, "name": "weyl-chamber toric hexagon"},
    }


def toric_hexagon_graph() -> MomentGraph:
    return load_external_graph(toric_hexagon_json())
