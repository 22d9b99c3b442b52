"""Combinatorial moment graphs for flag and Schubert varieties.

A moment graph is a finite directed acyclic graph whose edges carry linear
forms (torus weights).  For the full flag variety the vertices are all Weyl
group elements and each vertex w has one out-edge per inversion root alpha,
pointing at s_alpha * w and labeled alpha; every Schubert variety gives the
subgraph induced on the lower Bruhat interval of its top element.  External
graphs (arbitrary vertex names, user-supplied labels) load from JSON.

Validation never throws: :func:`validate_axioms` returns a report listing
acyclicity, pairwise label independence at each vertex, and the Schubert
out-degree/label facts when they apply.  The Palais-Smale check runs either
on the stored orientation or searches the finitely many orientations
induced by generic covectors on the edge labels.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple

from .linalg import strict_feasible
from .polyring import (
    Polynomial,
    is_linear_form,
    parse_polynomial,
    to_string,
)
from .root_system import RootSystem

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


class GraphParseError(ValueError):
    """Malformed external graph description."""


class Edge(NamedTuple):
    tail: object
    head: object
    label: Polynomial


class MomentGraph:
    """Immutable labeled DAG with canonical vertex and edge order."""

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
        self.var_prefix = self.metadata.get("var_prefix", "t")

        vlist = list(vertices)
        if len(set(vlist)) != len(vlist):
            raise GraphParseError("duplicate vertices")
        if rs is not None:
            self._vstr = {v: rs.element_str(v) for v in vlist}
            key = lambda v: (rs.length(v), self._vstr[v])
        else:
            self._vstr = {v: str(v) for v in vlist}
            key = lambda v: (0, self._vstr[v])
        self.vertices = tuple(sorted(vlist, key=key))
        self._vkey = {v: key(v) for v in self.vertices}
        self._by_str = {s: v for v, s in self._vstr.items()}

        vset = set(self.vertices)
        for e in edges:
            if e.tail not in vset or e.head not in vset:
                raise GraphParseError(
                    f"edge endpoint missing from vertex set: "
                    f"{self._vstr.get(e.tail, e.tail)} -> "
                    f"{self._vstr.get(e.head, e.head)}"
                )
        self.edges = tuple(
            sorted(
                edges,
                key=lambda e: (
                    self._vkey[e.tail],
                    self._vkey[e.head],
                    to_string(e.label, self.var_prefix),
                ),
            )
        )
        self._out: dict = {v: [] for v in self.vertices}
        self._in: dict = {v: [] for v in self.vertices}
        for e in self.edges:
            self._out[e.tail].append(e)
            self._in[e.head].append(e)
        self._desc: dict | None = None
        self._topo: list | None = None

    # -- basic queries -------------------------------------------------------

    @property
    def variety(self) -> str:
        return self.metadata.get("variety", "external")

    def vertex_str(self, v) -> str:
        return self._vstr[v]

    def vertex_by_str(self, s: str):
        try:
            return self._by_str[s]
        except (KeyError, TypeError):  # TypeError: an unhashable name from JSON
            raise KeyError(f"no vertex named {s!r}") from None

    def out_edges(self, v) -> list[Edge]:
        return list(self._out[v])

    def in_edges(self, v) -> list[Edge]:
        return list(self._in[v])

    def out_degree(self, v) -> int:
        return len(self._out[v])

    def sources(self) -> list:
        return [v for v in self.vertices if not self._in[v]]

    def top_vertex(self):
        """The unique maximal vertex; raises if there is not exactly one."""
        src = self.sources()
        if len(src) != 1:
            names = [self._vstr[v] for v in src]
            raise ValueError(f"graph does not have a unique maximum: {names}")
        return src[0]

    def topo_min_first(self) -> list:
        """Vertices ordered so every edge head comes before its tail."""
        if self._topo is None:
            remaining = {v: self.out_degree(v) for v in self.vertices}
            lookup = {self._vkey[v]: v for v in self.vertices}
            ready = [self._vkey[v] for v in self.vertices if remaining[v] == 0]
            heapq.heapify(ready)
            order = []
            while ready:
                v = lookup[heapq.heappop(ready)]
                order.append(v)
                for e in self._in[v]:
                    remaining[e.tail] -= 1
                    if remaining[e.tail] == 0:
                        heapq.heappush(ready, self._vkey[e.tail])
            if len(order) != len(self.vertices):
                raise ValueError("graph has a directed circuit")
            self._topo = order
        return list(self._topo)

    def descendants(self, v) -> frozenset:
        """Vertices reachable from v along directed edges (including v)."""
        if self._desc is None:
            desc: dict = {}
            for u in self.topo_min_first():
                got = {u}
                for e in self._out[u]:
                    got |= desc[e.head]
                desc[u] = frozenset(got)
            self._desc = desc
        return self._desc[v]

    def reaches(self, a, b) -> bool:
        """True when there is a directed path from a down to b (or a == b)."""
        return b in self.descendants(a)

    def __repr__(self) -> str:
        return (
            f"<MomentGraph {self.variety} |V|={len(self.vertices)} "
            f"|E|={len(self.edges)}>"
        )


# -- builders -----------------------------------------------------------------


@lru_cache(maxsize=None)
def build_flag_moment_graph(rs: RootSystem) -> MomentGraph:
    """Moment graph of the full flag variety for the given root system.

    Each vertex w carries one out-edge per inversion root alpha, directed
    to s_alpha * w (the shorter element) and labeled alpha.
    """
    edges = []
    for w in rs.elements():
        for alpha in rs.inversions(w):
            edges.append(
                Edge(w, rs.mul(rs.reflection(alpha), w), rs.root_form(alpha))
            )
    meta = {
        "variety": "flag",
        "type": rs.label,
        "w": rs.element_str(rs.longest_element()),
        "n": rs.dim,
        "var_prefix": rs.var_prefix,
    }
    return MomentGraph(rs.elements(), edges, meta, rs=rs)


def build_schubert_moment_graph(rs: RootSystem, w) -> MomentGraph:
    """Induced subgraph on the lower Bruhat interval of w.

    Every out-edge of a vertex v <= w stays inside the interval, so the
    Schubert graph keeps all ``length(v)`` out-edges of each vertex.
    """
    interval = rs.lower_interval(w)
    edges = []
    for v in interval:
        for alpha in rs.inversions(v):
            head = rs.mul(rs.reflection(alpha), v)
            if head in interval:  # always true; keep the subgraph honest
                edges.append(Edge(v, head, rs.root_form(alpha)))
    meta = {
        "variety": "schubert",
        "type": rs.label,
        "w": rs.element_str(w),
        "n": rs.dim,
        "var_prefix": rs.var_prefix,
    }
    return MomentGraph(interval, edges, meta, rs=rs)


def schubert_graph(label: str, w_text: str) -> MomentGraph:
    """Convenience: build X_w (or the full flag graph when w is the top)."""
    from .root_system import root_system

    rs = root_system(label)
    w = rs.parse_element(w_text)
    if w == rs.longest_element():
        return build_flag_moment_graph(rs)
    return build_schubert_moment_graph(rs, w)


# -- axiom validation ----------------------------------------------------------


def _form_vector(label: Polynomial, n: int) -> tuple[Fraction, ...]:
    vec = [Fraction(0)] * n
    for exp, c in label.terms().items():
        vec[exp.index(1)] = c
    return tuple(vec)


def _proportional(a: tuple[Fraction, ...], b: tuple[Fraction, ...]) -> bool:
    return all(
        a[i] * b[j] == a[j] * b[i] for i in range(len(a)) for j in range(i + 1, len(a))
    )


@dataclass
class AxiomReport:
    """Structured result of the moment-graph axiom checks."""

    acyclic: bool
    cycle: list[str] | None
    independence_violations: list[tuple[str, str, str]] = field(default_factory=list)
    degree_violations: list[tuple[str, int, int]] = field(default_factory=list)
    label_set_violations: list[str] = field(default_factory=list)
    checked_schubert: bool = False

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


def _find_cycle(g: MomentGraph) -> list | None:
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {v: WHITE for v in g.vertices}
    parent: dict = {}
    for root in g.vertices:
        if color[root] != WHITE:
            continue
        stack = [(root, iter(g.out_edges(root)))]
        color[root] = GRAY
        while stack:
            v, it = stack[-1]
            advanced = False
            for e in it:
                h = e.head
                if color[h] == GRAY:
                    cyc = [h, v]
                    cur = v
                    while cur != h:
                        cur = parent[cur]
                        cyc.append(cur)
                    return [g.vertex_str(x) for x in reversed(cyc)]
                if color[h] == WHITE:
                    color[h] = GRAY
                    parent[h] = v
                    stack.append((h, iter(g.out_edges(h))))
                    advanced = True
                    break
            if not advanced:
                color[v] = BLACK
                stack.pop()
    return None


def validate_axioms(g: MomentGraph) -> AxiomReport:
    """Check the combinatorial moment-graph axioms; report, never raise."""
    cycle = _find_cycle(g)
    report = AxiomReport(acyclic=cycle is None, cycle=cycle)

    for v in g.vertices:
        out = g.out_edges(v)
        vecs = [(_form_vector(e.label, g.n), e) for e in out]
        for i in range(len(vecs)):
            for j in range(i + 1, len(vecs)):
                if _proportional(vecs[i][0], vecs[j][0]):
                    report.independence_violations.append(
                        (
                            g.vertex_str(v),
                            to_string(vecs[i][1].label, g.var_prefix),
                            to_string(vecs[j][1].label, g.var_prefix),
                        )
                    )

    if g.rs is not None and g.variety in ("flag", "schubert"):
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


@dataclass
class PalaisSmaleResult:
    """Outcome of the out-degree descent check."""

    holds: bool
    mode: str
    violations: list[tuple[str, str, int, int]] = field(default_factory=list)
    covector: list[Fraction] | None = None
    orientation: list[tuple[str, str]] | None = None
    chambers_tried: int = 0
    detail: str = ""

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


def _orientation_acyclic(vertices, directed) -> bool:
    out: dict = {v: [] for v in vertices}
    indeg = {v: 0 for v in vertices}
    for a, b in directed:
        out[a].append(b)
        indeg[b] += 1
    ready = [v for v in vertices if indeg[v] == 0]
    seen = 0
    while ready:
        v = ready.pop()
        seen += 1
        for b in out[v]:
            indeg[b] -= 1
            if indeg[b] == 0:
                ready.append(b)
    return seen == len(vertices)


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

    # Canonical direction per label line, plus the sign linking each edge
    # label to its canonical representative.
    dirs: list[tuple[Fraction, ...]] = []
    edge_dir: list[tuple[int, int]] = []  # (direction index, sign)
    for e in g.edges:
        vec = _form_vector(e.label, g.n)
        lead = next((x for x in vec if x), None)
        if lead is None:
            raise ValueError("zero edge label")
        sign = 1 if lead > 0 else -1
        canon = tuple(x * sign / abs(lead) for x in vec)
        try:
            idx = dirs.index(canon)
        except ValueError:
            dirs.append(canon)
            idx = len(dirs) - 1
        edge_dir.append((idx, sign))

    tried = 0
    first_bad: list[tuple[str, str, int, int]] = []
    for mask in range(1 << len(dirs)):
        signs = [1 if mask & (1 << k) else -1 for k in range(len(dirs))]
        rows = [tuple(s * x for x in d) for s, d in zip(signs, dirs)]
        xi = strict_feasible(rows)
        if xi is None:
            continue
        tried += 1
        directed = []
        for e, (idx, sign) in zip(g.edges, edge_dir):
            # orient out of the endpoint whose weight is positive on xi
            if signs[idx] * sign > 0:
                directed.append((e.tail, e.head))
            else:
                directed.append((e.head, e.tail))
        if not _orientation_acyclic(g.vertices, directed):
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
    return {
        "vertices": [g.vertex_str(v) for v in g.vertices],
        "edges": [
            {
                "tail": g.vertex_str(e.tail),
                "head": g.vertex_str(e.head),
                "label": to_string(e.label, g.var_prefix),
            }
            for e in g.edges
        ],
        "metadata": dict(g.metadata),
    }


def _infer_dimension(obj: dict) -> int:
    import re

    best = 0
    for e in obj.get("edges", []):
        for m in re.finditer(r"[A-Za-z]+(\d+)", str(e.get("label", ""))):
            best = max(best, int(m.group(1)))
    return best


def load_external_graph(description) -> MomentGraph:
    """Load a user-described moment graph from JSON text or a dict.

    Vertices are strings.  Labels parse from the polynomial string (or
    object) form and must be nonzero linear forms.  Structural problems
    raise GraphParseError; axiom violations are left to validate_axioms.
    """
    if isinstance(description, str):
        try:
            obj = json.loads(description)
        except json.JSONDecodeError as exc:
            raise GraphParseError(f"bad JSON: {exc}") from exc
    else:
        obj = description
    if not isinstance(obj, dict) or "vertices" not in obj:
        raise GraphParseError("graph JSON needs a 'vertices' list")
    meta = dict(obj.get("metadata", {}))
    n = int(meta["n"]) if "n" in meta else _infer_dimension(obj)
    meta["n"] = n
    meta.setdefault("var_prefix", "t")
    meta["variety"] = "external"

    vertices = [str(v) for v in obj["vertices"]]
    if len(set(vertices)) != len(vertices):
        raise GraphParseError("duplicate vertices")
    vset = set(vertices)
    edges = []
    for rec in obj.get("edges", []):
        tail, head = str(rec.get("tail")), str(rec.get("head"))
        if tail not in vset or head not in vset:
            raise GraphParseError(f"dangling edge endpoint: {tail} -> {head}")
        try:
            label = parse_polynomial(str(rec["label"]), n)
        except (KeyError, ValueError) as exc:
            raise GraphParseError(f"bad edge label in {rec}: {exc}") from exc
        if not is_linear_form(label):
            raise GraphParseError(f"edge label is not a nonzero linear form: {rec}")
        edges.append(Edge(tail, head, label))
    return MomentGraph(vertices, edges, meta, rs=None)


_DOT_STYLES = ("solid", "dashed", "bold", "dotted")
_DOT_COLORS = ("black", "gray50", "blue", "red")


def graph_to_dot(g: MomentGraph) -> str:
    """Deterministic DOT text; one line style per distinct edge label."""
    labels = sorted({to_string(e.label, g.var_prefix) for e in g.edges})
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
        text = to_string(e.label, g.var_prefix)
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
