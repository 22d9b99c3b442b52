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
induced by generic covectors on the edge labels; each sign chamber is
tested for a covector by Fourier-Motzkin elimination (:func:`strict_feasible`).
"""

from __future__ import annotations

import heapq
import json
import re
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .polyring import (
    Polynomial,
    is_linear_form,
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
        self._topo: list | None = None
        self._axioms = None

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
    Schubert graph keeps all ``length(v)`` out-edges of each vertex.
    """
    return _bruhat_graph(rs, rs.lower_interval(w), "schubert", w)


def _bruhat_graph(rs: RootSystem, vertices, variety: str, w) -> MomentGraph:
    # an edge leaving the vertex set would make MomentGraph raise
    edges = [
        Edge(v, rs.mul(rs.reflection(alpha), v), rs.root_form(alpha))
        for v in vertices
        for alpha in rs.inversions(v)
    ]
    meta = {
        "variety": variety,
        "type": rs.label,
        "w": rs.element_str(w),
        "n": rs.dim,
        "var_prefix": rs.var_prefix,
    }
    return MomentGraph(vertices, edges, meta, rs=rs)


def schubert_graph(label: str, w_text: str) -> MomentGraph:
    """Convenience: build X_w (or the full flag graph when w is the top)."""
    rs = root_system(label)
    w = rs.parse_element(w_text)
    if w == rs.longest_element():
        return build_flag_moment_graph(rs)
    return build_schubert_moment_graph(rs, w)


# -- axiom validation ----------------------------------------------------------


def _form_vector(label: Polynomial, n: int) -> tuple[Fraction, ...]:
    vec = [Fraction(0)] * n
    for exp, c in label.terms().items():
        vec[exp.index(1)] = Fraction(c)
    return tuple(vec)


def _proportional(a: tuple[Fraction, ...], b: tuple[Fraction, ...]) -> bool:
    return all(
        a[i] * b[j] == a[j] * b[i] for i in range(len(a)) for j in range(i + 1, len(a))
    )


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
    n = int(meta["n"]) if "n" in meta else _infer_dimension(obj)
    meta["n"] = n
    meta.setdefault("var_prefix", "t")
    meta["variety"] = "external"

    vertices = [str(v) for v in obj["vertices"]]
    if len(set(vertices)) != len(vertices):
        raise GraphParseError("duplicate vertices")
    vset = set(vertices)
    edges = []
    for rec in records:
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
