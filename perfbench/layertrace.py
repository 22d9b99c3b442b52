"""Per-layer tracing of gkmcalc from outside the package.

``Tracer.install`` replaces each public function named in ``FUNCTIONS`` in
every gkmcalc namespace that holds it (``gkm.exact_divide``,
``repaction.exact_divide`` and ``root_system.exact_divide`` are separate
bindings of ``polyring.exact_divide``), and each method in ``METHODS`` on
its class.  A wrapper records one span per call (name, start, end, parent,
item) while the tracer is active and passes straight through otherwise,
so the benchmark's own answer checks run untraced.

Calls, inclusive time and self time (the span minus its child spans) are
accumulated per layer name for every call.  Spans are kept in memory, up
to ``span_cap`` of them, and written out by ``dump``.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

FUNCTIONS = (
    # (module, attribute, layer name)
    ("polyring", "exact_divide", "polyring.exact_divide"),
    ("polyring", "reduce_modulo", "polyring.reduce_modulo"),
    ("polyring", "divides", "polyring.divides"),
    ("root_system", "root_system", "root_system.build"),
    ("moment_graph", "build_flag_moment_graph", "moment_graph.build"),
    ("moment_graph", "build_schubert_moment_graph", "moment_graph.build"),
    ("moment_graph", "load_external_graph", "moment_graph.load_external"),
    ("moment_graph", "validate_axioms", "moment_graph.validate_axioms"),
    ("moment_graph", "is_palais_smale", "moment_graph.palais_smale"),
    ("linalg", "solve_unique", "linalg.solve_unique"),
    ("gkm", "knutson_tao_class_descent", "gkm.descent"),
    ("gkm", "knutson_tao_class_solve", "gkm.solve"),
    ("gkm", "restrict", "gkm.restrict"),
    ("gkm", "expand_in_basis", "gkm.expand"),
    ("gkm", "flag_basis", "gkm.flag_basis"),
    ("gkm", "class_to_json", "gkm.json"),
    ("gkm", "class_from_json", "gkm.json"),
    ("gkm", "expansion_to_json", "gkm.json"),
    ("gkm", "expansion_from_json", "gkm.json"),
    ("repaction", "average_class", "repaction.average_class"),
    ("repaction", "act_word", "repaction.act_word"),
    ("repaction", "act_on_schubert_basis", "repaction.act_on_schubert_basis"),
    ("repaction", "decompose", "repaction.decompose"),
    ("cli", "main", "cli.main"),
)

METHODS = (
    # (module, class, attribute, layer name)
    ("polyring", "Polynomial", "__mul__", "polyring.mul"),
    ("polyring", "Polynomial", "__rmul__", "polyring.mul"),
    ("polyring", "Polynomial", "substitute", "polyring.substitute"),
    ("coxeter", "Permutation", "__mul__", "coxeter.perm_mul"),
    ("root_system", "RootSystem", "reduced_word", "root_system.reduced_word"),
    ("root_system", "RootSystem", "lower_interval", "root_system.lower_interval"),
    ("root_system", "TypeARootSystem", "coadjoint_substitution", "root_system.coadjoint_substitution"),
    ("root_system", "RankTwoRootSystem", "coadjoint_substitution", "root_system.coadjoint_substitution"),
    ("moment_graph", "MomentGraph", "vertex_by_str", "moment_graph.vertex_by_str"),
    ("gkm", "KnutsonTaoBasis", "cls", "gkm.basis_cls"),
)


def _max_terms(tracer, cls) -> None:
    most = max((len(p.terms()) for _, p in cls.items()), default=0)
    if most > tracer.counters.get("gkm.max_terms", 0):
        tracer.counters["gkm.max_terms"] = most


def _graph_size(tracer, g) -> None:
    if id(g) not in tracer.graphs_seen:
        tracer.graphs_seen[id(g)] = g
        tracer.add("moment_graph.vertices", len(g.vertices))
        tracer.add("moment_graph.edges", len(g.edges))


# Hooks run outside the span: ``before(tracer, args)`` and
# ``after(tracer, args, result)``.  They only count.
BEFORE = {
    "polyring.substitute": lambda t, a: t.add("polyring.substitute.terms_in", len(a[0].terms())),
    "linalg.solve_unique": lambda t, a: t.add(
        "linalg.solve_unique.cells", len(a[0]) * (len(a[0][0]) if a[0] else 0)
    ),
    "gkm.basis_cls": lambda t, a: t.add(
        "gkm.basis_cls.hits", 1 if a[1] in getattr(a[0], "_cache", ()) else 0
    ),
}
AFTER = {
    "root_system.build": lambda t, a, r: t.root_systems.setdefault(id(r), r),
    "moment_graph.build": lambda t, a, r: _graph_size(t, r),
    "moment_graph.load_external": lambda t, a, r: _graph_size(t, r),
    "moment_graph.palais_smale": lambda t, a, r: t.add(
        "moment_graph.palais_smale.chambers_tried", r.chambers_tried
    ),
    "gkm.descent": lambda t, a, r: _max_terms(t, r),
    "gkm.solve": lambda t, a, r: _max_terms(t, r),
    "gkm.restrict": lambda t, a, r: _max_terms(t, r),
    "gkm.basis_cls": lambda t, a, r: _max_terms(t, r),
    "gkm.json": lambda t, a, r: t.add("gkm.json.bytes", len(json.dumps(r)) if isinstance(r, dict) else 0),
}


class Tracer:
    def __init__(self, span_cap: int = 100_000):
        self.active = False
        self.item = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_s: list[float] = []
        self.errors: list[int] = []
        self.counters: dict[str, float] = {}
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.span_cap = span_cap
        self.spans_dropped = 0
        self.next_span = 0
        self.root_systems: dict = {}
        self.graphs_seen: dict = {}
        self.top_level_s = 0.0
        self.originals: dict[str, object] = {}

    def add(self, counter: str, amount) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_s.append(0.0)
            self.errors.append(0)
        return nid

    def wrap(self, fn, name: str):
        nid = self._id(name)
        before, after = BEFORE.get(name), AFTER.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(tracer, args)
            stack = tracer.stack
            parent = stack[-1][3] if stack else -1
            sid = tracer.next_span
            tracer.next_span = sid + 1
            frame = [nid, 0.0, 0.0, sid]
            stack.append(frame)
            ok = False
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                tracer.calls[nid] += 1
                tracer.total[nid] += dur
                tracer.self_s[nid] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                else:
                    tracer.top_level_s += dur
                if not ok:
                    tracer.errors[nid] += 1
                if len(tracer.spans) < tracer.span_cap:
                    tracer.spans.append((sid, nid, start, end, parent, tracer.item))
                else:
                    tracer.spans_dropped += 1
            if after is not None:
                after(tracer, args, out)
            return out

        return wrapper

    def install(self) -> None:
        """Wrap every listed function and method of the loaded gkmcalc modules."""
        modules = [
            m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "gkmcalc" or k.startswith("gkmcalc."))
        ]
        for mod_name, attr, name in FUNCTIONS:
            mod = sys.modules.get(f"gkmcalc.{mod_name}")
            if mod is None:
                continue
            original = getattr(mod, attr)
            self.originals[f"{mod_name}.{attr}"] = original
            wrapper = self.wrap(original, name)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
        for mod_name, cls_name, attr, name in METHODS:
            mod = sys.modules.get(f"gkmcalc.{mod_name}")
            if mod is None:
                continue
            cls = getattr(mod, cls_name)
            setattr(cls, attr, self.wrap(cls.__dict__[attr], name))

    # -- results --------------------------------------------------------------

    def layer_stats(self) -> dict:
        """Counts and times per layer plus cache sizes, as plain numbers."""
        out: dict[str, float] = dict(self.counters)
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + self.calls[nid]
            out[f"{name}.total_s"] = self.total[nid]
            out[f"{name}.self_s"] = self.self_s[nid]
            out[f"{name}.errors"] = self.errors[nid]
        for key, attr in (
            ("root_system.cache", "root_system.root_system"),
            ("moment_graph.flag_cache", "moment_graph.build_flag_moment_graph"),
            ("gkm.flag_basis", "gkm.flag_basis"),
        ):
            fn = self.originals.get(attr)
            info = fn.cache_info() if hasattr(fn, "cache_info") else None
            out[f"{key}.size"] = info.currsize if info else 0
            out[f"{key}.hits"] = info.hits if info else 0
            out[f"{key}.misses"] = info.misses if info else 0
        gkm = sys.modules.get("gkmcalc.gkm")
        out["gkm.reduction_cache.size"] = len(getattr(gkm, "_reduction_cache", ()))
        out["root_system.interval_cache.size"] = sum(
            len(getattr(rs, "_interval_cache", ())) for rs in self.root_systems.values()
        )
        out["trace.spans"] = self.next_span
        out["trace.spans_dropped"] = self.spans_dropped
        out["trace.top_level_s"] = self.top_level_s
        return out

    def dump(self, path: str) -> None:
        """Write the recorded spans, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "fields": [
                "span", "name", "start", "end", "parent", "item"]}) + "\n")
            for sid, nid, start, end, parent, item in self.spans:
                fh.write(json.dumps([sid, nid, round(start, 7), round(end, 7), parent, item]) + "\n")
