"""Seeded input streams for the four benchmark workloads.

Everything here is plain Python and never imports gkmcalc: the streams are
the benchmark's own inputs, and the program only ever sees what they name.
The same seed gives the same stream byte for byte (see ``stream_bytes``);
another seed reorders the items and re-draws the seeded choices, but every
choice is made from a pool of inputs of matching size, so each seed has
the same size profile.

Two generators refuse inputs that blow up: type A above ``MAX_TYPE_A``
(the group has n! elements and every interval cache grows with it), and a
Palais-Smale orientation search on a label arrangement with more than
``MAX_PS_SEARCH_DIRECTIONS`` directions (the search tries 2^k sign vectors).
"""

from __future__ import annotations

import json
import random
from itertools import permutations

WORKLOADS = ("kt-basis", "kt-solve-external", "decompose", "cli-queries")

MAX_TYPE_A = 6
MAX_PS_SEARCH_DIRECTIONS = 6

# Bruhat intervals of 16 elements in A:5, chosen so that every pick costs
# about the same: the solve route on the exported graph (kt-solve-external)
# and the decomposition (decompose) were timed on each member.
SOLVE_POOL_A5 = ("24153", "25134")
DECOMPOSE_POOL_A5 = ("23451", "23514", "25134", "41253")

HEXAGON_JSON = {
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
HEXAGON_DIRECTIONS = 3


# -- Weyl group combinatorics, independent of gkmcalc -------------------------


def _type_a_rank(label: str) -> int | None:
    if not label.startswith("A:"):
        return None
    n = int(label[2:])
    if not 1 <= n <= MAX_TYPE_A:
        raise ValueError(
            f"refusing {label}: type A is limited to A:1..A:{MAX_TYPE_A} "
            f"because the group has n! elements"
        )
    return n


def elements(label: str) -> list[str]:
    """Element names as gkmcalc prints them, sorted by (length, name)."""
    n = _type_a_rank(label)
    if n is not None:
        names = ["".join(map(str, p)) for p in permutations(range(1, n + 1))]
    elif label in ("B2", "G2"):
        m = 4 if label == "B2" else 6
        names = ["e"]
        for k in range(1, m + 1):
            for first in (1, 2):
                word = "".join(str(first if j % 2 == 0 else 3 - first) for j in range(k))
                if k < m or first == 1:  # the two longest words are equal
                    names.append(word)
    else:
        raise ValueError(f"unknown type {label!r}")
    return sorted(names, key=lambda w: (length(label, w), w))


def length(label: str, w: str) -> int:
    if label.startswith("A:"):
        return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])
    return 0 if w == "e" else len(w)


def bruhat_leq(label: str, v: str, w: str) -> bool:
    """Bruhat order: the tableau criterion in type A; by length in rank two."""
    if not label.startswith("A:"):
        return v == w or length(label, v) < length(label, w)
    for i in range(1, len(w)):
        a, b = sorted(v[:i]), sorted(w[:i])
        if any(x > y for x, y in zip(a, b)):
            return False
    return True


def lower_interval(label: str, w: str) -> list[str]:
    return [v for v in elements(label) if bruhat_leq(label, v, w)]


def longest(label: str) -> str:
    return max(elements(label), key=lambda w: length(label, w))


def rank(label: str) -> int:
    n = _type_a_rank(label)
    return n - 1 if n is not None else 2


def label_directions(label: str) -> int:
    """Distinct edge-label directions of the flag graph (its positive roots)."""
    n = _type_a_rank(label)
    if n is not None:
        return n * (n - 1) // 2
    return {"B2": 4, "G2": 6}[label]


def palais_smale_search_args(label: str) -> list[str]:
    if label_directions(label) > MAX_PS_SEARCH_DIRECTIONS:
        raise ValueError(
            f"refusing a Palais-Smale search on {label}: it would try "
            f"2^{label_directions(label)} sign vectors"
        )
    return ["--check", "palais-smale", "--orientation", "search"]


# -- in-process workloads -------------------------------------------------------


def kt_basis_a5() -> list[str]:
    """Every tenth A:5 element in (length, name) order: 12 classes of lengths 0 to 8.

    The whole A:5 basis takes 20 to 27 s per pass on a 2-CPU VM, too long to
    repeat within a run; this slice keeps every layer of the A:5 descent and
    the same share of short and long elements, at about a tenth of the cost.
    """
    return elements("A:5")[::10]


def _kt_basis(rng: random.Random) -> dict:
    graphs = [{"name": t, "kind": "flag", "type": t} for t in ("A:5", "B2", "G2")]
    names = {"A:5": kt_basis_a5(), "B2": elements("B2"), "G2": elements("G2")}
    items = [
        {"key": f"kt-basis|{t}|{v}", "graph": t, "v": v}
        for t in ("A:5", "B2", "G2")
        for v in names[t]
    ]
    # every class is computed on its own (no class reuses another), so
    # the seeded order moves no work between items
    rng.shuffle(items)
    a5 = [it["key"] for it in items if it["graph"] == "A:5"]
    small = [it["key"] for it in items if it["graph"] != "A:5"]
    checks = {
        # kt_report and check_gkm on a seeded subset; every item is digested
        "kt_report": sorted(rng.sample(a5, 4) + small),
        # descent (the default flag route) against the solver, on the
        # cheap classes: solve on the A:5 flag graph grows with the length
        "cross_solve": sorted(small + ["kt-basis|A:5|12345"]),
    }
    return {"graphs": graphs, "items": items, "checks": checks}


def _kt_solve_external(rng: random.Random) -> dict:
    w = rng.choice(SOLVE_POOL_A5)
    graphs = [{"name": t, "kind": "export-flag", "type": t} for t in ("A:4", "B2", "G2")]
    graphs.append({"name": f"A:5/{w}", "kind": "export-schubert", "type": "A:5", "w": w})
    graphs.append({"name": "hexagon", "kind": "hexagon"})
    vertex_names = {g["name"]: elements(g["type"]) for g in graphs[:3]}
    vertex_names[f"A:5/{w}"] = lower_interval("A:5", w)
    vertex_names["hexagon"] = list(HEXAGON_JSON["vertices"])
    # graphs in a fixed order, each solved vertex by vertex from the bottom
    # up: the solver's reduction cache is shared within a graph, and a heavy
    # graph slows the items after it, so a seeded order would move the item
    # latencies from seed to seed
    items = [
        {"key": f"kt-solve-external|{g['name']}|{v}", "graph": g["name"], "v": v}
        for g in graphs
        for v in vertex_names[g["name"]]
    ]
    flag_keys = [it["key"] for it in items if it["graph"] in ("A:4", "B2", "G2")]
    checks = {"cross_descent": sorted(rng.sample(flag_keys, 6))}
    return {"graphs": graphs, "items": items, "checks": checks}


def _decompose(rng: random.Random) -> dict:
    graphs = []
    for t in ("A:3", "A:4", "B2", "G2"):
        for w in elements(t):
            graphs.append({"name": f"{t}/{w}", "kind": "schubert", "type": t, "w": w})
    # the small varieties in seeded order, then the heavy A:5 one: a heavy
    # item slows the items after it, so it must not move between seeds
    rng.shuffle(graphs)
    w = rng.choice(DECOMPOSE_POOL_A5)
    graphs.append({"name": f"A:5/{w}", "kind": "schubert", "type": "A:5", "w": w})
    items = [{"key": f"decompose|{g['name']}", "graph": g["name"]} for g in graphs]
    return {"graphs": graphs, "items": items, "checks": {}}


# -- cli-queries ---------------------------------------------------------------------

# Malformed inputs: each must exit 2 with a one-line error and no traceback.
# The first two crash with a traceback at the seed commit (known defects).
MALFORMED = (
    ("graph", "--load", "@file:div0.json"),
    ("ddiff", "--side", "left", "--i", "1", "--class", "@file:hexagon_class.json"),
    ("graph", "--load", "@file:nonlinear.json"),
    ("graph", "--load", "@file:zero_label.json"),
    ("graph", "--load", "@file:dangling.json"),
    ("graph", "--load", "@file:no_vertices.json"),
    ("graph", "--load", "@file:not_json.json"),
    ("graph", "--load", "@file:missing.json"),
    ("class", "--type", "A:x", "--v", "1"),
    ("class", "--type", "Z9", "--v", "1"),
    ("class", "--type", "A:3", "--v", "1x3"),
    ("class", "--type", "A:3", "--v", "1234"),
    ("class", "--type", "A:3", "--w", "132", "--v", "321"),
    ("class", "--type", "B2", "--v", "3"),
    ("class", "--v", "12"),
    ("act", "--type", "A:3", "--perm", "21", "--v", "213"),
    ("expand", "--class", "@file:not_json.json"),
    ("expand", "--class", "@file:no_vertices.json"),
    ("class", "--type", "A:3", "--v", "213", "--route", "bogus"),
    ("decompose", "--type", "G2", "--w", "123"),
)
KNOWN_DEFECTS = frozenset(" ".join(q) for q in MALFORMED[:2])


def malformed_files() -> dict[str, str]:
    """Input files named by the malformed table (and the hexagon)."""

    def hexagon_with(edit) -> str:
        obj = json.loads(json.dumps(HEXAGON_JSON))
        edit(obj)
        return json.dumps(obj, indent=2, sort_keys=True)

    def set_label(text):
        return lambda o: o["edges"][0].__setitem__("label", text)

    hexagon_class = {
        "graph_ref": {"graph": HEXAGON_JSON},
        "base": "e",
        "localizations": {v: "1" for v in HEXAGON_JSON["vertices"]},
    }
    return {
        "hexagon.json": json.dumps(HEXAGON_JSON, indent=2, sort_keys=True),
        "hexagon_class.json": json.dumps(hexagon_class, indent=2, sort_keys=True),
        "div0.json": hexagon_with(set_label("1/0*t1")),
        "nonlinear.json": hexagon_with(set_label("t1*t2")),
        "zero_label.json": hexagon_with(set_label("0")),
        "dangling.json": hexagon_with(lambda o: o["edges"][0].__setitem__("head", "zz")),
        "no_vertices.json": hexagon_with(lambda o: o.pop("vertices")),
        "not_json.json": "{not json",
    }


def _query(args, expect=0, fmt="json", writes=None) -> dict:
    return {"args": list(args), "expect": expect, "format": fmt, "writes": writes}


def _fmt_args(fmt: str) -> list[str]:
    return ["--format", "table"] if fmt == "table" else []


# Candidate pools.  Each stream slot draws from one pool, so the union of
# the pools is every query any seed can produce (see ``cli_universe``).


def _pool_rng(name: str) -> random.Random:
    return random.Random(f"pool:{name}")


def flag_writer_pool(t: str) -> list[dict]:
    vs = _pool_rng(f"flag-writer:{t}").sample(elements(t), 4)
    return [_query(["class", "--type", t, "--v", v], writes="flag") for v in vs]


def schubert_writer_pool(t: str) -> list[dict]:
    rng = _pool_rng(f"schubert-writer:{t}")
    ws = [x for x in elements(t) if 2 <= length(t, x) < length(t, longest(t))]
    out = []
    for w in rng.sample(ws, min(3, len(ws))):
        for v in rng.sample(lower_interval(t, w), 2):
            out.append(_query(["class", "--type", t, "--w", w, "--v", v], writes="schubert"))
    return out


def class_pool(t: str, fmt: str) -> list[dict]:
    return [
        _query(["class", "--type", t, "--v", v, *_fmt_args(fmt)], fmt=fmt)
        for v in elements(t)
    ]


def act_pool(t: str) -> list[dict]:
    rng = _pool_rng(f"act:{t}")
    ws = [x for x in elements(t) if 1 <= length(t, x) < length(t, longest(t))]
    out = []
    for _ in range(8):
        w = rng.choice(ws)
        u, v = rng.choice(elements(t)), rng.choice(lower_interval(t, w))
        out.append(_query(["act", "--type", t, "--w", w, "--perm", u, "--v", v]))
    return out


def fixed_graph_queries() -> list[dict]:
    """Axiom checks, and the hexagon, which has no Palais-Smale orientation."""
    if HEXAGON_DIRECTIONS > MAX_PS_SEARCH_DIRECTIONS:
        raise ValueError("refusing a Palais-Smale search on the hexagon")
    hexagon = "@file:hexagon.json"
    return [
        _query(["graph", "--type", "A:3", "--check", "axioms"]),
        _query(["graph", "--type", "A:4", "--check", "axioms"]),
        _query(["graph", "--type", "B2", "--check", "axioms"]),
        _query(["graph", "--type", "G2", "--check", "axioms"]),
        _query(["graph", "--load", hexagon, "--check", "axioms"]),
        _query(["graph", "--load", hexagon, "--check", "palais-smale"], expect=1),
        _query(["graph", "--type", "A:4", "--check", "palais-smale", "--orientation", "given"]),
    ]


def dot_pool() -> list[dict]:
    return [
        _query(["graph", "--type", "A:3", "--w", w, "--format", "dot"], fmt="dot")
        for w in elements("A:3")
    ]


def palais_smale_pool(t: str) -> list[dict]:
    return [
        _query(["graph", "--type", t, "--w", w, *palais_smale_search_args(t)])
        for w in elements(t)[1:]
    ]


def decompose_pool(t: str) -> list[dict]:
    return [
        _query(["decompose", "--type", t, "--w", w, *_fmt_args(fmt)], fmt=fmt)
        for w in elements(t)
        for fmt in ("json", "table")
    ]


def dependent_pool(writer: dict) -> list[dict]:
    """expand and ddiff queries on the class file a writer query wrote."""
    t = writer["args"][2]
    sides = ("left", "right") if writer["writes"] == "flag" else ("left",)
    out = [_query(["expand", "--class", "@class"])]
    for side in sides:
        for i in range(1, rank(t) + 1):
            out.append(_query(["ddiff", "--side", side, "--i", str(i), "--class", "@class"]))
    return out


def _cli_queries(rng: random.Random) -> dict:
    # about 50 queries, so that a run repeats the stream three times
    types = ("A:3", "A:4", "B2", "G2")
    writers = [rng.choice(flag_writer_pool(t)) for t in types]
    writers += [rng.choice(schubert_writer_pool(t)) for t in ("A:3", "A:4")]
    writers = [dict(q) for q in writers]
    independent = []
    for t in types:  # 8 class queries
        for fmt in ("json", "table"):
            independent.append(rng.choice(class_pool(t, fmt)))
    for t in ("A:3", "A:4", "A:4", "B2", "G2"):
        independent.append(rng.choice(act_pool(t)))
    independent += fixed_graph_queries()  # 7 + 1 + 2 graph queries
    independent.append(rng.choice(dot_pool()))
    for t in ("A:3", "G2"):
        independent.append(rng.choice(palais_smale_pool(t)))
    for t in ("A:3", "A:3", "B2", "G2", "G2"):
        independent.append(rng.choice(decompose_pool(t)))
    malformed = list(MALFORMED[:2]) + rng.sample(MALFORMED[2:], 8)
    independent += [_query(args, expect=2, fmt="error") for args in malformed]

    for k, q in enumerate(writers):
        q["file"] = f"class{k}.json"
        q["key"] = " ".join(q["args"])
    for q in independent:
        q["key"] = " ".join(q["args"])
    dependents = []
    for _ in range(8):  # 4 expand and 4 ddiff queries on written files
        kind = "expand" if len(dependents) < 4 else "ddiff"
        src = rng.randrange(len(writers))
        pool = [q for q in dependent_pool(writers[src]) if q["args"][0] == kind]
        dependents.append(_bind(dict(rng.choice(pool)), writers[src]))

    # writers and independent queries in seeded order; each dependent query
    # lands somewhere after the query that wrote its class file
    order = writers + independent
    rng.shuffle(order)
    for q, src in dependents:
        first = next(k for k, x in enumerate(order) if x is src) + 1
        order.insert(rng.randint(first, len(order)), q)
    return {"items": order}


def _bind(query: dict, writer: dict) -> tuple[dict, dict]:
    """Point a dependent query at its writer's file; key it by the writer."""
    query["key"] = " ".join(
        "@{" + writer["key"] + "}" if a == "@class" else a for a in query["args"]
    )
    query["args"] = [f"@file:{writer['file']}" if a == "@class" else a for a in query["args"]]
    return query, writer


def cli_universe() -> list[dict]:
    """Every query a cli-queries stream can contain, each with its key."""
    types = ("A:3", "A:4", "B2", "G2")
    writers = [q for t in types for q in flag_writer_pool(t)]
    writers += [q for t in ("A:3", "A:4") for q in schubert_writer_pool(t)]
    out = []
    for k, q in enumerate(writers):
        q["file"] = f"class{k}.json"
        q["key"] = " ".join(q["args"])
        out.append(q)
        out += [_bind(d, q)[0] for d in dependent_pool(q)]
    others = [q for t in types for fmt in ("json", "table") for q in class_pool(t, fmt)]
    others += [q for t in types for q in act_pool(t)]
    others += fixed_graph_queries() + dot_pool()
    others += [q for t in types for q in palais_smale_pool(t)]
    others += [q for t in ("A:3", "B2", "G2") for q in decompose_pool(t)]
    for q in others:
        q["key"] = " ".join(q["args"])
    unique: dict = {}
    for q in out + others:
        unique.setdefault(q["key"], q)  # a writer and a class query may share a key
    return list(unique.values())


_BUILDERS = {
    "kt-basis": _kt_basis,
    "kt-solve-external": _kt_solve_external,
    "decompose": _decompose,
    "cli-queries": _cli_queries,
}


def make_stream(workload: str, seed: int) -> dict:
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    stream = _BUILDERS[workload](rng)
    stream["workload"] = workload
    stream["seed"] = seed
    return stream


def stream_bytes(workload: str, seed: int) -> bytes:
    return json.dumps(make_stream(workload, seed), sort_keys=True).encode()
