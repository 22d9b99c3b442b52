"""One pass of an in-process workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload kt-basis --seed 1 --t0 T --out pass.json
        [--setup-only] [--digests-only] [--trace spans.jsonl]

``--t0`` is the CLOCK_MONOTONIC reading the parent took just before
starting this process, so set-up time covers interpreter start, the gkmcalc
import, root systems, graph builds and external-graph loads.  The items are
then timed one by one, each after a full garbage collection and between
two host-speed samples (``hostref``).  Answer checks run afterwards, untimed
and untraced; they never use the route being timed as their only reference.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import sys
import time
from time import perf_counter, process_time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import hostref  # noqa: E402
import streams  # noqa: E402


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_digests() -> dict:
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- set-up ---------------------------------------------------------------------


def build_graphs(gk, stream: dict) -> dict:
    """Graph name -> {"graph", "basis", "rs", "source"} as each workload needs."""
    out = {}
    for spec in stream["graphs"]:
        kind = spec["kind"]
        entry: dict = {}
        if kind == "hexagon":
            entry["graph"] = gk.toric_hexagon_graph()
        else:
            rs = gk.root_system(spec["type"])
            entry["rs"] = rs
            if kind in ("flag", "export-flag"):
                source = gk.build_flag_moment_graph(rs)
            elif kind == "export-schubert":
                source = gk.build_schubert_moment_graph(rs, rs.parse_element(spec["w"]))
            else:
                source = gk.schubert_graph(spec["type"], spec["w"])
            entry["source"] = source
            if kind.startswith("export-"):
                text = json.dumps(gk.graph_to_json(source))
                entry["graph"] = gk.load_external_graph(text)
            else:
                entry["graph"] = source
        if stream["workload"] != "decompose":
            entry["basis"] = gk.KnutsonTaoBasis(entry["graph"])
        out[spec["name"]] = entry
    return out


# -- items ------------------------------------------------------------------------


def solve_status(exc) -> str:
    text = str(exc)
    for status in ("underdetermined", "inconsistent"):
        if status in text:
            return status
    return "error"


def run_kt_basis(gk, graphs, item):
    entry = graphs[item["graph"]]
    c = entry["basis"].cls(entry["rs"].parse_element(item["v"]))
    return c, gk.class_to_json(c)


def run_kt_solve_external(gk, graphs, item):
    entry = graphs[item["graph"]]
    try:
        c = entry["basis"].cls(item["v"])
    except gk.SolveError as exc:
        return None, {"solve_error": solve_status(exc)}
    return c, gk.class_to_json(c)


def run_decompose(gk, graphs, item):
    rep = gk.decompose(graphs[item["graph"]]["graph"])
    return rep, rep.to_json()


RUN = {
    "kt-basis": run_kt_basis,
    "kt-solve-external": run_kt_solve_external,
    "decompose": run_decompose,
}


# -- answer checks ------------------------------------------------------------------


def check_class(gk, c) -> str | None:
    if not gk.kt_report(c).ok:
        return "kt_report fails"
    if not gk.check_gkm(c).ok:
        return "check_gkm fails"
    return None


def check_kt_basis(gk, stream, graphs, outputs) -> dict:
    bad = {}
    for key in stream["checks"]["kt_report"]:
        reason = check_class(gk, outputs[key][0])
        if reason:
            bad[key] = reason
    for key in stream["checks"]["cross_solve"]:
        _, graph_name, v = key.split("|")
        entry = graphs[graph_name]
        solved = gk.knutson_tao_class_solve(entry["graph"], entry["rs"].parse_element(v))
        if solved != outputs[key][0]:
            bad[key] = "descent and solve disagree"
    return bad


def check_kt_solve_external(gk, stream, graphs, outputs) -> dict:
    bad = {}
    for key, (c, _) in outputs.items():
        if c is not None:
            reason = check_class(gk, c)
            if reason:
                bad[key] = reason
    for key in stream["checks"]["cross_descent"]:
        _, graph_name, v = key.split("|")
        entry = graphs[graph_name]
        c, obj = outputs[key]
        flag = entry["source"]
        ref = gk.knutson_tao_class_descent(flag, entry["rs"].parse_element(v))
        if c is None or gk.class_to_json(ref)["localizations"] != obj["localizations"]:
            bad[key] = "solve on the exported graph and descent disagree"
    return bad


def check_decompose(gk, stream, graphs, outputs) -> dict:
    bad = {}
    specs = {g["name"]: g for g in stream["graphs"]}
    for key, (rep, obj) in outputs.items():
        spec = specs[key.split("|", 1)[1]]
        t = spec["type"]
        interval = streams.lower_interval(t, spec["w"])
        want: dict[str, int] = {}
        for v in interval:
            d = str(streams.length(t, v))
            want[d] = want.get(d, 0) + 1
        if not rep.ok:
            bad[key] = "decomposition report is not ok"
        elif obj["multiplicities"] != want:
            bad[key] = "multiplicities differ from the length counts"
        elif sorted(r["v"] for r in obj["rows"]) != sorted(interval):
            bad[key] = "rows differ from the Bruhat interval"
    return bad


CHECK = {
    "kt-basis": check_kt_basis,
    "kt-solve-external": check_kt_solve_external,
    "decompose": check_decompose,
}


# -- main ------------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(RUN))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--digests-only", action="store_true",
                    help="check outputs against the recorded digests only")
    ap.add_argument("--trace", help="write spans here and report layer stats")
    args = ap.parse_args()

    stream = streams.make_stream(args.workload, args.seed)
    tracer = None
    if args.trace:
        import layertrace

        tracer = layertrace.Tracer()
    import gkmcalc as gk

    src = os.path.join(ROOT, "src")
    if not os.path.abspath(gk.__file__).startswith(src + os.sep):
        raise SystemExit(f"gkmcalc was imported from {gk.__file__}, not from {src}")
    if tracer:
        tracer.install()
        tracer.active = True
    graphs = build_graphs(gk, stream)
    setup_end = time.monotonic()
    result: dict = {"setup_end": setup_end, "setup_s": setup_end - args.t0}
    if args.setup_only:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0

    run = RUN[args.workload]
    outputs: dict = {}
    timings = []
    refs = []
    if tracer:
        tracer.top_level_s = 0.0  # count the item loop only
    for idx, item in enumerate(stream["items"]):
        if tracer:
            tracer.item = idx
        # untimed: a full collection first, so that where the cyclic
        # collector's pauses fall depends on the item, not on the seeded
        # order; hostref calls no gkmcalc code, so it is never traced
        gc.collect()
        refs.append(hostref.sample())
        t, c = perf_counter(), process_time()
        outputs[item["key"]] = run(gk, graphs, item)
        timings.append((item["key"], perf_counter() - t, process_time() - c))
    refs.append(hostref.sample())
    if tracer:
        tracer.active = False
        result["layers"] = tracer.layer_stats()  # before the checks touch any cache

    recorded = load_digests()
    digests = {key: digest(obj) for key, (_, obj) in outputs.items()}
    failures = {
        key: "output differs from the digest recorded at the seed commit"
        if key in recorded
        else "no digest recorded for this input"
        for key, d in digests.items()
        if recorded.get(key) != d
    }
    checks = {} if args.digests_only else CHECK[args.workload](gk, stream, graphs, outputs)
    for key, reason in checks.items():
        failures.setdefault(key, reason)

    result.update(
        wall_s=sum(t for _, t, _ in timings),
        cpu_s=sum(c for _, _, c in timings),
        items=timings,
        refs=refs,
        digests=digests,
        failures=sorted(failures.items()),
    )
    if tracer:
        tracer.dump(args.trace)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
