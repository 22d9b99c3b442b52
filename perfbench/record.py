"""Record the reference digest of every input any seed can produce.

    python3 perfbench/record.py      # from the checkout root

Writes perfbench/digests.json: one SHA-256 per input, keyed as the
benchmark keys its items.  Run it only at a commit whose outputs are the
reference (the first one was the seed commit of the benchmark); a run
refuses to write anything if any check below fails.

The checks here are wider than a benchmark run makes: the KT conditions
and the GKM condition on every class, descent against solve on every
flag-graph vertex of the solve workload, solve on the exported Schubert
graphs against restrictions of flag classes, and every decomposition
against the Bruhat interval and its length counts.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run
import streams
import worker


def in_process_streams() -> list[dict]:
    # the workload's graphs, with every class of them, not only the seeded A:5 slice
    kt = streams.make_stream("kt-basis", 0)
    kt["items"] = [{"key": f"kt-basis|{t}|{v}", "graph": t, "v": v}
                   for t in ("A:5", "B2", "G2") for v in streams.elements(t)]
    keys = [it["key"] for it in kt["items"]]
    small = [k for k in keys if "|A:5|" not in k]
    cheap = [f"kt-basis|A:5|{v}" for v in streams.elements("A:5") if streams.length("A:5", v) <= 1]
    kt["checks"] = {"kt_report": keys, "cross_solve": small + cheap}

    solve = {"workload": "kt-solve-external", "graphs": [], "items": []}
    for t in ("A:4", "B2", "G2"):
        solve["graphs"].append({"name": t, "kind": "export-flag", "type": t})
        solve["items"] += [{"key": f"kt-solve-external|{t}|{v}", "graph": t, "v": v}
                           for v in streams.elements(t)]
    solve["checks"] = {"cross_descent": [it["key"] for it in solve["items"]]}
    for w in streams.SOLVE_POOL_A5:
        name = f"A:5/{w}"
        solve["graphs"].append({"name": name, "kind": "export-schubert", "type": "A:5", "w": w})
        solve["items"] += [{"key": f"kt-solve-external|{name}|{v}", "graph": name, "v": v}
                           for v in streams.lower_interval("A:5", w)]
    solve["graphs"].append({"name": "hexagon", "kind": "hexagon"})
    solve["items"] += [{"key": f"kt-solve-external|hexagon|{v}", "graph": "hexagon", "v": v}
                       for v in streams.HEXAGON_JSON["vertices"]]

    dec = {"workload": "decompose", "graphs": [], "checks": {}}
    for t in ("A:3", "A:4", "B2", "G2"):
        dec["graphs"] += [{"name": f"{t}/{w}", "kind": "schubert", "type": t, "w": w}
                          for w in streams.elements(t)]
    dec["graphs"] += [{"name": f"A:5/{w}", "kind": "schubert", "type": "A:5", "w": w}
                      for w in streams.DECOMPOSE_POOL_A5]
    dec["items"] = [{"key": f"decompose|{g['name']}", "graph": g["name"]} for g in dec["graphs"]]
    return [kt, solve, dec]


def record_in_process(gk, digests: dict, problems: list) -> None:
    if gk.moment_graph.toric_hexagon_json() != streams.HEXAGON_JSON:
        problems.append("the hexagon in streams.py differs from gkmcalc's")
    for stream in in_process_streams():
        workload = stream["workload"]
        graphs = worker.build_graphs(gk, stream)
        for spec in stream["graphs"] if workload != "decompose" else ():
            g = graphs[spec["name"]]["graph"]
            names = sorted(g.vertex_str(v) for v in g.vertices)
            want = sorted(it["v"] for it in stream["items"] if it["graph"] == spec["name"])
            if names != want:
                problems.append(f"vertex names of {spec['name']} differ from streams.py")
        outputs = {it["key"]: worker.RUN[workload](gk, graphs, it) for it in stream["items"]}
        for key, reason in worker.CHECK[workload](gk, stream, graphs, outputs).items():
            problems.append(f"{key}: {reason}")
        if workload == "kt-solve-external":
            for it in stream["items"]:
                if not it["graph"].startswith("A:5/"):
                    continue
                entry = graphs[it["graph"]]
                ref = gk.restrict(gk.flag_basis(entry["rs"]).cls(entry["rs"].parse_element(it["v"])),
                                  entry["source"])
                c, obj = outputs[it["key"]]
                if c is None or gk.class_to_json(ref)["localizations"] != obj["localizations"]:
                    problems.append(f"{it['key']}: solve differs from the restricted flag class")
        for key, (_, obj) in outputs.items():
            digests[key] = worker.digest(obj)
        print(f"{workload}: {len(outputs)} inputs", flush=True)


def record_cli(digests: dict, problems: list) -> None:
    work = tempfile.mkdtemp(prefix="record-", dir=os.path.join(run.OUT))
    try:
        for name, text in streams.malformed_files().items():
            with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        universe = streams.cli_universe()
        for k, q in enumerate(universe):
            args = [os.path.join(work, a[6:]) if a.startswith("@file:") else a for a in q["args"]]
            if q["writes"]:
                args += ["--output", os.path.join(work, q["file"])]
            so, se = os.path.join(work, "out"), os.path.join(work, "err")
            proc = run.spawn([sys.executable, "-m", "gkmcalc.cli", *args], so, se)
            err = run.read_bytes(se)
            data = run.read_bytes(args[-1] if q["writes"] else so)
            if proc["rc"] != q["expect"] or b"Traceback" in err:
                problems.append(f"cli {q['key']}: exit {proc['rc']}: {err[-300:]!r}")
                continue
            if q["format"] == "json":
                obj = json.loads(data)
                if obj.get("kt_conditions", {"ok": True})["ok"] is not True or obj.get("ok") is False:
                    problems.append(f"cli {q['key']}: the output reports a failed check")
            digests[f"cli-queries|{q['key']}"] = run.content_digest(q, data)
        print(f"cli-queries: {len(universe)} inputs", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import gkmcalc as gk

    os.makedirs(run.OUT, exist_ok=True)
    digests: dict = {}
    problems: list = []
    record_in_process(gk, digests, problems)
    record_cli(digests, problems)
    if problems:
        print("not recording; checks failed:", *problems, sep="\n  ", file=sys.stderr)
        return 1
    with open(os.path.join(run.HERE, "digests.json"), "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
