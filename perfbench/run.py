"""The gkmcalc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload kt-basis --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports gkmcalc from ./src.
Workloads: kt-basis, kt-solve-external, decompose, cli-queries (see
perfbench/README.md).

--trace 0 measures the end-to-end metrics.  Set-up is sampled in
SETUP_SAMPLES fresh processes; then whole passes over the seeded input
stream run, each in a fresh process so that every cache starts cold, until
--seconds have passed (at least MIN_PASSES).  Every time is scaled to a
nominal host speed by the hostref samples taken around it; an item's time
is then its median over the passes, and set-up the median of its samples.

--trace 1 runs one untraced and one traced pass, checks that their outputs
are byte-identical, and reports the per-layer metrics of the traced pass.

Every item's output is checked.  The report goes to stdout, and its last
line is one JSON object with the keys correct, attempted, failed, metrics.
A record of the run goes to .perfbench/results/ and traced spans to
.perfbench/spans/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import hostref  # noqa: E402
import streams  # noqa: E402

SETUP_SAMPLES = 11
MIN_PASSES = 3
REF_EVERY = 4  # cli-queries: one process_ref per this many queries
PROCESS_TIMEOUT_S = 150
RUN_BUDGET_S = 150  # no new pass starts once it would likely end past this
TAIL_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
)

_CALLS_SELF = (
    "polyring.substitute", "polyring.mul", "polyring.exact_divide",
    "polyring.reduce_modulo", "root_system.reduced_word", "moment_graph.build",
    "moment_graph.validate_axioms", "moment_graph.load_external",
    "moment_graph.palais_smale", "linalg.solve_unique", "gkm.descent", "gkm.solve",
    "gkm.expand", "gkm.json", "repaction.average_class", "repaction.act_word",
    "repaction.decompose", "cli.main",
)
_CALLS_ONLY = (
    "polyring.divides", "coxeter.perm_mul", "root_system.coadjoint_substitution",
    "root_system.lower_interval", "moment_graph.vertex_by_str", "gkm.restrict",
    "gkm.basis_cls", "gkm.flag_basis", "repaction.act_on_schubert_basis",
)
PER_LAYER = (
    tuple((f"{n}.calls", "count", "lower") for n in _CALLS_SELF + _CALLS_ONLY)
    + tuple((f"{n}.self_s", "s", "lower") for n in _CALLS_SELF)
    + (
        ("polyring.substitute.terms_in", "count", "lower"),
        ("root_system.build_s", "s", "lower"),
        ("root_system.cache.size", "count", "lower"),
        ("root_system.cache.hit_ratio", "ratio", "higher"),
        ("root_system.interval_cache.size", "count", "lower"),
        ("moment_graph.vertices", "count", "lower"),
        ("moment_graph.edges", "count", "lower"),
        ("moment_graph.palais_smale.chambers_tried", "count", "lower"),
        ("moment_graph.flag_cache.size", "count", "lower"),
        ("moment_graph.flag_cache.hit_ratio", "ratio", "higher"),
        ("linalg.solve_unique.cells", "count", "lower"),
        ("linalg.solve_unique.failed", "count", "lower"),
        ("gkm.reduction_cache.size", "count", "lower"),
        ("gkm.json.bytes", "B", "lower"),
        ("gkm.basis_cls.hit_ratio", "ratio", "higher"),
        ("gkm.flag_basis.size", "count", "lower"),
        ("gkm.flag_basis.hit_ratio", "ratio", "higher"),
        ("gkm.max_terms", "count", "lower"),
        ("cli.import_s", "s", "lower"),
        ("cli.stdout_bytes", "B", "lower"),
        ("cli.exit0", "count", "higher"),
        ("cli.exit1", "count", "lower"),
        ("cli.exit2", "count", "lower"),
        ("cli.tracebacks", "count", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.unattributed_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.spans_dropped", "count", "lower"),
    )
)


class BenchError(RuntimeError):
    """The benchmark cannot run here (no sources, a worker crashed, ...)."""


# -- processes ---------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env.pop("GKMCALC_OUTPUT_DIR", None)
    return env


def spawn(argv: list[str], stdout_path: str, stderr_path: str) -> dict:
    """Run a child to completion; wall time, exit status and its rusage."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [a.replace("{t0}", repr(t0)) for a in argv],
            stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=child_env(), cwd=ROOT,
        )
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return {
        "t0": t0,
        "wall_s": end - t0,
        "rc": proc.returncode,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


# -- in-process workloads --------------------------------------------------------------


def worker_pass(workload: str, seed: int, work: str, tag: str, setup_only=False, spans=None,
                digests_only=False) -> dict:
    out = os.path.join(work, f"{tag}.json")
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--t0", "{t0}", "--out", out]
    if setup_only:
        argv.append("--setup-only")
    if digests_only:
        argv.append("--digests-only")
    if spans:
        argv += ["--trace", spans]
    proc = spawn(argv, os.path.join(work, f"{tag}.stdout"), os.path.join(work, f"{tag}.stderr"))
    if proc["rc"] != 0:
        tail = read_bytes(os.path.join(work, f"{tag}.stderr")).decode(errors="replace")[-2000:]
        raise BenchError(f"worker exited with {proc['rc']}:\n{tail}")
    with open(out, encoding="utf-8") as fh:
        got = json.load(fh)
    got["rss_mb"] = proc["rss_mb"]
    if not setup_only:
        got["latencies"] = [t for _, t, _ in got["items"]]
        got["cpus"] = [c for _, _, c in got["items"]]
        refs = got["refs"]
        brackets = [(refs[j], refs[j + 1]) for j in range(len(got["items"]))]
        got.update(scaled_items(got["latencies"], got["cpus"], brackets, hostref.NOMINAL_S))
        got["keys"] = [key for key, _, _ in got["items"]]
        got["attempted"] = len(got["items"])
        got["failed"] = len(got["failures"])
        got["unexpected"] = got["failures"]
    return got


# -- cli-queries -------------------------------------------------------------------------


def content_digest(query: dict, data: bytes) -> str:
    if query["format"] == "json":
        obj = json.loads(data)
        if isinstance(obj, dict):
            obj.pop("route", None)  # names the route; ROADMAP item 2 changes it
        text = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
        return hashlib.sha256(text).hexdigest()
    return hashlib.sha256(data).hexdigest()


def cli_pass(seed: int, work: str, tag: str, recorded: dict, traced=False) -> dict:
    stream = streams.make_stream("cli-queries", seed)
    for name, text in streams.malformed_files().items():
        with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    qdir = os.path.join(work, tag)
    os.makedirs(qdir, exist_ok=True)
    for q in stream["items"]:
        if q["writes"] and os.path.exists(os.path.join(work, q["file"])):
            os.remove(os.path.join(work, q["file"]))
    latencies, cpus, keys, rss, digests, failures, stats = [], [], [], 0.0, {}, [], []
    exits = {0: 0, 1: 0, 2: 0}
    tracebacks = stdout_bytes = 0
    refs = [process_ref(work)]
    for k, q in enumerate(stream["items"]):
        args = [os.path.join(work, a[6:]) if a.startswith("@file:") else a for a in q["args"]]
        if q["writes"]:
            args += ["--output", os.path.join(work, q["file"])]
        stats_path = os.path.join(qdir, f"q{k}.stats.json")
        if traced:
            argv = [sys.executable, os.path.join(HERE, "cli_shim.py"), stats_path, *args]
        else:
            argv = [sys.executable, "-m", "gkmcalc.cli", *args]
        so, se = os.path.join(qdir, f"q{k}.out"), os.path.join(qdir, f"q{k}.err")
        proc = spawn(argv, so, se)
        if (k + 1) % REF_EVERY == 0 or k + 1 == len(stream["items"]):
            refs.append(process_ref(work))
        latencies.append(proc["wall_s"])
        cpus.append(proc["cpu_s"])
        keys.append(q["key"])
        rss = max(rss, proc["rss_mb"])
        out, err = read_bytes(so), read_bytes(se)
        stdout_bytes += len(out)
        exits[proc["rc"]] = exits.get(proc["rc"], 0) + 1
        has_tb = b"Traceback" in err
        tracebacks += has_tb
        data = out
        if q["writes"] and proc["rc"] == 0:
            data = read_bytes(args[-1])
        reason = None
        if proc["rc"] != q["expect"]:
            reason = f"exit {proc['rc']}, expected {q['expect']}"
        elif has_tb:
            reason = "traceback on stderr"
        elif q["format"] == "error":
            if out:
                reason = "error exit printed to stdout"
        else:
            digests[q["key"]] = d = content_digest(q, data)
            want = recorded.get(f"cli-queries|{q['key']}")
            if want is None:
                reason = "no digest recorded for this input"
            elif want != d:
                reason = "output differs from the digest recorded at the seed commit"
        if reason:
            failures.append((q["key"], reason))
        if traced and os.path.exists(stats_path):
            with open(stats_path, encoding="utf-8") as fh:
                stats.append(json.load(fh))
    brackets = [(refs[j // REF_EVERY], refs[j // REF_EVERY + 1]) for j in range(len(latencies))]
    return {
        "wall_s": sum(latencies),
        "cpu_s": sum(cpus),
        "rss_mb": rss,
        "latencies": latencies,
        "cpus": cpus,
        "refs": refs,
        **scaled_items(latencies, cpus, brackets, hostref.PROCESS_NOMINAL_S),
        "keys": keys,
        "attempted": len(stream["items"]),
        "failed": len(failures),
        "failures": failures,
        "unexpected": [f for f in failures if f[0] not in streams.KNOWN_DEFECTS],
        "digests": digests,
        "cli": {"exits": exits, "tracebacks": tracebacks, "stdout_bytes": stdout_bytes},
        "stats": stats,
        "qdir": qdir,
    }


def cli_setup_sample(work: str, tag: str) -> float:
    code = ("import time, sys, gkmcalc.cli as c; c.build_parser(); "
            "sys.stdout.write(repr(time.monotonic()))")
    so = os.path.join(work, f"{tag}.stdout")
    proc = spawn([sys.executable, "-c", code], so, os.path.join(work, f"{tag}.stderr"))
    if proc["rc"] != 0:
        raise BenchError("cannot import gkmcalc.cli")
    return float(read_bytes(so)) - proc["t0"]


def process_ref(work: str) -> float:
    """Wall time of a fresh interpreter that runs the hostref product once."""
    out = os.path.join(work, "ref.out")
    proc = spawn([sys.executable, os.path.join(HERE, "hostref.py")], out, out)
    if proc["rc"] != 0:
        raise BenchError("the host reference process failed")
    return proc["wall_s"]


def setup_samples(workload: str, seed: int, work: str) -> list[dict]:
    """SETUP_SAMPLES set-ups in fresh processes, each between two process_refs."""
    refs = [process_ref(work)]
    out = []
    for k in range(SETUP_SAMPLES):
        if workload == "cli-queries":
            raw = cli_setup_sample(work, f"setup{k}")
        else:
            raw = worker_pass(workload, seed, work, f"setup{k}", setup_only=True)["setup_s"]
        refs.append(process_ref(work))
        scaled = hostref.scale(raw, refs[k], refs[k + 1], hostref.PROCESS_NOMINAL_S)
        out.append({"raw": raw, "scaled": scaled, "refs": refs[k:k + 2]})
    return out


def scaled_items(latencies: list, cpus: list, brackets: list, nominal: float) -> dict:
    """Item times scaled to the nominal host speed; brackets[j] are the refs around item j."""
    return {
        "scaled_latencies": [hostref.scale(t, *brackets[j], nominal) for j, t in enumerate(latencies)],
        "scaled_cpus": [hostref.scale(c, *brackets[j], nominal) for j, c in enumerate(cpus)],
    }


# -- statistics ------------------------------------------------------------------------------


def tail_percentile(n_per_pass: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND samples beyond it."""
    return max(0, math.floor(100 * (n_per_pass - TAIL_BEYOND) / n_per_pass))


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    k = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[k - 1]


def end_to_end(passes: list[dict], setups: list[dict]) -> tuple[dict, dict]:
    # Every time is first scaled to the nominal host speed (see hostref.py).
    # Every pass runs the same stream, so an item's time is then its median
    # over the passes, and a pass is the sum of its items' times.
    n = passes[0]["attempted"]
    lat = [statistics.median(p["scaled_latencies"][j] for p in passes) for j in range(n)]
    cpu = [statistics.median(p["scaled_cpus"][j] for p in passes) for j in range(n)]
    pct = tail_percentile(n)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    values = {
        "setup_s": statistics.median(s["scaled"] for s in setups),
        "wall_s": math.fsum(lat),
        "cpu_s": math.fsum(cpu),
        "items_per_s": n / math.fsum(lat),
        "item_p50_ms": 1000 * statistics.median(lat),
        "item_tail_ms": 1000 * nearest_rank(lat, pct),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "ok_frac": (attempted - failed) / attempted,
    }
    info = {
        "passes": len(passes),
        "setup_samples": len(setups),
        "items_per_pass": n,
        "tail_percentile": pct,
        "tail_samples_beyond": n - max(1, math.ceil(pct / 100 * n)),
        "host_ref_ms": round(1000 * statistics.median(r for p in passes for r in p["refs"]), 4),
        "process_ref_ms": round(1000 * statistics.median(s["refs"][1] for s in setups), 4),
        "raw_pass_wall_s": [round(p["wall_s"], 4) for p in passes],
        "raw_pass_cpu_s": [round(p["cpu_s"], 4) for p in passes],
        "raw_setup_s": round(statistics.median(s["raw"] for s in setups), 4),
    }
    return values, info


def merge_stats(parts: list[dict]) -> dict:
    out: dict = {}
    for part in parts:
        for key, value in part.items():
            if key == "gkm.max_terms":
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    return out


def ratio(hits: float, lookups: float) -> float:
    return hits / lookups if lookups else 0.0


def per_layer(stats: dict, traced: dict, untraced: dict) -> dict:
    g = lambda key: stats.get(key, 0)  # noqa: E731

    def cache_hit_ratio(cache: str) -> float:
        return ratio(g(f"{cache}.hits"), g(f"{cache}.hits") + g(f"{cache}.misses"))

    derived = {
        "root_system.build_s": g("root_system.build.total_s"),
        "root_system.cache.hit_ratio": cache_hit_ratio("root_system.cache"),
        "moment_graph.flag_cache.hit_ratio": cache_hit_ratio("moment_graph.flag_cache"),
        "linalg.solve_unique.failed": g("linalg.solve_unique.errors"),
        "gkm.basis_cls.hit_ratio": ratio(g("gkm.basis_cls.hits"), g("gkm.basis_cls.calls")),
        "gkm.flag_basis.hit_ratio": cache_hit_ratio("gkm.flag_basis"),
        "trace.wall_s": traced["wall_s"],
        "trace.untraced_wall_s": untraced["wall_s"],
        "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
    }
    cli = traced.get("cli")
    if cli:
        derived.update({
            "cli.stdout_bytes": cli["stdout_bytes"],
            "cli.exit0": cli["exits"].get(0, 0),
            "cli.exit1": cli["exits"].get(1, 0),
            "cli.exit2": cli["exits"].get(2, 0),
            "cli.tracebacks": cli["tracebacks"],
            # per query: process time outside gkmcalc.cli.main and its import
            "trace.unattributed_s": traced["wall_s"] - g("cli.main.total_s") - g("cli.import_s"),
        })
    else:
        derived["trace.unattributed_s"] = traced["wall_s"] - g("trace.top_level_s")
    return {name: derived.get(name, g(name)) for name, _, _ in PER_LAYER}


# -- the run -----------------------------------------------------------------------------------


def environment(seed: int, workload: str) -> dict:
    commit = "unknown"  # a checkout without .git: source_sha256 names the code
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "gkmcalc")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0" + read_bytes(os.path.join(src, name)))
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "commit": commit,
        "source_sha256": h.hexdigest(),
        "seed": seed,
        "workload": workload,
        "stream_sha256": hashlib.sha256(streams.stream_bytes(workload, seed)).hexdigest(),
    }


def one_pass(workload, seed, work, tag, recorded, spans=None, digests_only=False):
    if workload == "cli-queries":
        return cli_pass(seed, work, tag, recorded, traced=bool(spans))
    return worker_pass(workload, seed, work, tag, spans=spans, digests_only=digests_only)


def measure(workload: str, seed: int, seconds: float, work: str, recorded: dict) -> tuple:
    started = time.monotonic()
    setups = setup_samples(workload, seed, work)
    passes = []
    t_first = time.monotonic()
    while True:
        t = time.monotonic()
        # every pass checks every output against its digest; the wider
        # answer checks (worker.CHECK) are deterministic and run in the first
        p = one_pass(workload, seed, work, f"pass{len(passes)}", recorded, digests_only=bool(passes))
        passes.append(p)
        now = time.monotonic()
        if len(passes) >= MIN_PASSES and now - t_first >= seconds:
            break
        if (now - started) + (now - t) > RUN_BUDGET_S:
            break
    values, info = end_to_end(passes, setups)
    return values, info, passes, setups


def trace_run(workload: str, seed: int, work: str, recorded: dict) -> tuple:
    os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
    spans = os.path.join(OUT, "spans", f"{workload}-seed{seed}.jsonl")
    untraced = one_pass(workload, seed, work, "untraced", recorded)
    traced = one_pass(workload, seed, work, "traced", recorded, spans=spans)
    if workload == "cli-queries":
        stats = merge_stats(traced["stats"])
        with open(spans, "w", encoding="utf-8") as fh:
            for k in range(traced["attempted"]):
                path = os.path.join(traced["qdir"], f"q{k}.stats.json.spans")
                if os.path.exists(path):
                    fh.write(json.dumps({"query": k}) + "\n")
                    fh.write(read_bytes(path).decode())
    else:
        stats = traced["layers"]
    values = per_layer(stats, traced, untraced)
    identical = untraced["digests"] == traced["digests"]
    info = {"outputs_identical": identical, "spans_file": os.path.relpath(spans, ROOT)}
    return values, info, [untraced, traced], identical


def main() -> int:
    ap = argparse.ArgumentParser(description="gkmcalc benchmark (see perfbench/README.md)")
    ap.add_argument("--workload", required=True, choices=streams.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM, unwind so that spawn() kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "gkmcalc", "cli.py")):
        print(f"error: no gkmcalc sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    env = environment(args.seed, args.workload)
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)
    os.makedirs(os.path.join(OUT, "work"), exist_ok=True)
    work = os.path.join(OUT, "work", f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        if args.trace:
            values, info, passes, identical = trace_run(args.workload, args.seed, work, recorded)
            setups = []
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            values, info, passes, setups = measure(args.workload, args.seed, args.seconds, work, recorded)
            identical = True
            units = dict(END_TO_END)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    unexpected = sorted({tuple(f) for p in passes for f in p["unexpected"]})
    correct = identical and not unexpected
    record = {
        "env": env, "trace": args.trace, "seconds": args.seconds, "info": info,
        "metrics": values, "attempted": attempted, "failed": failed,
        "failures": sorted({tuple(f) for p in passes for f in p["failures"]}),
        "known_defects": sorted(streams.KNOWN_DEFECTS), "correct": correct,
        "setup_samples": setups,
        "items": [{"keys": p["keys"], "latency_s": p["latencies"], "cpu_s": p["cpus"],
                   "refs_s": p["refs"]} for p in passes],
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"# gkmcalc benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("# env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print("# " + ", ".join(f"{k} {v}" for k, v in info.items()))
    for key, reason in record["failures"]:
        tag = "known defect" if key in streams.KNOWN_DEFECTS else "FAILED"
        print(f"# {tag}: {key}: {reason}")
    for name, value in values.items():
        print(f"{name:45s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
