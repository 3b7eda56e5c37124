"""Gen-T reclamation benchmark.

    python3 genbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds Gen-T and the benchmark driver from source (genbench/build.py), runs
one closed-loop client that reclaims the workload's source on Spark local,
checks every reclaimed table, and prints every metric by name with its
unit. A run builds the lake's value index twice (set-up), reclaims the
source once untimed (warm-up), then times at least two reclaims, more while
they fit in `--seconds`. The last line of standard output is one JSON
object: `correct`, `attempted`, `failed` and `metrics` (the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`).

Generated lakes, compiled classes and Spark scratch space live under
`.bench_build/genbench/` in the checkout; lakes are generated once and
reused, the value index is rebuilt in every run's set-up.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import build  # noqa: E402

WORK = os.path.join(ROOT, ".bench_build", "genbench")
WORKLOADS = ["tptr_small_join", "santos_small_single"]
RECLAIM_LAYERS = ["setsim", "integrate", "materialize"]
# Metrics printed but not in the result: either can be 0.
UNDECLARED = {"perfect_count", "failed_frac"}
# Time the JVM may take to prepare a checkout, and to make one run.
PREPARE_TIMEOUT_S = 600
RUN_TIMEOUT_S = 165


def log(msg):
    sys.stderr.write(f"[genbench] {msg}\n")
    sys.stderr.flush()


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def tail(xs):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count); with ten samples or fewer no
    percentile has ten beyond it, so the maximum is reported as p100.
    """
    s = sorted(xs)
    n = len(s)
    if n == 0:
        return float("nan"), 100.0, 0
    if n <= 10:
        return s[-1], 100.0, n
    i = n - 11
    return s[i], 100.0 * (i + 1) / n, n


def java(jar, share, args, timeout_s):
    """Run the JVM driver with `args`; return its records.

    Kills it after `timeout_s`. Lines other than records go to stderr.
    """
    # A run lives about a minute, most of it in code the JIT has not yet
    # compiled: compiling sooner, on two compiler threads, and a serial
    # collector leave more of the 4 cores to Spark and shorten the warm-up.
    cmd = ["java", "-Xmx3g", "-Xss8m", "-XX:+UseSerialGC", "-XX:CICompilerCount=2",
           "-XX:CompileThresholdScaling=0.3", share, "-Xlog:disable", "-Xlog:all=error:stderr",
           "-Dlog4j2.configurationFile=" + os.path.join(HERE, "log4j2.properties"),
           "-cp", jar + os.pathsep + build.spark_jars(),
           "repro.genbench.Main", "--work", WORK] + args
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    timed_out = []

    def kill():
        timed_out.append(True)
        os.killpg(proc.pid, signal.SIGKILL)

    watchdog = threading.Timer(timeout_s, kill)
    watchdog.start()
    records = []
    try:
        for line in proc.stdout:
            if line.startswith("GENBENCH "):
                records.append(json.loads(line[len("GENBENCH "):]))
            else:
                sys.stderr.write(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    if timed_out:
        raise SystemExit("genbench: driver ran out of time")
    if code != 0:
        raise SystemExit(f"genbench: driver exited with {code}")
    return records


def run_driver(args, jar, trace):
    """One measured run of the driver; prepares the checkout first if needed.

    Preparing generates every workload's lakes and dumps a class-data
    sharing archive of the classes Spark loads, in a JVM of its own, so that
    every measured run starts equally cold and maps the same archive.
    """
    cds = os.path.join(os.path.dirname(jar), "classes.jsa")
    if not os.path.exists(cds):
        log("generating lakes and the class archive (first run in this checkout)")
        java(jar, "-XX:ArchiveClassesAtExit=" + cds + ".tmp", ["--prepare"], PREPARE_TIMEOUT_S)
        os.replace(cds + ".tmp", cds)
    return java(jar, "-XX:SharedArchiveFile=" + cds,
                ["--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)], RUN_TIMEOUT_S)


def aggregate(records, quality_path):
    by_kind = {}
    for r in records:
        by_kind.setdefault(r["kind"], []).append(r)
    wl = by_kind["workload"][0]
    setups = by_kind.get("setup", [])
    end = by_kind["end"][0]
    runs = by_kind.get("source", [])
    ok = [r for r in runs if r["ok"]]
    failed = [r for r in runs if not r["ok"]]
    # End-to-end figures come from the untraced reclaims, per-layer figures
    # from the traced ones; a traced run alternates the two.
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]

    problems = [f"{r['source']}: {r['check']}" for r in ok if r["check"] != "ok"]
    mismatches = quality_findings(by_kind.get("warmup", []) + ok, quality_path)
    findings = [f"{r['source']} failed: {r['error']}" for r in failed] + mismatches

    reclaim = [r["reclaim_ms"] for r in plain]
    t_val, t_pct, t_n = tail(reclaim)
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    def mean(key, rs=ok):
        return statistics.fmean(float(r[key]) for r in rs) if rs else float("nan")

    put("setup_s", median([s["setup_s"] for s in setups]), "s")
    put("reclaim_ms_p50", median(reclaim), "ms")
    put("reclaim_ms_tail", t_val, "ms")
    put("scored_per_min", 60000.0 / median([r["total_ms"] for r in plain]) if plain else 0.0,
        "1/min")
    put("recall_mean", mean("recall"), "ratio")
    put("precision_mean", mean("precision"), "ratio")
    put("eis_mean", mean("eis"), "ratio")
    put("perfect_count", sum(1 for r in ok if r["perfect"]), "count")
    put("failed_frac", len(failed) / max(1, len(runs)), "ratio")
    put("cached_mb_end", end["cached_mb_end"], "MB")
    e2e = dict(m)

    layer = {}

    def lput(name, value, unit):
        layer[name] = {"value": value, "unit": unit}

    def stat(rs, lay, key):
        return [r.get("layers", {}).get(lay, {}).get(key, 0) for r in rs]

    lput("lake.index_build_ms", median([s["index_build_ms"] for s in setups]), "ms")
    lput("lake.index_rows", median([s["index_rows"] for s in setups]), "count")
    lput("lake.index_jobs", median(stat(setups, "lake", "jobs")), "count")
    for lay in ["setsim", "integrate", "materialize", "metrics"]:
        calls = [r[lay + "_ms"] for r in traced]
        busy = stat(traced, lay, "busy_ms")
        lput(f"{lay}.ms_p50", median(calls), "ms")
        lput(f"{lay}.jobs", median(stat(traced, lay, "jobs")), "count")
        lput(f"{lay}.busy_ms", median(busy), "ms")
        lput(f"{lay}.driver_ms", median([c - b for c, b in zip(calls, busy)]), "ms")
    lput("setsim.candidates", mean("candidates"), "count")
    hits = sum(r["intset_hits"] for r in ok)
    lput("setsim.intset_precision", hits / max(1, sum(r["candidates"] for r in ok)), "ratio")
    lput("setsim.intset_recall", hits / max(1, sum(r["intset_size"] for r in ok)), "ratio")
    lput("integrate.originating", mean("originating"), "count")
    lput("integrate.kept_ratio",
         sum(r["originating"] for r in ok) / max(1, sum(r["candidates"] for r in ok)), "ratio")
    lput("materialize.rows", mean("rows"), "count")

    def per_source(key):
        return statistics.fmean(sum(stat([r], lay, key)[0] for lay in RECLAIM_LAYERS)
                                for r in traced) if traced else float("nan")

    lput("spark.jobs_per_source", per_source("jobs"), "count")
    lput("spark.tasks_per_source", per_source("tasks"), "count")
    lput("spark.shuffle_mb_per_source", per_source("shuffle_bytes") / 1e6, "MB")
    lput("spark.cached_rdds_end", end["cached_rdds_end"], "count")
    lput("spark.untagged_jobs", sum(stat(setups + traced, "untagged", "jobs")), "count")
    lput("quality.mismatches", len(mismatches), "count")
    if traced and plain:
        lput("trace.overhead_pct",
             100.0 * (median([r["reclaim_ms"] for r in traced]) / median(reclaim) - 1.0), "%")

    info = {
        "reclaims": len(ok), "traced": len(traced), "wall_s": end["wall_s"],
        "uptime_s": {k: round(v[-1]["uptime_s"], 1) for k, v in by_kind.items()},
        "setup_s": [round(s["setup_s"], 2) for s in setups],
        "index_rows": setups[0]["index_rows"] if setups else 0,
        "warmup_ms": [round(r.get("reclaim_ms", 0)) for r in by_kind.get("warmup", [])],
        "reclaim_ms": [round(r["reclaim_ms"]) for r in ok],
        "probe_ms": median([r["probe_ms"] for r in ok]),
        "tail_percentile": t_pct, "tail_samples": t_n,
        "source": wl["source"], "tables": wl["tables"],
        "distractors": wl["distractors"], "candidates": sorted({r["candidates"] for r in ok}),
        "spark": {"master": wl["master"], **wl["settings"]},
    }
    return e2e, layer, info, problems, findings, len(runs), len(failed)


def quality_findings(ok, path):
    """Scores of a source must repeat exactly, within a run and across the
    runs of one build; the first scores this build gave are kept to compare
    with. A difference is reported, never averaged away."""
    known = json.load(open(path)) if os.path.exists(path) else {}
    out = []
    for r in ok:
        if not r["ok"]:
            continue
        q = [r["recall"], r["precision"], r["eis"]]
        ref = known.setdefault(r["source"], q)
        if ref != q:
            out.append(f"{r['source']}: quality (recall, precision, eis) {q} differs from {ref}")
    with open(path + ".tmp", "w") as fh:
        json.dump(known, fh)
    os.replace(path + ".tmp", path)
    return out


def share_table(layer):
    """Each reclaim layer's share of the timed reclaim, split into Spark
    busy time and driver time (medians, so the rows need not sum exactly)."""
    total = sum(layer[f"{lay}.ms_p50"]["value"] for lay in RECLAIM_LAYERS)
    rows = [f"{'layer':12s} {'share':>7s} {'call_ms':>9s} {'busy_ms':>9s} {'driver_ms':>9s} {'jobs':>5s}"]
    for lay in RECLAIM_LAYERS:
        ms = layer[f"{lay}.ms_p50"]["value"]
        busy, drv, jobs = (layer[f"{lay}.{k}"]["value"] for k in ("busy_ms", "driver_ms", "jobs"))
        rows.append(f"{lay:12s} {100 * ms / total:6.1f}% {ms:9.0f} {busy:9.0f} {drv:9.0f} {jobs:5.0f}")
    return "\n".join(rows)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    jar = build.build()
    records = run_driver(args, jar, args.trace)
    # Kept with the build, so scores are compared only across runs of the
    # same code.
    quality_path = os.path.join(os.path.dirname(jar), "quality.json")
    e2e, layer, info, problems, findings, attempted, failed = aggregate(records, quality_path)

    tables = [("end-to-end", e2e)] + ([("per-layer", layer)] if args.trace else [])
    for title, ms in tables:
        print(f"--- {title} ({args.workload}, seed {args.seed}, trace {args.trace})")
        for name, v in ms.items():
            print(f"{name:32s} {v['value']:>14.4f} {v['unit']}")
    print(f"reclaim_ms_tail is p{info['tail_percentile']:.1f} of {info['tail_samples']} samples")
    if args.trace:
        print(share_table(layer))
    print("run: " + json.dumps(info))
    for msg in findings:
        print("finding: " + msg)
    for msg in problems:
        print("problem: " + msg)

    chosen = layer if args.trace else {k: v for k, v in e2e.items() if k not in UNDECLARED}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": chosen}))


if __name__ == "__main__":
    main()
