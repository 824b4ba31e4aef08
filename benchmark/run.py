#!/usr/bin/env python3
"""One-command HTAP benchmark of the PUSHtap reproduction.

Builds pushtap_bench (Release, into build-bench/ at the repository root),
runs workloads, checks their answers and prints every metric by name
with its unit. The metric names, units, directions and regression
bounds live in BENCHMARK.json at the repository root.

  python3 benchmark/run.py                       # every workload, 5 seeds
  python3 benchmark/run.py --runs 10 --traced    # plus per-layer metrics
  python3 benchmark/run.py --workload oltp --seed 3 --seconds 10 --trace 0
  python3 benchmark/run.py compare OLD.json NEW.json

With --workload, one run is made and the last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}; the
metrics are the end-to-end ones with --trace 0 and the per-layer ones
(reduced from the run's spans) with --trace 1.
"""

import argparse
import collections
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, "build-bench")
BINARY = os.path.join(BUILD_DIR, "pushtap_bench")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

# Engine switches whose environment overrides would change what is
# measured; every run sees the shipped defaults instead.
SCRUBBED_ENV = (
    "PUSHTAP_OLAP_OPTIMIZE",
    "PUSHTAP_OLAP_RESULT_CACHE",
    "PUSHTAP_FORCE_SCALAR_KERNELS",
    "PUSHTAP_OLAP_STATS_FILE",
)

# Tail percentiles tried, highest first; the reported tail is the
# highest one that keeps at least TAIL_BEYOND samples above it.
TAIL_LADDER = (99.0, 95.0, 90.0)
TAIL_BEYOND = 10

# Every plan is checked at least once per run.
MIN_CHECKS = 22

# Host-clock metrics are reported for a host on which pushtap_bench's
# HostProbe reference kernel takes this long (the 4-vCPU Xeon VM the
# benchmark was defined on): a run's values are scaled by its own
# measured reference, which cancels the memory-speed drift a shared
# host shows between runs. Raw values stay in every result file.
REF_NOMINAL_MS = 27.0
RUN_TIMEOUT_S = 175


class BenchError(Exception):
    """A run that cannot produce a result."""


# ------------------------------------------------------------ statistics


def rank_percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = math.ceil(p / 100.0 * len(sorted_values))
    return sorted_values[min(max(rank, 1), len(sorted_values)) - 1]


def supported_percentile(n, ladder=TAIL_LADDER, beyond=TAIL_BEYOND):
    """Highest percentile of @ladder that leaves at least @beyond of @n
    samples above its nearest rank; None when none does."""
    for p in ladder:
        if n - math.ceil(p / 100.0 * n) >= beyond:
            return p
    return None


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


# ------------------------------------------------------- compare verdicts


def verdict(base, new, bound, better):
    """improved / regressed / unchanged / unresolved for runs of one
    metric on one workload.

    Worse by more than @bound (a share of the base median) regresses.
    When either side's spread is wider than the bound the medians say
    nothing, so the verdict is unresolved unless every run of one side
    beats every run of the other. A gain needs the medians to differ
    by more than the base's own spread and the new side to win at
    least nine tenths of the run pairs (runs paired by index).
    """
    sign = 1.0 if better == "lower" else -1.0
    mb, mn = statistics.median(base), statistics.median(new)
    worse_by = sign * (mn - mb) / abs(mb) if mb else 0.0
    beats = lambda a, b: sign * (a - b) < 0  # noqa: E731
    if max(spread(base), spread(new)) > bound:
        if all(beats(y, x) for x in base for y in new):
            return "improved"
        if all(beats(x, y) for x in base for y in new):
            return "regressed"
        return "unresolved"
    if worse_by > bound:
        return "regressed"
    pairs = list(zip(base, new))
    wins = sum(1 for x, y in pairs if beats(y, x))
    if -worse_by > spread(base) and pairs and wins >= 0.9 * len(pairs):
        return "improved"
    return "unchanged"


# ------------------------------------------------------------ trace reducer


# One recorded span; c maps counter names to values.
Span = collections.namedtuple("Span", "parent name start end c")
NO_COUNTERS = {}


def parse_trace(path):
    """Span id -> Span of a pushtap_bench trace file."""
    spans = {}
    with open(path) as f:
        for line in f:
            if line.startswith("#"):
                continue
            sid, parent, name, _req, start, end, counters = \
                line.rstrip("\n").split("\t")
            c = NO_COUNTERS
            if counters:
                c = {k: float(v) for k, v in
                     (kv.split("=", 1) for kv in counters.split(";"))}
            spans[int(sid)] = Span(int(parent), sys.intern(name),
                                   int(start), int(end), c)
    return spans


def self_times(spans):
    """Span id -> duration minus the union of its children's intervals
    (clipped to the span)."""
    children = {}
    for sid, s in spans.items():
        children.setdefault(s.parent, []).append(sid)
    out = {}
    for sid, s in spans.items():
        covered, reach = 0, s.start
        for lo, hi in sorted((max(spans[c].start, s.start),
                              min(spans[c].end, s.end))
                             for c in children.get(sid, ())):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[sid] = s.end - s.start - covered
    return out


def reduce_trace(spans):
    """Per-layer metrics of one traced run (see benchmark/README.md).

    Every metric is defined on every workload. Times are only reported
    for work all four workloads do; a layer that some workload does
    not exercise reports its busy time as a share of the measured
    phase, its work as counts and its speed as a rate, all of which
    read 0 where the layer is idle.
    """
    selfs = self_times(spans)
    by_name = {}
    for sid, s in spans.items():
        by_name.setdefault(s.name, []).append(sid)

    def of(name):
        return by_name.get(name, [])

    def busy(name):
        return sum(selfs[i] for i in of(name))

    def durs(ids, scale):
        return sorted((spans[i].end - spans[i].start) * scale
                      for i in ids)

    def counter(ids, key):
        return [spans[i].c.get(key, 0.0) for i in ids]

    def mean(vals):
        return sum(vals) / len(vals) if vals else 0.0

    def med(vals):
        return statistics.median(vals) if vals else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    measures = of("measure")
    if len(measures) != 1:
        raise BenchError("trace has %d measure spans" % len(measures))
    m = spans[measures[0]].c
    txns = m.get("txns", 0.0)
    active = m.get("active_ns", 0.0)

    samples = durs([i for name in ("txn", "query") for i in of(name)
                    if spans[i].c.get("sample") == 1.0], 1e-6)
    tail = supported_percentile(len(samples))
    out = {
        "client.latency_tail_ms": rank_percentile(samples, tail or 100.0),
        "client.latency_tail_pct": tail or 0.0,
        "client.latency_samples": float(len(samples)),
        "client.query_busy_share": ratio(
            sum(spans[i].end - spans[i].start for i in of("query")),
            active),
        "host.ref_ms": m.get("ref_ms", 0.0),
        "setup.populate_s": med(durs(of("setup.populate"), 1e-9)),
        "setup.warmup_s": med(durs(of("warmup"), 1e-9)),
    }

    # Transaction-layer wall time per transaction: each execute call
    # where the client runs transactions itself, each batch's start()
    # to finish() where a worker group drains them.
    if of("txn.execute"):
        per_txn = [(spans[i].start, selfs[i] * 1e-3)
                   for i in of("txn.execute")]
    else:
        per_txn = []
        for b in of("batch"):
            kids = [i for i in of("txn.schedule") + of("txn.wait")
                    if spans[i].parent == b]
            if kids:
                lo = min(spans[i].start for i in kids)
                hi = max(spans[i].end for i in kids)
                per_txn.append((lo, (hi - lo) * 1e-3 / ratio(txns,
                                                              len(of("batch")))))
    per_txn = [v for _, v in sorted(per_txn)]
    tenth = len(per_txn) // 10
    out["txn.exec_us.mean"] = mean(per_txn)
    # Means, not medians: a Payment/NewOrder mix is bimodal, and its
    # median jumps between the two clusters.
    out["txn.exec_us.drift"] = ratio(mean(per_txn[-tenth:]),
                                     mean(per_txn[:tenth])) if tenth else 0.0
    out["txn.busy_share"] = ratio(
        busy("txn.execute") + busy("txn.schedule") + busy("txn.wait"),
        active)
    out["txn.schedule_share"] = ratio(busy("txn.schedule"), active)
    out["txn.ingest_wait_share"] = ratio(busy("txn.wait"), active)
    out["txn.versions_per_txn"] = ratio(m.get("versions", 0.0), txns)
    parts = ("indexing", "chain_traverse", "allocation", "computation",
             "relayout", "commit")
    model_total = sum(m.get("model." + p, 0.0) for p in parts)
    out["txn.model_ns.total"] = ratio(model_total, txns)
    for p in parts:
        out["txn.model_share." + p] = ratio(m.get("model." + p, 0.0),
                                            model_total)
    out["txn.model_mem_lines"] = ratio(m.get("mem_lines", 0.0), txns)

    defrags = of("mvcc.defrag")
    out["mvcc.snapshot_share"] = ratio(busy("mvcc.snapshot"), active)
    out["mvcc.snapshot_versions.mean"] = mean(
        counter(of("mvcc.snapshot"), "versions"))
    out["mvcc.defrag_share"] = ratio(busy("mvcc.defrag"), active)
    out["mvcc.defrag_passes"] = float(len(defrags))
    out["mvcc.defrag_rows_copied.mean"] = mean(
        counter(defrags, "rows_copied"))

    runs = of("olap.run_query")
    exec_ns = busy("olap.run_query")
    out["olap.exec_share"] = ratio(exec_ns, active)
    for q in range(1, 23):
        ids = [i for i in runs if spans[i].c.get("q") == q]
        out["olap.q%02d_per_s" % q] = ratio(
            len(ids), sum(selfs[i] for i in ids) * 1e-9)
    rows = counter(runs, "rows")
    out["olap.rows_visible.mean"] = mean(rows)
    out["olap.rows_per_s"] = ratio(sum(rows), exec_ns * 1e-9)
    out["olap.cache_served_share"] = mean(
        [1.0 if spans[i].c.get("hit") or spans[i].c.get("inc_rows")
         else 0.0 for i in runs])
    out["olap.cache_incremental_rows.mean"] = mean(
        [v for v in counter(runs, "inc_rows") if v])
    out["olap.optimized_share"] = mean(counter(runs, "optimized"))

    model = {k: sum(counter(runs, k + "_ns"))
             for k in ("pim", "cpu", "consistency", "blocked")}
    model_query = model["pim"] + model["cpu"] + model["consistency"]
    for k in ("pim", "cpu", "consistency"):
        out["model.%s_share" % k] = ratio(model[k], model_query)
    out["model.cpu_blocked_share"] = ratio(model["blocked"], model_query)

    out["htap.stale_txns.p50"] = rank_percentile(
        sorted(spans[i].c["stale"] for i in of("query")
               if "stale" in spans[i].c), 50)

    verifies = of("verify")
    out["verify.checked"] = sum(counter(verifies, "checked"))
    out["verify.failed"] = sum(counter(verifies, "failed"))
    out["verify.s"] = sum(durs(verifies, 1e-9))

    window = spans[measures[0]]
    inside = sum(1 for s in spans.values()
                 if window.start <= s.start <= window.end)
    out["trace.spans"] = float(len(spans))
    out["trace.overhead_share"] = ratio(
        inside * m.get("span_cost_ns", 0.0), active)
    return out


# ------------------------------------------------------------- one run


def latency_tail(lat):
    """(percentile, value) of the highest supported tail of a
    pushtap_bench latency summary."""
    tail = supported_percentile(lat["n"])
    if tail is None:
        raise BenchError("%d latency samples cannot support a tail "
                         "percentile" % lat["n"])
    return tail, lat["p%d" % tail]


def end_to_end(record):
    """End-to-end metrics of one untraced pushtap_bench record, host-clock
    ones scaled to the nominal host speed (see REF_NOMINAL_MS)."""
    speed = record["host_ref_ms"] / REF_NOMINAL_MS
    return {
        "ops_per_s": record["ops"] / record["measured_s"] * speed,
        "latency_p50_ms": record["latency_ms"]["p50"] / speed,
        "model_latency_us": record["model_latency_us"],
        "peak_rss_mb": record["peak_rss_mb"],
        "setup_s": statistics.median(record["setup_s"]) / speed,
    }


def is_correct(record):
    return (record["failed"] == 0 and record["check_failed"] == 0
            and record["checked"] >= MIN_CHECKS)


def scrubbed_env():
    env = dict(os.environ)
    for key in SCRUBBED_ENV:
        env.pop(key, None)
    return env


class Terminated(Exception):
    """run.py itself was asked to stop."""


def _terminate(signum, frame):
    raise Terminated("stopped by signal %d" % signum)


def run_command(cmd, timeout):
    """Run @cmd in its own process group and return its stdout. On a
    timeout, or when run.py is stopped, the whole group (e.g. a build's
    compilers) is killed and reaped."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=scrubbed_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except (subprocess.TimeoutExpired, Terminated, KeyboardInterrupt) as e:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(e, subprocess.TimeoutExpired):
            raise BenchError("%s timed out after %ds"
                             % (" ".join(cmd), timeout))
        raise
    if proc.returncode != 0:
        raise BenchError("%s failed (exit %d):\n%s%s" % (
            " ".join(cmd), proc.returncode, out[-4000:], err[-4000:]))
    return out


def binary_info():
    return json.loads(run_command([BINARY, "--info"], 30).splitlines()[-1])


def build():
    """Configure and build Release pushtap_bench; refuse any other
    build."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise BenchError("no CMakeLists.txt at %s: the benchmark builds "
                         "the library from the repository root" % ROOT)
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if not os.path.isfile(cache):
        run_command(["cmake", "-S", os.path.join(ROOT, "benchmark"),
                     "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"], 120)
    build_type = None
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    if build_type != "Release":
        raise BenchError("build-bench/ is a %s build; remove it or "
                         "reconfigure as Release" % build_type)
    run_command(["cmake", "--build", BUILD_DIR, "-j",
                 str(os.cpu_count() or 1)], 700)
    info = binary_info()
    if not info["release"]:
        raise BenchError("pushtap_bench was not built optimized")
    return info


def run_once(workload, seed, seconds, trace):
    """One pushtap_bench run: (record, end-to-end metrics, per-layer
    metrics or
    None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    trace_path = None
    if trace:
        trace_path = os.path.join(
            BUILD_DIR, "trace-%s-%d-%d.tsv" % (workload, seed, os.getpid()))
        cmd += ["--trace", trace_path]
    try:
        out = run_command(cmd, RUN_TIMEOUT_S)
        record = json.loads(out.strip().splitlines()[-1])
        layers = reduce_trace(parse_trace(trace_path)) if trace else None
    finally:
        if trace_path and os.path.exists(trace_path):
            os.remove(trace_path)
    return record, end_to_end(record), layers


# ---------------------------------------------------------------- modes


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def single(args):
    """The contract mode: one run, result JSON as the last line."""
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise BenchError("unknown workload %r (one of %s)"
                         % (args.workload, ", ".join(names)))
    build()
    record, e2e, layers = run_once(args.workload, args.seed, args.seconds,
                                   args.trace == 1)
    defs = spec["per_layer"] if args.trace == 1 else spec["end_to_end"]
    values = layers if args.trace == 1 else e2e
    for e in record["errors"]:
        print("error: " + e, file=sys.stderr)
    print("%s seed %d: %d ops, %d checked, %d failed, verify %.2fs"
          % (args.workload, args.seed, record["ops"], record["checked"],
             record["failed"], record["verify_s"]))
    print(json.dumps({
        "correct": is_correct(record),
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {d["name"]: {"value": values[d["name"]],
                                "unit": d["unit"]} for d in defs},
    }))


def machine_stamp(info, seeds, seconds):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True,
                                timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"nproc": info["nproc"], "cpu_model": cpu,
            "avx2": info["avx2"], "avx512vbmi": info["avx512vbmi"],
            "compiler": info["compiler"], "commit": commit,
            "seeds": seeds, "seconds": seconds,
            "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def summarize(runs, key, defs):
    summary = {}
    for d in defs:
        vals = [r[key][d["name"]] for r in runs if r.get(key)]
        if vals:
            q1, med, q3 = quartiles(vals)
            summary[d["name"]] = {"unit": d["unit"], "median": med,
                                  "q1": q1, "q3": q3,
                                  "spread": spread(vals)}
    return summary


def print_summary(workload, summary, defs, n):
    print("\n%s (%d runs)" % (workload, n))
    print("  %-34s %-8s %14s %14s %14s %8s %6s" % (
        "metric", "unit", "median", "q1", "q3", "spread", "bound"))
    for d in defs:
        s = summary.get(d["name"])
        if s:
            print("  %-34s %-8s %14.6g %14.6g %14.6g %7.2f%% %6s" % (
                d["name"], d["unit"], s["median"], s["q1"], s["q3"],
                100 * s["spread"],
                "%g%%" % (100 * d["bound"]) if "bound" in d else ""))


def full(args):
    """Every (or the chosen) workload over several seeds; writes a
    machine-stamped result file."""
    spec = load_spec()
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in spec["workloads"]]
    info = build()
    seeds = [args.first_seed + i for i in range(args.runs)]
    results = {w: {"runs": [], "traced": []} for w in workloads}
    ok = True
    for i, seed in enumerate(seeds):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            passes = [False, True] if args.traced else [False]
            if args.traced and i % 2:
                passes.reverse()
            for traced in passes:
                record, e2e, layers = run_once(w, seed, args.seconds, traced)
                entry = {"seed": seed, "correct": is_correct(record),
                         "metrics": e2e, "record": record}
                if traced:
                    entry["per_layer"] = layers
                ok = ok and entry["correct"]
                results[w]["traced" if traced else "runs"].append(entry)
                print("%-10s seed %-3d %s %s" % (
                    w, seed, "traced  " if traced else "untraced",
                    "ok" if entry["correct"] else "FAILED"), flush=True)

    for w in workloads:
        res = results[w]
        res["summary"] = summarize(res["runs"], "metrics",
                                   spec["end_to_end"])
        print_summary(w, res["summary"], spec["end_to_end"],
                      len(res["runs"]))
        tails = [latency_tail(r["record"]["latency_ms"])
                 for r in res["runs"]]
        q1, med, q3 = quartiles([v for _, v in tails])
        res["latency_tail"] = {
            "pct": tails[0][0], "median_ms": med, "q1": q1, "q3": q3,
            "samples": res["runs"][0]["record"]["latency_ms"]["n"]}
        print("  latency p%g (%d samples, not gated): median %.6g ms, "
              "q1 %.6g, q3 %.6g" % (tails[0][0],
                                    res["latency_tail"]["samples"],
                                    med, q1, q3))
        recs = [r["record"] for r in res["runs"]]
        print("  unscaled medians: ops_per_s %.6g, latency_p50_ms %.6g, "
              "setup_s %.6g; host_ref_ms %.6g" % (
                  statistics.median(r["ops"] / r["measured_s"] for r in recs),
                  statistics.median(r["latency_ms"]["p50"] for r in recs),
                  statistics.median(statistics.median(r["setup_s"])
                                    for r in recs),
                  statistics.median(r["host_ref_ms"] for r in recs)))
        if args.traced:
            res["per_layer"] = summarize(res["traced"], "per_layer",
                                         spec["per_layer"])
            traced_e2e = summarize(res["traced"], "metrics",
                                   spec["end_to_end"])
            res["trace_overhead"] = {
                name: traced_e2e[name]["median"] /
                res["summary"][name]["median"] - 1.0
                for name in ("ops_per_s", "latency_p50_ms")}
            print_summary(w + " per layer (traced)", res["per_layer"],
                          spec["per_layer"], len(res["traced"]))
            for name, v in res["trace_overhead"].items():
                print("  trace.overhead.%-18s %+.2f%%" % (name, 100 * v))

    out = args.out or os.path.join(
        BUILD_DIR, "results-%s.json" % time.strftime("%Y%m%d-%H%M%S"))
    with open(out, "w") as f:
        json.dump({"machine": machine_stamp(info, seeds, args.seconds),
                   "workloads": results}, f, indent=1)
        f.write("\n")
    print("\nwrote %s" % out)
    if not ok:
        raise BenchError("some runs failed their answer checks")


def compare(args):
    """Per workload and metric: medians, quartiles and a verdict under
    the BENCHMARK.json bound."""
    spec = load_spec()
    with open(args.base) as f:
        base = json.load(f)["workloads"]
    with open(args.new) as f:
        new = json.load(f)["workloads"]
    print("%-11s %-18s %-6s %12s %12s %12s %12s %12s %12s %7s  %s" % (
        "workload", "metric", "unit", "base q1", "base med", "base q3",
        "new q1", "new med", "new q3", "change", "verdict"))
    for w in [w["name"] for w in spec["workloads"]]:
        if w not in base or w not in new:
            continue
        for d in spec["end_to_end"]:
            a = [r["metrics"][d["name"]] for r in base[w]["runs"]]
            b = [r["metrics"][d["name"]] for r in new[w]["runs"]]
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
            print("%-11s %-18s %-6s %12.6g %12.6g %12.6g %12.6g %12.6g "
                  "%12.6g %+6.1f%%  %s" % (
                      w, d["name"], d["unit"], qa[0], qa[1], qa[2],
                      qb[0], qb[1], qb[2], 100 * change,
                      verdict(a, b, d["bound"], d["better"])))


def main(argv):
    if argv[:1] == ["compare"]:
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("base")
        p.add_argument("new")
        compare(p.parse_args(argv[1:]))
        return 0
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", help="run one workload once (contract "
                   "mode: result JSON on the last line)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--runs", type=int, default=5,
                   help="seeds per workload (full mode)")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", help="comma-separated subset")
    p.add_argument("--traced", action="store_true",
                   help="add one traced run per seed: per-layer metrics "
                   "and the tracing overhead")
    p.add_argument("--out", help="result file (default "
                   "build-bench/results-<time>.json)")
    args = p.parse_args(argv)
    if args.workload:
        single(args)
    else:
        full(args)
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGHUP, _terminate)
    try:
        sys.exit(main(sys.argv[1:]))
    except (BenchError, Terminated, KeyboardInterrupt, OSError, ValueError,
            KeyError, subprocess.SubprocessError) as e:
        print("run.py: %s" % e, file=sys.stderr)
        sys.exit(1)
