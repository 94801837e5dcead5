#!/usr/bin/env python3
"""End-to-end benchmark of the HyperSIO simulator.

Builds bench/e2e/e2e_bench (RelWithDebInfo, default options) into
build-e2e/, runs the workloads one single-threaded process per rep,
checks every rep, and prints every metric by name with its unit.

Usage:
    python3 bench/e2e/run.py [--trace] [--out SET.jsonl]
        all five workloads, TIMED_REPS reps each, round-robin
    python3 bench/e2e/run.py --quick
        smoke test: every workload shrunk, 1 rep plus a traced rep
    python3 bench/e2e/run.py --workload W --seed S --seconds T --trace 0|1
        one workload; the whole set takes about T seconds
    python3 bench/e2e/run.py --compare A.jsonl B.jsonl
        diff two result sets written by --out

--trace adds one traced rep per workload, whose spans give the
per-layer host times; end-to-end numbers come only from the untraced
timed reps. Only hit_path_checked runs under the shadow oracle; when a
set holds both it and hit_path, their digests must agree and the
difference of their median rates gives oracle.host_ns_per_pkt.

The last stdout line is one JSON object: {"correct", "attempted",
"failed", "metrics"}, where metrics holds the end-to-end metrics of
BENCHMARK.json (or its per-layer metrics with --trace 1), keyed
"<workload>.<metric>" when more than one workload ran.

Exit status: 0 when every rep passed every check, 1 when a check
failed (or --compare found a regression), 2 on malformed input or a
build failure.
"""

import argparse
import collections
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
BUILD_DIR = ROOT / "build-e2e"
# Parallel compile jobs; the reps themselves run one at a time.
BUILD_JOBS = min(4, os.cpu_count() or 1)

WORKLOADS = ["hit_path", "walk_path", "base_retry", "churn",
             "hit_path_checked"]
KINDS = ("timed", "traced")
# Timed reps per workload in a set that is not time-boxed.
TIMED_REPS = 7
# A time-boxed run never reports a median of fewer timed reps.
MIN_TIMED_REPS = 3
# A full-size rep takes seconds; one that takes this long is hung,
# and the set starts no further reps.
REP_TIMEOUT_S = 120
HUNG_EXIT = -9

# EXPERIMENTS.md headline table: the paper's link utilization (%) for
# the configurations these workloads reproduce.
PAPER_UTILIZATION_PCT = {"walk_path": 90.0, "base_retry": 6.0}

# Full-size outputs at seed 42: the workload sizes, and the Fig. 10
# headline point EXPERIMENTS.md reports (175.3 Gb/s).
SEED42_REFERENCE = {
    "hit_path": {"sim.packets": 871360},
    "walk_path": {"sim.packets": 1161216, "sim.sim_gbps": 175.29},
    "base_retry": {"sim.packets": 739328},
    "churn": {"sim.packets": 859703,
              "counts.workload.tenants_attached": 4404,
              "counts.workload.storm_episodes": 101},
    "hit_path_checked": {"sim.packets": 871360},
}

# End-to-end metrics: name -> (unit, better, kind). Host metrics are
# gated by the bounds in BENCHMARK.json; simulated ones must match
# exactly between two sets of the same seed.
E2E_METRICS = {
    "host_pkts_per_s": ("pkt/s", "higher", "host"),
    "setup_s": ("s", "lower", "host"),
    "peak_rss_mib": ("MiB", "lower", "host"),
    "sim_gbps": ("Gb/s", "higher", "sim"),
    "sim_latency_p50_ns": ("ns", "lower", "sim"),
    "sim_latency_p99_ns": ("ns", "lower", "sim"),
    "sim_drop_ratio": ("ratio", "lower", "sim"),
    "paper_gap_pp": ("pct-points", "lower", "sim"),
    "failed_rep_ratio": ("ratio", "lower", "sim"),
}

# Per-layer host times, taken from the traced rep.
LAYER_TIMES = ["workload.generate_s", "trace.construct_s",
               "workload.stream_s", "core.system_ctor_s", "core.run_s",
               "core.run_self_s", "stats.snapshot_s", "stats.dump_s"]
DERIVED_UNITS = {
    "sim.ns_per_event": "ns/event",
    "oracle.host_ns_per_pkt": "ns/pkt",
    "bench.tracing_overhead_pct": "%",
}
# What the aggregation reads from every rep that reported a result.
REQUIRED_KEYS = {
    "host": ("run_s", "setup_s", "peak_rss_mib"),
    "sim": ("packets", "sim_gbps", "sim_utilization", "sim_latency_p50_ns",
            "sim_latency_p99_ns", "sim_drop_ratio"),
    "counts": ("sim.events", "sim.fused_hops"),
}


class InputError(Exception):
    """Malformed input or an unusable environment (exit status 2)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---- Statistics ----------------------------------------------------------

def quartiles(values):
    """(q1, median, q3) of `values`, as statistics.quantiles(n=4)."""
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def layer_unit(name):
    if name in DERIVED_UNITS:
        return DERIVED_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("hit_rate"):
        return "ratio"
    if name.startswith("iommu.walk_accesses"):
        return "accesses"
    return "count"


# ---- Result records ------------------------------------------------------

def validate_record(rec):
    """Why `rec` is not a well-formed rep record, or None."""
    if not isinstance(rec, dict):
        return "not a JSON object"
    for key, kind in (("workload", str), ("kind", str), ("rep", int),
                      ("seed", int), ("quick", bool), ("exit", int)):
        if not isinstance(rec.get(key), kind):
            return f"missing or mistyped '{key}'"
    if rec["workload"] not in WORKLOADS:
        return f"unknown workload '{rec['workload']}'"
    if rec["kind"] not in KINDS:
        return f"unknown rep kind '{rec['kind']}'"
    if "digest" not in rec:
        return None  # a rep that crashed before reporting
    if not isinstance(rec["digest"], str):
        return "mistyped 'digest'"
    if not isinstance(rec.get("checks_failed"), list):
        return "missing or mistyped 'checks_failed'"
    for block in ("host", "sim", "counts"):
        values = rec.get(block)
        if not isinstance(values, dict) or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in values.values()):
            return f"missing or non-numeric '{block}' block"
    required = dict(REQUIRED_KEYS)
    if rec["kind"] == "traced":
        required["host"] = required["host"] + tuple(LAYER_TIMES)
    for block, keys in required.items():
        for key in keys:
            if key not in rec[block]:
                return f"'{block}' lacks '{key}'"
    if rec["host"]["run_s"] <= 0:
        return "non-positive run_s"
    return None


def read_records(path):
    """Rep records of a result set (JSONL); InputError names the line."""
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise InputError(f"{path}: {err.strerror}") from err
    records = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as err:
            raise InputError(
                f"{path}:{lineno}: malformed rep line: {err.msg}") from err
        problem = validate_record(rec)
        if problem:
            raise InputError(f"{path}:{lineno}: malformed rep line: "
                             f"{problem}")
        records.append(rec)
    if not records:
        raise InputError(f"{path}: no rep records")
    return records


def lookup(rec, dotted):
    """rec['sim']['packets'] for 'sim.packets'; counts keep their dots."""
    block, key = dotted.split(".", 1)
    return rec[block].get(key)


def rep_failures(rec, consensus, peer_digest=None):
    """Every reason `rec` fails; a failed rep counts once however many.

    The rep itself checks what one run can know (checks_failed); this
    adds what takes several reps or a committed reference.
    """
    if "digest" not in rec:
        return [f"exit status {rec['exit']} without a result"]
    reasons = list(rec["checks_failed"])
    if rec["exit"] != 0 and not reasons:
        reasons.append(f"exit status {rec['exit']}")
    if rec["digest"] != consensus:
        reasons.append("digest_mismatch")
    if peer_digest is not None and rec["digest"] != peer_digest:
        reasons.append("digest_differs_from_hit_path")
    if rec["seed"] == 42 and not rec["quick"]:
        for key, want in SEED42_REFERENCE[rec["workload"]].items():
            got = lookup(rec, key)
            if got is None or (round(got, 2) if isinstance(want, float)
                               else got) != want:
                reasons.append(f"seed42_reference:{key}")
    return reasons


def consensus_digest(records):
    digests = [r["digest"] for r in records if "digest" in r]
    if not digests:
        return None
    return collections.Counter(digests).most_common(1)[0][0]


# ---- Aggregation ---------------------------------------------------------

def summarize(records):
    """Per-workload summary of a result set, in WORKLOADS order."""
    by_workload = collections.defaultdict(list)
    for rec in records:
        by_workload[rec["workload"]].append(rec)
    seeds = {(r["seed"], r["quick"]) for r in records}
    if len(seeds) != 1:
        raise InputError("result set mixes seeds or input sizes: "
                         f"{sorted(seeds)}")
    digests = {w: consensus_digest(recs)
               for w, recs in by_workload.items()}
    summary = {}
    for w in WORKLOADS:
        if w not in by_workload:
            continue
        peer = digests.get("hit_path") if w == "hit_path_checked" else None
        summary[w] = summarize_workload(w, by_workload[w], digests[w],
                                        peer)
    # The oracle's cost per packet, by difference of the median rates
    # of the same inputs with and without it.
    rates = [summary.get(w, {}).get("e2e", {}).get("host_pkts_per_s")
             for w in ("hit_path_checked", "hit_path")]
    if all(rates):
        summary["hit_path_checked"]["layers"]["oracle.host_ns_per_pkt"] = {
            "value": 1e9 / rates[0]["value"] - 1e9 / rates[1]["value"],
            "unit": layer_unit("oracle.host_ns_per_pkt")}
    return summary


def summarize_workload(workload, recs, consensus, peer_digest):
    failures = []
    for rec in recs:
        reasons = rep_failures(rec, consensus, peer_digest)
        if reasons:
            failures.append({"kind": rec["kind"], "rep": rec["rep"],
                             "reasons": reasons})
    ok = [r for r in recs if "digest" in r]
    timed = [r for r in ok if r["kind"] == "timed"]
    out = {"seed": recs[0]["seed"], "quick": recs[0]["quick"],
           "attempted": len(recs), "failed": len(failures),
           "failures": failures, "digest": consensus,
           "e2e": {}, "layers": {}}
    if not timed:
        return out

    def median_of(name, values):
        q1, med, q3 = quartiles(values)
        out["e2e"][name] = {"value": med, "unit": E2E_METRICS[name][0],
                            "n": len(values), "q1": q1, "q3": q3}

    def single(name, value, n=1):
        out["e2e"][name] = {"value": value, "unit": E2E_METRICS[name][0],
                            "n": n}

    median_of("host_pkts_per_s",
              [r["sim"]["packets"] / r["host"]["run_s"] for r in timed])
    median_of("setup_s", [r["host"]["setup_s"] for r in timed])
    single("peak_rss_mib", max(r["host"]["peak_rss_mib"] for r in timed),
           len(timed))
    # Simulated outputs are deterministic; the digest check holds
    # every rep to the first one's.
    first = timed[0]
    for name in ("sim_gbps", "sim_latency_p50_ns", "sim_latency_p99_ns",
                 "sim_drop_ratio"):
        single(name, first["sim"][name])
    if workload in PAPER_UTILIZATION_PCT:
        single("paper_gap_pp",
               abs(first["sim"]["sim_utilization"] * 100.0
                   - PAPER_UTILIZATION_PCT[workload]))
    single("failed_rep_ratio", len(failures) / len(recs), len(recs))

    layers = out["layers"]

    def layer(name, value):
        layers[name] = {"value": value, "unit": layer_unit(name)}

    # Counts are deterministic too.
    for name, value in first["counts"].items():
        layer(name, value)

    traced = [r for r in ok if r["kind"] == "traced"]
    if traced:
        t = traced[0]
        for name in LAYER_TIMES:
            layer(name, t["host"][name])
        dispatches = t["counts"]["sim.events"] + t["counts"]["sim.fused_hops"]
        layer("sim.ns_per_event",
              t["host"]["core.run_self_s"] * 1e9 / dispatches)
        untraced_run = statistics.median(r["host"]["run_s"] for r in timed)
        layer("bench.tracing_overhead_pct",
              (t["host"]["run_s"] / untraced_run - 1.0) * 100.0)
    return out


# ---- Building and running ------------------------------------------------

def build():
    """Configures (once) and builds e2e_bench; returns the binary."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise InputError(f"{ROOT} is not a HyperSIO source tree "
                         "(CMakeLists.txt and src/ are missing)")
    cache = BUILD_DIR / "CMakeCache.txt"
    pinned = cache.is_file() and \
        "CMAKE_BUILD_TYPE:STRING=RelWithDebInfo" in cache.read_text()
    steps = []
    if not pinned:
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "e2e_bench", "-j", str(BUILD_JOBS)])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise InputError(f"build step failed: {' '.join(cmd)}")
    return BUILD_DIR / "e2e_bench"


def run_rep(binary, workload, seed, quick, kind, rep, trace_dir):
    """Runs one rep in its own process; returns its record."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--rep", str(rep)]
    if quick:
        cmd.append("--quick")
    trace_file = None
    if kind == "traced":
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_file = trace_dir / f"{workload}-seed{seed}-rep{rep}.json"
        cmd += ["--trace-out", str(trace_file)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed and reaped the rep.
        proc = subprocess.CompletedProcess(
            cmd, HUNG_EXIT, "", f"rep killed after {REP_TIMEOUT_S} s")
    base = {"workload": workload, "kind": kind, "rep": rep, "seed": seed,
            "quick": quick, "exit": proc.returncode}
    lines = proc.stdout.strip().splitlines()
    try:
        rec = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        rec = None
    if not isinstance(rec, dict) or validate_record({**rec, **base}):
        base["error"] = proc.stderr.strip()[-2000:]
        log(f"  {workload} {kind} rep {rep}: exit {proc.returncode}, "
            f"no result: {base['error']}")
        return base
    rec.update(base)
    if trace_file:
        rec["trace_file"] = str(trace_file)
    if proc.returncode != 0:
        log(f"  {workload} {kind} rep {rep}: failed checks "
            f"{rec['checks_failed']}")
    return rec


def run_set(binary, workloads, args, trace_dir):
    """Traced reps (with --trace), then round-robin timed reps.

    Without --seconds a set runs TIMED_REPS rounds (one with --quick).
    With --seconds the whole set is time-boxed: the traced reps run
    first, then timed rounds fill what is left of the budget, never
    fewer than MIN_TIMED_REPS so the median has something to stand on.
    """
    start = time.monotonic()
    records = []
    rep_ids = collections.Counter()

    def hung():
        return bool(records) and records[-1]["exit"] == HUNG_EXIT

    def one(w, kind):
        if not hung():
            records.append(run_rep(binary, w, args.seed, args.quick, kind,
                                   rep_ids[w], trace_dir))
            rep_ids[w] += 1

    if args.trace:
        for w in workloads:
            one(w, "traced")
    rounds = 0
    timed_start = time.monotonic()
    while not hung():
        for w in workloads:
            one(w, "timed")
        rounds += 1
        if not args.seconds:
            if rounds == (1 if args.quick else TIMED_REPS):
                break
            continue
        per_round = (time.monotonic() - timed_start) / rounds
        if rounds >= MIN_TIMED_REPS and \
                time.monotonic() - start + per_round > args.seconds:
            break
    return records


# ---- Reporting -----------------------------------------------------------

def fmt(value):
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return f"{value:.0f}" if isinstance(value, float) else str(value)


def print_summary(summary):
    for w, s in summary.items():
        print(f"== {w}  (seed {s['seed']}{', quick' if s['quick'] else ''}"
              f"; {s['attempted']} reps, {s['failed']} failed; "
              f"digest {s['digest']})")
        for f in s["failures"]:
            print(f"   FAILED {f['kind']} rep {f['rep']}: "
                  f"{', '.join(f['reasons'])}")
        for name, m in s["e2e"].items():
            extra = ""
            if "q1" in m:
                iqr = (m["q3"] - m["q1"]) / m["value"]
                extra = f"  (median of n={m['n']}; q1 {fmt(m['q1'])}, " \
                        f"q3 {fmt(m['q3'])}, IQR {iqr:.1%} of median)"
            elif m["n"] > 1:
                extra = f"  (n={m['n']})"
            print(f"   {name:<34} {fmt(m['value']):>14} {m['unit']}{extra}")
        for name, m in s["layers"].items():
            print(f"   {name:<34} {fmt(m['value']):>14} {m['unit']}")


def load_benchmark():
    try:
        bench = json.loads(BENCHMARK_JSON.read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise InputError(f"{BENCHMARK_JSON}: unreadable: {err}") from err
    return bench


def final_line(summary, trace, bench):
    names = [m["name"] for m in
             (bench["per_layer"] if trace else bench["end_to_end"])]
    single = len(summary) == 1
    metrics = {}
    for w, s in summary.items():
        values = {**s["e2e"], **s["layers"]}
        for name in names:
            if name in values:
                key = name if single else f"{w}.{name}"
                metrics[key] = {"value": values[name]["value"],
                                "unit": values[name]["unit"]}
    attempted = sum(s["attempted"] for s in summary.values())
    failed = sum(s["failed"] for s in summary.values())
    complete = len(metrics) == len(names) * len(summary)
    return {"correct": failed == 0 and complete, "attempted": attempted,
            "failed": failed, "metrics": metrics}


# ---- Comparing two sets --------------------------------------------------

HOST_METRICS = [n for n, (_, _, kind) in E2E_METRICS.items()
                if kind == "host"]


def compare(base, new, bounds):
    """Rows and violations of `new` against `base` (two summaries).

    A row is (workload, {host metric: relative change}, violations of
    that workload). Host metrics may worsen by their bound; simulated
    metrics and layer counts must match exactly; host layer times are
    not compared.
    """
    if set(base) != set(new):
        raise InputError("the sets cover different workloads: "
                         f"{sorted(base)} vs {sorted(new)}")
    rows = []
    for w in base:
        a, b = base[w], new[w]
        if (a["seed"], a["quick"]) != (b["seed"], b["quick"]):
            raise InputError(f"{w}: sets measured different inputs "
                             "(seed or --quick differ)")
        changes, violations = {}, []
        for name, (_, better, kind) in E2E_METRICS.items():
            if name not in a["e2e"] and name not in b["e2e"]:
                continue
            if name not in a["e2e"] or name not in b["e2e"]:
                violations.append(f"{name} missing from one set")
                continue
            va, vb = a["e2e"][name]["value"], b["e2e"][name]["value"]
            if kind == "host":
                change = (vb - va) / va if va else math.inf
                changes[name] = change
                worse = -change if better == "higher" else change
                if worse > bounds[name]:
                    violations.append(f"{name} worse by {worse:.1%} "
                                      f"(bound {bounds[name]:.0%})")
            elif va != vb:
                violations.append(f"{name} {fmt(va)} -> {fmt(vb)} "
                                  "(must match exactly)")
        if b["failed"]:
            violations.append(f"{b['failed']} of {b['attempted']} reps "
                              "failed")
        for name in sorted(set(a["layers"]) | set(b["layers"])):
            if layer_unit(name) == "s" or name in DERIVED_UNITS:
                continue
            la, lb = a["layers"].get(name), b["layers"].get(name)
            if la is None or lb is None or la["value"] != lb["value"]:
                violations.append(
                    f"layer {name} {la and fmt(la['value'])} -> "
                    f"{lb and fmt(lb['value'])} (must match exactly)")
        rows.append((w, changes, violations))
    return rows


def host_bounds(bench):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    missing = [n for n in HOST_METRICS if n not in bounds]
    if missing:
        raise InputError(f"{BENCHMARK_JSON}: no bound for {missing}")
    return bounds


def run_compare(path_a, path_b):
    bounds = host_bounds(load_benchmark())
    rows = compare(summarize(read_records(path_a)),
                   summarize(read_records(path_b)), bounds)
    print(f"{'workload':<18}" +
          "".join(f"{n + ' (' + format(bounds[n], '.0%') + ')':>26}"
                  for n in HOST_METRICS) + "  status")
    for w, changes, violations in rows:
        print(f"{w:<18}" +
              "".join(f"{changes[n]:>+26.1%}" if n in changes
                      else f"{'-':>26}" for n in HOST_METRICS) +
              f"  {'FAIL' if violations else 'ok'}")
    total = 0
    for w, _, violations in rows:
        for v in violations:
            print(f"VIOLATION {w}: {v}")
        total += len(violations)
    print(f"compare: {'FAIL' if total else 'ok'} ({total} violation(s))")
    return 1 if total else 0


# ---- Entry point ---------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS,
                   help="run only this workload")
    p.add_argument("--seed", type=int, default=42,
                   help="workload seed (default 42)")
    p.add_argument("--seconds", type=float, default=0.0,
                   help="time-box the whole set instead of running "
                   f"{TIMED_REPS} timed reps per workload")
    p.add_argument("--trace", type=int, nargs="?", const=1,
                   choices=[0, 1],
                   help="add a traced rep; print per-layer metrics "
                   "(default 0, or 1 with --quick)")
    p.add_argument("--quick", action="store_true",
                   help="smoke test: shrunk inputs, 1 rep + traced rep")
    p.add_argument("--out", help="write the rep records (JSONL) here")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="compare two --out result sets")
    args = p.parse_args(argv)
    if args.seconds < 0 or args.seed < 0:
        p.error("--seconds and --seed must be >= 0")
    if args.quick:
        args.seconds = 0.0
    if args.trace is None:
        args.trace = 1 if args.quick else 0
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        if args.compare:
            return run_compare(*args.compare)
        bench = load_benchmark()
        binary = build()
        workloads = [args.workload] if args.workload else WORKLOADS
        records = run_set(binary, workloads, args, BUILD_DIR / "traces")
        if args.out:
            with open(args.out, "w") as f:
                for rec in records:
                    f.write(json.dumps(rec) + "\n")
        summary = summarize(records)
        print_summary(summary)
        line = final_line(summary, args.trace, bench)
        print(json.dumps(line))
        return 0 if line["correct"] else 1
    except InputError as err:
        log(f"run.py: {err}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
