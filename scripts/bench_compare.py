#!/usr/bin/env python3
"""Diff two HyperSIO bench JSON reports and gate on drift.

Usage:
    scripts/bench_compare.py BASELINE.json CURRENT.json
        [--tol-throughput FRAC] [--tol-rate ABS] [--exact]
        [--counts-only] [--ignore-missing] [--verbose]
        [--only-label LABEL]

Both files come from a bench binary's `--json <file>` flag
(schema "hypersio-bench-1") or from `hypersio_sim --json`
(schema "hypersio-sim-1"). Points are matched by their
(label, benchmark, tenants, interleave) key; for every matched point
the gate compares

  * achieved_gbps (throughput) by relative drift, tolerance
    --tol-throughput (default 0.02, i.e. 2%), and
  * devtlb/pb/iotlb hit rates by absolute drift in rate points,
    tolerance --tol-rate (default 0.02)

plus every entry of the report's "scalars" block (relative drift,
throughput tolerance). Missing or extra points, and config
mismatches in scale/seed/max_tenants, fail the comparison outright —
the two runs measured different experiments.

--exact requires equality instead: every field of every point's
results (packets_dropped, elapsed_ticks, walks, ... — not just the
gated four), every leaf of every point's stat tree, and every scalar
must be identical, and a field or leaf present in only one report
fails. The tolerances are then ignored. Use it for reports whose
values are all deterministic simulator outputs.

--counts-only is --exact for a report that mixes deterministic counts
with wall-clock rates (bench/layer_bench): scalars named like a rate
(ending in per_sec, meps or speedup) are skipped, everything else
must be identical. --ignore-missing skips scalars present in only one
report instead of failing, so a pinned older report can be held to
the counts it shares with a newer one; at least one value must still
be compared.

--only-label LABEL restricts the comparison to one config key of a
multi-config report: only points whose label matches (and scalars
whose name embeds the label, e.g. "area_kbits_LABEL") are checked.
Use it to localize a mechanism-tournament drift to one competitor
without the other configs' deviations drowning the diff. A label
that matches nothing in either report is a usage error (exit 2).

Exit status: 0 when everything is within tolerance, 1 on drift or a
shape mismatch, 2 on usage/file errors. The simulator is
deterministic, so comparing a freshly generated report against a
committed baseline (see scripts/check_repo.sh) must show zero drift;
any difference is a behavior change that needs the baseline updated
deliberately.
"""

import argparse
import json
import sys

THROUGHPUT_KEY = "achieved_gbps"
RATE_KEYS = ("devtlb_hit_rate", "pb_hit_rate", "iotlb_hit_rate")
# Config fields that define the experiment; "jobs" and wall clock are
# intentionally excluded (they change the machine, not the model).
CONFIG_KEYS = ("scale", "seed", "max_tenants")
# Scalar-name endings of wall-clock measurements (see --counts-only).
WALL_CLOCK_SUFFIXES = ("per_sec", "meps", "speedup")


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"bench_compare: cannot read {path}: {exc}",
              file=sys.stderr)
        sys.exit(2)


def point_key(point):
    return (point.get("label"), point.get("benchmark"),
            point.get("tenants"), point.get("interleave"))


def rel_drift(base, cur):
    if base == cur:
        return 0.0
    if base == 0:
        return float("inf")
    return abs(cur - base) / abs(base)


def normalize(doc):
    """Returns (config, {key: point}, {name: scalar}).

    A point is a dict with "results" and, when the report carries
    one, "stats" (the stat tree).
    """
    schema = doc.get("schema", "")
    if schema == "hypersio-sim-1":
        key = ("sim", doc.get("config", {}).get("benchmark"),
               doc.get("config", {}).get("tenants"),
               doc.get("config", {}).get("interleave"))
        return doc.get("config", {}), {key: doc}, {}
    if schema != "hypersio-bench-1":
        print(f"bench_compare: unknown schema '{schema}'",
              file=sys.stderr)
        sys.exit(2)
    points = {}
    for point in doc.get("points", []):
        points[point_key(point)] = point
    return doc.get("config", {}), points, doc.get("scalars", {})


def stat_leaves(group, prefix=""):
    """Flattens a stat tree to {"group.path.stat:field": value}."""
    path = prefix + group.get("name", "")
    leaves = {}
    for stat in group.get("stats", []):
        for field, value in stat.items():
            if field != "name":
                leaves[f"{path}.{stat.get('name')}:{field}"] = value
    for child in group.get("children", []):
        leaves.update(stat_leaves(child, path + "."))
    return leaves


def exact_mismatches(what, base, cur):
    """Lines naming every key of two flat dicts that is not equal."""
    lines = []
    for name in sorted(set(base) | set(cur)):
        if name not in base or name not in cur:
            lines.append(f"{what} '{name}' present in only one report")
        elif base[name] != cur[name]:
            lines.append(f"{what} '{name}': {base[name]!r} -> "
                         f"{cur[name]!r}")
    return lines


def scalar_matches_label(name, label):
    """True when a scalar is named for one config label.

    Bench scalars embed the label with '_' separators (e.g.
    "area_kbits_part"); requiring the separator keeps a label that
    is a prefix of another ("part" vs "part+sub") from matching its
    longer sibling's scalars.
    """
    return (name == label or name.startswith(label + "_")
            or name.endswith("_" + label)
            or ("_" + label + "_") in name)


def filter_label(points, scalars, label):
    """Restricts a normalized report to one config label."""
    points = {key: results for key, results in points.items()
              if key[0] == label}
    scalars = {name: value for name, value in scalars.items()
               if scalar_matches_label(name, label)}
    return points, scalars


def main():
    parser = argparse.ArgumentParser(
        description="gate on drift between two bench JSON reports")
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--tol-throughput", type=float, default=0.02,
                        help="relative throughput tolerance "
                             "(default 0.02 = 2%%)")
    parser.add_argument("--tol-rate", type=float, default=0.02,
                        help="absolute hit-rate tolerance in rate "
                             "points (default 0.02)")
    parser.add_argument("--exact", action="store_true",
                        help="require every result field, stat-tree "
                             "leaf and scalar to be identical "
                             "(tolerances ignored)")
    parser.add_argument("--counts-only", action="store_true",
                        help="like --exact, but skip wall-clock rate "
                             "scalars (*per_sec, *meps, *speedup)")
    parser.add_argument("--ignore-missing", action="store_true",
                        help="skip scalars present in only one report "
                             "instead of failing")
    parser.add_argument("--verbose", action="store_true",
                        help="print every comparison, not just "
                             "failures")
    parser.add_argument("--only-label", metavar="LABEL",
                        help="compare only points with this config "
                             "label (and scalars named for it)")
    args = parser.parse_args()

    base_cfg, base_points, base_scalars = normalize(
        load(args.baseline))
    cur_cfg, cur_points, cur_scalars = normalize(load(args.current))

    if args.only_label is not None:
        base_points, base_scalars = filter_label(
            base_points, base_scalars, args.only_label)
        cur_points, cur_scalars = filter_label(
            cur_points, cur_scalars, args.only_label)
        if not (base_points or cur_points or base_scalars
                or cur_scalars):
            print(f"bench_compare: --only-label "
                  f"{args.only_label!r} matches nothing in either "
                  f"report", file=sys.stderr)
            sys.exit(2)

    exact = args.exact or args.counts_only
    if exact:
        args.tol_throughput = 0.0
        args.tol_rate = 0.0

    failures = []
    checked = 0

    for key in CONFIG_KEYS:
        if base_cfg.get(key) != cur_cfg.get(key):
            failures.append(
                f"config mismatch: {key} "
                f"{base_cfg.get(key)!r} vs {cur_cfg.get(key)!r}")

    missing = sorted(set(base_points) - set(cur_points))
    extra = sorted(set(cur_points) - set(base_points))
    for key in missing:
        failures.append(f"point missing from current: {key}")
    for key in extra:
        failures.append(f"unexpected point in current: {key}")

    for key in sorted(set(base_points) & set(cur_points)):
        base_r = base_points[key].get("results", {})
        cur_r = cur_points[key].get("results", {})
        if exact:
            base_stats = stat_leaves(base_points[key].get("stats", {}))
            cur_stats = stat_leaves(cur_points[key].get("stats", {}))
            checked += len(set(base_r) | set(cur_r))
            checked += len(set(base_stats) | set(cur_stats))
            failures += [f"{key}: {line}" for line in
                         exact_mismatches("result", base_r, cur_r)]
            failures += [f"{key}: {line}" for line in
                         exact_mismatches("stat", base_stats,
                                          cur_stats)]
            continue
        if THROUGHPUT_KEY in base_r:
            drift = rel_drift(base_r[THROUGHPUT_KEY],
                              cur_r.get(THROUGHPUT_KEY, 0.0))
            checked += 1
            line = (f"{key}: {THROUGHPUT_KEY} "
                    f"{base_r[THROUGHPUT_KEY]:.4f} -> "
                    f"{cur_r.get(THROUGHPUT_KEY, 0.0):.4f} "
                    f"({drift * 100.0:.2f}% drift)")
            if drift > args.tol_throughput:
                failures.append(line)
            elif args.verbose:
                print(f"  ok {line}")
        for rate in RATE_KEYS:
            if rate not in base_r:
                continue
            delta = abs(base_r[rate] - cur_r.get(rate, 0.0))
            checked += 1
            line = (f"{key}: {rate} {base_r[rate]:.4f} -> "
                    f"{cur_r.get(rate, 0.0):.4f} "
                    f"(|delta| {delta:.4f})")
            if delta > args.tol_rate:
                failures.append(line)
            elif args.verbose:
                print(f"  ok {line}")

    for name in sorted(set(base_scalars) | set(cur_scalars)):
        if args.counts_only and name.endswith(WALL_CLOCK_SUFFIXES):
            continue
        if name not in base_scalars or name not in cur_scalars:
            if not args.ignore_missing:
                failures.append(f"scalar '{name}' present in only one "
                                f"report")
            continue
        drift = rel_drift(base_scalars[name], cur_scalars[name])
        checked += 1
        line = (f"scalar {name}: {base_scalars[name]:.6g} -> "
                f"{cur_scalars[name]:.6g} "
                f"({drift * 100.0:.2f}% drift)")
        if drift > args.tol_throughput:
            failures.append(line)
        elif args.verbose:
            print(f"  ok {line}")

    if checked == 0 and args.ignore_missing:
        failures.append("the reports share no value to compare")

    if failures:
        print(f"bench_compare: FAIL — {len(failures)} deviation(s) "
              f"across {checked} checked value(s):")
        for failure in failures:
            print(f"  {failure}")
        sys.exit(1)
    if exact:
        mode = "counts only" if args.counts_only else "exact"
        print(f"bench_compare: OK — {checked} value(s) identical "
              f"({mode})")
    else:
        print(f"bench_compare: OK — {checked} value(s) within "
              f"tolerance (throughput {args.tol_throughput * 100.0:.1f}%"
              f", rate {args.tol_rate:.3f})")
    sys.exit(0)


if __name__ == "__main__":
    main()
