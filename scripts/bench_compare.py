#!/usr/bin/env python3
"""Diff two HyperSIO bench JSON reports and gate on drift.

Usage:
    scripts/bench_compare.py BASELINE.json CURRENT.json
        [--counts-only] [--ignore-missing] [--only-label LABEL]

Both files come from a bench binary's `--json <file>` flag
(schema "hypersio-bench-1") or from `hypersio_sim --json`
(schema "hypersio-sim-1"). Points are matched by their
(label, benchmark, tenants, interleave) key. Every field of every
matched point's results (achieved_gbps, packets_dropped,
elapsed_ticks, walks, ...), every leaf of its stat tree, and every
entry of the report's "scalars" block must be identical; a field,
leaf or scalar present in only one report fails. Missing or extra
points, and config mismatches in scale/seed/max_tenants, fail the
comparison outright — the two runs measured different experiments.

--counts-only is for a report that mixes deterministic counts
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

Exit status: 0 when everything is identical, 1 on drift or a shape
mismatch, 2 on usage/file errors. The simulator is
deterministic, so comparing a freshly generated report against a
committed baseline (see scripts/check_repo.sh) must show zero drift;
any difference is a behavior change that needs the baseline updated
deliberately.
"""

import argparse
import json
import sys

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
    parser.add_argument("--counts-only", action="store_true",
                        help="skip wall-clock rate scalars "
                             "(*per_sec, *meps, *speedup)")
    parser.add_argument("--ignore-missing", action="store_true",
                        help="skip scalars present in only one report "
                             "instead of failing")
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
        base_stats = stat_leaves(base_points[key].get("stats", {}))
        cur_stats = stat_leaves(cur_points[key].get("stats", {}))
        checked += len(set(base_r) | set(cur_r))
        checked += len(set(base_stats) | set(cur_stats))
        failures += [f"{key}: {line}" for line in
                     exact_mismatches("result", base_r, cur_r)]
        failures += [f"{key}: {line}" for line in
                     exact_mismatches("stat", base_stats, cur_stats)]

    if args.counts_only:
        base_scalars, cur_scalars = (
            {name: value for name, value in scalars.items()
             if not name.endswith(WALL_CLOCK_SUFFIXES)}
            for scalars in (base_scalars, cur_scalars))
    if args.ignore_missing:
        shared = set(base_scalars) & set(cur_scalars)
        base_scalars, cur_scalars = (
            {name: scalars[name] for name in shared}
            for scalars in (base_scalars, cur_scalars))
    checked += len(set(base_scalars) | set(cur_scalars))
    failures += exact_mismatches("scalar", base_scalars, cur_scalars)

    if checked == 0 and args.ignore_missing:
        failures.append("the reports share no value to compare")

    if failures:
        print(f"bench_compare: FAIL — {len(failures)} deviation(s) "
              f"across {checked} checked value(s):")
        for failure in failures:
            print(f"  {failure}")
        sys.exit(1)
    mode = "counts only" if args.counts_only else "exact"
    print(f"bench_compare: OK — {checked} value(s) identical "
          f"({mode})")
    sys.exit(0)


if __name__ == "__main__":
    main()
