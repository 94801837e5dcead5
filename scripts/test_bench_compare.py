#!/usr/bin/env python3
"""Unit tests for scripts/bench_compare.py.

Runs the comparator as a subprocess against synthetic
"hypersio-bench-1" reports and asserts on its exit status and
output: 0 within tolerance, 1 on drift or shape mismatch, 2 on
usage/file errors. Registered with ctest as `bench_compare_unittest`
(tests/CMakeLists.txt); also runnable directly:

    python3 -m unittest discover -s scripts -p test_bench_compare.py
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "bench_compare.py")


def make_report(**overrides):
    """A small two-point bench report; overrides patch the dict."""
    report = {
        "schema": "hypersio-bench-1",
        "config": {"scale": 0.05, "seed": 42, "max_tenants": 256,
                   "jobs": 4},
        "points": [
            {
                "label": "base", "benchmark": "iperf3",
                "tenants": 8, "interleave": "RR1",
                "results": {"achieved_gbps": 80.0,
                            "devtlb_hit_rate": 0.90,
                            "pb_hit_rate": 0.05,
                            "iotlb_hit_rate": 0.50},
            },
            {
                "label": "hypertrio", "benchmark": "iperf3",
                "tenants": 8, "interleave": "RR1",
                "results": {"achieved_gbps": 99.0,
                            "devtlb_hit_rate": 0.95,
                            "pb_hit_rate": 0.40,
                            "iotlb_hit_rate": 0.60},
            },
        ],
        "scalars": {"speedup": 1.24},
    }
    report.update(overrides)
    return report


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)

    def write(self, name, doc):
        path = os.path.join(self._dir.name, name)
        with open(path, "w") as f:
            if isinstance(doc, str):
                f.write(doc)
            else:
                json.dump(doc, f)
        return path

    def run_compare(self, baseline, current, *extra):
        return subprocess.run(
            [sys.executable, SCRIPT, baseline, current, *extra],
            capture_output=True, text=True)

    def compare(self, base_doc, cur_doc, *extra):
        return self.run_compare(self.write("base.json", base_doc),
                                self.write("cur.json", cur_doc),
                                *extra)

    # ---- exit 0: within tolerance --------------------------------

    def test_identical_reports_pass(self):
        proc = self.compare(make_report(), make_report())
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("OK", proc.stdout)

    def test_drift_within_tolerance_passes(self):
        cur = make_report()
        # 1% throughput drift and 0.01 rate drift, both under the
        # default 2%/0.02 gates.
        cur["points"][0]["results"]["achieved_gbps"] = 80.8
        cur["points"][0]["results"]["iotlb_hit_rate"] = 0.51
        self.assertEqual(self.compare(make_report(), cur).returncode,
                         0)

    def test_jobs_and_extra_config_keys_are_ignored(self):
        cur = make_report()
        cur["config"]["jobs"] = 64
        cur["config"]["hostname"] = "elsewhere"
        self.assertEqual(self.compare(make_report(), cur).returncode,
                         0)

    def test_verbose_prints_each_comparison(self):
        proc = self.compare(make_report(), make_report(),
                            "--verbose")
        self.assertEqual(proc.returncode, 0)
        self.assertIn("ok", proc.stdout)
        self.assertIn("achieved_gbps", proc.stdout)

    # ---- exit 1: drift -------------------------------------------

    def test_throughput_drift_beyond_tolerance_fails(self):
        cur = make_report()
        cur["points"][1]["results"]["achieved_gbps"] = 95.0  # -4%
        proc = self.compare(make_report(), cur)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("achieved_gbps", proc.stdout)
        self.assertIn("FAIL", proc.stdout)

    def test_rate_drift_beyond_tolerance_fails(self):
        cur = make_report()
        cur["points"][1]["results"]["pb_hit_rate"] = 0.35  # -0.05
        proc = self.compare(make_report(), cur)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("pb_hit_rate", proc.stdout)

    def test_tolerance_flags_widen_the_gate(self):
        cur = make_report()
        cur["points"][1]["results"]["achieved_gbps"] = 95.0
        cur["points"][1]["results"]["pb_hit_rate"] = 0.35
        proc = self.compare(make_report(), cur,
                            "--tol-throughput", "0.10",
                            "--tol-rate", "0.10")
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_missing_point_fails(self):
        cur = make_report()
        del cur["points"][1]
        proc = self.compare(make_report(), cur)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("missing from current", proc.stdout)

    def test_extra_point_fails(self):
        cur = make_report()
        extra = copy.deepcopy(cur["points"][0])
        extra["tenants"] = 16
        cur["points"].append(extra)
        proc = self.compare(make_report(), cur)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("unexpected point", proc.stdout)

    def test_config_mismatch_fails(self):
        for key, value in (("scale", 1.0), ("seed", 7),
                           ("max_tenants", 1024)):
            cur = make_report()
            cur["config"][key] = value
            proc = self.compare(make_report(), cur)
            self.assertEqual(proc.returncode, 1, key)
            self.assertIn(f"config mismatch: {key}", proc.stdout)

    def test_scalar_drift_and_scalar_missing_fail(self):
        drifted = make_report()
        drifted["scalars"]["speedup"] = 1.30
        self.assertEqual(
            self.compare(make_report(), drifted).returncode, 1)

        dropped = make_report()
        dropped["scalars"] = {}
        proc = self.compare(make_report(), dropped)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("present in only one", proc.stdout)

    def test_zero_baseline_with_nonzero_current_fails(self):
        base = make_report()
        base["points"][0]["results"]["achieved_gbps"] = 0.0
        cur = make_report()
        cur["points"][0]["results"]["achieved_gbps"] = 0.1
        self.assertEqual(self.compare(base, cur).returncode, 1)

    # ---- --exact: every result field, stat leaf and scalar --------

    def test_one_drop_difference_fails_only_with_exact(self):
        base = make_report()
        base["points"][0]["results"]["packets_dropped"] = 41
        cur = copy.deepcopy(base)
        cur["points"][0]["results"]["packets_dropped"] = 42
        self.assertEqual(self.compare(base, cur).returncode, 0)
        proc = self.compare(base, cur, "--exact")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("packets_dropped", proc.stdout)

    def test_exact_checks_every_stat_leaf(self):
        tree = {"name": "system", "stats": [], "children": [
            {"name": "device", "children": [], "stats": [
                {"name": "drops", "kind": "counter", "value": 7}]}]}
        base = make_report()
        base["points"][0]["stats"] = tree
        cur = copy.deepcopy(base)
        self.assertEqual(
            self.compare(base, cur, "--exact").returncode, 0)
        cur["points"][0]["stats"]["children"][0]["stats"][0][
            "value"] = 8
        self.assertEqual(self.compare(base, cur).returncode, 0)
        proc = self.compare(base, cur, "--exact")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("system.device.drops:value", proc.stdout)

    def test_exact_fails_on_a_leaf_present_in_one_report(self):
        base = make_report()
        base["points"][0]["stats"] = {"name": "system", "stats": [],
                                      "children": []}
        cur = copy.deepcopy(base)
        cur["points"][0]["stats"]["stats"].append(
            {"name": "new_counter", "value": 0})
        proc = self.compare(base, cur, "--exact")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("present in only one", proc.stdout)

    def test_exact_ignores_tolerances(self):
        cur = make_report()
        cur["points"][0]["results"]["achieved_gbps"] = 80.1
        cur["scalars"]["speedup"] = 1.2401
        self.assertEqual(self.compare(make_report(), cur).returncode,
                         0)
        proc = self.compare(make_report(), cur, "--exact",
                            "--tol-throughput", "0.5")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("achieved_gbps", proc.stdout)
        self.assertIn("speedup", proc.stdout)

    # ---- --counts-only: exact counts, wall-clock rates skipped ----

    def counts_report(self):
        return make_report(points=[], scalars={
            "hit_storm_walks": 24, "hit_storm_packets_per_sec": 6.6e6,
            "schedule_fire_meps": 12.7, "probe_speedup": 1.6})

    def test_counts_only_skips_rates_but_not_counts(self):
        base = self.counts_report()
        cur = copy.deepcopy(base)
        cur["scalars"]["hit_storm_packets_per_sec"] = 1.0
        cur["scalars"]["schedule_fire_meps"] = 99.0
        cur["scalars"]["probe_speedup"] = 0.5
        self.assertEqual(
            self.compare(base, cur, "--counts-only").returncode, 0)
        cur["scalars"]["hit_storm_walks"] = 25
        proc = self.compare(base, cur, "--counts-only")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("hit_storm_walks", proc.stdout)

    def test_counts_only_still_checks_shape(self):
        base = self.counts_report()
        cur = copy.deepcopy(base)
        cur["scalars"]["hit_storm_translations"] = 72
        proc = self.compare(base, cur, "--counts-only")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("present in only one", proc.stdout)
        self.assertEqual(self.compare(base, cur, "--counts-only",
                                      "--ignore-missing").returncode, 0)

    def test_ignore_missing_needs_a_shared_value(self):
        base = make_report(points=[], scalars={"old_walks": 1})
        cur = make_report(points=[], scalars={"new_walks": 1})
        proc = self.compare(base, cur, "--counts-only",
                            "--ignore-missing")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("share no value", proc.stdout)

    # ---- --only-label: per-config-key comparison -----------------

    def test_only_label_ignores_other_configs_drift(self):
        # "hypertrio" drifted badly, but a comparison scoped to
        # "base" must not see it. The shared scalar ("speedup") is
        # not named for the label, so it is excluded too.
        cur = make_report()
        cur["points"][1]["results"]["achieved_gbps"] = 10.0
        cur["scalars"]["speedup"] = 9.99
        proc = self.compare(make_report(), cur,
                            "--only-label", "base")
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_only_label_still_catches_that_configs_drift(self):
        cur = make_report()
        cur["points"][0]["results"]["achieved_gbps"] = 10.0
        proc = self.compare(make_report(), cur,
                            "--only-label", "base")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("achieved_gbps", proc.stdout)

    def test_only_label_scopes_labeled_scalars(self):
        # "area_kbits_<label>" scalars follow their label; a label
        # that is a prefix of another ("part" vs "part+sub") must
        # not pick up the longer sibling's scalar.
        base = make_report(scalars={"area_kbits_part": 129.8,
                                    "area_kbits_part+sub": 467.3})
        drifted = make_report(scalars={"area_kbits_part": 129.8,
                                       "area_kbits_part+sub": 1.0})
        base["points"][0]["label"] = "part"
        drifted["points"][0]["label"] = "part"
        del base["points"][1], drifted["points"][1]
        proc = self.compare(base, drifted, "--only-label", "part")
        self.assertEqual(proc.returncode, 0, proc.stdout)
        proc = self.compare(base, drifted,
                            "--only-label", "part+sub")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("area_kbits_part+sub", proc.stdout)

    def test_only_label_matching_nothing_is_a_usage_error(self):
        proc = self.compare(make_report(), make_report(),
                            "--only-label", "no-such-config")
        self.assertEqual(proc.returncode, 2)
        self.assertIn("matches nothing", proc.stderr)

    # ---- exit 2: usage/file errors -------------------------------

    def test_unknown_schema_is_a_usage_error(self):
        bad = make_report(schema="hypersio-bench-999")
        proc = self.compare(make_report(), bad)
        self.assertEqual(proc.returncode, 2)
        self.assertIn("unknown schema", proc.stderr)

    def test_unreadable_file_is_a_usage_error(self):
        missing = os.path.join(self._dir.name, "nope.json")
        proc = self.run_compare(self.write("base.json",
                                           make_report()), missing)
        self.assertEqual(proc.returncode, 2)
        self.assertIn("cannot read", proc.stderr)

    def test_malformed_json_is_a_usage_error(self):
        proc = self.compare(make_report(), "{not json")
        self.assertEqual(proc.returncode, 2)
        self.assertIn("cannot read", proc.stderr)


if __name__ == "__main__":
    unittest.main()
