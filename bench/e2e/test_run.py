"""Tests of the end-to-end benchmark runner.

Run from bench/e2e:  python3 -m unittest
The Chrome-trace test builds e2e_bench (incrementally) and runs one
quick rep; the rest work on synthetic rep records.
"""

import copy
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def record(workload="hit_path", kind="timed", rep=0, digest="aa",
           run_s=1.0, packets=1000, **overrides):
    """A well-formed, passing rep record of `packets` in `run_s`."""
    rec = {
        "workload": workload, "kind": kind, "rep": rep, "seed": 7,
        "quick": False, "exit": 0, "digest": digest,
        "checks_failed": [],
        "host": {"setup_s": 0.1, "run_s": run_s, "peak_rss_mib": 50.0},
        "sim": {"packets": packets, "sim_gbps": 199.5,
                "sim_utilization": 0.9975, "sim_latency_p50_ns": 906,
                "sim_latency_p99_ns": 1990.5, "sim_drop_ratio": 0.001},
        "counts": {"trace.packets": packets, "oracle.violations": 0,
                   "sim.events": 5000, "sim.fused_hops": 700},
    }
    rec.update(overrides)
    return rec


def timed_set(rates, workload="hit_path", **overrides):
    return [record(workload=workload, rep=i, run_s=1000 / rate,
                   **overrides)
            for i, rate in enumerate(rates)]


class QuartileTest(unittest.TestCase):
    def test_odd_count(self):
        self.assertEqual(run.quartiles([7, 1, 4, 2, 6, 3, 5]),
                         (2, 4, 6))

    def test_even_count_interpolates(self):
        self.assertEqual(run.quartiles([1, 2, 3, 4]), (1.25, 2.5, 3.75))

    def test_single_value(self):
        self.assertEqual(run.quartiles([3.5]), (3.5, 3.5, 3.5))

    def test_host_rate_is_median_of_reps(self):
        s = run.summarize(timed_set([100, 300, 200, 500, 400]))
        rate = s["hit_path"]["e2e"]["host_pkts_per_s"]
        self.assertAlmostEqual(rate["value"], 300)
        self.assertAlmostEqual(rate["q1"], 150)
        self.assertAlmostEqual(rate["q3"], 450)
        self.assertEqual(rate["n"], 5)

    def test_oracle_cost_is_difference_of_median_rates(self):
        recs = timed_set([1e6, 2e6, 4e6], packets=1000)
        recs += timed_set([5e5, 1e6, 3e6], workload="hit_path_checked",
                          packets=1000)
        s = run.summarize(recs)
        cost = s["hit_path_checked"]["layers"]["oracle.host_ns_per_pkt"]
        self.assertAlmostEqual(cost["value"], 1000 - 500)
        self.assertEqual(cost["unit"], "ns/pkt")
        self.assertNotIn("oracle.host_ns_per_pkt", s["hit_path"]["layers"])
        alone = run.summarize(recs[3:])["hit_path_checked"]["layers"]
        self.assertNotIn("oracle.host_ns_per_pkt", alone)

    def test_setup_is_median_of_reps(self):
        recs = timed_set([100] * 4)
        for r, setup in zip(recs, [0.4, 0.1, 0.3, 0.2]):
            r["host"]["setup_s"] = setup
        setup = run.summarize(recs)["hit_path"]["e2e"]["setup_s"]
        self.assertAlmostEqual(setup["value"], 0.25)


def violations(base_records, new_records, bounds):
    rows = run.compare(run.summarize(base_records),
                       run.summarize(new_records), bounds)
    return [v for _, _, vs in rows for v in vs]


class BenchmarkJsonTest(unittest.TestCase):
    def test_every_listed_metric_is_reported_in_its_unit(self):
        bench = run.load_benchmark()
        for m in bench["end_to_end"]:
            self.assertEqual(run.E2E_METRICS[m["name"]][0], m["unit"],
                             m["name"])
        for m in bench["per_layer"]:
            unit = (run.E2E_METRICS[m["name"]][0]
                    if m["name"] in run.E2E_METRICS
                    else run.layer_unit(m["name"]))
            self.assertEqual(unit, m["unit"], m["name"])
        self.assertEqual(set(run.host_bounds(bench)) & set(run.HOST_METRICS),
                         set(run.HOST_METRICS))


class BoundsTest(unittest.TestCase):
    BOUNDS = {"host_pkts_per_s": 0.10, "setup_s": 0.20,
              "peak_rss_mib": 0.10}

    def compare(self, new_rate=100.0, new_setup=0.1, new_rss=50.0):
        new = timed_set([new_rate] * 3)
        for r in new:
            r["host"]["setup_s"] = new_setup
            r["host"]["peak_rss_mib"] = new_rss
        return violations(timed_set([100.0] * 3), new, self.BOUNDS)

    def test_identical_sets_pass(self):
        self.assertEqual(self.compare(), [])

    def test_higher_is_better_metric(self):
        self.assertEqual(self.compare(new_rate=91.0), [])
        self.assertEqual(self.compare(new_rate=150.0), [])
        [violation] = self.compare(new_rate=85.0)
        self.assertIn("host_pkts_per_s worse by 15.0%", violation)

    def test_lower_is_better_metric(self):
        self.assertEqual(self.compare(new_setup=0.119), [])
        self.assertEqual(self.compare(new_setup=0.05), [])
        [violation] = self.compare(new_setup=0.13)
        self.assertIn("setup_s worse by 30.0%", violation)
        [violation] = self.compare(new_rss=60.0)
        self.assertIn("peak_rss_mib", violation)

    def test_simulated_metrics_and_counts_must_match(self):
        new = timed_set([100.0] * 3)
        for r in new:
            r["sim"]["sim_gbps"] = 199.4
            r["counts"]["sim.events"] = 5001
        found = violations(timed_set([100.0] * 3), new, self.BOUNDS)
        self.assertTrue(any("sim_gbps" in v for v in found))
        self.assertTrue(any("sim.events" in v for v in found))


class FailureCountingTest(unittest.TestCase):
    def test_crash_digest_and_oracle_each_count_once(self):
        recs = timed_set([100.0] * 5)
        recs.append({"workload": "hit_path", "kind": "timed", "rep": 5,
                     "seed": 7, "quick": False, "exit": -6})
        recs.append(record(rep=6, digest="bb"))
        violated = record(rep=7, exit=1, checks_failed=["oracle"])
        violated["counts"]["oracle.violations"] = 2
        recs.append(violated)
        both = record(rep=8, digest="cc", exit=1,
                      checks_failed=["oracle"])
        both["counts"]["oracle.violations"] = 1
        recs.append(both)
        s = run.summarize(recs)["hit_path"]
        self.assertEqual((s["attempted"], s["failed"]), (9, 4))
        self.assertAlmostEqual(s["e2e"]["failed_rep_ratio"]["value"], 4 / 9)
        reasons = {f["rep"]: f["reasons"] for f in s["failures"]}
        self.assertIn("without a result", reasons[5][0])
        self.assertEqual(reasons[6], ["digest_mismatch"])
        self.assertEqual(reasons[7], ["oracle"])
        self.assertEqual(reasons[8], ["oracle", "digest_mismatch"])
        line = run.final_line(run.summarize(recs), 0,
                              {"end_to_end": [{"name": "host_pkts_per_s"}]})
        self.assertFalse(line["correct"])
        self.assertEqual((line["attempted"], line["failed"]), (9, 4))

    def test_checked_digest_must_equal_unchecked(self):
        recs = timed_set([100.0] * 3)
        recs += timed_set([80.0] * 3, workload="hit_path_checked")
        self.assertEqual(run.summarize(recs)["hit_path_checked"]["failed"],
                         0)
        recs += timed_set([80.0] * 3, workload="hit_path_checked",
                          digest="bb")
        s = run.summarize(recs)["hit_path_checked"]
        self.assertEqual(s["failed"], 3)
        self.assertIn("digest_differs_from_hit_path",
                      s["failures"][0]["reasons"])

    def test_seed42_reference(self):
        good = record(workload="walk_path", packets=1161216)
        good["seed"] = 42
        good["sim"]["sim_gbps"] = 175.2873
        self.assertEqual(run.rep_failures(good, "aa"), [])
        bad = copy.deepcopy(good)
        bad["sim"]["sim_gbps"] = 175.0
        self.assertEqual(run.rep_failures(bad, "aa"),
                         ["seed42_reference:sim.sim_gbps"])


class MalformedInputTest(unittest.TestCase):
    def run_compare(self, lines):
        with tempfile.TemporaryDirectory() as tmp:
            good = Path(tmp) / "good.jsonl"
            bad = Path(tmp) / "bad.jsonl"
            good.write_text("".join(json.dumps(r) + "\n"
                                    for r in timed_set([100.0] * 3)))
            bad.write_text("".join(line + "\n" for line in lines))
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--compare",
                 str(good), str(bad)],
                capture_output=True, text=True)
            return proc, str(bad)

    def test_unparseable_line_names_file_and_line(self):
        ok = json.dumps(record())
        proc, bad = self.run_compare([ok, ok, '{"workload": "hit_'])
        self.assertEqual(proc.returncode, 2)
        self.assertIn(f"{bad}:3: malformed rep line", proc.stderr)

    def test_missing_block_is_malformed(self):
        broken = record()
        del broken["host"]
        proc, bad = self.run_compare([json.dumps(record()), "",
                                      json.dumps(broken)])
        self.assertEqual(proc.returncode, 2)
        self.assertIn(f"{bad}:3: malformed rep line: missing or "
                      "non-numeric 'host' block", proc.stderr)

    def test_regression_exits_1(self):
        slow = [json.dumps(r) for r in timed_set([50.0] * 3)]
        proc, _ = self.run_compare(slow)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("VIOLATION hit_path: host_pkts_per_s", proc.stdout)


class ChromeTraceTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        binary = run.build()
        cls.tmp = tempfile.TemporaryDirectory()
        cls.rec = run.run_rep(binary, "churn", 42, True, "traced", 3,
                              Path(cls.tmp.name))
        cls.trace = json.loads(Path(cls.rec["trace_file"]).read_text())

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def test_rep_passes(self):
        self.assertEqual(run.rep_failures(self.rec, self.rec["digest"]), [])

    def test_trace_reparses_as_complete_events(self):
        events = self.trace["traceEvents"]
        self.assertTrue(events)
        ids = {e["args"]["id"] for e in events}
        for e in events:
            self.assertEqual((e["ph"], e["pid"], e["tid"]), ("X", 1, 3))
            self.assertGreaterEqual(e["dur"], 0)
            self.assertTrue(e["args"]["parent"] == -1 or
                            e["args"]["parent"] in ids)
        names = {e["name"] for e in events}
        for name in ("rep", "workload.generate", "core.system_ctor",
                     "core.run", "stats.snapshot", "stats.dump",
                     "workload.stream.peek", "workload.stream.advance"):
            self.assertIn(name, names)

    def test_self_times_sum_to_the_run_span(self):
        events = self.trace["traceEvents"]
        by_id = {e["args"]["id"]: e for e in events}
        children = {}
        for e in events:
            children.setdefault(e["args"]["parent"], []).append(e)

        def self_time(e):
            return e["dur"] - sum(c["dur"]
                                  for c in children.get(e["args"]["id"], []))

        def subtree(e):
            yield e
            for c in children.get(e["args"]["id"], []):
                yield from subtree(c)

        [run_span] = [e for e in events if e["name"] == "core.run"]
        selves = [self_time(e) for e in subtree(run_span)]
        self.assertTrue(all(s >= 0 for s in selves))
        self.assertAlmostEqual(sum(selves) / run_span["dur"], 1.0,
                               delta=0.01)
        self.assertAlmostEqual(
            self_time(run_span) / 1e6,
            self.rec["host"]["core.run_self_s"], delta=1e-6)
        self.assertIn(run_span["args"]["id"],
                      {e["args"]["parent"] for e in events
                       if e["name"] == "stats.snapshot"})
        self.assertEqual(by_id[run_span["args"]["parent"]]["name"], "rep")


if __name__ == "__main__":
    unittest.main()
