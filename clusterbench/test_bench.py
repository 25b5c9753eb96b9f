#!/usr/bin/env python3
"""The cluster benchmark's own test. Run from the root of a checkout:

    python3 clusterbench/test_bench.py

A short run of each workload, untraced and traced, must print every metric
BENCHMARK.json names, with its unit and a finite value, and check correct.
The plan-derived counts must repeat exactly for one seed. The driver's
self-test must show that the oracle comparison catches a changed output.
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
SPEC = os.path.join(HERE, "..", "BENCHMARK.json")
SHORT_TXNS = "1500"

# Counts derived from the emitted SinkPlans: a pure function of the trace.
PLAN_COUNTS = (
    "tgraph.max_unsunk",
    "scheduler.pushes_eliminated_per_txn",
    "plan.distributed_frac",
    "plan.remote_reads_per_txn",
    "plan.push_reads_per_txn",
    "plan.cache_remote_reads_per_txn",
    "plan.storage_remote_reads_per_txn",
    "plan.write_backs_per_txn",
    "plan.remote_write_backs_per_txn",
    "plan.load_max_over_mean",
    "wire.plan_bytes_per_txn",
)


def run(*args):
    out = subprocess.run([sys.executable, RUN, *args], capture_output=True,
                         text=True, check=False)
    return out.returncode, out.stdout, out.stderr


def short_run(workload, trace, seed=1):
    code, stdout, stderr = run("--workload", workload, "--seed", str(seed),
                               "--seconds", "0.5", "--trace", str(trace),
                               "--txns", SHORT_TXNS)
    if code != 0:
        raise AssertionError(f"{workload} trace={trace} exit {code}:\n"
                             f"{stderr[-3000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


class ClusterBenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(SPEC) as f:
            cls.spec = json.load(f)

    def check_result(self, result, wanted):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])

    def test_every_metric_emitted(self):
        build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"], trace=0):
                self.check_result(short_run(w["name"], 0),
                                  self.spec["end_to_end"])
            with self.subTest(workload=w["name"], trace=1):
                self.check_result(short_run(w["name"], 1),
                                  self.spec["per_layer"])
                with open(os.path.join(build_dir, "spans",
                                       w["name"] + ".json")) as f:
                    spans = json.load(f)["traceEvents"]
                names = {s["name"] for s in spans}
                for call in ("Sequencer::Submit", "TPartScheduler::OnBatch",
                             "EncodeSinkPlan", "DecodeSinkPlan",
                             "LocalCluster::LocalCluster", "Workload::loader",
                             "LocalCluster::RunTPart"):
                    self.assertIn(call, names)

    def test_plan_counts_repeat_for_one_seed(self):
        for w in self.spec["workloads"]:
            a = short_run(w["name"], 1, seed=5)["metrics"]
            b = short_run(w["name"], 1, seed=5)["metrics"]
            for name in PLAN_COUNTS:
                self.assertEqual(a[name]["value"], b[name]["value"],
                                 f"{w['name']} {name}")

    def test_oracle_comparison_catches_changed_output(self):
        code, stdout, stderr = run("--self-test")
        self.assertEqual(code, 0, stdout + stderr)
        self.assertIn("one changed output is one failure", stdout)
        self.assertIn("self-test: passed", stdout)


if __name__ == "__main__":
    unittest.main()
