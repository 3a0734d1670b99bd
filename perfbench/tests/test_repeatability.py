#!/usr/bin/env python3
"""Exact-count repeatability of the end-to-end benchmark.

Runs every workload twice at reduced size (--size small) on one seed, with
tracing on, and requires every deterministic metric -- counts, simulated
times and sizes -- to be identical between the two runs; host-time metrics
are free to differ. A second seed must change evac_chaos_obs's fault and
retry counts, so a seed that silently stopped feeding the fault RNG fails.

Run from the repository root:
    python3 perfbench/tests/test_repeatability.py
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
WORKLOADS = ("paper_roundtrip", "evac_10k", "evac_chaos_obs")
HOST_TIME_UNITS = {"s", "ms", "ns"}
HOST_TIME_NAMES = {"trace.overhead_frac"}


def run(workload, seed):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", "0", "--trace", "1", "--size", "small"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().split("\n")[-1])


def deterministic(metrics):
    return {name: m["value"] for name, m in metrics.items()
            if m["unit"] not in HOST_TIME_UNITS
            and name not in HOST_TIME_NAMES}


class RepeatabilityTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.first = {w: run(w, 1) for w in WORKLOADS}

    def test_counts_and_sim_metrics_repeat_exactly(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a = self.first[w]
                b = run(w, 1)
                self.assertTrue(a["correct"] and b["correct"])
                self.assertEqual(a["failed"], 0)
                self.assertGreater(a["attempted"], 0)
                da, db = deterministic(a["metrics"]), deterministic(b["metrics"])
                self.assertGreater(len(da), 40)
                self.assertEqual(da, db)

    def test_second_seed_changes_chaos_faults_and_retries(self):
        a = self.first["evac_chaos_obs"]["metrics"]
        b = run("evac_chaos_obs", 2)["metrics"]
        for name in ("fault.messages_dropped", "postcopy.pull_retries",
                     "cluster.retries"):
            with self.subTest(metric=name):
                self.assertGreater(a[name]["value"], 0)
                self.assertNotEqual(a[name]["value"], b[name]["value"])


if __name__ == "__main__":
    unittest.main()
