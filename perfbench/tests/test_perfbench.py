#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/tests/test_perfbench.py      (from the checkout root)

Checks that the same seed gives identical digests and counts, that another
seed gives different digests, that des_faults and fabric_faults run the same
epochs, and that every workload emits its full metric set with every output
check passing. Takes about a minute; builds the benchmark first if needed.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Info fields that are exact functions of the seed.
EXACT = {
    "serve": ["setup_fingerprint", "reference_digest",
              "reference_ingested_txs", "reference_committed_txs",
              "reference_pending_txs"],
    "des_faults": ["setup_fingerprint", "reference_digest",
                   "reference_events", "reference_committed_txs",
                   "reference_view_changes"],
    "fabric_faults": ["setup_fingerprint", "reference_digest",
                      "reference_events", "reference_committed_txs",
                      "reference_view_changes"],
    "se_solve": ["setup_fingerprint", "first_pass_answers_digest",
                 "first_pass_iterations_to_target", "first_pass_permitted_txs"],
}
# End-to-end metrics that are exact functions of the seed.
EXACT_METRICS = ["mean_tx_age_s", "committed_frac"]
# Per-layer metrics each workload must measure (not fill with zero).
MEASURED = {
    "serve": ["pipeline.shards_pending", "se.iterations_per_epoch",
              "chain.checkpoint_ms", "chain.checkpoint_bytes",
              "sim.events_per_epoch", "obs.trace_overhead_frac"],
    "des_faults": ["sharding.epoch_ms", "sharding.lanes_ms",
                   "sharding.lane_busy_ms", "sharding.lane_max_ms",
                   "sharding.committed_frac", "sim.events_per_busy_s",
                   "consensus.view_changes_per_epoch",
                   "net.messages_per_epoch", "obs.trace_overhead_frac"],
    "fabric_faults": ["sharding.epoch_ms", "fabric.roundtrip_ms",
                      "fabric.wire_bytes", "fabric.encode_ms",
                      "fabric.decode_ms", "fabric.replay_ms",
                      "fabric.respawns", "consensus.messages_per_epoch",
                      "obs.trace_overhead_frac"],
    "se_solve": ["se.ctor_ms", "se.iters_per_s", "se.iters_to_target",
                 "obs.trace_overhead_frac"],
}


def run(workload, seed, trace=0):
    """Returns (result, info) of one tiny run."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0.3",
         "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} failed:\n"
                             f"{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    info = json.loads(lines[-2].split(": ", 1)[1])
    return json.loads(lines[-1]), info


class PerfbenchSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.runs = {}
        for w in WORKLOADS:
            cls.runs[w] = [run(w, 11), run(w, 11), run(w, 12), run(w, 11, 1)]

    def test_result_format_and_checks(self):
        for w, runs in self.runs.items():
            for result, info in runs:
                with self.subTest(workload=w, trace=info["trace"]):
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"], info["failed_checks"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    for key in ("cpu_model", "nproc", "compiler",
                                "build_type"):
                        self.assertTrue(info["host"][key])

    def test_full_metric_sets(self):
        for w, runs in self.runs.items():
            untraced, _ = runs[0]
            traced, info = runs[3]
            with self.subTest(workload=w):
                self.assertEqual(
                    set(untraced["metrics"]),
                    {m["name"] for m in SPEC["end_to_end"]})
                for m in SPEC["end_to_end"]:
                    self.assertGreater(untraced["metrics"][m["name"]]["value"],
                                       0, m["name"])
                self.assertEqual(
                    set(traced["metrics"]),
                    {m["name"] for m in SPEC["per_layer"]})
                for name in MEASURED[w]:
                    self.assertNotIn(name, info["not_exercised"])

    def test_same_seed_repeats_exactly(self):
        for w, runs in self.runs.items():
            (a, ia), (b, ib) = runs[0], runs[1]
            with self.subTest(workload=w):
                for key in EXACT[w]:
                    self.assertEqual(ia[key], ib[key], key)
                for name in EXACT_METRICS:
                    self.assertEqual(a["metrics"][name], b["metrics"][name])

    def test_other_seed_differs(self):
        for w, runs in self.runs.items():
            _, ia = runs[0]
            _, ic = runs[2]
            with self.subTest(workload=w):
                self.assertNotEqual(ia["setup_fingerprint"],
                                    ic["setup_fingerprint"])

    def test_fabric_runs_the_des_epochs(self):
        _, des = self.runs["des_faults"][0]
        _, fabric = self.runs["fabric_faults"][0]
        self.assertEqual(des["reference_digest"], fabric["reference_digest"])
        self.assertEqual(fabric["respawns_untraced"], 1)


if __name__ == "__main__":
    unittest.main()
