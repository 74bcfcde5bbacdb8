#!/usr/bin/env python3
"""Self-tests of the benchmark on a tiny replica.

    python3 perfbench/selftest.py

Run from the root of a checkout; builds through run.py like a normal run.
"""

import json
import os
import pathlib
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
TINY = ["--reads", "3000", "--sample", "600", "--seconds", "1"]


def run(workload, seed, trace, *extra):
    """Runs one tiny benchmark; returns (result JSON, counts, report lines)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), *TINY, *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = done.stdout.strip().splitlines()
    counts = {}
    for line in lines:
        if line.startswith("counts "):
            for item in line.split()[1:]:
                key, value = item.split("=")
                counts[key] = value
    return json.loads(lines[-1]), counts, lines


def dataset_id(lines):
    return next(t for t in lines[0].split() if t.startswith("dataset="))


class SelfTest(unittest.TestCase):
    runs = {}

    @classmethod
    def setUpClass(cls):
        for w in WORKLOADS:
            cls.runs[w] = {
                "a": run(w, 1, 0),
                "b": run(w, 1, 0),
                "traced": run(w, 1, 1),
                "seed2": run(w, 2, 0),
                "tamper": run(w, 1, 0, "--tamper"),
            }

    def test_untraced_runs_are_correct_and_named(self):
        names = [m["name"] for m in BENCH["end_to_end"]]
        for w, r in self.runs.items():
            for key in ("a", "b", "seed2"):
                result = r[key][0]
                self.assertTrue(result["correct"], (w, key))
                self.assertEqual(result["failed"], 0, (w, key))
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(sorted(result["metrics"]), sorted(names))

    def test_traced_run_prints_every_layer_metric(self):
        names = [m["name"] for m in BENCH["per_layer"]]
        for w, r in self.runs.items():
            result = r["traced"][0]
            self.assertTrue(result["correct"], w)
            self.assertEqual(sorted(result["metrics"]), sorted(names), w)
            lines = r["traced"][2]
            self.assertTrue(any(l.startswith("closure:") for l in lines), w)

    def test_two_runs_give_identical_counts(self):
        for w, r in self.runs.items():
            self.assertIn("stable=true", " ".join(r["a"][2]), w)
            self.assertEqual(r["a"][1], r["b"][1], w)
            for name in ("spectrum_mb_per_rank", "gain"):
                self.assertEqual(r["a"][0]["metrics"][name],
                                 r["b"][0]["metrics"][name], (w, name))

    def test_traced_and_untraced_counts_match(self):
        for w, r in self.runs.items():
            # stable=true: the traced repetitions matched the untraced ones.
            self.assertIn("stable=true", " ".join(r["traced"][2]), w)
            self.assertEqual(r["a"][1], r["traced"][1], w)

    def test_altered_output_read_is_reported(self):
        for w, r in self.runs.items():
            result = r["tamper"][0]
            self.assertFalse(result["correct"], w)
            self.assertEqual(result["failed"], 1, w)

    def test_second_seed_changes_data_not_names(self):
        for w, r in self.runs.items():
            self.assertNotEqual(dataset_id(r["a"][2]),
                                dataset_id(r["seed2"][2]), w)
            self.assertEqual(sorted(r["a"][0]["metrics"]),
                             sorted(r["seed2"][0]["metrics"]), w)
            self.assertEqual(sorted(r["a"][1]), sorted(r["seed2"][1]), w)

    def test_spans_written_when_traced_run_ends(self):
        target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        spans = ROOT / target / "perfbench" / "spans"
        for w in WORKLOADS:
            doc = json.loads((spans / f"{w}-seed1.json").read_text())
            names = {s["name"] for s in doc["spans"]}
            self.assertTrue({"rep", "setup", "correct", "probes"} <= names, w)
            for s in doc["spans"]:
                self.assertLessEqual(s["start_ns"], s["end_ns"])
                self.assertEqual(s["workload"], w)


if __name__ == "__main__":
    unittest.main()
