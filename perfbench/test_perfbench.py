#!/usr/bin/env python3
"""The benchmark's own tests, at smoke size (tiny inputs, one-second runs).

    python3 perfbench/test_perfbench.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that a deliberately corrupted oracle shows up as failed operations, and that
the traced run writes a well-formed trace with spans for every layer.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pagerank-inmem", "pagerank-ooc", "serve-mixed")
# Layers that must have spans, per workload (the union covers every layer of
# the per-layer catalog; codec shares the residency layer's boundary).
LAYERS = {
    "pagerank-inmem": {"host", "threads", "graph", "partitioning", "core", "buffers", "obs"},
    "pagerank-ooc": {"host", "threads", "graph", "partitioning", "core", "storage",
                     "residency", "obs"},
    "serve-mixed": {"host", "threads", "graph", "serve", "scheduler", "obs"},
}


def run(workload, trace=0, corrupt=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"]
    if corrupt:
        cmd.append("--corrupt-oracle")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines


def catalog(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


class MetricsPrinted(unittest.TestCase):
    def check(self, result, expected):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)

    def test_end_to_end_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result, lines = run(w)
                self.check(result, catalog("end_to_end"))
                for name in ("setup_s", "edges_per_s", "queries_per_s", "peak_rss_mb"):
                    self.assertGreater(result["metrics"][name]["value"], 0, name)
                self.assertTrue(any(line.startswith("input ") for line in lines))

    def test_per_layer_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result, _ = run(w, trace=1)
                self.check(result, catalog("per_layer"))


class VerifierCanFail(unittest.TestCase):
    def test_corrupted_oracle_fails_operations(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result, _ = run(w, corrupt=True)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertLessEqual(result["failed"], result["attempted"])


class TraceWellFormed(unittest.TestCase):
    def test_trace_has_spans_for_every_layer(self):
        seen = set()
        for w in WORKLOADS:
            with self.subTest(workload=w):
                run(w, trace=1)
                with open(os.path.join(ROOT, ".bench_out", f"trace-{w}.json")) as f:
                    trace = json.load(f)
                spans = trace["spans"]
                ids = {s["id"] for s in spans}
                self.assertEqual(len(ids), len(spans), "span ids are unique")
                for s in spans:
                    self.assertLessEqual(s["start_s"], s["end_s"])
                    self.assertTrue(s["parent"] == 0 or s["parent"] in ids, s)
                    self.assertTrue(s["name"].startswith(s["layer"]) or s["name"] == "setup")
                for c in trace["counts"]:
                    self.assertTrue(c["span"] == 0 or c["span"] in ids, c)
                layers = {s["layer"] for s in spans}
                self.assertLessEqual(LAYERS[w], layers)
                seen |= layers
        layer_names = {name.split(".")[0] for name in catalog("per_layer")} - {"codec"}
        self.assertLessEqual(layer_names, seen)


if __name__ == "__main__":
    unittest.main()
