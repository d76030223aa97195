#!/usr/bin/env python3
"""Tests of the repository benchmark.  Run from the root of a checkout:

    python3 perfbench/test_bench.py

Each workload runs at a tiny size, untraced and traced, and must report every
metric BENCHMARK.json names for the mode, with its unit, with no failed or
mismatched answer.  A directory holding only BENCHMARK.json and perfbench/
must make the benchmark fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

WORKLOADS = ("paper_mine", "paper_sim", "service_mix", "stream_append")


def run_bench(workload, trace, cwd="."):
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
               "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


class TinyWorkloads(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open("BENCHMARK.json") as handle:
            cls.spec = json.load(handle)

    def check(self, workload, trace):
        run = run_bench(workload, trace)
        self.assertEqual(run.returncode, 0, run.stderr[-2000:])
        result = json.loads(run.stdout.strip().split("\n")[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)  # failed_ratio = 0
        table = self.spec["per_layer" if trace else "end_to_end"]
        want = {m["name"]: m["unit"] for m in table}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        if not trace:
            for name, metric in result["metrics"].items():
                self.assertGreater(metric["value"], 0, name)
        return result["metrics"]

    def test_paper_mine(self):
        self.check("paper_mine", 0)
        layers = self.check("paper_mine", 1)
        self.assertEqual(layers["core.candidates.l1"]["value"], 26)
        self.assertEqual(layers["core.candidates.l2"]["value"], 676)
        self.assertGreater(layers["core.miner_tail_ms"]["value"], 0)

    def test_paper_sim(self):
        self.check("paper_sim", 0)
        layers = self.check("paper_sim", 1)
        self.assertGreater(layers["kernels.sim_kernel_ms"]["value"], 0)
        self.assertGreater(layers["sim.host_ms"]["value"], 0)

    def test_service_mix(self):
        self.check("service_mix", 0)
        layers = self.check("service_mix", 1)
        self.assertGreater(layers["service.cache_hit_ratio"]["value"], 0)
        self.assertGreater(layers["core.count_rate"]["value"], 0)

    def test_stream_append(self):
        self.check("stream_append", 0)
        layers = self.check("stream_append", 1)
        self.assertGreater(layers["stream.alerts"]["value"], 0)
        self.assertGreater(layers["stream.monitor_ms"]["value"], 0)


class Isolated(unittest.TestCase):
    def test_fails_without_the_library_sources(self):
        root = os.path.join(".bench_build", "isolated")
        shutil.rmtree(root, ignore_errors=True)
        shutil.copytree("perfbench", os.path.join(root, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy("BENCHMARK.json", root)
        run = run_bench("paper_mine", 0, cwd=root)
        self.assertNotEqual(run.returncode, 0)
        self.assertFalse(run.stdout.strip().endswith("}"))
        shutil.rmtree(root)


if __name__ == "__main__":
    unittest.main()
