"""The benchmark's own tests.

    python3 perfbench/selfcheck.py

Checks that tracing changes no output (traced and untraced digests are
byte-identical and match the recorded references), that the one command
prints every metric BENCHMARK.json names with its unit, that self time is
derived correctly from spans, and that a directory without lidbag's sources
makes the benchmark fail without printing a result.  Takes a few minutes:
every workload runs once untraced and once traced.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from spec import WORKLOADS, check_threads  # noqa: E402
from tracer import Span, Tracer, layer_totals  # noqa: E402


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_the_union_of_children(self):
        spans = [
            Span(0, "parent", 0.0, 10.0, None, 1, "op", None),
            Span(1, "child", 1.0, 4.0, 0, 1, "op", {"cells": 5}),
            Span(2, "child", 3.0, 6.0, 0, 2, "op", {"cells": 7}),  # overlaps on another thread
            Span(3, "grandchild", 1.5, 2.0, 1, 1, "op", None),
        ]
        t = layer_totals(spans)
        self.assertAlmostEqual(t["parent"]["self_s"], 5.0)
        self.assertAlmostEqual(t["child"]["busy_s"], 6.0)
        self.assertAlmostEqual(t["child"]["self_s"], 5.5)
        self.assertEqual(t["child"]["calls"], 2)
        self.assertEqual(t["child"]["cells"], 12)


class TracingChangesNothingTest(unittest.TestCase):
    def test_traced_digests_equal_untraced_digests(self):
        import lidbag
        from workloads import WORKLOADS as BUILDERS

        originals = (lidbag.sweep.bag_tables, lidbag.bagging.AnchoredMean.add)
        with open(os.path.join(HERE, "reference.json")) as fh:
            reference = json.load(fh)["workloads"]
        out = tempfile.mkdtemp(dir=os.path.join(HERE, "out"))
        try:
            for name in WORKLOADS:
                with self.subTest(workload=name):
                    calls = BUILDERS[name].build(3, check_threads(name) or 1, out)
                    plain = {c.name: c.digest(c.run()) for c in calls}
                    tracer = Tracer()
                    with tracer, tracer.operation("check"):
                        traced = {c.name: c.digest(c.run()) for c in calls}
                    self.assertTrue(any(s.name != "op" for s in tracer.spans))
                    self.assertEqual(plain, traced)
                    self.assertEqual(plain, reference[name]["3"])
        finally:
            shutil.rmtree(out)
        self.assertEqual(originals, (lidbag.sweep.bag_tables, lidbag.bagging.AnchoredMean.add))


class OneCommandTest(unittest.TestCase):
    def _check(self, trace: int, key: str):
        declared = {m["name"]: m["unit"] for m in _benchmark_json()[key]}
        for name in WORKLOADS:
            with self.subTest(workload=name):
                proc = _run(name, trace)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                printed = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(printed, declared)
                if not trace:
                    self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))

    def test_untraced_run_prints_every_end_to_end_metric(self):
        self._check(0, "end_to_end")

    def test_traced_run_prints_every_per_layer_metric(self):
        self._check(1, "per_layer")

    def test_fails_without_lidbag_sources(self):
        bare = tempfile.mkdtemp(dir=os.path.join(HERE, "out"))
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in _benchmark_json()["paths"]:
                shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                                ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = _run("theory_lab", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    unittest.main(verbosity=2)
