"""Integration tests: build the harness, then check determinism, the metric
names every workload emits, and the traced latency split.

    python3 -m unittest discover -s perfbench/tests

The first run builds perfbench/ into .bench_build/perfbench (minutes); the
tests then take about three minutes on a 4-core machine.
"""

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE.parent))
import reduce  # noqa: E402
import run  # noqa: E402

class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.harness = run.build()
        cls.snapshot = run.snapshot(cls.harness)

    def plan(self, workload, seed, ops):
        out = subprocess.run(
            [str(self.harness), "plan", "--workload", workload,
             "--seed", str(seed), "--snapshot", str(self.snapshot),
             "--ops", str(ops)],
            capture_output=True, text=True, check=True, timeout=300)
        return json.loads(out.stdout)

    def test_same_seed_same_operations_and_answers(self):
        for workload, ops in (("interactive", 60), ("analysis", 8)):
            first = self.plan(workload, 5, ops)
            again = self.plan(workload, 5, ops)
            self.assertEqual(first, again, workload)
            other = self.plan(workload, 6, ops)
            self.assertNotEqual(first["clients"], other["clients"], workload)
            for kind, texts in first["pools"].items():
                # Each seed draws its own instances.
                self.assertLess(len(set(texts) & set(other["pools"][kind])),
                                len(texts) // 2, (workload, kind))
                self.assertEqual(len(set(texts)), len(texts))
            for answer in first["answers"].values():
                self.assertFalse(answer.startswith("error"), answer)

    def test_every_workload_emits_every_metric(self):
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                out = subprocess.run(
                    [sys.executable, str(HERE.parent / "run.py"),
                     "--workload", workload, "--seed", "3", "--seconds", "2",
                     "--trace", str(trace)],
                    capture_output=True, text=True, timeout=300)
                self.assertEqual(out.returncode, 0, out.stderr[-2000:])
                result = json.loads(out.stdout.strip().splitlines()[-1])
                self.assertEqual(sorted(result),
                                 ["attempted", "correct", "failed",
                                  "metrics"])
                self.assertTrue(result["correct"])
                self.assertGreater(result["attempted"], 0)
                catalogue = reduce.CATALOGUE[
                    "per_layer" if trace else "end_to_end"]
                expected = {m["name"]: m["unit"] for m in catalogue}
                self.assertEqual(
                    {name: m["unit"]
                     for name, m in result["metrics"].items()},
                    expected, (workload, trace))
                if not trace:
                    for name, m in result["metrics"].items():
                        self.assertGreater(m["value"], 0, (workload, name))

    def test_traced_split_sums_to_client_latency(self):
        tag = "test-%d" % os.getpid()
        report_path = run.BUILD / ("report-%s.json" % tag)
        spans_path = run.BUILD / ("spans-%s.json" % tag)
        try:
            subprocess.run(
                [str(self.harness), "run", "--workload", "interactive",
                 "--seed", "4", "--seconds", "2", "--trace", "1",
                 "--snapshot", str(self.snapshot),
                 "--report", str(report_path), "--spans", str(spans_path)],
                check=True, timeout=300, capture_output=True)
            spans = json.loads(spans_path.read_text())
        finally:
            report_path.unlink(missing_ok=True)
            spans_path.unlink(missing_ok=True)
        splits = reduce.read_splits(spans)
        self.assertGreater(len(splits), 100)
        client = sum(s["client_us"] for s in splits)
        parts = sum(sum(s["split_us"].values()) for s in splits)
        self.assertLessEqual(abs(parts - client), 0.1 * client)
        for s in splits:
            total = sum(s["split_us"].values())
            self.assertLessEqual(abs(total - s["client_us"]),
                                 max(0.1 * s["client_us"], 2), s)


if __name__ == "__main__":
    unittest.main()
