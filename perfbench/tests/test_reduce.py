"""Unit tests of the metric reduction and of the metric catalogue
(BENCHMARK.json) with its layer map (moves.json).

    python3 -m unittest discover -s perfbench/tests
"""

import json
import re
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE.parent))
import reduce  # noqa: E402
import run  # noqa: E402

ROOT = HERE.parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(reduce.percentile(values, 50), 50)
        self.assertEqual(reduce.percentile(values, 90), 90)
        self.assertEqual(reduce.percentile(values, 99), 99)
        self.assertEqual(reduce.percentile([7], 99), 7)
        self.assertEqual(reduce.percentile([3, 1, 2], 50), 2)


class TailRuleTest(unittest.TestCase):
    def test_p99_from_1000_samples(self):
        values = list(range(1, 1001))
        self.assertEqual(reduce.tail(values), ("p99", 990))

    def test_p95_below_1000_samples(self):
        # 999 samples: p99 would leave under ten beyond it.
        values = list(range(1, 1000))
        self.assertEqual(reduce.tail(values), ("p95", 950))
        self.assertEqual(reduce.tail(list(range(1, 201))), ("p95", 190))

    def test_p90_below_200_samples(self):
        self.assertEqual(reduce.tail(list(range(1, 200))), ("p90", 180))
        self.assertEqual(reduce.tail(list(range(1, 101))), ("p90", 90))

    def test_no_tail_below_100_samples(self):
        self.assertEqual(reduce.tail(list(range(1, 100))), (None, None))

    def test_ten_samples_beyond(self):
        for n in (100, 150, 200, 500, 999, 1000, 5000):
            name, value = reduce.tail(list(range(1, n + 1)))
            self.assertGreaterEqual(sum(v > value for v in range(1, n + 1)),
                                    10, (n, name))


class CatalogueTest(unittest.TestCase):
    def setUp(self):
        self.catalogue = reduce.CATALOGUE

    def test_names_are_well_formed_and_unique(self):
        names = [m["name"] for section in ("end_to_end", "per_layer")
                 for m in self.catalogue[section]]
        names += [w["name"] for w in self.catalogue["workloads"]]
        names += reduce.DETAIL_METRICS
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_gated_workloads_are_runnable(self):
        for workload in self.catalogue["workloads"]:
            self.assertIn(workload["name"], run.WORKLOADS)

    def test_layer_map_covers_every_layer_metric(self):
        self.assertEqual(sorted(reduce.MOVES),
                         sorted(m["name"] for m in self.catalogue["per_layer"]))

    def test_layer_map_names_end_to_end_metrics_and_workloads(self):
        targets = {m["name"] for m in self.catalogue["end_to_end"]}
        targets |= set(reduce.DETAIL_METRICS)
        for metric, moves in reduce.MOVES.items():
            self.assertIn(metric.split(".")[0],
                          ("graph", "query", "server", "temporal", "obs",
                           "trace"), metric)
            for target, workload in moves:
                self.assertIn(target, targets, metric)
                self.assertIn(workload, run.WORKLOADS + ("all",), metric)

    def test_setup_bound_is_the_largest(self):
        bounds = {m["name"]: m["bound"] for m in self.catalogue["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        self.assertLessEqual(max(bounds.values()), 0.25)


def fake_report(traced):
    """A minimal harness report with hand-made reads."""
    fields = ["kind", "client", "rtt_us", "status", "ok", "rows", "queue_us",
              "parse_us", "plan_us", "exec_us", "serialize_us", "total_us",
              "steps", "db_hits", "cpu_us", "alloc_bytes", "peak_bytes",
              "scanned_bytes", "fast_path", "response_bytes", "epoch",
              "decode_us"]

    def reads(kind, rtt_us, n):
        return [[kind, 0, rtt_us + i, 200, True, 1, 5, 10, 2, 50, 3, 80, 1, 1,
                 40, 100, 50, 8, False, 300, 1, 4] for i in range(n)]

    plain = {"traced": False, "elapsed_s": 2.0, "process_cpu_s": 1.5,
             "client_cpu_s": 0.5, "rss_peak_kb": 2048, "record_bytes": 38400,
             "publishes": [],
             "records": reads("xref", 1000, 150) + reads("debug", 4000, 150)}
    windows = [plain]
    if traced:
        windows.append(dict(plain, traced=True))
    report = {
        "record_fields": fields, "windows": windows,
        "setup": [{"total_s": 0.5}, {"total_s": 0.7}, {"total_s": 0.6}],
        "rss_kb": {"set_up": 2000}, "failed": 0, "attempted": 300,
        "notes": [], "oracle_s": 0.1,
        "kind_class": {"xref": "lookup", "debug": "reach",
                       "closure": "closure"},
    }
    if traced:
        report["probes"] = {
            "snapshot_load_ms": 500.0, "snapshot_bytes": 2**20 * 50,
            "indexes_attach_ms": 2.0, "csr_forward_build_ms": 30.0,
            "csr_reverse_build_ms": 20.0, "csr_bytes": 1000,
            "reach": [{"checks": 4, "ms": 10.0}],
            "closure": [{"ms": 5.0, "one_lane_ms": 4.0,
                         "edges_scanned": 100}],
            "query": [{"kind": k, "parse_us": 30.0, "plan_us": 2.0,
                       "exec_us": 100.0, "steps": 3, "db_hits": 4, "rows": 1,
                       "scanned_bytes": 64, "fast_path": k == "closure",
                       "cpu_us": 90, "alloc_bytes": 1000, "peak_bytes": 500}
                      for k in ("xref", "debug", "closure")],
            "publish": [{"materialize_ms": 400.0, "publish_ms": 300.0}],
        }
    return report


class ReduceTest(unittest.TestCase):
    def test_end_to_end_from_hand_made_reads(self):
        metrics = reduce.end_to_end(fake_report(traced=False))
        self.assertAlmostEqual(metrics["setup_s"], 0.6)
        self.assertAlmostEqual(metrics["qps"], 150.0)
        self.assertAlmostEqual(metrics["cpu_ms_per_op"], 1000.0 / 300)
        self.assertAlmostEqual(metrics["rss_peak_mb"], 2.0)
        # Medians 1.0745 ms (xref) and 4.0745 ms (debug); p90 of 150 reads.
        self.assertAlmostEqual(metrics["p50_ms"], (1.0745 * 4.0745) ** 0.5)
        self.assertAlmostEqual(metrics["tail_ms"], (1.134 * 4.134) ** 0.5)

    def test_class_latencies_name_the_tail(self):
        classes = reduce.class_latencies(fake_report(traced=False))
        self.assertEqual(classes["lookup_tail"], "p90")
        self.assertEqual(classes["lookup_samples"], 150)
        self.assertAlmostEqual(classes["reach_p50_ms"], 4.0745)
        self.assertNotIn("closure_p50_ms", classes)
        self.assertEqual(sorted(classes["kinds"]), ["debug", "xref"])

    def test_result_line_names_every_catalogue_metric(self):
        for traced in (False, True):
            result = reduce.result_line(fake_report(traced), [], traced)
            catalogue = reduce.CATALOGUE[
                "per_layer" if traced else "end_to_end"]
            self.assertEqual(list(result["metrics"]),
                             [m["name"] for m in catalogue])
            for value in result["metrics"].values():
                self.assertIsInstance(value["value"], (int, float))
            self.assertTrue(result["correct"])

    def test_wrong_answers_make_the_result_incorrect(self):
        report = fake_report(traced=False)
        report["failed"] = 1
        self.assertFalse(reduce.result_line(report, [], False)["correct"])

    def test_self_time_subtracts_children(self):
        spans = [[1, 10, 0, "client.http", 0, 100],
                 [1, 11, 10, "server.request", 20, 70],
                 [1, 12, 11, "query.exec", 20, 50]]
        times = reduce.self_times(spans)
        self.assertEqual(times["client.http"]["self_us"], 30)
        self.assertEqual(times["server.request"]["self_us"], 20)
        self.assertEqual(times["query.exec"]["self_us"], 50)


if __name__ == "__main__":
    unittest.main()
