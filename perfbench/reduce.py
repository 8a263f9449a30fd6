"""Reduces the harness's raw report to the benchmark's named metrics.

The harness (harness/runner.cc) writes every read it made, every publish,
the set-up timings and, in a traced run, the layer probes and spans. This
module turns that into:

  * the end-to-end metrics (plain run) and per-layer metrics (traced run)
    that BENCHMARK.json lists, and
  * a detailed report with per-class latencies, error rate, self times
    per span and the run's provenance.

moves.json maps each per-layer metric to the end-to-end metrics, and the
workloads, it should move; those are BENCHMARK.json's metrics or the
detailed report's DETAIL_METRICS.
"""

import json
import math
import statistics
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
CATALOGUE = json.loads((HERE.parent / "BENCHMARK.json").read_text())
MOVES = json.loads((HERE / "moves.json").read_text())

CLASSES = ("lookup", "reach", "closure")
REJECTED = (408, 429, 503)

# End-to-end metrics of the detailed report only: per query class (and the
# churn writer's publishes) a median and a tail, the workload-neutral tail
# (too noisy to bound) and the error rate (0 on a correct program).
DETAIL_METRICS = tuple(
    "%s_%s_ms" % (cls, stat)
    for cls in CLASSES + ("publish",) for stat in ("p50", "tail")
) + ("tail_ms", "error_rate")


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p% of the
    values at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values):
    """The tail of a latency sample: p99 with at least 1000 samples, else the
    highest of p95/p90 that still has at least ten samples beyond it.

    Returns (name, value), or (None, None) when fewer than 100 samples."""
    n = len(values)
    for p in (99, 95, 90):
        if n * (100 - p) >= 1000:  # at least ten samples beyond p
            return "p%d" % p, percentile(values, p)
    return None, None


def median(values):
    return statistics.median(values) if values else 0.0


def mean(values):
    return statistics.mean(values) if values else 0.0


def geomean(values):
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def records_of(report, window):
    fields = report["record_fields"]
    return [dict(zip(fields, r)) for r in window["records"]]


def plain_window(report):
    return next(w for w in report["windows"] if not w["traced"])


def traced_window(report):
    return next((w for w in report["windows"] if w["traced"]), None)


def by_kind(records):
    out = defaultdict(list)
    for r in records:
        out[r["kind"]].append(r)
    return out


def latency_summary(latencies_ms):
    name, value = tail(latencies_ms)
    return {
        "p50_ms": median(latencies_ms),
        "tail_ms": value,
        "tail": name,
        "samples": len(latencies_ms),
    }


def end_to_end(report):
    """The end-to-end metrics of the plain window."""
    window = plain_window(report)
    records = records_of(report, window)
    ok = [r for r in records if r["ok"]]
    kinds = by_kind(records)
    kind_p50, kind_tail = [], []
    for kind_records in kinds.values():
        latencies = [r["rtt_us"] / 1000.0 for r in kind_records]
        summary = latency_summary(latencies)
        kind_p50.append(summary["p50_ms"])
        # A kind too rare for a tail (under 100 reads) contributes its
        # highest latency, so the metric never silently drops a kind.
        kind_tail.append(summary["tail_ms"] if summary["tail_ms"] is not None
                         else max(latencies))
    server_cpu_s = window["process_cpu_s"] - window["client_cpu_s"]
    completed = max(1, len(ok))
    return {
        "setup_s": median([s["total_s"] for s in report["setup"]]),
        "qps": len(ok) / window["elapsed_s"],
        "cpu_ms_per_op": 1000.0 * server_cpu_s / completed,
        "rss_peak_mb": window["rss_peak_kb"] / 1024.0,
        "p50_ms": geomean(kind_p50),
        "tail_ms": geomean(kind_tail),
    }


def class_latencies(report):
    """Per query class and the churn writer's publishes, the median and tail
    of latency (`<class>_p50_ms`, `<class>_tail_ms`) with the tail's
    percentile (`<class>_tail`) and the sample count (`<class>_samples`);
    the same per kind under "kinds"; the writer's lateness against its
    schedule. A class the workload does not send is absent."""
    window = plain_window(report)
    records = records_of(report, window)
    class_of = report["kind_class"]
    groups = {cls: [r["rtt_us"] / 1000.0 for r in records
                    if class_of[r["kind"]] == cls] for cls in CLASSES}
    publishes = window["publishes"]
    groups["publish"] = [p["total_ms"] for p in publishes]
    out = {}
    for cls, latencies in groups.items():
        if latencies:
            for key, value in latency_summary(latencies).items():
                out["%s_%s" % (cls, key)] = value
    if publishes:
        lateness = [p["lateness_ms"] for p in publishes]
        out["publish_lateness_ms_max"] = max(lateness)
        out["publish_lateness_ms_median"] = median(lateness)
    out["kinds"] = {
        kind: latency_summary([r["rtt_us"] / 1000.0 for r in kind_records])
        for kind, kind_records in sorted(by_kind(records).items())}
    return out


def self_times(spans):
    """Per span name: count, total duration and total self time (duration
    minus the time its children cover), all in microseconds."""
    children = defaultdict(int)
    for _op, _sid, parent, _name, _start, dur in spans:
        if parent:
            children[parent] += dur
    out = defaultdict(lambda: {"count": 0, "total_us": 0, "self_us": 0})
    for _op, sid, _parent, name, _start, dur in spans:
        entry = out[name]
        entry["count"] += 1
        entry["total_us"] += dur
        entry["self_us"] += max(0, dur - children.get(sid, 0))
    return dict(out)


def read_splits(spans):
    """Per traced read: client round trip and its split into the seven
    parts (queue, parse, plan, exec, serialize, wire, unattributed), taken
    from the span tree's self times."""
    by_op = defaultdict(list)
    for span in spans:
        by_op[span[0]].append(span)
    splits = []
    for op_spans in by_op.values():
        named = {s[3]: s for s in op_spans}
        if "client.http" not in named or "server.request" not in named:
            continue
        http, server = named["client.http"], named["server.request"]
        stages = {s[3]: s[5] for s in op_spans if s[2] == server[1]}
        split = {
            "queue": stages.get("server.queue", 0),
            "parse": stages.get("query.parse", 0),
            "plan": stages.get("query.plan", 0),
            "exec": stages.get("query.exec", 0),
            "serialize": stages.get("server.serialize", 0),
            "wire": max(0, http[5] - server[5]),
            "unattributed": max(0, server[5] - sum(stages.values())),
        }
        splits.append({"client_us": http[5], "split_us": split})
    return splits


def _by_class(entries, key, class_of):
    out = defaultdict(list)
    for e in entries:
        if key in e:
            out[class_of[e["kind"]]].append(e[key])
    return out


def per_layer(report, spans):
    """The per-layer metrics of a traced run."""
    window = traced_window(report)
    records = records_of(report, window)
    served = [r for r in records if r["status"] == 200]
    splits = read_splits(spans)
    probes = report["probes"]
    class_of = report["kind_class"]
    out = {}

    # graph
    out["graph.snapshot.load_ms"] = probes["snapshot_load_ms"]
    out["graph.snapshot.mb_per_s"] = (probes["snapshot_bytes"] / 2**20 /
                                      (probes["snapshot_load_ms"] / 1000.0))
    out["graph.indexes.attach_ms"] = probes["indexes_attach_ms"]
    out["graph.csr.forward_build_ms"] = probes["csr_forward_build_ms"]
    out["graph.csr.reverse_build_ms"] = probes["csr_reverse_build_ms"]
    out["graph.csr.bytes"] = probes["csr_bytes"]
    # Per probe instance, averaged like the query and obs metrics below, so
    # graph.traversal.reach_ms and query.reach.exec_us compare directly.
    reach = probes["reach"]
    out["graph.traversal.reach_checks"] = mean([r["checks"] for r in reach])
    out["graph.traversal.reach_ms"] = mean([r["ms"] for r in reach])
    closure = probes["closure"]
    out["graph.analytics.closure_ms"] = mean([c["ms"] for c in closure])
    out["graph.analytics.closure_1lane_ms"] = mean(
        [c["one_lane_ms"] for c in closure])
    out["graph.analytics.edges_scanned"] = mean(
        [c["edges_scanned"] for c in closure])

    # query: direct Parse / BuildPlan / Execute calls, averaged per class
    # (a class mixes kinds of very different sizes, so a median would pick
    # one kind; the mean is the work per query)
    query = probes["query"]
    out["query.parse_us"] = mean([q["parse_us"] for q in query])
    out["query.plan_us"] = mean([q["plan_us"] for q in query
                                 if "plan_us" in q])
    for key in ("exec_us", "steps", "db_hits", "rows", "scanned_bytes"):
        values = _by_class(query, key, class_of)
        for cls in CLASSES:
            out["query.%s.%s" % (cls, key)] = mean(values[cls])
    fast = _by_class(query, "fast_path", class_of)["closure"]
    out["query.fast_path_ratio"] = sum(fast) / max(1, len(fast))

    # server
    queue = [r["queue_us"] for r in served]
    out["server.queue_us"] = median(queue)
    out["server.queue_tail_us"] = tail(queue)[1] or max(queue)
    out["server.serialize_us"] = median([r["serialize_us"] for r in served])
    out["server.response_bytes"] = median(
        [r["response_bytes"] for r in served])
    out["server.wire_us"] = median([s["split_us"]["wire"] for s in splits])
    out["server.unattributed_us"] = median(
        [s["split_us"]["unattributed"] for s in splits])
    out["server.rejected"] = (sum(r["status"] in REJECTED for r in records) /
                              max(1, len(records)))
    publish = probes["publish"]
    out["server.epoch.publish_ms"] = median([p["publish_ms"] for p in publish])

    # temporal
    out["temporal.materialize_ms"] = median(
        [p["materialize_ms"] for p in publish])

    # obs
    for key in ("cpu_us", "alloc_bytes", "peak_bytes"):
        values = _by_class(query, key, class_of)
        for cls in CLASSES:
            out["obs.%s.%s" % (cls, key)] = mean(values[cls])

    # the cost of tracing itself: traced against plain mean latency, same
    # process, consecutive halves of the run
    plain = [r["rtt_us"] for r in records_of(report, plain_window(report))]
    traced = [r["rtt_us"] for r in records]
    out["trace.overhead_pct"] = 100.0 * (statistics.mean(traced) /
                                         statistics.mean(plain) - 1.0)
    return out


def error_rate(report):
    return report["failed"] / max(1, report["attempted"])


def result_line(report, spans, trace):
    """The benchmark's result object: every end-to-end metric of the plain
    run, or every per-layer metric of the traced run."""
    if trace:
        values = per_layer(report, spans)
        catalogue = CATALOGUE["per_layer"]
    else:
        values = end_to_end(report)
        catalogue = CATALOGUE["end_to_end"]
    metrics = {}
    for entry in catalogue:
        metrics[entry["name"]] = {"value": values[entry["name"]],
                                  "unit": entry["unit"]}
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def detailed_report(report, spans, trace, provenance):
    """Everything a reader needs to interpret one run."""
    out = {
        "provenance": provenance,
        "end_to_end": end_to_end(report),
        "error_rate": error_rate(report),
        "classes": class_latencies(report),
        "setup": report["setup"],
        "rss_kb": report["rss_kb"],
        "record_mb": plain_window(report)["record_bytes"] / 2**20,
        "debug_draw": report.get("debug_draw"),
        "oracle_s": report["oracle_s"],
        "notes": report["notes"],
    }
    if trace:
        out["per_layer"] = per_layer(report, spans)
        out["self_times_us"] = self_times(spans)
    return out
