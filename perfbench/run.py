#!/usr/bin/env python3
"""The repository benchmark: Frappé's query server under three workloads.

    python3 perfbench/run.py --workload interactive|analysis|churn \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each run

  1. builds perfbench/ (the harness plus the repository's own libraries,
     RelWithDebInfo as the repository builds by default) into
     .bench_build/perfbench;
  2. writes the scale-0.2 synthetic kernel snapshot with that build, once
     per build (the file name carries the harness binary's digest, so no
     run ever opens a snapshot another build wrote);
  3. runs the harness: nine timed set-ups, the answer oracle, the measured
     window of closed-loop reads through POST /query, checks every answer;
  4. prints one line with the detailed report (provenance, per-class
     latencies, error rate; per-layer metrics and span self times when
     traced), then the result line:
       {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
     with every end-to-end metric (--trace 0) or every per-layer metric
     (--trace 1) that BENCHMARK.json lists.

Exits 0 when every answer was right, 1 when any was wrong, 2 when the run
could not be made (no sources, build or set-up failure).
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SCALE = 0.2
# BENCHMARK.json gates the first two; churn runs the same way by hand.
WORKLOADS = ("interactive", "analysis", "churn")
# What a run needs besides its window: set-ups, the oracle and, traced, the
# layer probes (about 40 s at scale 0.2 on a 4-core machine).
HARNESS_MARGIN_S = 150

sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
import reduce  # noqa: E402  (sits next to this file)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def jobs():
    return str(max(1, min(4, os.cpu_count() or 1)))


def build():
    """Configures (once) and builds the harness; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no Frappé sources at %s/src; run from a full checkout" % ROOT)
    if not (BUILD / "CMakeCache.txt").is_file():
        step = subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr)
        if step.returncode != 0:
            fail("cmake configure failed")
    step = subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs()],
                          stdout=sys.stderr, stderr=sys.stderr)
    if step.returncode != 0:
        fail("build failed")
    return BUILD / "perfbench_harness"


def file_digest(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def snapshot(harness):
    """The kernel snapshot written by this build of the harness."""
    path = BUILD / ("kernel-%g-%s.fsnap" % (SCALE, file_digest(harness)[:16]))
    if path.is_file():
        return path
    for stale in BUILD.glob("kernel-*.fsnap*"):
        stale.unlink()
    step = subprocess.run(
        [str(harness), "generate", "--scale", str(SCALE), "--out", str(path)],
        stdout=sys.stderr, stderr=sys.stderr, timeout=HARNESS_MARGIN_S)
    if step.returncode != 0 or not path.is_file():
        fail("snapshot generation failed")
    return path


def source_digest():
    """Digest of the sources the benchmark builds (the checkout need not be
    a git repository)."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*")
                        if p.is_file() and "__pycache__" not in p.parts)
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    harness = build()
    snap = snapshot(harness)
    tag = "%s-%d-%d-%d" % (args.workload, args.seed, args.trace, os.getpid())
    report_path = BUILD / ("report-%s.json" % tag)
    spans_path = BUILD / ("spans-%s.json" % tag)
    command = [str(harness), "run", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--snapshot", str(snap),
               "--report", str(report_path)]
    if args.trace:
        command += ["--spans", str(spans_path)]
    started = time.monotonic()
    timeout_s = args.seconds + HARNESS_MARGIN_S
    try:
        run = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                             timeout=timeout_s)
    except subprocess.TimeoutExpired:
        fail("harness did not finish within %d s" % timeout_s)
    if run.returncode not in (0, 1) or not report_path.is_file():
        fail("harness failed (exit %d)" % run.returncode)
    report = json.loads(report_path.read_text())
    spans = json.loads(spans_path.read_text()) if args.trace else []
    report_path.unlink()
    if args.trace:
        spans_path.unlink()

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": SCALE,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "build_type": report["build_type"],
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "analytics_lanes": report["lanes"],
        "server_workers": report["server_workers"],
        "clients": report["clients"],
        "kernel": report["kernel"],
        "pools": report["pools"],
        "run_s": time.monotonic() - started,
    }
    result = reduce.result_line(report, spans, args.trace)
    detail = reduce.detailed_report(report, spans, args.trace, provenance)
    print(json.dumps({"report": detail}, sort_keys=True))
    print(json.dumps(result))
    if not result["correct"]:
        print("perfbench: %d of %d operations failed or were wrong: %s"
              % (result["failed"], result["attempted"],
                 "; ".join(report["notes"][:5])), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
