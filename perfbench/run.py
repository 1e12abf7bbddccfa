#!/usr/bin/env python3
"""Repository benchmark: build perfbench from source, run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see BENCHMARK.json for why each exists):
  resnet50_int8    ResNet-50 img64, BN-folded, fused, calibrated, packaged, int8, 1 thread
  mobilenetv3_f32  MobileNetV3-Large 224, BN-folded, fused, f32, 2 intra-op threads
  fleet_exec       serve::Fleet execute mode, micro CNN, 4 replicas, flash crowd
  fleet_overload   serve::Fleet analytic mode, ResNet-50 cost model, autoscale 1..8

The binary is configured and built (Release) under $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench; the first run pays for the build. Build output
goes to stderr. Every run prints an environment line (nproc, resolved SIMD
level, build type, seed) and every metric, then, as its last line, one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.

A traced run is two processes, each measuring for half of --seconds: an
untraced one whose host_us_per_request is the baseline, then the traced one,
which reports the per-layer ledger and the tracing overhead against that
baseline. Tracing cost is thus compared across
processes, never within one (a second session in one process runs faster).
The traced run also writes a Chrome trace next to the build directory.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("resnet50_int8", "mobilenetv3_f32", "fleet_exec", "fleet_overload")
# The untraced figure a traced run's overhead is measured against.
BASELINE_METRIC = "host_us_per_request"
CHILD_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    out = build_dir()
    steps = []
    if not (out / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", str(os.cpu_count() or 2)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return out / "perfbench"


def run_child(binary, args, seconds, trace, extra=()):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", "1" if trace else "0", *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {CHILD_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{args.workload} printed no result line")
    return lines[:-1], result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    binary = build()
    if not args.trace:
        lines, result = run_child(binary, args, args.seconds, trace=False)
        print("\n".join(lines))
        print(json.dumps(result))
        return

    half = args.seconds / 2
    lines, untraced = run_child(binary, args, half, trace=False)
    for line in lines:
        print("untraced " + line, file=sys.stderr)
    baseline = untraced["metrics"][BASELINE_METRIC]["value"]
    trace_path = build_dir().parent / "perfbench-traces" / f"{args.workload}.trace.json"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    lines, traced = run_child(binary, args, half, trace=True,
                              extra=("--baseline", repr(baseline), "--trace-out", str(trace_path)))
    print("\n".join(lines))
    print(f"chrome trace: {trace_path}")
    print(json.dumps({
        "correct": untraced["correct"] and traced["correct"],
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": untraced["failed"] + traced["failed"],
        "metrics": traced["metrics"],
    }))


if __name__ == "__main__":
    main()
