#!/usr/bin/env python3
"""End-to-end repair benchmark runner.

Builds the library and the harness from this checkout's sources into
.bench_build/repairbench, runs one workload, checks that the metric
names and units the harness printed match BENCHMARK.json, and passes
its output through. The last line of standard output is the result:

    python3 repairbench/run.py --workload hosp-greedy --seed 42 \
        --seconds 20 --trace 0

--record runs every workload at the default seeds (end-to-end and
traced) and writes repairbench/baseline.json, or refuses and writes the
reason instead when the build is not optimized or the load average
exceeds the CPU count.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "repairbench"
BUILD_DIR = ROOT / ".bench_build" / "repairbench"
HARNESS = BUILD_DIR / "repairbench"
HARNESS_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness; False on failure."""
    jobs = str(len(os.sched_getaffinity(0)))
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    step = ["cmake", "--build", str(BUILD_DIR), "--target", "repairbench",
            "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_harness(workload, seed, seconds, trace):
    """Runs the harness; returns (stamp line, result dict) or None."""
    cmd = [str(HARNESS), "--workload", workload, "--seconds", str(seconds),
           "--trace", str(trace)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"harness timed out after {HARNESS_TIMEOUT_S} s")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        log(proc.stdout)
        log(f"harness exited with code {proc.returncode}")
        return None
    result = json.loads(lines[-1])
    expected = expected_metrics(trace)
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if result["correct"] and printed != expected:
        log(f"metric names or units differ from BENCHMARK.json: "
            f"printed {sorted(printed.items())}, "
            f"expected {sorted(expected.items())}")
        return None
    return lines[-2], result


def record(seconds):
    """Writes baseline.json from runs at the default seeds, or refuses."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {"seconds": seconds, "workloads": {}}
    refusal = None
    for workload in [w["name"] for w in spec["workloads"]]:
        entry = {}
        for trace in (0, 1):
            ran = run_harness(workload, None, seconds, trace)
            if ran is None or not ran[1]["correct"]:
                log(f"{workload}: run failed")
                return 1
            stamp = json.loads(ran[0].split(":", 1)[1])
            if stamp["build_type"] not in ("Release", "RelWithDebInfo"):
                refusal = f"build type {stamp['build_type']} is not optimized"
            elif stamp["load_guard"] != "ok":
                refusal = stamp["load_guard"]
            if refusal:
                break
            entry["stamp" if trace == 0 else "traced_stamp"] = stamp
            entry["end_to_end" if trace == 0 else "per_layer"] = {
                k: v["value"] for k, v in ran[1]["metrics"].items()}
        if refusal:
            break
        out["workloads"][workload] = entry
    if refusal:
        out = {"refused": refusal}
        log(f"refused to record: {refusal}")
    (BENCH_DIR / "baseline.json").write_text(json.dumps(out, indent=2) + "\n")
    return 1 if refusal else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if not args.record and not args.workload:
        parser.error("--workload is required")
    if not build():
        log("build failed")
        return 1
    if args.record:
        return record(args.seconds)
    ran = run_harness(args.workload, args.seed, args.seconds, args.trace)
    if ran is None:
        return 1
    print(ran[0])
    print(json.dumps(ran[1]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
