#!/usr/bin/env python3
"""Phase-breakdown benchmark: base commit vs working tree.

Builds tools/bench_targets/harness.cc against the library sources of a
base commit (exported with `git archive`) and of this checkout, then
runs HOSP 10k/20k and Tax 10k x {Greedy, Appro-M} at threads 1, three
repetitions per side, each run in a fresh process (VmHWM is per
process). Sides alternate within each repetition. Writes medians and
the raw runs to BENCH_targets.json.

Per run it records every PhaseTimings field (detect_ms, graph_ms,
solve_ms, targets_ms, apply_ms, stats_ms, total_ms) and their
detect_graph_ms sum, the number of violation-graph detections
(samples of ftrepair.detect.graph_build_ms), the tree's node count
before and after compaction, the distance-table entries and bytes (the
ftrepair.targets.* counters, null where the base lacks them), the
process VmHWM and the cells changed.

The result is stamped with the build type, the CPU count and the load
average before and after. Like repairbench/run.py --record, the script
refuses to record when the 1-minute load average exceeds the CPU count,
or when the build is not optimized, and writes the reason instead.

    python3 tools/bench_targets.py [--base REF] [--out BENCH_targets.json]
    python3 tools/bench_targets.py --base REF --out BENCH_detect_once.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HARNESS_DIR = ROOT / "tools" / "bench_targets"
BUILD_ROOT = ROOT / ".bench_build" / "bench_targets"
REPS = 3
RUNS = [("hosp", 10000, "greedy"), ("hosp", 10000, "appro"),
        ("hosp", 20000, "greedy"), ("hosp", 20000, "appro"),
        ("tax", 10000, "greedy"), ("tax", 10000, "appro")]
PHASES = ("detect_ms", "graph_ms", "solve_ms", "targets_ms", "apply_ms",
          "stats_ms", "total_ms")
COUNTERS = {
    "tree_nodes": "ftrepair.targets.tree_nodes",
    "tree_live_nodes": "ftrepair.targets.tree_live_nodes",
    "distance_evals": "ftrepair.targets.distance_evals",
    "table_bytes": "ftrepair.targets.table_bytes",
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(side, src_dir):
    """Builds the harness against `src_dir`; returns the binary path."""
    build_dir = BUILD_ROOT / side
    configure = ["cmake", "-S", str(HARNESS_DIR), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                 f"-DFTREPAIR_SRC_DIR={src_dir}"]
    jobs = str(len(os.sched_getaffinity(0)))
    subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "bench_targets", "-j", jobs], stdout=sys.stderr,
                   check=True)
    return build_dir / "bench_targets"


def run_once(binary, dataset, algorithm, csv):
    out = subprocess.run([str(binary), "run", dataset, algorithm, str(csv)],
                         stdout=subprocess.PIPE, text=True, check=True)
    raw = json.loads(out.stdout.strip().splitlines()[-1])
    counters = raw["metrics"].get("counters", {})
    histograms = raw["metrics"].get("histograms", {})
    run = {key: raw.get(key) for key in PHASES}
    run["detect_graph_ms"] = (None if raw.get("detect_ms") is None else
                              raw["detect_ms"] + raw["graph_ms"])
    run["cells_changed"] = raw["cells_changed"]
    run["vm_hwm_kib"] = raw["vm_hwm_kib"]
    run["graph_builds"] = histograms.get(
        "ftrepair.detect.graph_build_ms", {}).get("count")
    for key, name in COUNTERS.items():
        run[key] = counters.get(name)
    return raw["build_type"], run


def median_of(runs, key):
    values = [r[key] for r in runs if r[key] is not None]
    return statistics.median(values) if values else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", default="HEAD~1",
                        help="git ref of the base side (default HEAD~1)")
    parser.add_argument("--out", default=str(ROOT / "BENCH_targets.json"))
    args = parser.parse_args()

    ncpu = len(os.sched_getaffinity(0))
    load_before = os.getloadavg()
    stamp = {"build_type": None, "nproc": ncpu,
             "load_avg_before": load_before, "base": args.base,
             "threads": 1, "repetitions": REPS}

    with tempfile.TemporaryDirectory() as tmp:
        base_src = Path(tmp) / "base"
        base_src.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive",
                                  args.base, "src"],
                                 stdout=subprocess.PIPE, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base_src)], input=archive,
                       check=True)
        binaries = {"base": build("base", base_src / "src"),
                    "head": build("head", ROOT / "src")}

        csvs = {}
        for dataset, rows, _ in RUNS:
            if (dataset, rows) in csvs:
                continue
            csv = Path(tmp) / f"{dataset}_{rows}.csv"
            subprocess.run([str(binaries["head"]), "gen", dataset,
                            str(rows), str(csv)], check=True)
            csvs[(dataset, rows)] = csv

        results = []
        for dataset, rows, algorithm in RUNS:
            name = f"{dataset}-{rows // 1000}k-{algorithm}"
            sides = {"base": [], "head": []}
            for rep in range(REPS):
                for side in ("base", "head"):
                    build_type, run = run_once(binaries[side], dataset,
                                               algorithm,
                                               csvs[(dataset, rows)])
                    stamp["build_type"] = build_type
                    sides[side].append(run)
                    log(f"{name} {side} rep {rep}: "
                        f"total {run['total_ms']:.1f} ms, "
                        f"detect+graph {run['detect_graph_ms']:.1f} ms, "
                        f"targets {run['targets_ms']:.1f} ms, "
                        f"hwm {run['vm_hwm_kib']} KiB")
            entry = {"run": name}
            for side, runs in sides.items():
                entry[side] = {
                    "median": {key: median_of(runs, key) for key in runs[0]},
                    "runs": runs,
                }
            results.append(entry)

    stamp["load_avg_after"] = os.getloadavg()
    load = max(load_before[0], stamp["load_avg_after"][0])
    refusal = None
    if stamp["build_type"] not in ("Release", "RelWithDebInfo"):
        refusal = f"build type {stamp['build_type']} is not optimized"
    elif load > ncpu:
        refusal = f"load average {load:.2f} exceeds the CPU count {ncpu}"
    out = {"refused": refusal, "stamp": stamp} if refusal else {
        "protocol": "tools/bench_targets.py: base vs head, threads 1, "
                    f"{REPS} fresh-process repetitions per side, medians",
        "stamp": stamp, "results": results}
    Path(args.out).write_text(json.dumps(out, indent=2) + "\n")
    log(f"wrote {args.out}" + (f" (refused: {refusal})" if refusal else ""))
    return 1 if refusal else 0


if __name__ == "__main__":
    sys.exit(main())
