#!/usr/bin/env python3
"""Phase-breakdown benchmark: base commit vs working tree.

Builds tools/bench_targets/harness.cc against the library sources of a
base commit (exported with `git archive`) and of this checkout, then
runs a grid at threads 1 (by default HOSP 10k/20k and Tax 10k x
{Greedy, Appro-M}; `--runs` picks another), three repetitions per side,
each run in a fresh process (VmHWM is per process). Sides alternate
within each repetition. Writes medians and the raw runs to
BENCH_targets.json.

Per run it records every PhaseTimings field (detect_ms, graph_ms,
solve_ms, targets_ms, apply_ms, stats_ms, total_ms) and their
detect_graph_ms sum, the number of violation-graph detections
(samples of ftrepair.detect.graph_build_ms), the tree's node count
before and after compaction, the distance-table entries and bytes (the
ftrepair.targets.* counters), the Greedy-M work counters
(greedy_rounds, candidates_rescored, target_scores), the process VmHWM
and the cells changed; a counter the base lacks is null. For every
dataset and algorithm run at several row counts, `solve_scaling`
gives each side's median solve_ms ratio of the larger runs to the
smallest.

The result is stamped with the build type, the CPU count and the load
average before and after. Like repairbench/run.py --record, the script
refuses to record when the 1-minute load average exceeds the CPU count,
or when the build is not optimized, and writes the reason instead.

    python3 tools/bench_targets.py [--base REF] [--out BENCH_targets.json]
    python3 tools/bench_targets.py --base REF --out BENCH_detect_once.json
    python3 tools/bench_targets.py --base REF --out BENCH_greedy_rescore.json \
        --runs hosp:10000:greedy,hosp:20000:greedy,hosp:50000:greedy,\
tax:10000:greedy,tax:20000:greedy
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
    "greedy_rounds": "ftrepair.solve.greedy_rounds",
    "candidates_rescored": "ftrepair.solve.candidates_rescored",
    "target_scores": "ftrepair.solve.target_scores",
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


def parse_runs(text):
    """'hosp:10000:greedy,...' -> [("hosp", 10000, "greedy"), ...]."""
    runs = []
    for item in text.split(","):
        dataset, rows, algorithm = item.strip().split(":")
        if dataset not in ("hosp", "tax") or \
                algorithm not in ("greedy", "appro"):
            raise SystemExit(f"bad run '{item}'")
        runs.append((dataset, int(rows), algorithm))
    return runs


def solve_scaling(grid, results):
    """Per side, median solve_ms of each larger run over the smallest
    run of the same dataset and algorithm."""
    by_name = {entry["run"]: entry for entry in results}
    scaling = {}
    for dataset, rows, algorithm in grid:
        smallest = min(r for d, r, a in grid
                       if d == dataset and a == algorithm)
        if rows == smallest:
            continue
        name = f"{dataset}-{rows // 1000}k-{algorithm}"
        small = f"{dataset}-{smallest // 1000}k-{algorithm}"
        scaling[f"{name} / {small}"] = {
            side: round(by_name[name][side]["median"]["solve_ms"] /
                        by_name[small][side]["median"]["solve_ms"], 2)
            for side in ("base", "head")}
    return scaling


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", default="HEAD~1",
                        help="git ref of the base side (default HEAD~1)")
    parser.add_argument("--out", default=str(ROOT / "BENCH_targets.json"))
    parser.add_argument("--runs",
                        default=",".join(f"{d}:{r}:{a}" for d, r, a in RUNS),
                        help="comma-separated DATASET:ROWS:ALGORITHM runs "
                             "(DATASET hosp|tax, ALGORITHM greedy|appro)")
    args = parser.parse_args()
    grid = parse_runs(args.runs)

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
        for dataset, rows, _ in grid:
            if (dataset, rows) in csvs:
                continue
            csv = Path(tmp) / f"{dataset}_{rows}.csv"
            subprocess.run([str(binaries["head"]), "gen", dataset,
                            str(rows), str(csv)], check=True)
            csvs[(dataset, rows)] = csv

        results = []
        for dataset, rows, algorithm in grid:
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
                        f"solve {run['solve_ms']:.1f} ms, "
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
        "stamp": stamp, "results": results,
        "solve_scaling": solve_scaling(grid, results)}
    Path(args.out).write_text(json.dumps(out, indent=2) + "\n")
    log(f"wrote {args.out}" + (f" (refused: {refusal})" if refusal else ""))
    return 1 if refusal else 0


if __name__ == "__main__":
    sys.exit(main())
