#!/usr/bin/env python3
"""Phase-breakdown benchmark: base commit vs working tree, in pairs.

Builds tools/bench_targets/harness.cc against the library sources of a
base commit (exported with `git archive`) and of this checkout, then
runs a grid at threads 1 (by default HOSP 10k/20k/50k and Tax 10k x
{Greedy, Appro-M}; `--runs` picks another). Every grid entry runs
PAIRS (5) alternating pairs: each pair runs base and head once each,
each in a fresh process (VmHWM is per process), base first in even
pairs and head first in odd ones, so drift in the machine's load
lands on both sides alike.

Per run it records every PhaseTimings field (detect_ms, graph_ms,
solve_ms, targets_ms, apply_ms, stats_ms, total_ms) and their
detect_graph_ms sum, the number of violation-graph detections
(samples of ftrepair.detect.graph_build_ms), the tree's node count
before and after compaction, the distance-table entries and bytes (the
ftrepair.targets.* counters), the Greedy-M work counters
(greedy_rounds, candidates_rescored, target_scores), the adjacency
bytes each multi-FD component freed before its target phase
(ftrepair.solve.graph_bytes_released, per component), the
MemoryBudget's peak charged bytes, the process VmHWM and the cells
changed; a value the base lacks is null.

Per metric and side it reports the median, the quartiles and their
spread (q3 - q1), and how many pairs each side won (the lower value
wins; equal values tie). For every dataset and algorithm run at
several row counts, `solve_scaling` gives each side's median solve_ms
ratio of the larger runs to the smallest.

The result is stamped with the build type, the CPU count and the load
average before and after. Like repairbench/run.py --record, the script
refuses to record when the 1-minute load average exceeds the CPU count,
or when the build is not optimized, and writes the reason instead.

    python3 tools/bench_targets.py [--base REF] [--out BENCH_targets.json]
    python3 tools/bench_targets.py --base REF --out BENCH_graph_release.json \\
        --runs hosp:10000:greedy,hosp:10000:appro,hosp:50000:appro
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
PAIRS = 5
RUNS = [("hosp", 10000, "greedy"), ("hosp", 10000, "appro"),
        ("hosp", 20000, "greedy"), ("hosp", 20000, "appro"),
        ("hosp", 50000, "greedy"), ("hosp", 50000, "appro"),
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
RELEASED = "ftrepair.solve.graph_bytes_released{component="


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
    run["peak_charged_bytes"] = raw.get("peak_charged_bytes")
    run["graph_builds"] = histograms.get(
        "ftrepair.detect.graph_build_ms", {}).get("count")
    for key, name in COUNTERS.items():
        run[key] = counters.get(name)
    released = {name[len(RELEASED):-1]: value
                for name, value in counters.items()
                if name.startswith(RELEASED)}
    run["graph_bytes_released"] = released or None
    return raw["build_type"], run


def summary(values):
    """Median, quartiles and their spread of the non-null `values`."""
    values = [v for v in values if v is not None]
    if not values:
        return None
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": q3 - q1}


def compare(pairs):
    """Per scalar metric: each side's summary and the pair wins."""
    out = {}
    for key, value in pairs[0]["base"].items():
        if isinstance(value, dict) or key == "graph_bytes_released":
            continue
        entry = {side: summary([p[side][key] for p in pairs])
                 for side in ("base", "head")}
        wins = {"base": 0, "head": 0, "tie": 0}
        for p in pairs:
            b, h = p["base"][key], p["head"][key]
            if b is None or h is None or b == h:
                wins["tie"] += 1
            else:
                wins["head" if h < b else "base"] += 1
        entry["wins"] = wins
        out[key] = entry
    return out


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
            side: round(by_name[name]["metrics"]["solve_ms"][side]["median"] /
                        by_name[small]["metrics"]["solve_ms"][side]["median"],
                        2)
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
             "threads": 1, "pairs": PAIRS}

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
            pairs = []
            for index in range(PAIRS):
                order = ("base", "head") if index % 2 == 0 else \
                        ("head", "base")
                pair = {}
                for side in order:
                    build_type, run = run_once(binaries[side], dataset,
                                               algorithm,
                                               csvs[(dataset, rows)])
                    stamp["build_type"] = build_type
                    pair[side] = run
                    log(f"{name} {side} pair {index}: "
                        f"total {run['total_ms']:.1f} ms, "
                        f"solve {run['solve_ms']:.1f} ms, "
                        f"targets {run['targets_ms']:.1f} ms, "
                        f"peak {run['peak_charged_bytes']} B, "
                        f"hwm {run['vm_hwm_kib']} KiB")
                pairs.append(pair)
            results.append({
                "run": name,
                "graph_bytes_released": {
                    side: pairs[0][side]["graph_bytes_released"]
                    for side in ("base", "head")},
                "metrics": compare(pairs),
                "pairs": pairs,
            })

    stamp["load_avg_after"] = os.getloadavg()
    load = max(load_before[0], stamp["load_avg_after"][0])
    refusal = None
    if stamp["build_type"] not in ("Release", "RelWithDebInfo"):
        refusal = f"build type {stamp['build_type']} is not optimized"
    elif load > ncpu:
        refusal = f"load average {load:.2f} exceeds the CPU count {ncpu}"
    out = {"refused": refusal, "stamp": stamp} if refusal else {
        "protocol": "tools/bench_targets.py: base vs head, threads 1, "
                    f"{PAIRS} alternating fresh-process pairs per run; "
                    "per metric the median, quartiles, spread and pair wins "
                    "(lower wins)",
        "stamp": stamp, "results": results,
        "solve_scaling": solve_scaling(grid, results)}
    Path(args.out).write_text(json.dumps(out, indent=2) + "\n")
    log(f"wrote {args.out}" + (f" (refused: {refusal})" if refusal else ""))
    return 1 if refusal else 0


if __name__ == "__main__":
    sys.exit(main())
