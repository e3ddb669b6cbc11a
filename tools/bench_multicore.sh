#!/usr/bin/env bash
# Multi-core benchmark protocol for the distance kernels: builds the
# bench suite (RelWithDebInfo, same as every recorded BENCH_*.json) and
# records the scalar-vs-bitparallel A/B curves and the end-to-end
# detect phase into BENCH_distance_kernels.json (3 repetitions, aggregates
# only — medians are what docs/PERFORMANCE.md quotes).
#
# The thread-scaling sweep (BM_ViolationGraphThreads) is only
# recorded when the box actually has >= 2 CPUs: on a single core the
# curve is flat by construction and recording it would launder a
# non-measurement into the benchmark ledger. On such boxes the script
# still runs the kernel A/B suites (valid on any core count) and marks
# the thread-scaling section as refused, with the reason, in the JSON.
#
# Usage: tools/bench_multicore.sh [build-dir] [output-json]
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build-bench}"
out_json="${2:-${repo_root}/BENCH_distance_kernels.json}"

reps=3
min_time=0.05

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DFTREPAIR_BUILD_BENCHMARKS=ON \
  -DFTREPAIR_BUILD_EXAMPLES=OFF
cmake --build "${build_dir}" -j "$(nproc)" --target micro_distance

kernel_json="$(mktemp)"
threads_json="$(mktemp)"
trap 'rm -f "${kernel_json}" "${threads_json}"' EXIT

run_bench() {
  local filter="$1" out="$2"
  "${build_dir}/bench/micro_distance" \
    --benchmark_filter="${filter}" \
    --benchmark_repetitions="${reps}" \
    --benchmark_report_aggregates_only=true \
    --benchmark_min_time="${min_time}" \
    --benchmark_format=json \
    --benchmark_out="${out}" \
    --benchmark_out_format=json
}

echo "== kernel A/B suites (valid on any core count) =="
run_bench \
  'BM_EditDistanceKernel|BM_BoundedEditDistanceKernel|BM_DetectPhase' \
  "${kernel_json}"

ncpu="$(nproc)"
threads_recorded=false
refusal=""
if (( ncpu >= 2 )); then
  echo "== thread-scaling sweep on ${ncpu} CPUs =="
  run_bench 'BM_ViolationGraphThreads' "${threads_json}"
  threads_recorded=true
else
  refusal="nproc=${ncpu}: thread-scaling curve is flat by construction on a single core; refusing to record it as a measurement. Re-run on a box with >= 2 CPUs."
  echo "REFUSED thread-scaling recording: ${refusal}" >&2
fi

python3 - "${kernel_json}" "${threads_json}" "${out_json}" \
  "${threads_recorded}" "${refusal}" <<'PY'
import json, sys

kernel_path, threads_path, out_path, recorded, refusal = sys.argv[1:6]
with open(kernel_path) as f:
    merged = json.load(f)

if recorded == "true":
    with open(threads_path) as f:
        merged["benchmarks"].extend(json.load(f)["benchmarks"])
    merged["thread_scaling"] = {"recorded": True, "num_cpus_at_record": merged["context"]["num_cpus"]}
else:
    merged["thread_scaling"] = {"recorded": False, "refusal": refusal}

merged["protocol"] = {
    "script": "tools/bench_multicore.sh",
    "repetitions": 3,
    "build_type": "RelWithDebInfo",
    "kernel_arg": "0 = scalar, 1 = bitparallel",
    "notes": "Kernel A/B and detect-phase suites are single-core-valid and always recorded; BM_ViolationGraphThreads is only recorded when nproc >= 2.",
}

with open(out_path, "w") as f:
    json.dump(merged, f, indent=2)
    f.write("\n")
print(f"wrote {out_path}")
PY

echo "bench_multicore: done"
