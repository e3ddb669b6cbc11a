#!/usr/bin/env bash
# Builds the project under a sanitizer and runs the test suite.
#
# Usage: [FTREPAIR_SANITIZE=address|thread] tools/sanitize_check.sh [build-dir]
#
#   address (default)  ASan + UBSan over the full suite — the pre-merge
#                      gate for the repair kernels and ingest paths.
#   thread             TSan over the concurrency-relevant tests (the
#                      worker pool, the parallel violation-graph build,
#                      budget charging and the metrics/trace paths), so
#                      data races in those layers fail the gate.
#
# Any sanitizer report fails the run (-fno-sanitize-recover=all turns
# UB into aborts; ASAN_OPTIONS below keeps leaks fatal).
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
mode="${FTREPAIR_SANITIZE:-address}"

case "${mode}" in
  address|ON|on)
    mode=address
    default_build_dir="${repo_root}/build-asan"
    ;;
  thread)
    default_build_dir="${repo_root}/build-tsan"
    ;;
  *)
    echo "unknown FTREPAIR_SANITIZE='${mode}' (address | thread)" >&2
    exit 2
    ;;
esac
build_dir="${1:-${default_build_dir}}"

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DFTREPAIR_SANITIZE="${mode}" \
  -DFTREPAIR_BUILD_BENCHMARKS=OFF \
  -DFTREPAIR_BUILD_EXAMPLES=OFF
cmake --build "${build_dir}" -j "$(nproc)"

if [[ "${mode}" == "thread" ]]; then
  export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"
  # The concurrency surface: thread pool + ParallelFor, the parallel
  # graph build (and everything exercising it), the per-component solve
  # fan-out and the solvers it runs concurrently, the eager and lazy
  # target searches that AssignTargets fans out, shared-budget and
  # shared-memory-budget charging (the chaos/ladder sweeps), the
  # relaxed-atomic metrics/trace registries, the thread-local kernel
  # scratch of the edit-distance kernels (the kernel fuzz), and the
  # per-semantics pipelines (the cross-semantics property sweeps run
  # repairs at several thread counts).
  ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)" \
    -R 'ThreadPool|Parallel|ViolationGraph|BlockIndex|Detector|DetectOnce|Budget|Metrics|Trace|Repairer|Greedy|Expansion|Multi|TargetTree|LazyTargets|TargetSearch|Trusted|Chaos|Memory|Ladder|Provenance|ExplainReport|AuditLog|Columnar|StreamingIngest|DistanceKernel|Semantics|Cardinality|SoftFd'
else
  export ASAN_OPTIONS="detect_leaks=1:abort_on_error=1"
  export UBSAN_OPTIONS="print_stacktrace=1"
  ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)"
fi
