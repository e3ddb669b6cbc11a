#!/usr/bin/env bash
# Pre-merge gate for the resource-governance surface: builds the chaos
# suite under AddressSanitizer+UBSan and then ThreadSanitizer and runs
# the fault sweeps (tests/chaos_test.cc + the budget ladder suite), so
# a memory-exhaustion path that crashes, races, or leaks fails the
# gate. See docs/ROBUSTNESS.md for the contract being enforced.
#
# Usage: tools/chaos_check.sh [asan-build-dir] [tsan-build-dir]
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
asan_dir="${1:-${repo_root}/build-chaos-asan}"
tsan_dir="${2:-${repo_root}/build-chaos-tsan}"

# The chaos surface: MemoryBudget unit semantics, the fault sweeps,
# ladder completeness, bit-identity, the degradation-ladder golden
# (FD components and CFD units under fault-seam sweeps), and the
# deadline-budget ladder suite that shares the degradation machinery —
# plus the distance-kernel fuzz, so a kernel change can never slip
# past the sanitizers, and the repair-semantics property sweeps
# (cardinality majority, soft-fd filters), whose pipelines ride the
# same degradation ladder.
chaos_regex='Chaos|Memory|Ladder|Budget|DistanceKernel|Semantics|Cardinality|SoftFd'

run_mode() {
  local mode="$1" build_dir="$2"
  echo "== chaos sweep under ${mode} sanitizer =="
  cmake -B "${build_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DFTREPAIR_SANITIZE="${mode}" \
    -DFTREPAIR_BUILD_BENCHMARKS=OFF \
    -DFTREPAIR_BUILD_EXAMPLES=OFF
  cmake --build "${build_dir}" -j "$(nproc)" \
    --target chaos_test budget_test ladder_golden_test \
             distance_kernel_test semantics_test semantics_property_test
  if [[ "${mode}" == "thread" ]]; then
    export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"
  else
    export ASAN_OPTIONS="detect_leaks=1:abort_on_error=1"
    export UBSAN_OPTIONS="print_stacktrace=1"
  fi
  ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)" \
    -R "${chaos_regex}"
}

run_mode address "${asan_dir}"
run_mode thread "${tsan_dir}"

echo "chaos_check: PASS"
