#!/usr/bin/env bash
# Pre-merge gate for the repair-semantics layer: builds the
# cross-semantics property harness and its unit suites under
# AddressSanitizer+UBSan and then ThreadSanitizer and runs them, so a
# semantics-dispatch bug that corrupts memory, races (the property
# sweeps repair at several thread counts), or breaks a cross-semantics
# invariant fails the gate before merge.
#
# Usage: tools/semantics_check.sh [asan-build-dir] [tsan-build-dir]
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
asan_dir="${1:-${repo_root}/build-semantics-asan}"
tsan_dir="${2:-${repo_root}/build-semantics-tsan}"

# The semantics surface: the SemanticsId table + solver/filter units, the
# 520-table differential & property harness, the CLI flag plumbing
# (--semantics / --confidence / --cfds negative paths), and the FD/CFD
# parser extensions feeding it.
semantics_regex='Semantics|Cardinality|SoftFd|Cli|FDParser|CFDParser'

run_mode() {
  local mode="$1" build_dir="$2"
  echo "== semantics sweep under ${mode} sanitizer =="
  cmake -B "${build_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DFTREPAIR_SANITIZE="${mode}" \
    -DFTREPAIR_BUILD_BENCHMARKS=OFF \
    -DFTREPAIR_BUILD_EXAMPLES=OFF
  cmake --build "${build_dir}" -j "$(nproc)" \
    --target semantics_test semantics_property_test semantics_golden_test \
             cli_test fd_test cfd_test
  if [[ "${mode}" == "thread" ]]; then
    export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"
  else
    export ASAN_OPTIONS="detect_leaks=1:abort_on_error=1"
    export UBSAN_OPTIONS="print_stacktrace=1"
  fi
  ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)" \
    -R "${semantics_regex}"
}

run_mode address "${asan_dir}"
run_mode thread "${tsan_dir}"

echo "semantics_check: PASS"
