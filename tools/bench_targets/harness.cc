// One phase-breakdown benchmark run (see tools/bench_targets.py).
//
//   bench_targets gen {hosp|tax} ROWS OUT.csv
//       writes the dirty table (4% noise, seed 42) to OUT.csv;
//   bench_targets run {hosp|tax} {greedy|appro} IN.csv
//       reads IN.csv, repairs it at threads 1 with the dataset's
//       recommended settings under an unlimited MemoryBudget and prints
//       one JSON line: every PhaseTimings field, cells changed, the
//       budget's peak charged bytes, the process's VmHWM and the
//       metrics snapshot (which holds the graph-build count).
//
// Only library calls that exist on both sides of a comparison are used,
// so the same harness builds against the base and the changed sources.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/metrics.h"
#include "common/resource.h"
#include "core/repairer.h"
#include "data/csv.h"
#include "gen/error_injector.h"
#include "gen/hosp_gen.h"
#include "gen/tax_gen.h"

namespace {

using namespace ftrepair;

Dataset Generate(const std::string& name, int rows) {
  if (name == "hosp") {
    HospOptions options;
    options.num_rows = rows;
    return std::move(GenerateHosp(options)).ValueOrDie();
  }
  TaxOptions options;
  options.num_rows = rows;
  return std::move(GenerateTax(options)).ValueOrDie();
}

// Peak resident set of this process, in KiB.
long VmHwmKib() {
  long kib = -1;
  if (FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atol(line + 6);
    }
    std::fclose(f);
  }
  return kib;
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_targets gen {hosp|tax} ROWS OUT.csv\n"
               "       bench_targets run {hosp|tax} {greedy|appro} IN.csv\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 5) return Usage();
  const std::string mode = argv[1];
  const std::string dataset = argv[2];
  if (dataset != "hosp" && dataset != "tax") return Usage();
  if (mode == "gen") {
    Dataset ds = Generate(dataset, std::atoi(argv[3]));
    NoiseOptions noise;
    noise.error_rate = 0.04;
    noise.seed = 42;
    Table dirty =
        std::move(InjectErrors(ds.clean, ds.fds, noise)).ValueOrDie();
    Status written = WriteCsvFile(dirty, argv[4]);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
    return 0;
  }
  if (mode != "run") return Usage();
  const std::string algorithm = argv[3];
  if (algorithm != "greedy" && algorithm != "appro") return Usage();
  // The FDs and recommended settings do not depend on the row count.
  Dataset ds = Generate(dataset, 10);
  Table dirty = std::move(ReadCsvFile(argv[4])).ValueOrDie();
  RepairOptions options;
  options.semantics = "ft-cost";
  options.algorithm = algorithm == "greedy" ? RepairAlgorithm::kGreedy
                                            : RepairAlgorithm::kApproJoin;
  options.w_l = ds.recommended_w_l;
  options.w_r = ds.recommended_w_r;
  options.tau_by_fd = ds.recommended_tau;
  options.threads = 1;
  MemoryBudget memory;
  options.memory = &memory;
  auto result = Repairer(options).Repair(dirty, ds.fds);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  const RepairStats& stats = result.value().stats;
  const PhaseTimings& phases = stats.phases;
  std::printf(
      "{\"build_type\":\"%s\",\"detect_ms\":%.3f,\"graph_ms\":%.3f,"
      "\"solve_ms\":%.3f,\"targets_ms\":%.3f,\"apply_ms\":%.3f,"
      "\"stats_ms\":%.3f,\"total_ms\":%.3f,\"cells_changed\":%d,"
      "\"peak_charged_bytes\":%llu,\"vm_hwm_kib\":%ld,\"metrics\":%s}\n",
      BENCH_BUILD_TYPE, phases.detect_ms, phases.graph_ms, phases.solve_ms,
      phases.targets_ms, phases.apply_ms, phases.stats_ms, phases.total_ms,
      stats.cells_changed,
      static_cast<unsigned long long>(memory.peak_bytes()), VmHwmKib(),
      Metrics().SnapshotJson().c_str());
  return 0;
}
