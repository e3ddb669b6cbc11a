// Workload definitions of the end-to-end repair benchmark: which
// dataset, size, solver, thread count and deadline each workload runs,
// and the set-up that turns a seed into the dirty CSV text the program
// under test receives.
#ifndef REPAIRBENCH_WORKLOAD_H_
#define REPAIRBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/repair_types.h"
#include "data/table.h"
#include "gen/dataset.h"

namespace repairbench {

struct Workload {
  const char* name;
  int rows;
  ftrepair::RepairAlgorithm algorithm;
  /// 0 = min(4, hardware threads); otherwise the exact thread count.
  int threads;
  /// Wall-clock deadline handed to Repair; 0 = none.
  double deadline_ms;
};

/// The workload named `name`, or null.
const Workload* FindWorkload(const std::string& name);

/// Dirty instances per run. The timed calls cycle through them, so a
/// run's median spans several error placements rather than one.
inline constexpr int kInstances = 4;

/// What set-up produces: the clean table (for scoring), the FDs and
/// recommended thresholds, and the dirty instances as CSV text.
struct Inputs {
  ftrepair::Dataset dataset;
  std::vector<std::string> dirty_csv;
};

/// Generates HOSP at `rows` rows from `gen_seed`, then `instances`
/// dirty copies, copy i with 4% errors injected from noise seed
/// `noise_seed + i * 1000003`, each serialized to CSV.
ftrepair::Result<Inputs> MakeInputs(int rows, uint64_t gen_seed,
                                    uint64_t noise_seed, int instances);

/// The options a user of the workload would pass: the dataset's
/// recommended taus and weights, ft-cost semantics, the library
/// default violation statistics, and the workload's solver and
/// threads. The deadline budget is attached per call by the caller.
ftrepair::RepairOptions MakeOptions(const Workload& workload,
                                    const ftrepair::Dataset& dataset);

}  // namespace repairbench

#endif  // REPAIRBENCH_WORKLOAD_H_
