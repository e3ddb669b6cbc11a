// The traced replay: the repair pipeline re-run through the layers'
// public functions, with the benchmark's own spans around each call.
// It gives the per-layer numbers without any change to the library.
#ifndef REPAIRBENCH_REPLAY_H_
#define REPAIRBENCH_REPLAY_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "constraint/fd.h"
#include "core/repair_types.h"

namespace repairbench {

struct Replay {
  /// Repaired table, changes, repair cost and cells changed, as
  /// Repairer::Repair would report them. stats.degradations holds one
  /// marker event when any stage ran out of budget.
  ftrepair::RepairResult result;
  /// Per-layer metrics by their BENCHMARK.json names (times in ms).
  std::map<std::string, double> metrics;
  /// Non-empty when the replayed AssignTargets disagreed with the
  /// targets the solver computed on the same chosen sets.
  std::string mismatch;
};

/// Replays ReadCsvString + the ft-cost Repair pipeline on `csv`:
/// CountFTViolations per FD, then per FD component (concurrently, as
/// the pipeline runs them) BuildComponentContext and SolveGreedyMulti
/// or SolveApproMulti, then a replayed AssignTargets on each solver's
/// chosen sets, ApplyMultiFDSolution in component order, and the
/// recount plus TableRepairCost. A `deadline_ms` > 0 starts a Budget
/// right after the read, like the timed calls, and steps down the
/// greedy -> appro -> skip ladder on exhaustion. Only multi-FD
/// components are replayed (HOSP has no single-FD component).
ftrepair::Result<Replay> ReplayPipeline(const std::string& csv,
                                        const std::vector<ftrepair::FD>& fds,
                                        ftrepair::RepairOptions options,
                                        double deadline_ms);

}  // namespace repairbench

#endif  // REPAIRBENCH_REPLAY_H_
