#include "core/appro_multi.h"

#include "common/trace.h"
#include "core/greedy_single.h"

namespace ftrepair {

Result<MultiFDCover> CoverApproMulti(const ComponentContext& context,
                                     const RepairOptions& options,
                                     RepairStats* stats) {
  FTR_TRACE_SPAN("appro.solve_multi");
  MultiFDCover cover;
  cover.rung = SolverRung::kAppro;
  cover.chosen.reserve(context.fds.size());
  for (const ViolationGraph& graph : context.graphs) {
    SingleFDSolution greedy;
    if (options.trusted_rows.empty()) {
      greedy = SolveGreedySingle(graph, nullptr, nullptr, options.budget,
                                 options.memory);
    } else {
      std::vector<bool> forced =
          TrustedPatternMask(graph.patterns(), options.trusted_rows);
      uint64_t conflicts = 0;
      greedy = SolveGreedySingle(graph, &forced, &conflicts, options.budget,
                                 options.memory);
      if (stats != nullptr) stats->trusted_conflicts += conflicts;
    }
    cover.truncated = cover.truncated || greedy.truncated;
    cover.chosen.push_back(std::move(greedy.chosen_set));
  }
  if (cover.truncated) {
    // Exhausted before any per-FD cover grew: nothing to assign
    // targets for — let the caller take the ladder's bottom rung.
    bool all_empty = true;
    for (const std::vector<int>& set : cover.chosen) {
      all_empty = all_empty && set.empty();
    }
    if (all_empty) {
      return ResourceCheck(options.budget, options.memory,
                           "appro per-FD cover");
    }
  }
  return cover;
}

Result<MultiFDSolution> SolveApproMulti(const ComponentContext& context,
                                        const DistanceModel& model,
                                        const RepairOptions& options,
                                        RepairStats* stats) {
  return SolveCover(context, CoverApproMulti(context, options, stats), model,
                    options, stats);
}

}  // namespace ftrepair
