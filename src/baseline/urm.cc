#include "baseline/urm.h"

#include <algorithm>

#include "core/repairer.h"
#include "detect/pattern.h"
#include "metric/projection.h"

namespace ftrepair {

Result<RepairResult> UrmRepair(const Table& table, const std::vector<FD>& fds,
                               const UrmOptions& options) {
  FTR_RETURN_NOT_OK(ValidateFDs(table.schema(), fds));
  RepairResult result;
  result.repaired = table;
  DistanceModel model(table);

  for (const FD& fd : fds) {
    std::vector<Pattern> patterns =
        BuildPatterns(result.repaired, fd.attrs());
    std::vector<size_t> core;
    std::vector<size_t> deviant;
    for (size_t i = 0; i < patterns.size(); ++i) {
      if (patterns[i].count() >= options.core_frequency) {
        core.push_back(i);
      } else {
        deviant.push_back(i);
      }
    }
    if (core.empty()) continue;

    // The patterns' codes decode through the evolving output table:
    // its dictionaries only grow, so every code keeps its value.
    const ProjectionDecoder decoder(result.repaired, fd.attrs());
    for (size_t d : deviant) {
      // Nearest core pattern by summed attribute distance.
      double best = ViolationGraph::kInfinity;
      size_t best_core = core[0];
      for (size_t c : core) {
        double dist = 0;
        for (int p = 0; p < fd.num_attrs(); ++p) {
          size_t k = static_cast<size_t>(p);
          dist += decoder.Distance(model, k, patterns[d].codes[k],
                                   patterns[c].codes[k]);
        }
        if (dist < best) {
          best = dist;
          best_core = c;
        }
      }
      // Description-length test: only cheap moves shorten the encoding.
      if (best > options.max_change_ratio * fd.num_attrs()) continue;
      const std::vector<Value> target = DecodeProjection(
          result.repaired, fd.attrs(), patterns[best_core].codes);
      for (int row : patterns[d].rows) {
        for (int p = 0; p < fd.num_attrs(); ++p) {
          int col = fd.attrs()[static_cast<size_t>(p)];
          const Value& cell = result.repaired.cell(row, col);
          if (cell != target[static_cast<size_t>(p)]) {
            result.changes.push_back(
                CellChange{row, col, cell, target[static_cast<size_t>(p)]});
            result.repaired.SetCell(row, col, target[static_cast<size_t>(p)]);
          }
        }
      }
    }
  }

  result.stats.repair_cost = TableRepairCost(table, result.repaired, model);
  result.stats.cells_changed = static_cast<int>(result.changes.size());
  return result;
}

}  // namespace ftrepair
