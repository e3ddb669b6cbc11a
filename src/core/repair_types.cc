#include "core/repair_types.h"

#include <algorithm>
#include <set>

#include "common/budget.h"
#include "common/resource.h"
#include "common/trace.h"

namespace ftrepair {

const char* RepairAlgorithmName(RepairAlgorithm algorithm) {
  switch (algorithm) {
    case RepairAlgorithm::kExact:
      return "Exact";
    case RepairAlgorithm::kGreedy:
      return "Greedy";
    case RepairAlgorithm::kApproJoin:
      return "ApproJoin";
  }
  return "?";
}

const char* DegradationCauseName(DegradationCause cause) {
  switch (cause) {
    case DegradationCause::kUnknown:
      return "unknown";
    case DegradationCause::kDeadline:
      return "deadline";
    case DegradationCause::kMemorySoft:
      return "memory_soft";
    case DegradationCause::kMemoryHard:
      return "memory_hard";
    case DegradationCause::kSearchValve:
      return "search_valve";
  }
  return "?";
}

DegradationCause ClassifyDegradationCause(const Budget* budget,
                                          const MemoryBudget* memory) {
  // Hard-memory latching dominates: once charges fail, everything
  // downstream trips regardless of the clock.
  if (MemExhausted(memory)) return DegradationCause::kMemoryHard;
  if (budget != nullptr &&
      (budget->cancelled() || (budget->limited() && budget->RemainingMs() <= 0))) {
    return DegradationCause::kDeadline;
  }
  if (MemSoftExceeded(memory)) return DegradationCause::kMemorySoft;
  return DegradationCause::kSearchValve;
}

double RepairOptions::TauFor(const FD& fd) const {
  if (!fd.name().empty()) {
    auto it = tau_by_fd.find(fd.name());
    if (it != tau_by_fd.end()) return it->second;
  }
  return default_tau;
}

FTOptions RepairOptions::FTFor(const FD& fd) const {
  // Named assignment, not positional aggregate init: FTOptions keeps
  // growing and a positional list silently reshuffles on insertion.
  FTOptions ft;
  ft.w_l = w_l;
  ft.w_r = w_r;
  ft.tau = TauFor(fd);
  ft.threads = threads;
  ft.memory = memory;
  return ft;
}

double RepairOptions::ConfidenceFor(const FD& fd) const {
  if (!fd.name().empty()) {
    auto it = confidence_by_fd.find(fd.name());
    if (it != confidence_by_fd.end()) return it->second;
  }
  return fd.confidence();
}

void PhaseTimings::Merge(const PhaseTimings& other) {
  detect_ms += other.detect_ms;
  graph_ms += other.graph_ms;
  solve_ms += other.solve_ms;
  targets_ms += other.targets_ms;
  apply_ms += other.apply_ms;
  stats_ms += other.stats_ms;
  total_ms += other.total_ms;
}

void RepairStats::Merge(const RepairStats& other) {
  ft_violations_before += other.ft_violations_before;
  ft_violations_after += other.ft_violations_after;
  repair_cost += other.repair_cost;
  cells_changed += other.cells_changed;
  tuples_changed += other.tuples_changed;
  expansion_nodes += other.expansion_nodes;
  expansion_pruned += other.expansion_pruned;
  combinations_examined += other.combinations_examined;
  combinations_pruned += other.combinations_pruned;
  target_nodes_visited += other.target_nodes_visited;
  target_nodes_pruned += other.target_nodes_pruned;
  targets_materialized += other.targets_materialized;
  degradations.insert(degradations.end(), other.degradations.begin(),
                      other.degradations.end());
  phases.Merge(other.phases);
  join_empty = join_empty || other.join_empty;
  trusted_conflicts += other.trusted_conflicts;
}

void ApplySingleFDSolution(const ViolationGraph& graph, const FD& fd,
                           const SingleFDSolution& solution, Table* table,
                           std::vector<CellChange>* changes,
                           const std::unordered_set<int>* trusted,
                           const ProvenanceScope& scope) {
  FTR_TRACE_SPAN("repair.apply_single", {{"fd", fd.name()}});
  RepairProvenance* prov = scope.prov;
  for (int i = 0; i < graph.num_patterns(); ++i) {
    int target = solution.repair_target[static_cast<size_t>(i)];
    if (target < 0) continue;
    const Pattern& src = graph.pattern(i);
    const Pattern& dst = graph.pattern(target);
    int decision_index = -1;
    if (prov != nullptr) {
      decision_index = static_cast<int>(prov->decisions.size());
      RepairDecision d;
      d.component = scope.component;
      d.fd = scope.fd;
      d.rung = solution.rung;
      d.source_pattern = i;
      d.target_pattern = target;
      d.cols.assign(fd.attrs().begin(), fd.attrs().end());
      d.source_values = DecodeProjection(*table, fd.attrs(), src.codes);
      d.target_values = DecodeProjection(*table, fd.attrs(), dst.codes);
      d.rows = src.rows;
      d.degradations_before = scope.degradations_before;
      for (const ViolationGraph::Edge& e : graph.Neighbors(i)) {
        // Both single-FD solvers pick repair targets from the neighbor
        // scan, so the edge to `target` is always present.
        if (e.to == target) d.unit_cost = e.unit_cost;
        ProvenanceEdge edge;
        edge.fd = scope.fd;
        edge.peer = e.to;
        edge.peer_values =
            DecodeProjection(*table, fd.attrs(), graph.pattern(e.to).codes);
        edge.proj_dist = e.proj_dist;
        edge.unit_cost = e.unit_cost;
        d.edges.push_back(std::move(edge));
      }
      prov->decisions.push_back(std::move(d));
    }
    for (int row : src.rows) {
      if (trusted != nullptr && trusted->count(row)) continue;
      for (int p = 0; p < fd.num_attrs(); ++p) {
        int col = fd.attrs()[static_cast<size_t>(p)];
        const Value& cell = table->cell(row, col);
        const Value& new_value =
            table->dictionary(col).value(dst.codes[static_cast<size_t>(p)]);
        if (cell != new_value) {
          if (changes != nullptr) {
            changes->push_back(CellChange{row, col, cell, new_value});
            if (prov != nullptr) {
              prov->change_decision.push_back(decision_index);
            }
          }
          table->SetCell(row, col, new_value);
        }
      }
    }
  }
}

void ApplyMultiFDSolution(const MultiFDSolution& solution, Table* table,
                          std::vector<CellChange>* changes,
                          const std::unordered_set<int>* trusted,
                          const ProvenanceScope& scope) {
  FTR_TRACE_SPAN("repair.apply_multi");
  RepairProvenance* prov = scope.prov;
  for (size_t i = 0; i < solution.targets.size(); ++i) {
    const std::vector<uint32_t>& target = solution.targets[i];
    if (target.empty()) continue;
    const Pattern& src = (*solution.sigma_patterns)[i];
    int decision_index = -1;
    if (prov != nullptr) {
      decision_index = static_cast<int>(prov->decisions.size());
      RepairDecision d;
      d.component = scope.component;
      d.fd = -1;  // multi-FD target: the implicating FDs live on edges
      d.rung = solution.rung;
      d.source_pattern = static_cast<int>(i);
      d.target_pattern = -1;  // joined value vector, not a pattern id
      d.cols = solution.component_cols;
      d.source_values =
          DecodeProjection(*table, solution.component_cols, src.codes);
      d.target_values =
          DecodeProjection(*table, solution.component_cols, target);
      d.rows = src.rows;
      d.unit_cost =
          i < solution.target_costs.size() ? solution.target_costs[i] : 0.0;
      d.degradations_before = scope.degradations_before;
      if (i < solution.prov_edges.size()) {
        d.edges = solution.prov_edges[i];
        // AssignTargets records edge.fd as the component-local FD
        // index; remap to the global FD table.
        const std::vector<int>* fd_map = nullptr;
        if (scope.component >= 0 &&
            static_cast<size_t>(scope.component) < prov->components.size()) {
          fd_map = &prov->components[static_cast<size_t>(scope.component)].fds;
        }
        for (ProvenanceEdge& edge : d.edges) {
          if (fd_map != nullptr && edge.fd >= 0 &&
              static_cast<size_t>(edge.fd) < fd_map->size()) {
            edge.fd = (*fd_map)[static_cast<size_t>(edge.fd)];
          }
        }
      }
      prov->decisions.push_back(std::move(d));
    }
    for (int row : src.rows) {
      if (trusted != nullptr && trusted->count(row)) continue;
      for (size_t p = 0; p < solution.component_cols.size(); ++p) {
        int col = solution.component_cols[p];
        const Value& cell = table->cell(row, col);
        const Value& new_value = table->dictionary(col).value(target[p]);
        if (cell != new_value) {
          if (changes != nullptr) {
            changes->push_back(CellChange{row, col, cell, new_value});
            if (prov != nullptr) {
              prov->change_decision.push_back(decision_index);
            }
          }
          table->SetCell(row, col, new_value);
        }
      }
    }
  }
}

std::vector<bool> TrustedPatternMask(
    const std::vector<Pattern>& patterns,
    const std::unordered_set<int>& trusted_rows) {
  std::vector<bool> mask(patterns.size(), false);
  if (trusted_rows.empty()) return mask;
  for (size_t i = 0; i < patterns.size(); ++i) {
    for (int row : patterns[i].rows) {
      if (trusted_rows.count(row)) {
        mask[i] = true;
        break;
      }
    }
  }
  return mask;
}

std::vector<int> ComponentColumns(const std::vector<const FD*>& fds) {
  std::set<int> cols;
  for (const FD* fd : fds) {
    cols.insert(fd->attrs().begin(), fd->attrs().end());
  }
  return std::vector<int>(cols.begin(), cols.end());
}

double TableRepairCost(const Table& original, const Table& repaired,
                       const DistanceModel& model) {
  double cost = 0;
  for (int r = 0; r < original.num_rows(); ++r) {
    for (int c = 0; c < original.num_columns(); ++c) {
      cost += model.CellDistance(c, original.cell(r, c), repaired.cell(r, c));
    }
  }
  return cost;
}

}  // namespace ftrepair
