#include "core/soft_fd.h"

#include <algorithm>
#include <limits>

namespace ftrepair {

double SoftFdPenaltyRate(double confidence) {
  if (confidence >= 1.0) return std::numeric_limits<double>::infinity();
  if (confidence <= 0.0) return 0.0;
  return confidence / (1.0 - confidence);
}

void FilterSingleFDSolutionSoft(const ViolationGraph& graph, double rate,
                                SingleFDSolution* solution) {
  bool reverted = false;
  for (int i = 0; i < graph.num_patterns(); ++i) {
    int target = solution->repair_target[static_cast<size_t>(i)];
    if (target < 0) continue;
    const double count = static_cast<double>(graph.pattern(i).rows.size());
    double pairs = 0;
    double cost = 0;
    for (const ViolationGraph::Edge& e : graph.Neighbors(i)) {
      pairs += static_cast<double>(graph.pattern(e.to).rows.size());
      if (e.to == target) cost = count * e.unit_cost;
    }
    const double benefit = rate * count * pairs;
    if (cost > benefit) {
      solution->repair_target[static_cast<size_t>(i)] = -1;
      solution->cost -= cost;
      solution->chosen_set.push_back(i);
      reverted = true;
    }
  }
  if (reverted) {
    std::sort(solution->chosen_set.begin(), solution->chosen_set.end());
    solution->chosen_set.erase(std::unique(solution->chosen_set.begin(),
                                           solution->chosen_set.end()),
                               solution->chosen_set.end());
  }
}

std::vector<double> SoftFdPenalties(const ComponentContext& context,
                                    const std::vector<double>& rates) {
  const std::vector<Pattern>& sigmas = *context.sigma_patterns;
  std::vector<double> penalties(sigmas.size(), 0.0);
  for (size_t i = 0; i < sigmas.size(); ++i) {
    const double count = static_cast<double>(sigmas[i].rows.size());
    double benefit = 0;
    for (size_t k = 0; k < context.graphs.size(); ++k) {
      const int phi = context.phi_of_sigma[k][i];
      double pairs = 0;
      for (const ViolationGraph::Edge& e : context.graphs[k].Neighbors(phi)) {
        pairs +=
            static_cast<double>(context.graphs[k].pattern(e.to).rows.size());
      }
      benefit += rates[k] * count * pairs;
    }
    penalties[i] = benefit;
  }
  return penalties;
}

void FilterMultiFDSolutionSoft(const std::vector<double>& penalties,
                               MultiFDSolution* solution) {
  const std::vector<Pattern>& sigmas = *solution->sigma_patterns;
  for (size_t i = 0; i < sigmas.size(); ++i) {
    if (solution->targets[i].empty()) continue;
    const double count = static_cast<double>(sigmas[i].rows.size());
    const double benefit = penalties[i];
    const double unit =
        i < solution->target_costs.size() ? solution->target_costs[i] : 0.0;
    const double cost = count * unit;
    if (cost > benefit) {
      solution->targets[i].clear();
      if (i < solution->target_costs.size()) solution->target_costs[i] = 0;
      if (i < solution->prov_edges.size()) solution->prov_edges[i].clear();
      solution->cost -= cost;
    }
  }
}

}  // namespace ftrepair
