#ifndef FTREPAIR_CORE_EXPANSION_SINGLE_H_
#define FTREPAIR_CORE_EXPANSION_SINGLE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/repair_types.h"
#include "detect/violation_graph.h"

namespace ftrepair {

/// Controls for the expansion-based MIS enumeration (§3.1).
struct ExpansionConfig {
  /// Stop with ResourceExhausted when the level frontier grows past this.
  size_t max_frontier = 20000;
  /// When true, cost-based pruning is disabled and *every* maximal
  /// independent set survives (needed by Expansion-M, §4.2, whose joint
  /// optimum may use a per-FD-suboptimal set).
  bool enumerate_all = false;
  /// Initial upper bound on the achievable repair cost; sets whose
  /// lower bound exceeds it are pruned (ignored when enumerate_all).
  double upper_bound = ViolationGraph::kInfinity;
  /// Cap applied to each pattern's per-tuple exclusion cost when
  /// computing lower bounds. Single-FD repair always moves an excluded
  /// pattern to a *neighbor*, so MinEdgeCost is sound and the cap stays
  /// infinite; multi-FD repair may move it to any element of the chosen
  /// set, where only min(MinEdgeCost, tau / max(w_l, w_r)) is sound
  /// (§4.2 pruning) — Expansion-M passes that floor here.
  double lb_floor = ViolationGraph::kInfinity;
  /// Optional per-pattern trusted flags (see SolveGreedySingle): forced
  /// patterns must appear in the chosen set; enumerated sets lacking
  /// them are discarded, and if none survive the forced greedy solution
  /// is returned.
  const std::vector<bool>* forced = nullptr;
  /// Optional deadline/cancellation budget (not owned). Charged one
  /// unit per expanded frontier node; on exhaustion the enumeration
  /// stops with ResourceExhausted so the caller can step down the
  /// degradation ladder. The greedy upper-bound seed shares the
  /// budget; a truncated seed cost would be an unsound bound, so a
  /// seed the budget cut short aborts with ResourceExhausted instead.
  const Budget* budget = nullptr;
  /// Optional memory governance (not owned). Frontier nodes charge
  /// their footprint (MemPhase::kSolve), returned when the enumeration
  /// returns; exhaustion stops the enumeration with ResourceExhausted
  /// exactly like a spent budget.
  const MemoryBudget* memory = nullptr;
};

/// \brief Enumerates the maximal independent sets of `graph` with the
/// level-per-pattern expansion tree of Algorithm 1.
///
/// Patterns are accessed in frequency-descending order (§3.1 "Accessing
/// order") so cheap sets appear early; each frontier node carries the
/// Eq. 5 lower bound (sum over excluded patterns of count * cheapest
/// incident edge) and is pruned when it exceeds `config.upper_bound`.
/// Returned sets are sorted pattern-id lists.
Result<std::vector<std::vector<int>>> EnumerateMaximalIndependentSets(
    const ViolationGraph& graph, const ExpansionConfig& config,
    uint64_t* nodes_expanded, uint64_t* nodes_pruned);

/// \brief Expansion-S: the optimal single-FD repair (Theorem 2).
///
/// Seeds the upper bound with the Greedy-S solution, enumerates maximal
/// independent sets with pruning, evaluates each survivor exactly and
/// repairs every excluded pattern to its cheapest neighbor inside the
/// best set. Returns ResourceExhausted when the frontier cap is hit.
Result<SingleFDSolution> SolveExpansionSingle(const ViolationGraph& graph,
                                              const ExpansionConfig& config);

/// Exact grouped repair cost of using independent set `set` (sorted
/// pattern ids) to repair the graph, filling `repair_target` (resized to
/// num_patterns; -1 for members/isolated patterns). Infinity when some
/// excluded pattern has no neighbor inside `set` (i.e. `set` is not
/// maximal).
double EvaluateIndependentSet(const ViolationGraph& graph,
                              const std::vector<int>& set,
                              std::vector<int>* repair_target);

}  // namespace ftrepair

#endif  // FTREPAIR_CORE_EXPANSION_SINGLE_H_
