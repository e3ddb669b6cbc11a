#ifndef FTREPAIR_CORE_SOFT_FD_H_
#define FTREPAIR_CORE_SOFT_FD_H_

#include <vector>

#include "core/multi_common.h"
#include "core/repair_types.h"
#include "detect/violation_graph.h"

namespace ftrepair {

/// Penalty rate of a soft FD with confidence `c`: lambda = c / (1 - c),
/// the price (in Eq. 4 cost units) of leaving one violating pair
/// unrepaired. Monotone in c; infinite at c = 1, where every repair is
/// worth keeping and soft-fd is decision-identical to ft-cost.
double SoftFdPenaltyRate(double confidence);

/// \brief Soft-fd revert filter for a single-FD solution: drops every
/// repair whose cost exceeds the violation penalty it discharges.
///
/// For each repaired pattern i, the discharged penalty is priced
/// statically against the input violation graph — `rate * count(i) *
/// sum of count(peer)` over i's violation edges (every pair i
/// participates in) — and the repair's cost is `count(i) * unit_cost`
/// of the edge to its target. Reverted patterns rejoin the chosen set
/// and their cost leaves `solution->cost`. Patterns are visited in
/// ascending id, and the static pricing makes the filter independent of
/// visit order — the result is deterministic at any thread count.
///
/// Only call for FDs with confidence < 1 (the pipeline's gate): a hard
/// FD must keep every repair or lose its consistency guarantee.
void FilterSingleFDSolutionSoft(const ViolationGraph& graph, double rate,
                                SingleFDSolution* solution);

/// The discharged penalty of each Sigma-pattern of `context`, where
/// `rates[k]` is the penalty rate of `context.fds[k]`: per FD, the
/// rate-weighted violating pairs of the pattern's phi-projection,
/// summed. Reads the graphs' edges, so it runs before
/// ReleaseCoverInputs.
std::vector<double> SoftFdPenalties(const ComponentContext& context,
                                    const std::vector<double>& rates);

/// \brief Multi-FD counterpart of the revert filter: Sigma-pattern i's
/// discharged penalty is `penalties[i]` (SoftFdPenalties over the
/// context the solution was assigned on) and its cost is `count(i) *
/// target_costs[i]`. Reverting clears the target (the pattern keeps its
/// values), its target cost, and its provenance edges.
///
/// Only call when EVERY FD of the component is soft (confidence < 1) —
/// a mixed component's reverts could strand hard-FD violations.
void FilterMultiFDSolutionSoft(const std::vector<double>& penalties,
                               MultiFDSolution* solution);

}  // namespace ftrepair

#endif  // FTREPAIR_CORE_SOFT_FD_H_
