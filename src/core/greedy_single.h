#ifndef FTREPAIR_CORE_GREEDY_SINGLE_H_
#define FTREPAIR_CORE_GREEDY_SINGLE_H_

#include "core/repair_types.h"
#include "detect/violation_graph.h"

namespace ftrepair {

/// \brief Greedy-S (§3.2, Algorithm 2): grows an expected-best
/// independent set.
///
/// The first member is the pattern with the smallest *initial cost*
/// (Eq. 7: the grouped cost of repairing all its neighbors to it); each
/// following member is the FT-consistent pattern with the smallest
/// *incremental cost* (Eq. 8: improvement for already-covered neighbors
/// plus fresh cost for newly covered ones). Excluded patterns are then
/// repaired to their cheapest neighbor in the set. Ties break toward
/// the smaller pattern id.
///
/// The grow loop keeps candidates in a lazy-deletion priority queue
/// keyed on the net incremental cost and re-scores only the 2-hop
/// neighborhood of each accepted member, so a run costs
/// O((V + sum of re-scored degrees) log V) instead of the historical
/// O(|I| * V * deg) full rescan per member — while selecting
/// bit-identical chosen sets (scores are recomputed with the same
/// operation order the rescan used).
///
/// `forced` (optional, one flag per pattern) pins trusted patterns into
/// the set before anything else; a forced pattern conflicting with an
/// earlier forced member is still kept (trust beats independence) and
/// counted into `trusted_conflicts` when non-null.
///
/// `budget` (optional, not owned) is charged one unit per candidate
/// scanned while growing the set. On exhaustion growth stops early:
/// the solution is still well-formed, but patterns that never gained a
/// chosen neighbor stay unrepaired (repair_target -1, excluded from
/// cost) and `truncated` is set. `memory` (optional, not owned) is
/// charged per grow round and truncates growth the same way; the
/// charge is returned when the solve returns.
SingleFDSolution SolveGreedySingle(const ViolationGraph& graph,
                                   const std::vector<bool>* forced = nullptr,
                                   uint64_t* trusted_conflicts = nullptr,
                                   const Budget* budget = nullptr,
                                   const MemoryBudget* memory = nullptr);

}  // namespace ftrepair

#endif  // FTREPAIR_CORE_GREEDY_SINGLE_H_
