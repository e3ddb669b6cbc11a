#ifndef FTREPAIR_CORE_EXPANSION_MULTI_H_
#define FTREPAIR_CORE_EXPANSION_MULTI_H_

#include "core/multi_common.h"

namespace ftrepair {

/// \brief Expansion-M's cover step (§4.2, Algorithm 3): the per-FD sets
/// of the optimal multi-FD repair.
///
/// Enumerates *every* maximal independent set of each FD's violation
/// graph (per-FD cost pruning is disabled: the joint optimum may use a
/// per-FD-suboptimal set), then searches the Cartesian product of
/// per-FD sets. Each combination is lower-bounded by (a) the largest
/// per-FD exclusion bound and (b) the exclusion-bound sum over a
/// pairwise attribute-disjoint FD subset — both sound because repair
/// costs over disjoint attribute sets add, and any excluded phi-pattern
/// must move to another existing phi-value at cost >= min(cheapest
/// incident edge, tau / max(w_l, w_r)). Surviving combinations are
/// joined with a target tree and evaluated exactly with early abort.
/// When no combination beats the Appro-M seed, the cover is Appro-M's.
///
/// Returns ResourceExhausted when a safety valve (`max_frontier`,
/// `max_sets_per_fd`, `max_combinations`, `max_tree_nodes`) trips; the
/// Repairer facade then falls back to the greedy family.
Result<MultiFDCover> CoverExpansionMulti(const ComponentContext& context,
                                         const DistanceModel& model,
                                         const RepairOptions& options,
                                         RepairStats* stats);

/// Expansion-M: CoverExpansionMulti, then the target phase (SolveCover).
Result<MultiFDSolution> SolveExpansionMulti(const ComponentContext& context,
                                            const DistanceModel& model,
                                            const RepairOptions& options,
                                            RepairStats* stats);

}  // namespace ftrepair

#endif  // FTREPAIR_CORE_EXPANSION_MULTI_H_
