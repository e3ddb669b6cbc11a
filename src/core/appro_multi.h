#ifndef FTREPAIR_CORE_APPRO_MULTI_H_
#define FTREPAIR_CORE_APPRO_MULTI_H_

#include "core/multi_common.h"

namespace ftrepair {

/// \brief Appro-M's cover step (§4.3): Greedy-S independently on each FD
/// of the component.
///
/// Fails with ResourceExhausted when the budget ran out before any
/// per-FD set grew; a cover cut short later is `truncated`.
Result<MultiFDCover> CoverApproMulti(const ComponentContext& context,
                                     const RepairOptions& options,
                                     RepairStats* stats);

/// \brief Appro-M (§4.3): CoverApproMulti, then joins the chosen sets
/// into targets and repairs every inconsistent tuple to its cheapest
/// target (SolveCover).
///
/// Fast — O(V^2 * |Sigma|) — but blind to cross-constraint interaction,
/// which is exactly the weakness Greedy-M addresses (§4.4, evaluated in
/// Fig. 6).
Result<MultiFDSolution> SolveApproMulti(const ComponentContext& context,
                                        const DistanceModel& model,
                                        const RepairOptions& options,
                                        RepairStats* stats);

}  // namespace ftrepair

#endif  // FTREPAIR_CORE_APPRO_MULTI_H_
