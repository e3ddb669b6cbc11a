#ifndef FTREPAIR_CORE_GREEDY_MULTI_H_
#define FTREPAIR_CORE_GREEDY_MULTI_H_

#include "core/multi_common.h"

namespace ftrepair {

/// \brief Greedy-M's cover step (§4.4, Algorithm 4 up to line 6): joint
/// greedy over all FDs of a connected component.
///
/// Repeatedly adds the (FD, phi-pattern) candidate with the smallest
/// *tuple cost* (Eq. 12) to that FD's independent set. The tuple cost
/// prices every conflicting neighbor at its best modification, where
/// "best" is synchronization-aware: a candidate modification is scored
/// by its repair cost plus `options.cross_weight` per violation it
/// triggers (minus per violation it eliminates) against the chosen sets
/// of connected FDs. A substituted projection is looked up exactly
/// among the FD's phi-patterns (a documented approximation — exact
/// re-detection would need a fresh similarity join per candidate); one
/// that exists nowhere counts as a triggered violation, since the
/// close-world model would have to invent it. Rounds pop the cheapest
/// candidate from a lazy-deletion heap and rescore only the slots the
/// last choice invalidated, choosing exactly what a full rescan would;
/// one rescore costs O(deg(c)) lookups into per-pattern heads of chosen
/// targets and per-FD-pair substitution tables. Each round charges
/// `options.budget` one unit and reads its deadline, so a deadline that
/// passes mid-grow stops the grow within one round. Terminates when
/// every phi-pattern is chosen or blocked.
///
/// Fails with ResourceExhausted when the budget ran out before the
/// first round; a cover cut short later is `truncated`.
Result<MultiFDCover> CoverGreedyMulti(const ComponentContext& context,
                                      const RepairOptions& options,
                                      RepairStats* stats);

/// CoverGreedyMulti, then joins the sets into targets and repairs
/// (lines 7-9; SolveCover).
Result<MultiFDSolution> SolveGreedyMulti(const ComponentContext& context,
                                         const DistanceModel& model,
                                         const RepairOptions& options,
                                         RepairStats* stats);

}  // namespace ftrepair

#endif  // FTREPAIR_CORE_GREEDY_MULTI_H_
