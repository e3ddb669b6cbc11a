#ifndef FTREPAIR_CORE_MULTI_COMMON_H_
#define FTREPAIR_CORE_MULTI_COMMON_H_

#include <vector>

#include "common/status.h"
#include "constraint/fd.h"
#include "core/distance_table.h"
#include "core/repair_types.h"
#include "core/target_tree.h"
#include "data/table.h"
#include "detect/pattern.h"
#include "detect/violation_graph.h"
#include "metric/projection.h"

namespace ftrepair {

/// \brief Shared state for one connected FD component (§4).
///
/// Tuples are grouped into *Sigma-patterns* (distinct projections over
/// the component's column union); per FD, Sigma-patterns are further
/// grouped into phi-patterns (distinct FD projections) over which the
/// per-FD violation graphs are built. This double grouping is exact:
/// tuples with identical Sigma-projections are interchangeable in every
/// multi-FD algorithm.
struct ComponentContext {
  /// The table the patterns were built from (not owned; must outlive
  /// the context). Every pattern code, and every target code derived
  /// from them, decodes through its dictionaries.
  const Table* table = nullptr;
  std::vector<const FD*> fds;
  std::vector<int> component_cols;
  std::vector<Pattern> sigma_patterns;

  /// Per FD: the violation graph over its phi-patterns.
  std::vector<ViolationGraph> graphs;
  /// phi_of_sigma[k][i] = phi-pattern id (in graphs[k]) of Sigma-pattern i.
  std::vector<std::vector<int>> phi_of_sigma;
  /// sigma_of_phi[k][j] = Sigma-pattern ids projecting to phi-pattern j.
  std::vector<std::vector<std::vector<int>>> sigma_of_phi;
  /// Effective FTOptions per FD.
  std::vector<FTOptions> ft;
};

/// Builds the context for `fds` over `table` (which must outlive it).
///
/// Each FD's phi-patterns come out with the code vectors of
/// BuildPatterns(table, fd.attrs()), in the same first-occurrence
/// order. So `detections`, when given, may hold one detection per FD
/// of `fds` over those patterns (the repair pipeline's statistics
/// pass): the graphs index them (moved from) instead of detecting
/// again. Without it every FD is detected here.
ComponentContext BuildComponentContext(
    const Table& table, const std::vector<const FD*>& fds,
    const DistanceModel& model, const RepairOptions& options,
    std::vector<Detection>* detections = nullptr);

/// \brief Joins one chosen independent set per FD into targets and
/// assigns every Sigma-pattern its cheapest repair (§4.2/§4.3 final
/// phase; Algorithm 3 lines 13-21, Algorithm 4 lines 7-9).
///
/// `chosen[k]` holds phi-pattern ids of graphs[k]. Sigma-patterns whose
/// every phi-projection is chosen keep their values; each other (dirty)
/// pattern gets one target query. The search is chosen once per call:
///   * the eager TargetTree (§5), by default;
///   * LazyTargetSearch, when the eager build exceeds
///     `options.max_tree_nodes` (ResourceExhausted) while the memory
///     budget still holds;
///   * with `options.use_target_tree` false, the tree's materialized
///     targets and FindBestTargetLinear (no lazy fallback).
/// Any other build failure is returned. One DistanceTable over the
/// search's domains and the dirty patterns then holds every distance
/// the queries read. The fill and the queries run under ParallelFor at
/// `options.threads` and the queries merge in dirty order, so the
/// result is the same at every thread count (budget truncation aside).
///
/// An empty join (NotFound from either build) sets `stats->join_empty`
/// and leaves every tuple unrepaired. When the budget or the memory
/// budget runs out — before the table fill (which is then skipped) or
/// during the queries — the remaining patterns stay unrepaired and the
/// solution is `truncated`. A query that returns no target leaves its
/// pattern unrepaired: it sets `truncated` if the search was cut short
/// and `stats->join_empty` otherwise (the lazy build's relaxation can
/// miss an empty join that its queries then find).
Result<MultiFDSolution> AssignTargets(const ComponentContext& context,
                                      const std::vector<std::vector<int>>& chosen,
                                      const DistanceModel& model,
                                      const RepairOptions& options,
                                      RepairStats* stats);

/// Linear-scan counterpart of TargetTree::FindBest over materialized
/// targets; returns the index of the first cheapest target. Each
/// target holds, per position p, an index into the domain `rows[p]`
/// was laid out over (DomainIndices); `rows` are the query's
/// DistanceTable rows.
size_t FindBestTargetLinear(const std::vector<std::vector<uint32_t>>& targets,
                            const DistanceRows& rows, double* cost);

}  // namespace ftrepair

#endif  // FTREPAIR_CORE_MULTI_COMMON_H_
