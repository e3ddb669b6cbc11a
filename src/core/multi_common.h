#ifndef FTREPAIR_CORE_MULTI_COMMON_H_
#define FTREPAIR_CORE_MULTI_COMMON_H_

#include <memory>
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
  /// Shared with every MultiFDSolution assigned over this context, so
  /// the patterns are held once whichever of the two lives longer.
  std::shared_ptr<const std::vector<Pattern>> sigma_patterns;

  /// Per FD: the violation graph over its phi-patterns.
  std::vector<ViolationGraph> graphs;
  /// phi_of_sigma[k][i] = phi-pattern id (in graphs[k]) of Sigma-pattern i.
  std::vector<std::vector<int>> phi_of_sigma;
  /// sigma_of_phi[k][j] = Sigma-pattern ids projecting to phi-pattern j.
  /// Only the cover steps read it (ReleaseCoverInputs frees it).
  std::vector<std::vector<std::vector<int>>> sigma_of_phi;
  /// Effective FTOptions per FD.
  std::vector<FTOptions> ft;
};

/// The vertices of a violation graph over `cols` (§3 "Tuple
/// grouping"): one pattern per distinct projection (BuildPatterns), or
/// one per row (BuildRowPatterns) for the `group_tuples`-off ablation.
std::vector<Pattern> BuildVertices(const Table& table,
                                   const std::vector<int>& cols,
                                   bool group_tuples);

/// \brief The detection phase: G' is what detection produces and what
/// every solver takes as input (§3).
///
/// Detects each FD of `fds` exactly once, in order, over
/// BuildVertices(table, fd.attrs(), grouped[k]), and returns one
/// Detection per FD. `tuple_pairs`, when non-null, receives the summed
/// Detection::TuplePairs (the FT-violation count).
///
/// With `keep` the edge lists are returned for the solve, until a
/// detection truncates: it releases every list held, and that FD and
/// every later one get a Detection with no edges, marked truncated (the
/// budget or memory exhaustion behind a truncation latches, so every
/// component then skips). Without `keep` each list is released once
/// summed, and only the counters and the truncation flags come back.
std::vector<Detection> DetectFDs(const Table& table,
                                 const std::vector<const FD*>& fds,
                                 const DistanceModel& model,
                                 const RepairOptions& options,
                                 const std::vector<bool>& grouped, bool keep,
                                 uint64_t* tuple_pairs);

/// Builds the context for `fds` over `table` (which must outlive it).
///
/// Each FD's phi-patterns come out with the code vectors of
/// BuildPatterns(table, fd.attrs()), in the same first-occurrence
/// order, whatever `options.group_tuples` says. `detections` holds one
/// detection per FD of `fds` over those patterns (the detection
/// phase's output, DetectFDs); the graphs index them.
ComponentContext BuildComponentContext(const Table& table,
                                       const std::vector<const FD*>& fds,
                                       const RepairOptions& options,
                                       std::vector<Detection> detections);

/// DetectFDs over grouped patterns, then the context. The repair
/// pipeline never calls this form; it is kept for callers that time or
/// test a component on its own (the repairbench replay, the benches,
/// the tests) until the replay calls the detection phase itself.
ComponentContext BuildComponentContext(const Table& table,
                                       const std::vector<const FD*>& fds,
                                       const DistanceModel& model,
                                       const RepairOptions& options);

/// \brief The output of a multi-FD solver's cover step: one chosen
/// independent set per FD, before any target is assigned.
///
/// Expansion-M, Greedy-M and Appro-M (CoverExpansionMulti,
/// CoverGreedyMulti, CoverApproMulti) differ only in how they choose
/// the sets; the target phase (AssignCover) is shared and reads no
/// violation edge, so the repair pipeline frees the graphs' edges
/// between the two (ReleaseCoverInputs).
struct MultiFDCover {
  /// chosen[k]: phi-pattern ids of graphs[k].
  std::vector<std::vector<int>> chosen;
  /// The solver that chose the sets.
  SolverRung rung = SolverRung::kNone;
  /// The budget stopped the cover before every phi-pattern was decided;
  /// the solution assigned over it is truncated too.
  bool truncated = false;
  /// Per Sigma-pattern: its implicating violation edges, captured by
  /// CaptureCoverLineage while the edges are held (see
  /// MultiFDSolution::prov_edges).
  std::vector<std::vector<ProvenanceEdge>> prov_edges;
};

/// Under `options.provenance`, records in `cover->prov_edges` each dirty
/// Sigma-pattern's implicating violation edges (edge.fd is the
/// component-local FD index; the apply layer remaps it). Reads the
/// graphs' edges, so it runs before ReleaseCoverInputs.
void CaptureCoverLineage(const ComponentContext& context,
                         const RepairOptions& options, MultiFDCover* cover);

/// Frees what only the cover steps read: every graph's adjacency
/// (ViolationGraph::ReleaseEdges, which returns its memory charge) and
/// sigma_of_phi. The target phase still runs on the context. Returns
/// the bytes of adjacency freed.
uint64_t ReleaseCoverInputs(ComponentContext* context);

/// The target phase of a final cover: AssignTargets over
/// `cover.chosen`, the solution stamped with the cover's rung, its
/// truncation added, and its lineage moved in.
Result<MultiFDSolution> AssignCover(const ComponentContext& context,
                                    MultiFDCover cover,
                                    const DistanceModel& model,
                                    const RepairOptions& options,
                                    RepairStats* stats);

/// A cover step and its target phase over a context whose graphs stay
/// whole: a failed cover's status, or CaptureCoverLineage then
/// AssignCover. The three Solve*Multi entry points are this over their
/// cover step.
Result<MultiFDSolution> SolveCover(const ComponentContext& context,
                                   Result<MultiFDCover> cover,
                                   const DistanceModel& model,
                                   const RepairOptions& options,
                                   RepairStats* stats);

/// \brief Joins one chosen independent set per FD into targets and
/// assigns every Sigma-pattern its cheapest repair (§4.2/§4.3 final
/// phase; Algorithm 3 lines 13-21, Algorithm 4 lines 7-9).
///
/// `chosen[k]` holds phi-pattern ids of graphs[k]. Of the context it
/// reads the patterns and phi_of_sigma, never a violation edge, so it
/// runs on a context whose cover inputs were released. Sigma-patterns
/// whose every phi-projection is chosen keep their values; each other
/// (dirty) pattern gets one target query. The solution shares the
/// context's Sigma-patterns (no copy), so they stay held once, by
/// whichever of the two outlives the other. Every memory charge it
/// takes is returned by the time it returns. The search is chosen once
/// per call:
///   * the eager TargetTree (§5), by default, built depth first and
///     storing only the nodes on a complete path;
///   * LazyTargetSearch, when the eager build exceeds
///     `options.max_tree_nodes` (ResourceExhausted) while the memory
///     budget still holds; the failed build has returned its whole
///     memory charge by then;
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
