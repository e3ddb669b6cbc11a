#ifndef FTREPAIR_DETECT_VIOLATION_GRAPH_H_
#define FTREPAIR_DETECT_VIOLATION_GRAPH_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/budget.h"
#include "common/resource.h"
#include "constraint/fd.h"
#include "detect/pattern.h"
#include "metric/projection.h"

namespace ftrepair {

/// Parameters of the fault-tolerant violation semantics (§2.1).
struct FTOptions {
  /// Weight of the LHS attribute distances in Eq. 2.
  double w_l = 0.5;
  /// Weight of the RHS attribute distances in Eq. 2.
  double w_r = 0.5;
  /// FT-violation threshold tau. Two differing projections with
  /// weighted distance <= tau are an FT-violation.
  double tau = 0.2;
  /// Worker threads for the graph build's pattern-pair join. 1 (the
  /// library default) runs serially; 0 means all hardware threads.
  /// Every setting produces a bit-identical graph — same edge order,
  /// same stats — so this is purely a speed knob.
  int threads = 1;
  /// Optional memory governance (not owned). Edge buffers, shard
  /// scratch, and block-index postings charge against it
  /// (MemPhase::kGraph / kIndex); on exhaustion the build truncates
  /// exactly like a spent wall-clock budget.
  const MemoryBudget* memory = nullptr;
};

/// Classical FD semantics expressed in FT terms (w_l=1, w_r=0, tau=0):
/// equal LHS + different RHS, see §2.1 "Remark".
inline FTOptions ClassicalFTOptions() { return FTOptions{1.0, 0.0, 0.0}; }

/// \brief The grouped violation graph G'(V', E') of §3.
///
/// Vertices are patterns (distinct projections with multiplicity);
/// an undirected edge joins two patterns in FT-violation. Repairing
/// pattern u to pattern v costs `u.count() * edge.unit_cost`
/// (the grouped directed-graph weights of §3 "Tuple grouping").
class ViolationGraph {
 public:
  struct Edge {
    int to;
    /// Weighted projection distance (Eq. 2); always <= tau.
    double proj_dist;
    /// omega(u, v) for a single tuple: unweighted sum of attribute
    /// distances over X ∪ Y (the repair cost of the projection, Eq. 3).
    double unit_cost;
  };

  static constexpr double kInfinity = std::numeric_limits<double>::infinity();

  /// Builds the graph over `patterns`, whose code vectors are laid out
  /// over `fd.attrs()` in `table`'s dictionaries (the table they were
  /// built from, or a copy of it: dictionaries are append-only). The
  /// identical-projection check, the exact bucket join and the per-pair
  /// distance memo key on codes; the distance kernels decode through
  /// `table`. Patterns with identical projections never form an edge
  /// (FT-violations require differing projections).
  ///
  /// `budget` (optional) is charged one unit per candidate pair; when
  /// it runs out mid-build the remaining pairs are skipped and the
  /// graph is marked truncated() — a valid graph missing some edges,
  /// i.e. some violations go undetected (the detect-only degradation).
  ///
  /// The build alone decides how candidate pairs are generated: it
  /// joins through a BlockIndex (detect/block_index.h) when
  /// BlockIndex::ForBuild finds one worth building for this input, and
  /// enumerates every i < j pair otherwise. Both joins emit the same
  /// edges in the same order with the same doubles; only the candidate
  /// counts below differ.
  ///
  /// The pair join runs on `opts.threads` threads (see FTOptions); the
  /// result is bit-identical for every thread count. Under a budget
  /// that exhausts mid-build, *which* pairs were evaluated is only
  /// deterministic at threads == 1, but the graph is always marked
  /// truncated and always well-formed.
  static ViolationGraph Build(std::vector<Pattern> patterns,
                              const Table& table, const FD& fd,
                              const DistanceModel& model,
                              const FTOptions& opts,
                              const Budget* budget = nullptr);

  const std::vector<Pattern>& patterns() const { return patterns_; }
  int num_patterns() const { return static_cast<int>(patterns_.size()); }
  const Pattern& pattern(int i) const {
    return patterns_[static_cast<size_t>(i)];
  }

  const std::vector<Edge>& Neighbors(int i) const {
    return adj_[static_cast<size_t>(i)];
  }
  int degree(int i) const {
    return static_cast<int>(adj_[static_cast<size_t>(i)].size());
  }
  size_t num_edges() const { return num_edges_; }

  /// Minimum unit_cost among `i`'s edges; kInfinity for isolated vertices.
  double MinEdgeCost(int i) const {
    return min_edge_cost_[static_cast<size_t>(i)];
  }

  /// Number of candidate pairs skipped by the cheap length filter
  /// before any edit-distance evaluation (similarity-join stat).
  size_t pairs_length_filtered() const { return pairs_length_filtered_; }

  /// Candidate accounting: `generated` pairs were emitted by the
  /// candidate source (every budget-charged i < j pair when the build
  /// enumerates all pairs, every index hit when it joins through a
  /// BlockIndex), of which `filtered` were skipped by the cheap
  /// pre-kernel checks (identical projections or the length lower
  /// bound) and `verified` reached the exact distance kernel.
  /// Invariants: generated = filtered + verified, and generated <=
  /// n * (n - 1) / 2, strictly less when the index pruned.
  uint64_t candidates_generated() const { return candidates_generated_; }
  uint64_t candidates_verified() const { return candidates_verified_; }
  uint64_t candidates_filtered() const { return candidates_filtered_; }

  /// True when the build's budget ran out and some candidate pairs
  /// were never evaluated (the graph may be missing edges).
  bool truncated() const { return truncated_; }

  /// Vertex sets of the connected components (singletons included),
  /// ordered by smallest member.
  std::vector<std::vector<int>> ConnectedComponents() const;

  /// The vertex-induced subgraph on `vertices`; vertex i of the result
  /// corresponds to `vertices[i]`. Only edges with both endpoints in
  /// `vertices` survive (for a full component this is lossless). The
  /// build provenance — truncated() and the pair-join stats — carries
  /// over unchanged, so a per-component solver still sees that the
  /// detection pass it is working from was incomplete.
  ViolationGraph InducedSubgraph(const std::vector<int>& vertices) const;

  /// Distance between two pattern value-vectors (Eq. 2 weighting): the
  /// value reference for the build's memoized cutoff kernel, whose
  /// accepted distances equal it bit for bit.
  static double ProjDistance(const std::vector<Value>& a,
                             const std::vector<Value>& b, const FD& fd,
                             const DistanceModel& model, double w_l,
                             double w_r);

  /// Unweighted repair cost between two pattern value-vectors (Eq. 3
  /// over the FD's attributes); the value reference for the build's
  /// memoized edge costs.
  static double UnitCost(const std::vector<Value>& a,
                         const std::vector<Value>& b, const FD& fd,
                         const DistanceModel& model);

 private:
  std::vector<Pattern> patterns_;
  std::vector<std::vector<Edge>> adj_;
  std::vector<double> min_edge_cost_;
  size_t num_edges_ = 0;
  size_t pairs_length_filtered_ = 0;
  uint64_t candidates_generated_ = 0;
  uint64_t candidates_verified_ = 0;
  uint64_t candidates_filtered_ = 0;
  bool truncated_ = false;
};

}  // namespace ftrepair

#endif  // FTREPAIR_DETECT_VIOLATION_GRAPH_H_
