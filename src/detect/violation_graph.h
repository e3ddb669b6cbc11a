#ifndef FTREPAIR_DETECT_VIOLATION_GRAPH_H_
#define FTREPAIR_DETECT_VIOLATION_GRAPH_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/budget.h"
#include "common/logging.h"
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
  /// exactly like a spent wall-clock budget. The graph returns its
  /// charge when released or destroyed, so the budget must outlive
  /// every graph built with it.
  const MemoryBudget* memory = nullptr;
};

/// Classical FD semantics expressed in FT terms (w_l=1, w_r=0, tau=0):
/// equal LHS + different RHS, see §2.1 "Remark".
inline FTOptions ClassicalFTOptions() { return FTOptions{1.0, 0.0, 0.0}; }

/// One FT-violation found by detection: patterns `i` < `j` of the
/// pattern list detection ran over, with the edge's doubles (see
/// ViolationGraph::Edge).
struct DetectedEdge {
  int i;
  int j;
  double proj_dist;
  double unit_cost;
};

/// \brief The output of detection (ViolationGraph::Detect): the verified
/// pattern pairs of one FD, without an adjacency and without the
/// patterns.
///
/// `edges` are in ascending (i, j) order, the order ViolationGraph::Index
/// replays. Each edge was charged to the detection's MemoryBudget
/// (MemPhase::kGraph) when it was found; whoever ends the list's life
/// returns that charge, Index by replacing it with the adjacency and a
/// count-only caller through Release once it has summed the list.
struct Detection {
  std::vector<DetectedEdge> edges;
  /// The candidate accounting of ViolationGraph (see there).
  size_t pairs_length_filtered = 0;
  uint64_t candidates_generated = 0;
  uint64_t candidates_verified = 0;
  uint64_t candidates_filtered = 0;
  /// True when the budget or the memory budget ran out and some
  /// candidate pairs were never evaluated.
  bool truncated = false;

  /// Bytes charged for `edges`.
  uint64_t charged_bytes() const { return edges.size() * sizeof(DetectedEdge); }

  /// The FT-violating tuple pairs: sum over the edges (i, j) of
  /// count(i) * count(j), where `patterns` are the patterns detection
  /// ran over.
  uint64_t TuplePairs(const std::vector<Pattern>& patterns) const;

  /// Returns the edges' charge to `memory` (may be null) and frees them.
  void Release(const MemoryBudget* memory);
};

/// \brief The grouped violation graph G'(V', E') of §3.
///
/// Vertices are patterns (distinct projections with multiplicity);
/// an undirected edge joins two patterns in FT-violation. Repairing
/// pattern u to pattern v costs `u.count() * edge.unit_cost`
/// (the grouped directed-graph weights of §3 "Tuple grouping").
///
/// A graph is built in two steps: Detect finds the violating pattern
/// pairs, Index lays them out as a CSR adjacency (one offset per
/// vertex into one flat edge array, each edge stored once in each
/// direction). Build is the two in a row. The repair pipeline detects
/// every FD once, in its detection phase (DetectFDs,
/// core/multi_common.h), and each component indexes what it is handed.
///
/// The adjacency holds its MemPhase::kGraph charge until ReleaseEdges or
/// the graph's end. A multi-FD component releases its graphs' edges
/// once its cover is final: the target phase reads only the patterns.
/// A released graph keeps its patterns, num_edges() and the detection's
/// counters and truncation flag; reading its adjacency (Neighbors,
/// degree, MinEdgeCost) fails an FTR_DCHECK.
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

  /// Detects the FT-violations among `patterns`, whose code vectors
  /// are laid out over `fd.attrs()` in `table`'s dictionaries (the
  /// table they were built from, or a copy of it: dictionaries are
  /// append-only). The identical-projection check, the exact bucket
  /// join and the per-pair distance memo key on codes; the distance
  /// kernels decode through `table`. Patterns with identical
  /// projections never form an edge (FT-violations require differing
  /// projections). Only codes are read: any pattern list with the same
  /// code vectors in the same order yields the same detection.
  ///
  /// `budget` (optional) is charged one unit per candidate pair; when
  /// it runs out mid-detection the remaining pairs are skipped and the
  /// result is marked truncated — a valid list missing some edges,
  /// i.e. some violations go undetected (the detect-only degradation).
  /// `opts.memory` is charged per edge found, with the same effect when
  /// it runs out.
  ///
  /// Detection alone decides how candidate pairs are generated: it
  /// joins through a BlockIndex (detect/block_index.h) when
  /// BlockIndex::ForBuild finds one worth building for this input, and
  /// enumerates every i < j pair otherwise. Both joins emit the same
  /// edges in the same order with the same doubles; only the candidate
  /// counts differ.
  ///
  /// The pair join runs on `opts.threads` threads (see FTOptions); the
  /// result is bit-identical for every thread count. Under a budget
  /// that exhausts mid-detection, *which* pairs were evaluated is only
  /// deterministic at threads == 1, but the result is always marked
  /// truncated and always well-formed.
  static Detection Detect(const std::vector<Pattern>& patterns,
                          const Table& table, const FD& fd,
                          const DistanceModel& model, const FTOptions& opts,
                          const Budget* budget = nullptr);

  /// The graph over `patterns` with `detection`'s edges, which must be
  /// a detection over the same code vectors in the same order. The
  /// edges are replayed in their (i, j) order, so every vertex's
  /// neighbours come out in ascending order with the detection's exact
  /// doubles. The CSR arrays are charged to `memory` (MemPhase::kGraph)
  /// and the detection's charge is released; when the charge fails the
  /// graph keeps no edges and is marked truncated.
  static ViolationGraph Index(std::vector<Pattern> patterns,
                              Detection detection,
                              const MemoryBudget* memory);

  /// Detect, then Index.
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

  std::span<const Edge> Neighbors(int i) const {
    size_t v = static_cast<size_t>(i);
    FTR_DCHECK(v < min_edge_cost_.size());
    return {edges_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }
  int degree(int i) const {
    size_t v = static_cast<size_t>(i);
    FTR_DCHECK(v < min_edge_cost_.size());
    return static_cast<int>(offsets_[v + 1] - offsets_[v]);
  }
  size_t num_edges() const { return num_edges_; }

  /// Minimum unit_cost among `i`'s edges; kInfinity for isolated vertices.
  double MinEdgeCost(int i) const {
    FTR_DCHECK(static_cast<size_t>(i) < min_edge_cost_.size());
    return min_edge_cost_[static_cast<size_t>(i)];
  }

  /// Frees the adjacency and returns its memory charge (see the class
  /// comment for what a released graph keeps). Returns the bytes the
  /// adjacency's arrays held.
  uint64_t ReleaseEdges();

  /// Number of candidate pairs skipped by the cheap length filter
  /// before any edit-distance evaluation (similarity-join stat).
  size_t pairs_length_filtered() const {
    return detection_.pairs_length_filtered;
  }

  /// Candidate accounting of the detection the graph indexes:
  /// `generated` pairs were emitted by the candidate source (every
  /// budget-charged i < j pair when detection enumerates all pairs,
  /// every index hit when it joins through a BlockIndex), of which `filtered` were skipped by the cheap
  /// pre-kernel checks (identical projections or the length lower
  /// bound) and `verified` reached the exact distance kernel.
  /// Invariants: generated = filtered + verified, and generated <=
  /// n * (n - 1) / 2, strictly less when the index pruned.
  uint64_t candidates_generated() const {
    return detection_.candidates_generated;
  }
  uint64_t candidates_verified() const {
    return detection_.candidates_verified;
  }
  uint64_t candidates_filtered() const {
    return detection_.candidates_filtered;
  }

  /// True when detection's budget ran out and some candidate pairs
  /// were never evaluated, or when indexing ran out of memory (the
  /// graph may be missing edges).
  bool truncated() const { return detection_.truncated; }

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
  /// CSR adjacency: vertex i's edges are edges_[offsets_[i],
  /// offsets_[i + 1]).
  std::vector<size_t> offsets_;
  std::vector<Edge> edges_;
  std::vector<double> min_edge_cost_;
  size_t num_edges_ = 0;
  /// The indexed detection's accounting and truncation; its edges live
  /// in edges_.
  Detection detection_;
  /// The charge for offsets_ and edges_ (Index).
  MemoryCharge charge_;
};

}  // namespace ftrepair

#endif  // FTREPAIR_DETECT_VIOLATION_GRAPH_H_
