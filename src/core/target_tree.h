#ifndef FTREPAIR_CORE_TARGET_TREE_H_
#define FTREPAIR_CORE_TARGET_TREE_H_

#include <cstdint>
#include <vector>

#include "common/budget.h"
#include "common/resource.h"
#include "common/status.h"
#include "constraint/fd.h"
#include "data/table.h"
#include "detect/pattern.h"
#include "metric/projection.h"

namespace ftrepair {

/// The outcome of one target search (TargetTree or LazyTargetSearch).
struct TargetQuery {
  /// The cheapest target found: dictionary codes over component_cols
  /// order, in the table the search was built over; empty when none
  /// was found (an empty join, or a search stopped before its first
  /// leaf).
  std::vector<uint32_t> target;
  /// Exact repair cost of `target`.
  double cost = 0;
  /// A budget, memory budget or visit cap stopped the search early.
  bool truncated = false;
};

/// \brief The target tree of §5: a trie over one independent set per FD
/// whose root-to-leaf paths are the joinable *targets* of a multi-FD
/// component.
///
/// Levels are ordered by independent-set size ascending (§5.1, smaller
/// fan-out near the root). A node at level l fixes the values of FD_l's
/// attributes; a child is attached only when it agrees with every value
/// already fixed on the path. Paths that cannot reach the last level
/// are discarded ("if a path has less than |Sigma|+1 nodes, this path
/// is not a target"). Each node stores the distinct attribute values
/// appearing in its subtree for the not-yet-fixed columns, enabling the
/// EDIST lower bound of the best-first search (§5.2, Algorithm 5).
///
/// Values are held as dictionary codes of one table throughout (node
/// assignments, below-sets, queries and results); the search decodes a
/// code pair only to price it (ProjectionDecoder::Distance).
class TargetTree {
 public:
  /// One per-FD independent set: `elements[i]` holds the codes of one
  /// phi-pattern, laid out over `fd->attrs()`.
  struct LevelInput {
    const FD* fd;
    std::vector<std::vector<uint32_t>> elements;
  };

  struct SearchStats {
    uint64_t nodes_visited = 0;
    uint64_t nodes_pruned = 0;
  };

  /// Builds the tree over `component_cols` (sorted union of the FDs'
  /// attributes); element codes and later query codes are codes of
  /// `table`, which must outlive the tree. Fails with NotFound when the
  /// join is empty and with ResourceExhausted when more than
  /// `max_nodes` trie nodes would be created — or when `memory`
  /// (optional, not owned; charged per trie node, MemPhase::kTargets)
  /// runs out first.
  static Result<TargetTree> Build(std::vector<LevelInput> inputs,
                                  std::vector<int> component_cols,
                                  const Table& table, size_t max_nodes,
                                  const MemoryBudget* memory = nullptr);

  /// Number of targets (root-to-leaf paths).
  size_t num_targets() const { return num_targets_; }

  const std::vector<int>& component_cols() const { return component_cols_; }

  /// Best-first search (Algorithm 5) for the target minimizing the
  /// repair cost of `tuple_proj` (codes over component_cols order).
  ///
  /// `budget` (optional, not owned) is charged one unit per node
  /// popped; on exhaustion the search stops with `truncated` set and
  /// returns the best leaf reached so far (possibly suboptimal), or an
  /// empty target when no leaf was reached yet. `memory` (optional, not
  /// owned) is charged per queue entry and truncates the search the
  /// same way. An untruncated search always finds a target.
  TargetQuery FindBest(const std::vector<uint32_t>& tuple_proj,
                       const DistanceModel& model, SearchStats* stats,
                       const Budget* budget = nullptr,
                       const MemoryBudget* memory = nullptr) const;

  /// Materializes every target as a code vector (the no-tree ablation
  /// uses this plus a linear scan).
  std::vector<std::vector<uint32_t>> EnumerateTargets() const;

 private:
  struct Node {
    int level = -1;  // -1 for the virtual root
    int parent = -1;
    std::vector<int> children;
    /// Partial assignment (codes) over component positions; positions
    /// fixed at levels <= `level` are meaningful.
    std::vector<uint32_t> assign;
    /// For each future position (see future_positions_[level + 1]):
    /// distinct codes in this node's subtree, ascending.
    std::vector<std::vector<uint32_t>> below;
    bool alive = false;
  };

  double Edist(const Node& node, const std::vector<uint32_t>& tuple_proj,
               const DistanceModel& model) const;

  std::vector<int> component_cols_;
  /// Decodes component position p's codes through the build table.
  ProjectionDecoder decoder_;
  /// fixed_positions_[l]: component positions first fixed at level l.
  std::vector<std::vector<int>> fixed_positions_;
  /// future_positions_[l]: positions fixed at level >= l (so a node at
  /// level l-1 stores `below` for future_positions_[l]).
  std::vector<std::vector<int>> future_positions_;
  std::vector<Node> nodes_;
  int num_levels_ = 0;
  size_t num_targets_ = 0;
};

}  // namespace ftrepair

#endif  // FTREPAIR_CORE_TARGET_TREE_H_
