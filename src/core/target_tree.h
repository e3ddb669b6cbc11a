#ifndef FTREPAIR_CORE_TARGET_TREE_H_
#define FTREPAIR_CORE_TARGET_TREE_H_

#include <cstdint>
#include <vector>

#include "common/budget.h"
#include "common/resource.h"
#include "common/status.h"
#include "constraint/fd.h"
#include "core/distance_table.h"

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
/// The tree is flat and live-only. The join runs depth first over one
/// path buffer and keeps a node only once its subtree reaches a leaf,
/// so nodes off every complete path are never stored; the kept nodes
/// are laid out by level, then parent, then element. Each node names
/// its level element (whose codes it fixes) and a contiguous range of
/// children, and a node's partial assignment is rebuilt by walking
/// parents. Targets are
/// dictionary codes of one table; below-sets and the elements' fixed
/// codes are held as indices into domains(), the columns of the
/// DistanceTable a search reads its distances from.
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
  /// attributes). Fails with NotFound when the join is empty and with
  /// ResourceExhausted when the join would create more than `max_nodes`
  /// trie nodes, the root included — or when `memory` (optional, not owned;
  /// charged per trie node the join creates, MemPhase::kTargets) runs
  /// out first. Once the build ends, the charge of every node it did
  /// not keep is released: all of it when the build fails. The kept
  /// nodes' charge is returned when the tree dies.
  static Result<TargetTree> Build(std::vector<LevelInput> inputs,
                                  std::vector<int> component_cols,
                                  size_t max_nodes,
                                  const MemoryBudget* memory = nullptr);

  /// Number of targets (root-to-leaf paths).
  size_t num_targets() const { return num_targets_; }

  const std::vector<int>& component_cols() const { return component_cols_; }

  /// domains()[p]: the distinct codes position p takes over the
  /// targets, ascending (the root's below-set).
  const std::vector<std::vector<uint32_t>>& domains() const {
    return domains_;
  }

  /// Best-first search (Algorithm 5) for the target minimizing the
  /// repair cost of the query whose DistanceTable rows over domains()
  /// are `rows`.
  ///
  /// `budget` (optional, not owned) is charged one unit per node
  /// popped; on exhaustion the search stops with `truncated` set and
  /// returns the best leaf reached so far (possibly suboptimal), or an
  /// empty target when no leaf was reached yet. `memory` (optional, not
  /// owned) is charged per node popped and truncates the search the
  /// same way; the search returns its charge when it ends. An
  /// untruncated search always finds a target.
  TargetQuery FindBest(const DistanceRows& rows, SearchStats* stats,
                       const Budget* budget = nullptr,
                       const MemoryBudget* memory = nullptr) const;

  /// Materializes every target as a code vector (the no-tree ablation
  /// uses this plus a linear scan).
  std::vector<std::vector<uint32_t>> EnumerateTargets() const;

 private:
  /// Memory charged per trie node created (MemPhase::kTargets), plus
  /// `width * sizeof(Value)`: the size of the node the tree stored
  /// before it was flattened (two ints, three vectors and a bool on
  /// LP64). It sets the memory-budget trip points the ladder golden
  /// pins (mem-bytes:*), so it stays fixed while Node shrinks.
  static constexpr uint64_t kNodeChargeBytes = 88;

  struct Node {
    int level = -1;  // -1 for the root
    int parent = -1;
    /// Index of the level element this node fixes (-1 for the root).
    int elem = -1;
    /// Children are nodes [first_child, first_child + num_children).
    int first_child = 0;
    int num_children = 0;
    /// below_bounds_[below + fi] .. [below + fi + 1]: this node's
    /// below-set for future_positions_[level + 1][fi] — the domain
    /// indices in its subtree, ascending — as a range of below_.
    int below = 0;
  };

  double Edist(const Node& node, const DistanceRows& rows) const;
  /// Domain index of node's element at fixed_positions_[level][j].
  uint32_t FixedIndex(const Node& node, size_t j) const {
    const std::vector<int>& fixed =
        fixed_positions_[static_cast<size_t>(node.level)];
    return fixed_index_[static_cast<size_t>(node.level)]
                       [static_cast<size_t>(node.elem) * fixed.size() + j];
  }
  /// The codes `node`'s path fixes; positions fixed deeper stay
  /// kNullCode.
  std::vector<uint32_t> Assignment(int node) const;

  std::vector<int> component_cols_;
  std::vector<std::vector<uint32_t>> domains_;
  /// fixed_positions_[l]: component positions first fixed at level l.
  std::vector<std::vector<int>> fixed_positions_;
  /// fixed_index_[l][e * |fixed_positions_[l]| + j]: domain index of
  /// level l's element e at fixed_positions_[l][j] (elements on no
  /// complete path are never read).
  std::vector<std::vector<uint32_t>> fixed_index_;
  /// future_positions_[l]: positions fixed at level >= l (so a node at
  /// level l-1 stores `below` for future_positions_[l]).
  std::vector<std::vector<int>> future_positions_;
  std::vector<Node> nodes_;
  std::vector<uint32_t> below_bounds_;
  std::vector<uint32_t> below_;
  int num_levels_ = 0;
  size_t num_targets_ = 0;
  /// The kept nodes' charge.
  MemoryCharge charge_;
};

}  // namespace ftrepair

#endif  // FTREPAIR_CORE_TARGET_TREE_H_
