#ifndef FTREPAIR_CORE_LAZY_TARGETS_H_
#define FTREPAIR_CORE_LAZY_TARGETS_H_

#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/target_tree.h"
#include "detect/pattern.h"

namespace ftrepair {

/// \brief Lazy-materialization variant of the §5 target tree.
///
/// The eager TargetTree materializes every joinable root-to-leaf path;
/// when per-FD independent sets contain many low-frequency (dirty)
/// elements, path counts multiply across levels and the build explodes
/// — the worst case §5 acknowledges ("may be exponential to the number
/// of tuples"). This class keeps the same level order and the same
/// best-first search, but expands nodes on demand:
///
///   * children come from a per-level hash index keyed by the codes of
///     the level's attributes already fixed higher up the path;
///   * elements that cannot pairwise-agree with any element of some
///     other level are pruned up front (a sound fixpoint relaxation,
///     which also detects most empty joins at build time);
///   * EDIST uses per-position *global* value sets instead of per-node
///     subtree sets — a weaker but still admissible lower bound that
///     needs no materialized tree.
///
/// Like the eager tree it holds dictionary codes of one table and reads
/// every distance from a DistanceTable over domains().
///
/// A per-query visit budget bounds pathological searches; when it is
/// exhausted the best leaf found so far (if any) is returned with
/// TargetQuery::truncated set.
class LazyTargetSearch {
 public:
  /// Validates the inputs and builds the per-level indices. Fails with
  /// NotFound when the pairwise-consistency relaxation proves the join
  /// empty.
  static Result<LazyTargetSearch> Build(
      std::vector<TargetTree::LevelInput> inputs,
      std::vector<int> component_cols);

  /// domains()[p]: the distinct codes the elements fixing position p
  /// hold there, ascending (the global EDIST bound's value sets).
  const std::vector<std::vector<uint32_t>>& domains() const {
    return position_codes_;
  }

  /// Best-first search for the cheapest target for the query whose
  /// DistanceTable rows over domains() are `rows`. `budget` (optional, not
  /// owned) is charged one unit per visit and truncates the search
  /// exactly like the visit cap when it runs out; `memory` (optional,
  /// not owned) is charged per visit and truncates the same way; the
  /// search returns its charge when it ends. An untruncated search
  /// returns an empty target only when the join is empty (the
  /// build-time relaxation can miss that).
  TargetQuery FindBest(const DistanceRows& rows, uint64_t max_visits,
                       TargetTree::SearchStats* stats,
                       const Budget* budget = nullptr,
                       const MemoryBudget* memory = nullptr) const;

  const std::vector<int>& component_cols() const { return component_cols_; }

 private:
  struct Level {
    const FD* fd = nullptr;
    /// Elements (codes) surviving the pairwise-consistency prefilter;
    /// laid out over the FD's attrs().
    std::vector<std::vector<uint32_t>> elements;
    /// Component position of each of the FD's attrs.
    std::vector<int> attr_pos;
    /// Positions first fixed at this level (subset of attr_pos, in
    /// attr order).
    std::vector<int> fixed_pos;
    /// fixed_index[e * |fixed_pos| + j]: domain index of element e's
    /// code at fixed_pos[j].
    std::vector<uint32_t> fixed_index;
    /// attr indices (into attr_pos) already fixed by earlier levels.
    std::vector<int> back_attr;
    /// Index: codes of an element on back_attr -> element ids,
    /// ascending.
    std::unordered_map<std::vector<uint32_t>, std::vector<int>,
                       CodeVectorHash>
        index;
  };

  std::vector<int> component_cols_;
  std::vector<Level> levels_;
  /// Distinct codes per component position (from the first-fixing
  /// level's elements), for the global EDIST bound.
  std::vector<std::vector<uint32_t>> position_codes_;
  /// position_of_level_suffix_[l]: positions first fixed at level >= l.
  std::vector<std::vector<int>> suffix_positions_;
};

}  // namespace ftrepair

#endif  // FTREPAIR_CORE_LAZY_TARGETS_H_
