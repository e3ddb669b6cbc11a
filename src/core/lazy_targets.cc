#include "core/lazy_targets.h"

#include <algorithm>
#include <queue>
#include <unordered_map>
#include <unordered_set>

#include "common/trace.h"
#include "detect/pattern.h"
#include "detect/violation_graph.h"

namespace ftrepair {

namespace {

// The codes of `elem` at `indices`: the exact key of an agreement on
// those attributes.
std::vector<uint32_t> CodesAt(const std::vector<uint32_t>& elem,
                              const std::vector<int>& indices) {
  std::vector<uint32_t> key;
  key.reserve(indices.size());
  for (int i : indices) key.push_back(elem[static_cast<size_t>(i)]);
  return key;
}

}  // namespace

Result<LazyTargetSearch> LazyTargetSearch::Build(
    std::vector<TargetTree::LevelInput> inputs,
    std::vector<int> component_cols) {
  FTR_TRACE_SPAN("targets.lazy_build");
  if (inputs.empty()) {
    return Status::InvalidArgument("lazy target search needs >= 1 set");
  }
  std::stable_sort(inputs.begin(), inputs.end(),
                   [](const TargetTree::LevelInput& a,
                      const TargetTree::LevelInput& b) {
                     return a.elements.size() < b.elements.size();
                   });

  LazyTargetSearch search;
  search.component_cols_ = std::move(component_cols);
  int width = static_cast<int>(search.component_cols_.size());
  std::unordered_map<int, int> col_to_pos;
  for (int p = 0; p < width; ++p) {
    col_to_pos.emplace(search.component_cols_[static_cast<size_t>(p)], p);
  }

  // --- Pairwise-consistency prefilter (fixpoint). ---
  // viable[l][e] = element e of level l agrees, on every attribute
  // shared with any other level m, with at least one viable element of m.
  size_t num_levels = inputs.size();
  std::vector<std::vector<bool>> viable(num_levels);
  for (size_t l = 0; l < num_levels; ++l) {
    viable[l].assign(inputs[l].elements.size(), true);
  }
  // Shared attribute positions between level pairs, expressed as
  // (attr index in l, attr index in m).
  struct SharedAttrs {
    std::vector<int> in_l;
    std::vector<int> in_m;
  };
  std::vector<std::vector<SharedAttrs>> shared(
      num_levels, std::vector<SharedAttrs>(num_levels));
  for (size_t l = 0; l < num_levels; ++l) {
    for (size_t m = 0; m < num_levels; ++m) {
      if (l == m) continue;
      const auto& la = inputs[l].fd->attrs();
      const auto& ma = inputs[m].fd->attrs();
      for (size_t i = 0; i < la.size(); ++i) {
        for (size_t j = 0; j < ma.size(); ++j) {
          if (la[i] == ma[j]) {
            shared[l][m].in_l.push_back(static_cast<int>(i));
            shared[l][m].in_m.push_back(static_cast<int>(j));
          }
        }
      }
    }
  }
  bool changed = true;
  int rounds = 0;
  while (changed && rounds++ < 16) {
    changed = false;
    for (size_t l = 0; l < num_levels; ++l) {
      for (size_t m = 0; m < num_levels; ++m) {
        if (l == m || shared[l][m].in_l.empty()) continue;
        // The viable projections of level m onto the shared attributes.
        std::unordered_set<std::vector<uint32_t>, CodeVectorHash> keys;
        for (size_t e = 0; e < inputs[m].elements.size(); ++e) {
          if (!viable[m][e]) continue;
          keys.insert(CodesAt(inputs[m].elements[e], shared[l][m].in_m));
        }
        for (size_t e = 0; e < inputs[l].elements.size(); ++e) {
          if (!viable[l][e]) continue;
          if (keys.count(CodesAt(inputs[l].elements[e],
                                 shared[l][m].in_l)) == 0) {
            viable[l][e] = false;
            changed = true;
          }
        }
      }
    }
  }

  // --- Level construction. ---
  std::vector<bool> fixed(static_cast<size_t>(width), false);
  search.levels_.resize(num_levels);
  search.position_codes_.assign(static_cast<size_t>(width), {});
  for (size_t l = 0; l < num_levels; ++l) {
    Level& level = search.levels_[l];
    level.fd = inputs[l].fd;
    for (size_t e = 0; e < inputs[l].elements.size(); ++e) {
      if (viable[l][e]) level.elements.push_back(inputs[l].elements[e]);
    }
    if (level.elements.empty()) {
      return Status::NotFound("target join is empty");
    }
    for (size_t a = 0; a < level.fd->attrs().size(); ++a) {
      int col = level.fd->attrs()[a];
      auto it = col_to_pos.find(col);
      if (it == col_to_pos.end()) {
        return Status::InvalidArgument(
            "FD attribute not in component columns");
      }
      level.attr_pos.push_back(it->second);
      if (fixed[static_cast<size_t>(it->second)]) {
        level.back_attr.push_back(static_cast<int>(a));
      } else {
        fixed[static_cast<size_t>(it->second)] = true;
        level.fixed_pos.push_back(it->second);
        // Collect distinct codes for the global EDIST bound.
        std::vector<uint32_t>& distinct =
            search.position_codes_[static_cast<size_t>(it->second)];
        for (const auto& elem : level.elements) distinct.push_back(elem[a]);
        std::sort(distinct.begin(), distinct.end());
        distinct.erase(std::unique(distinct.begin(), distinct.end()),
                       distinct.end());
      }
    }
    for (const std::vector<uint32_t>& elem : level.elements) {
      for (int pos : level.fixed_pos) {
        size_t a = static_cast<size_t>(
            std::find(level.attr_pos.begin(), level.attr_pos.end(), pos) -
            level.attr_pos.begin());
        const std::vector<uint32_t>& domain =
            search.position_codes_[static_cast<size_t>(pos)];
        level.fixed_index.push_back(static_cast<uint32_t>(
            std::lower_bound(domain.begin(), domain.end(), elem[a]) -
            domain.begin()));
      }
    }
    // Index elements by their back-shared projection.
    for (size_t e = 0; e < level.elements.size(); ++e) {
      level.index[CodesAt(level.elements[e], level.back_attr)].push_back(
          static_cast<int>(e));
    }
  }
  for (int p = 0; p < width; ++p) {
    if (!fixed[static_cast<size_t>(p)]) {
      return Status::InvalidArgument(
          "component column covered by no FD in the target search");
    }
  }
  // Suffix position lists for EDIST.
  search.suffix_positions_.assign(num_levels + 1, {});
  for (size_t l = num_levels; l-- > 0;) {
    search.suffix_positions_[l] = search.suffix_positions_[l + 1];
    for (int p : search.levels_[l].fixed_pos) {
      search.suffix_positions_[l].push_back(p);
    }
  }
  return search;
}

TargetQuery LazyTargetSearch::FindBest(
    const DistanceRows& rows, uint64_t max_visits,
    TargetTree::SearchStats* stats,
    const Budget* budget, const MemoryBudget* memory) const {
  TargetQuery result;
  size_t num_levels = levels_.size();
  int width = static_cast<int>(component_cols_.size());

  // Per-position global lower bounds for this tuple.
  std::vector<double> pos_lb(static_cast<size_t>(width), 0);
  for (size_t p = 0; p < static_cast<size_t>(width); ++p) {
    double best = 1.0;
    for (size_t i = 0; i < position_codes_[p].size(); ++i) {
      best = std::min(best, rows[p][i]);
      if (best == 0) break;
    }
    pos_lb[p] = best;
  }
  // edist_suffix[l] = sum of pos_lb over positions fixed at level >= l.
  std::vector<double> edist_suffix(num_levels + 1, 0);
  for (size_t l = num_levels; l-- > 0;) {
    edist_suffix[l] = edist_suffix[l + 1];
    for (int p : levels_[l].fixed_pos) {
      edist_suffix[l] += pos_lb[static_cast<size_t>(p)];
    }
  }

  // Search arena: expanded nodes with parent pointers.
  struct Node {
    int level;  // level of the element this node chose (-1 = root)
    int elem;
    int parent;
  };
  std::vector<Node> arena;
  arena.push_back(Node{-1, -1, -1});

  struct Entry {
    double f;
    double rdist;
    int node;
    uint64_t order;
    bool operator>(const Entry& other) const {
      if (f != other.f) return f > other.f;
      return order > other.order;  // deterministic FIFO tie-break
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue;
  uint64_t order_counter = 0;
  queue.push(Entry{edist_suffix[0], 0.0, 0, order_counter++});

  double c_min = ViolationGraph::kInfinity;
  int best_leaf = -1;
  uint64_t visits = 0;
  MemoryCharge pushed(memory);  // returned when the search ends

  // Reconstructs the partial assignment of a node's path.
  std::vector<uint32_t> assignment(static_cast<size_t>(width));
  std::vector<uint32_t> back_key;
  auto fill_assignment = [&](int node_id) {
    int cur = node_id;
    while (cur > 0) {
      const Node& n = arena[static_cast<size_t>(cur)];
      const Level& level = levels_[static_cast<size_t>(n.level)];
      const std::vector<uint32_t>& elem =
          level.elements[static_cast<size_t>(n.elem)];
      for (size_t a = 0; a < level.attr_pos.size(); ++a) {
        assignment[static_cast<size_t>(level.attr_pos[a])] = elem[a];
      }
      cur = arena[static_cast<size_t>(cur)].parent;
    }
  };

  while (!queue.empty()) {
    Entry top = queue.top();
    queue.pop();
    if (top.f >= c_min) {
      if (stats != nullptr) ++stats->nodes_pruned;
      continue;
    }
    if (++visits > max_visits || !BudgetCharge(budget) ||
        !pushed.Add(sizeof(Node) + sizeof(Entry), MemPhase::kTargets)) {
      result.truncated = true;
      break;
    }
    if (stats != nullptr) ++stats->nodes_visited;
    const Node& node = arena[static_cast<size_t>(top.node)];
    int next_level = node.level + 1;
    if (next_level == static_cast<int>(num_levels)) {
      c_min = top.f;  // leaf: EDIST suffix is empty, f == rdist == cost
      best_leaf = top.node;
      continue;
    }
    const Level& level = levels_[static_cast<size_t>(next_level)];
    fill_assignment(top.node);
    back_key.clear();
    for (int a : level.back_attr) {
      back_key.push_back(assignment[static_cast<size_t>(
          level.attr_pos[static_cast<size_t>(a)])]);
    }
    auto it = level.index.find(back_key);
    if (it == level.index.end()) continue;  // dead end
    size_t num_fixed = level.fixed_pos.size();
    for (int e : it->second) {
      // Only positions first fixed here contribute (back-shared ones
      // were already priced by the fixing level).
      const uint32_t* index =
          level.fixed_index.data() + static_cast<size_t>(e) * num_fixed;
      double rdist = top.rdist;
      for (size_t j = 0; j < num_fixed; ++j) {
        rdist += rows[static_cast<size_t>(level.fixed_pos[j])][index[j]];
      }
      double f = rdist +
                 edist_suffix[static_cast<size_t>(next_level) + 1];
      if (f < c_min) {
        arena.push_back(Node{next_level, e, top.node});
        queue.push(Entry{f, rdist, static_cast<int>(arena.size()) - 1,
                         order_counter++});
      } else if (stats != nullptr) {
        ++stats->nodes_pruned;
      }
    }
  }

  if (best_leaf < 0) return result;  // no target found
  fill_assignment(best_leaf);
  result.target = assignment;
  result.cost = c_min;
  return result;
}

}  // namespace ftrepair
