#include "core/target_tree.h"

#include <algorithm>
#include <queue>
#include <unordered_map>

#include "common/logging.h"
#include "common/trace.h"
#include "detect/pattern.h"
#include "detect/violation_graph.h"

namespace ftrepair {

Result<TargetTree> TargetTree::Build(std::vector<LevelInput> inputs,
                                     std::vector<int> component_cols,
                                     const Table& table, size_t max_nodes,
                                     const MemoryBudget* memory) {
  FTR_TRACE_SPAN("targets.tree_build");
  if (inputs.empty()) {
    return Status::InvalidArgument("target tree needs >= 1 independent set");
  }
  // Smaller sets near the root (§5.1); stable for determinism.
  std::stable_sort(inputs.begin(), inputs.end(),
                   [](const LevelInput& a, const LevelInput& b) {
                     return a.elements.size() < b.elements.size();
                   });

  TargetTree tree;
  tree.component_cols_ = std::move(component_cols);
  tree.decoder_ = ProjectionDecoder(table, tree.component_cols_);
  tree.num_levels_ = static_cast<int>(inputs.size());
  int width = static_cast<int>(tree.component_cols_.size());

  std::unordered_map<int, int> col_to_pos;
  for (int p = 0; p < width; ++p) {
    col_to_pos.emplace(tree.component_cols_[static_cast<size_t>(p)], p);
  }

  // Positions fixed at each level = attrs of that FD not fixed earlier.
  // attr_pos[l][k] = component position of the k-th attr of level l's FD.
  std::vector<std::vector<int>> attr_pos(
      static_cast<size_t>(tree.num_levels_));
  std::vector<bool> fixed(static_cast<size_t>(width), false);
  tree.fixed_positions_.resize(static_cast<size_t>(tree.num_levels_));
  for (int l = 0; l < tree.num_levels_; ++l) {
    const FD* fd = inputs[static_cast<size_t>(l)].fd;
    for (int c : fd->attrs()) {
      auto it = col_to_pos.find(c);
      if (it == col_to_pos.end()) {
        return Status::InvalidArgument(
            "FD attribute not in component columns");
      }
      attr_pos[static_cast<size_t>(l)].push_back(it->second);
      if (!fixed[static_cast<size_t>(it->second)]) {
        fixed[static_cast<size_t>(it->second)] = true;
        tree.fixed_positions_[static_cast<size_t>(l)].push_back(it->second);
      }
    }
  }
  for (int p = 0; p < width; ++p) {
    if (!fixed[static_cast<size_t>(p)]) {
      return Status::InvalidArgument(
          "component column covered by no FD in the target tree");
    }
  }
  // future_positions_[l] = positions fixed at level >= l.
  tree.future_positions_.assign(static_cast<size_t>(tree.num_levels_ + 1),
                                {});
  for (int l = tree.num_levels_ - 1; l >= 0; --l) {
    tree.future_positions_[static_cast<size_t>(l)] =
        tree.future_positions_[static_cast<size_t>(l + 1)];
    for (int p : tree.fixed_positions_[static_cast<size_t>(l)]) {
      tree.future_positions_[static_cast<size_t>(l)].push_back(p);
    }
    std::sort(tree.future_positions_[static_cast<size_t>(l)].begin(),
              tree.future_positions_[static_cast<size_t>(l)].end());
  }

  // Level-by-level construction.
  tree.nodes_.clear();
  Node root;
  root.level = -1;
  root.assign.assign(static_cast<size_t>(width), ColumnDictionary::kNullCode);
  tree.nodes_.push_back(std::move(root));
  std::vector<int> current_leaves = {0};

  for (int l = 0; l < tree.num_levels_; ++l) {
    const LevelInput& input = inputs[static_cast<size_t>(l)];
    std::vector<int> next_leaves;
    for (int node_id : current_leaves) {
      for (size_t e = 0; e < input.elements.size(); ++e) {
        const std::vector<uint32_t>& elem = input.elements[e];
        // Agreement on already-fixed shared positions.
        bool agrees = true;
        const Node& parent = tree.nodes_[static_cast<size_t>(node_id)];
        for (size_t k = 0; k < attr_pos[static_cast<size_t>(l)].size(); ++k) {
          int pos = attr_pos[static_cast<size_t>(l)][k];
          bool fixed_earlier = true;
          // pos is fixed at this level iff it appears in
          // fixed_positions_[l]; linear scan is fine (few attrs).
          for (int fp : tree.fixed_positions_[static_cast<size_t>(l)]) {
            if (fp == pos) {
              fixed_earlier = false;
              break;
            }
          }
          if (fixed_earlier &&
              parent.assign[static_cast<size_t>(pos)] != elem[k]) {
            agrees = false;
            break;
          }
        }
        if (!agrees) continue;
        if (tree.nodes_.size() >= max_nodes) {
          return Status::ResourceExhausted(
              "target tree exceeded " + std::to_string(max_nodes) +
              " nodes");
        }
        // Priced at sizeof(Value) per position although `assign` holds
        // codes: this formula sets the memory-budget trip points the
        // ladder golden pins (mem-bytes:*), so re-pricing it is a
        // change that moves goldens.
        if (!MemCharge(memory,
                       sizeof(Node) + static_cast<uint64_t>(width) *
                                          sizeof(Value),
                       MemPhase::kTargets)) {
          return memory->Check("target tree build");
        }
        Node child;
        child.level = l;
        child.parent = node_id;
        child.assign = parent.assign;
        for (size_t k = 0; k < attr_pos[static_cast<size_t>(l)].size(); ++k) {
          child.assign[static_cast<size_t>(
              attr_pos[static_cast<size_t>(l)][k])] = elem[k];
        }
        int child_id = static_cast<int>(tree.nodes_.size());
        tree.nodes_.push_back(std::move(child));
        tree.nodes_[static_cast<size_t>(node_id)].children.push_back(
            child_id);
        next_leaves.push_back(child_id);
      }
    }
    if (next_leaves.empty()) {
      return Status::NotFound("target join is empty");
    }
    current_leaves = std::move(next_leaves);
  }

  // Mark alive = on a complete path; leaves of the last level are alive.
  for (int leaf : current_leaves) {
    int cur = leaf;
    while (cur >= 0 && !tree.nodes_[static_cast<size_t>(cur)].alive) {
      tree.nodes_[static_cast<size_t>(cur)].alive = true;
      cur = tree.nodes_[static_cast<size_t>(cur)].parent;
    }
  }
  tree.num_targets_ = current_leaves.size();

  // `below` code sets, bottom-up (node ids are topological: parent <
  // child). EDIST takes a min over each set, so its order is free.
  for (int id = static_cast<int>(tree.nodes_.size()) - 1; id >= 0; --id) {
    Node& node = tree.nodes_[static_cast<size_t>(id)];
    if (!node.alive) continue;
    const std::vector<int>& future =
        tree.future_positions_[static_cast<size_t>(node.level + 1)];
    node.below.assign(future.size(), {});
    for (int child_id : node.children) {
      const Node& child = tree.nodes_[static_cast<size_t>(child_id)];
      if (!child.alive) continue;
      const std::vector<int>& child_future =
          tree.future_positions_[static_cast<size_t>(child.level + 1)];
      for (size_t fi = 0; fi < future.size(); ++fi) {
        int pos = future[fi];
        bool in_child_future =
            std::binary_search(child_future.begin(), child_future.end(), pos);
        if (in_child_future) {
          // Deeper levels fix it: merge the child's below-set.
          size_t ci = static_cast<size_t>(
              std::lower_bound(child_future.begin(), child_future.end(),
                               pos) -
              child_future.begin());
          node.below[fi].insert(node.below[fi].end(),
                                child.below[ci].begin(),
                                child.below[ci].end());
        } else {
          // The child itself fixed it.
          node.below[fi].push_back(child.assign[static_cast<size_t>(pos)]);
        }
      }
    }
    for (std::vector<uint32_t>& codes : node.below) {
      std::sort(codes.begin(), codes.end());
      codes.erase(std::unique(codes.begin(), codes.end()), codes.end());
    }
  }
  return tree;
}

double TargetTree::Edist(const Node& node,
                         const std::vector<uint32_t>& tuple_proj,
                         const DistanceModel& model) const {
  const std::vector<int>& future =
      future_positions_[static_cast<size_t>(node.level + 1)];
  double sum = 0;
  for (size_t fi = 0; fi < future.size(); ++fi) {
    size_t pos = static_cast<size_t>(future[fi]);
    double best = 1.0;
    for (uint32_t code : node.below[fi]) {
      best = std::min(best,
                      decoder_.Distance(model, pos, tuple_proj[pos], code));
      if (best == 0) break;
    }
    sum += best;
  }
  return sum;
}

TargetQuery TargetTree::FindBest(const std::vector<uint32_t>& tuple_proj,
                                 const DistanceModel& model,
                                 SearchStats* stats, const Budget* budget,
                                 const MemoryBudget* memory) const {
  struct QueueEntry {
    double f;
    int node;
    double rdist;
    bool operator>(const QueueEntry& other) const { return f > other.f; }
  };
  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      queue;
  queue.push(QueueEntry{Edist(nodes_[0], tuple_proj, model), 0, 0.0});

  TargetQuery result;
  double c_min = ViolationGraph::kInfinity;
  int best_leaf = -1;
  while (!queue.empty()) {
    if (!BudgetCharge(budget) ||
        !MemCharge(memory, sizeof(QueueEntry), MemPhase::kTargets)) {
      result.truncated = true;  // settle for the best leaf so far, if any
      break;
    }
    QueueEntry top = queue.top();
    queue.pop();
    if (top.f >= c_min) {
      if (stats != nullptr) ++stats->nodes_pruned;
      continue;
    }
    const Node& node = nodes_[static_cast<size_t>(top.node)];
    if (stats != nullptr) ++stats->nodes_visited;
    if (node.level == num_levels_ - 1) {
      // Leaf: f is the exact cost (EDIST is empty at the last level).
      c_min = top.f;
      best_leaf = top.node;
      continue;
    }
    for (int child_id : node.children) {
      const Node& child = nodes_[static_cast<size_t>(child_id)];
      if (!child.alive) continue;
      double rdist = top.rdist;
      for (int p : fixed_positions_[static_cast<size_t>(child.level)]) {
        size_t pos = static_cast<size_t>(p);
        rdist += decoder_.Distance(model, pos, tuple_proj[pos],
                                   child.assign[pos]);
      }
      double f = rdist + Edist(child, tuple_proj, model);
      if (f < c_min) {
        queue.push(QueueEntry{f, child_id, rdist});
      } else if (stats != nullptr) {
        ++stats->nodes_pruned;
      }
    }
  }
  if (best_leaf < 0) {
    // Only reachable when a budget ran out before the first leaf;
    // an unbudgeted search always reaches one (the tree is nonempty).
    FTR_DCHECK(result.truncated);
    return result;
  }
  result.target = nodes_[static_cast<size_t>(best_leaf)].assign;
  result.cost = c_min;
  return result;
}

std::vector<std::vector<uint32_t>> TargetTree::EnumerateTargets() const {
  std::vector<std::vector<uint32_t>> out;
  std::vector<int> stack = {0};
  while (!stack.empty()) {
    int id = stack.back();
    stack.pop_back();
    const Node& node = nodes_[static_cast<size_t>(id)];
    if (!node.alive) continue;
    if (node.level == num_levels_ - 1) {
      out.push_back(node.assign);
      continue;
    }
    for (int child : node.children) stack.push_back(child);
  }
  return out;
}

}  // namespace ftrepair
