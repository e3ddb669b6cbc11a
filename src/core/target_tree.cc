#include "core/target_tree.h"

#include <algorithm>
#include <queue>
#include <unordered_map>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "detect/violation_graph.h"

namespace ftrepair {

Result<TargetTree> TargetTree::Build(std::vector<LevelInput> inputs,
                                     std::vector<int> component_cols,
                                     size_t max_nodes,
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

  // back_attr[l]: indices of level l's attrs fixed at an earlier level
  // (the agreement checks); fixed_attr[l][j]: the attr index of
  // fixed_positions_[l][j].
  std::vector<std::vector<size_t>> back_attr(
      static_cast<size_t>(tree.num_levels_));
  std::vector<std::vector<size_t>> fixed_attr(
      static_cast<size_t>(tree.num_levels_));
  for (size_t l = 0; l < attr_pos.size(); ++l) {
    const std::vector<int>& fixed_here = tree.fixed_positions_[l];
    for (size_t k = 0; k < attr_pos[l].size(); ++k) {
      auto it = std::find(fixed_here.begin(), fixed_here.end(),
                          attr_pos[l][k]);
      if (it == fixed_here.end()) back_attr[l].push_back(k);
    }
    for (int fp : fixed_here) {
      fixed_attr[l].push_back(static_cast<size_t>(
          std::find(attr_pos[l].begin(), attr_pos[l].end(), fp) -
          attr_pos[l].begin()));
    }
  }

  // Depth-first join over one path buffer. Every agreeing child is
  // created: counted against max_nodes and charged, as the node the
  // tree once stored for it. A node is kept only once its subtree
  // reaches a leaf. kept[l] lists level l's kept nodes in path order,
  // which is the breadth-first order (by parent, then element), and a
  // kept node's parent is the next node kept one level up: a subtree
  // closes before its root does.
  struct Kept {
    int elem;
    int parent;  // index into kept[level - 1]; 0 (the root) at level 0
  };
  const size_t num_levels = inputs.size();
  const uint64_t node_bytes =
      kNodeChargeBytes + static_cast<uint64_t>(width) * sizeof(Value);
  std::vector<std::vector<Kept>> kept(num_levels);
  std::vector<uint32_t> path(static_cast<size_t>(width),
                             ColumnDictionary::kNullCode);
  size_t created = 0;
  MemoryCharge charge(memory);
  Status failed;
  // Whether the subtree under the path's first l levels reaches a leaf.
  auto walk = [&](auto& self, size_t l) -> bool {
    const LevelInput& input = inputs[l];
    const std::vector<int>& pos = attr_pos[l];
    const std::vector<int>& fixed_here = tree.fixed_positions_[l];
    bool live = false;
    for (size_t e = 0; e < input.elements.size(); ++e) {
      const std::vector<uint32_t>& elem = input.elements[e];
      // Agreement on already-fixed shared positions.
      bool agrees = true;
      for (size_t k : back_attr[l]) {
        if (path[static_cast<size_t>(pos[k])] != elem[k]) {
          agrees = false;
          break;
        }
      }
      if (!agrees) continue;
      if (created + 1 >= max_nodes) {
        failed = Status::ResourceExhausted(
            "target tree exceeded " + std::to_string(max_nodes) + " nodes");
        return false;
      }
      if (!charge.Add(node_bytes, MemPhase::kTargets)) {
        failed = memory->Check("target tree build");
        return false;
      }
      ++created;
      for (size_t j = 0; j < fixed_here.size(); ++j) {
        path[static_cast<size_t>(fixed_here[j])] = elem[fixed_attr[l][j]];
      }
      bool reaches_leaf = l + 1 == num_levels || self(self, l + 1);
      if (!failed.ok()) return false;
      if (!reaches_leaf) continue;
      kept[l].push_back(Kept{
          static_cast<int>(e),
          l == 0 ? 0 : static_cast<int>(kept[l - 1].size())});
      live = true;
    }
    return live;
  };
  walk(walk, 0);
  if (failed.ok() && kept.back().empty()) {
    failed = Status::NotFound("target join is empty");
  }
  if (!failed.ok()) return failed;  // the charge dies with the build
  tree.num_targets_ = kept.back().size();

  // Lay the kept nodes out by level; each node's children then get a
  // contiguous id range in element order, so searches push the same
  // sequence as over the breadth-first build.
  tree.nodes_.emplace_back();  // the root
  size_t parent_base = 0;
  for (size_t l = 0; l < num_levels; ++l) {
    const size_t base = tree.nodes_.size();
    for (const Kept& k : kept[l]) {
      Node node;
      node.level = static_cast<int>(l);
      node.parent = static_cast<int>(parent_base) + k.parent;
      node.elem = k.elem;
      Node& parent = tree.nodes_[static_cast<size_t>(node.parent)];
      if (parent.num_children++ == 0) {
        parent.first_child = static_cast<int>(tree.nodes_.size());
      }
      tree.nodes_.push_back(node);
    }
    parent_base = base;
  }
  // Only the kept nodes stay resident, until the tree dies: return the
  // others' charge (the root was never charged).
  charge.Return((created + 1 - tree.nodes_.size()) * node_bytes);
  tree.charge_ = std::move(charge);
  static Counter* built =
      Metrics().GetCounter("ftrepair.targets.tree_nodes");
  static Counter* live =
      Metrics().GetCounter("ftrepair.targets.tree_live_nodes");
  built->Increment(created + 1);
  live->Increment(tree.nodes_.size());

  // Domains: the distinct codes each position takes over the targets,
  // which are the codes the kept nodes fix there.
  tree.domains_.resize(static_cast<size_t>(width));
  for (size_t l = 0; l < num_levels; ++l) {
    const std::vector<int>& fixed_here = tree.fixed_positions_[l];
    for (const Kept& k : kept[l]) {
      const std::vector<uint32_t>& elem =
          inputs[l].elements[static_cast<size_t>(k.elem)];
      for (size_t j = 0; j < fixed_here.size(); ++j) {
        tree.domains_[static_cast<size_t>(fixed_here[j])].push_back(
            elem[fixed_attr[l][j]]);
      }
    }
  }
  for (std::vector<uint32_t>& domain : tree.domains_) {
    std::sort(domain.begin(), domain.end());
    domain.erase(std::unique(domain.begin(), domain.end()), domain.end());
  }
  tree.fixed_index_.resize(num_levels);
  for (size_t l = 0; l < num_levels; ++l) {
    std::vector<uint32_t>& index = tree.fixed_index_[l];
    for (const std::vector<uint32_t>& elem : inputs[l].elements) {
      for (size_t j = 0; j < fixed_attr[l].size(); ++j) {
        const std::vector<uint32_t>& domain = tree.domains_[static_cast<size_t>(
            tree.fixed_positions_[l][j])];
        uint32_t code = elem[fixed_attr[l][j]];
        auto it = std::lower_bound(domain.begin(), domain.end(), code);
        index.push_back(it != domain.end() && *it == code
                            ? static_cast<uint32_t>(it - domain.begin())
                            : UINT32_MAX);  // on no complete path
      }
    }
  }

  // Below-sets, bottom-up (ids are topological: parent < child). EDIST
  // takes a min over each set, so its order is free.
  for (size_t id = tree.nodes_.size(); id-- > 0;) {
    Node& node = tree.nodes_[id];
    const std::vector<int>& future =
        tree.future_positions_[static_cast<size_t>(node.level + 1)];
    node.below = static_cast<int>(tree.below_bounds_.size());
    tree.below_bounds_.push_back(static_cast<uint32_t>(tree.below_.size()));
    for (int pos : future) {
      size_t start = tree.below_.size();
      for (int c = node.first_child; c < node.first_child + node.num_children;
           ++c) {
        const Node& child = tree.nodes_[static_cast<size_t>(c)];
        const std::vector<int>& child_future =
            tree.future_positions_[static_cast<size_t>(child.level + 1)];
        auto in_child = std::lower_bound(child_future.begin(),
                                         child_future.end(), pos);
        if (in_child != child_future.end() && *in_child == pos) {
          // Deeper levels fix it: merge the child's below-set.
          size_t ci = static_cast<size_t>(child.below) +
                      static_cast<size_t>(in_child - child_future.begin());
          for (uint32_t k = tree.below_bounds_[ci];
               k < tree.below_bounds_[ci + 1]; ++k) {
            uint32_t index = tree.below_[k];
            tree.below_.push_back(index);
          }
        } else {
          // The child itself fixed it.
          const std::vector<int>& fixed =
              tree.fixed_positions_[static_cast<size_t>(child.level)];
          tree.below_.push_back(tree.FixedIndex(
              child, static_cast<size_t>(
                         std::find(fixed.begin(), fixed.end(), pos) -
                         fixed.begin())));
        }
      }
      std::sort(tree.below_.begin() + static_cast<std::ptrdiff_t>(start),
                tree.below_.end());
      tree.below_.erase(
          std::unique(tree.below_.begin() + static_cast<std::ptrdiff_t>(start),
                      tree.below_.end()),
          tree.below_.end());
      tree.below_bounds_.push_back(static_cast<uint32_t>(tree.below_.size()));
    }
  }
  return tree;
}

double TargetTree::Edist(const Node& node, const DistanceRows& rows) const {
  const std::vector<int>& future =
      future_positions_[static_cast<size_t>(node.level + 1)];
  double sum = 0;
  for (size_t fi = 0; fi < future.size(); ++fi) {
    const double* row = rows[static_cast<size_t>(future[fi])];
    size_t bound = static_cast<size_t>(node.below) + fi;
    double best = 1.0;
    for (uint32_t k = below_bounds_[bound]; k < below_bounds_[bound + 1];
         ++k) {
      best = std::min(best, row[below_[k]]);
      if (best == 0) break;
    }
    sum += best;
  }
  return sum;
}

std::vector<uint32_t> TargetTree::Assignment(int node) const {
  std::vector<uint32_t> assign(component_cols_.size(),
                               ColumnDictionary::kNullCode);
  for (int cur = node; cur > 0; cur = nodes_[static_cast<size_t>(cur)].parent) {
    const Node& n = nodes_[static_cast<size_t>(cur)];
    const std::vector<int>& fixed =
        fixed_positions_[static_cast<size_t>(n.level)];
    for (size_t j = 0; j < fixed.size(); ++j) {
      size_t p = static_cast<size_t>(fixed[j]);
      assign[p] = domains_[p][FixedIndex(n, j)];
    }
  }
  return assign;
}

TargetQuery TargetTree::FindBest(const DistanceRows& rows, SearchStats* stats,
                                 const Budget* budget,
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
  queue.push(QueueEntry{Edist(nodes_[0], rows), 0, 0.0});

  TargetQuery result;
  double c_min = ViolationGraph::kInfinity;
  int best_leaf = -1;
  MemoryCharge popped(memory);  // returned when the search ends
  while (!queue.empty()) {
    if (!BudgetCharge(budget) ||
        !popped.Add(sizeof(QueueEntry), MemPhase::kTargets)) {
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
    for (int c = node.first_child; c < node.first_child + node.num_children;
         ++c) {
      const Node& child = nodes_[static_cast<size_t>(c)];
      const std::vector<int>& fixed =
          fixed_positions_[static_cast<size_t>(child.level)];
      double rdist = top.rdist;
      for (size_t j = 0; j < fixed.size(); ++j) {
        rdist += rows[static_cast<size_t>(fixed[j])][FixedIndex(child, j)];
      }
      double f = rdist + Edist(child, rows);
      if (f < c_min) {
        queue.push(QueueEntry{f, c, rdist});
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
  result.target = Assignment(best_leaf);
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
    if (node.level == num_levels_ - 1) {
      out.push_back(Assignment(id));
      continue;
    }
    for (int c = node.first_child; c < node.first_child + node.num_children;
         ++c) {
      stack.push_back(c);
    }
  }
  return out;
}

}  // namespace ftrepair
