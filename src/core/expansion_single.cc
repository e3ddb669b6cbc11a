#include "core/expansion_single.h"

#include <algorithm>
#include <unordered_set>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/greedy_single.h"

namespace ftrepair {

namespace {

using Bits = std::vector<uint64_t>;

size_t WordCount(int n) { return static_cast<size_t>((n + 63) / 64); }

bool TestBit(const Bits& bits, int i) {
  return (bits[static_cast<size_t>(i) / 64] >>
          (static_cast<size_t>(i) % 64)) &
         1u;
}

void SetBit(Bits* bits, int i) {
  (*bits)[static_cast<size_t>(i) / 64] |= uint64_t{1}
                                          << (static_cast<size_t>(i) % 64);
}

bool Intersects(const Bits& a, const Bits& b) {
  for (size_t w = 0; w < a.size(); ++w) {
    if (a[w] & b[w]) return true;
  }
  return false;
}

struct BitsHash {
  size_t operator()(const Bits& b) const {
    size_t h = 1469598103934665603ULL;
    for (uint64_t w : b) {
      h ^= w;
      h *= 1099511628211ULL;
    }
    return h;
  }
};

struct Node {
  Bits bits;
  /// Eq. 5 lower bound over the processed prefix: sum over excluded
  /// prefix patterns of count * MinEdgeCost.
  double lb = 0;
};

std::vector<int> MembersOf(const Bits& bits, int n) {
  std::vector<int> out;
  for (int i = 0; i < n; ++i) {
    if (TestBit(bits, i)) out.push_back(i);
  }
  return out;
}

}  // namespace

double EvaluateIndependentSet(const ViolationGraph& graph,
                              const std::vector<int>& set,
                              std::vector<int>* repair_target) {
  int n = graph.num_patterns();
  std::vector<bool> member(static_cast<size_t>(n), false);
  for (int v : set) member[static_cast<size_t>(v)] = true;
  repair_target->assign(static_cast<size_t>(n), -1);
  double cost = 0;
  for (int v = 0; v < n; ++v) {
    if (member[static_cast<size_t>(v)]) continue;
    double best = ViolationGraph::kInfinity;
    int best_to = -1;
    for (const ViolationGraph::Edge& e : graph.Neighbors(v)) {
      if (!member[static_cast<size_t>(e.to)]) continue;
      if (e.unit_cost < best ||
          (e.unit_cost == best && e.to < best_to)) {
        best = e.unit_cost;
        best_to = e.to;
      }
    }
    if (best_to < 0) {
      // `set` is not maximal: v is consistent with it but excluded.
      repair_target->assign(static_cast<size_t>(n), -1);
      return ViolationGraph::kInfinity;
    }
    (*repair_target)[static_cast<size_t>(v)] = best_to;
    cost += graph.pattern(v).count() * best;
  }
  return cost;
}

Result<std::vector<std::vector<int>>> EnumerateMaximalIndependentSets(
    const ViolationGraph& graph, const ExpansionConfig& config,
    uint64_t* nodes_expanded, uint64_t* nodes_pruned) {
  *nodes_expanded = 0;
  *nodes_pruned = 0;
  int n = graph.num_patterns();
  if (n == 0) return std::vector<std::vector<int>>{};
  size_t words = WordCount(n);

  // Frequency-descending access order (§3.1), ties by pattern id.
  std::vector<int> order(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;
  std::sort(order.begin(), order.end(), [&graph](int a, int b) {
    int ca = graph.pattern(a).count();
    int cb = graph.pattern(b).count();
    if (ca != cb) return ca > cb;
    return a < b;
  });

  // Adjacency bitsets for O(n/64) consistency tests.
  std::vector<Bits> adj_bits(static_cast<size_t>(n), Bits(words, 0));
  for (int i = 0; i < n; ++i) {
    for (const ViolationGraph::Edge& e : graph.Neighbors(i)) {
      SetBit(&adj_bits[static_cast<size_t>(i)], e.to);
    }
  }

  const double kEps = 1e-12;
  // Per-tuple exclusion cost of each pattern, capped by config.lb_floor.
  auto exclusion_lb = [&graph, &config](int v) {
    double mec = graph.MinEdgeCost(v);
    if (mec == ViolationGraph::kInfinity) return 0.0;
    return std::min(mec, config.lb_floor);
  };
  Bits prefix_bits(words, 0);
  SetBit(&prefix_bits, order[0]);

  std::vector<Node> frontier;
  MemoryCharge expanded(config.memory);  // returned with the frontier
  {
    Node root;
    root.bits.assign(words, 0);
    SetBit(&root.bits, order[0]);
    frontier.push_back(std::move(root));
  }

  for (int level = 1; level < n; ++level) {
    int p = order[static_cast<size_t>(level)];
    const Bits& p_adj = adj_bits[static_cast<size_t>(p)];
    double p_excluded_lb = graph.pattern(p).count() * exclusion_lb(p);

    std::vector<Node> next;
    next.reserve(frontier.size() + frontier.size() / 2);
    std::unordered_set<Bits, BitsHash> seen;

    for (Node& node : frontier) {
      if (!config.enumerate_all &&
          node.lb > config.upper_bound + kEps) {
        ++*nodes_pruned;
        continue;
      }
      if (!BudgetCharge(config.budget) ||
          !expanded.Add(sizeof(Node) + words * sizeof(uint64_t),
                        MemPhase::kSolve)) {
        return ResourceCheck(config.budget, config.memory,
                             "expansion enumeration");
      }
      ++*nodes_expanded;
      if (!Intersects(p_adj, node.bits)) {
        // p is FT-consistent with every member: single child I ∪ {p}.
        SetBit(&node.bits, p);
        if (seen.insert(node.bits).second) next.push_back(std::move(node));
        continue;
      }
      // Left child: I itself stays maximal w.r.t. the longer prefix.
      Node left = node;
      left.lb += p_excluded_lb;
      // Right child: FTC(p, I) ∪ {p}.
      Bits cand(words, 0);
      double removed_lb = 0;
      for (size_t w = 0; w < words; ++w) {
        cand[w] = node.bits[w] & ~p_adj[w];
      }
      for (int v : MembersOf(node.bits, n)) {
        if (!TestBit(cand, v)) {
          removed_lb += graph.pattern(v).count() * exclusion_lb(v);
        }
      }
      SetBit(&cand, p);
      if (seen.insert(left.bits).second) next.push_back(std::move(left));

      // Maximality w.r.t. the prefix: no prefix pattern outside cand may
      // be consistent with all of cand.
      bool maximal = true;
      for (int q = 0; q <= level && maximal; ++q) {
        int qp = order[static_cast<size_t>(q)];
        if (TestBit(cand, qp)) continue;
        if (!Intersects(adj_bits[static_cast<size_t>(qp)], cand)) {
          maximal = false;
        }
      }
      if (maximal && seen.count(cand) == 0) {
        Node right;
        right.lb = node.lb + removed_lb;
        right.bits = cand;
        seen.insert(right.bits);
        next.push_back(std::move(right));
      }
    }
    SetBit(&prefix_bits, p);
    if (next.size() > config.max_frontier) {
      return Status::ResourceExhausted(
          "expansion frontier exceeded " +
          std::to_string(config.max_frontier) + " at level " +
          std::to_string(level));
    }
    if (next.empty()) {
      // Every branch was pruned: no maximal independent set can beat
      // the seeded upper bound, so the seed itself is optimal.
      return std::vector<std::vector<int>>{};
    }
    frontier = std::move(next);
  }

  std::vector<std::vector<int>> sets;
  sets.reserve(frontier.size());
  for (const Node& node : frontier) {
    sets.push_back(MembersOf(node.bits, n));
  }
  return sets;
}

namespace {

// Optimal repair of one connected component of the violation graph.
Result<SingleFDSolution> SolveConnectedComponent(
    const ViolationGraph& graph, const ExpansionConfig& config) {
  SingleFDSolution best;
  int n = graph.num_patterns();
  best.repair_target.assign(static_cast<size_t>(n), -1);
  if (n == 0) return best;

  // Seed the upper bound with the Greedy-S repair (an achievable cost
  // honoring forced patterns), the role UB(T) plays in Algorithm 1. A
  // seed the budget cut short understates the achievable cost (unsound
  // as UB(T)) and means the budget is spent — step down the ladder now.
  ExpansionConfig cfg = config;
  uint64_t forced_conflicts = 0;
  if (!cfg.enumerate_all &&
      cfg.upper_bound == ViolationGraph::kInfinity) {
    SingleFDSolution greedy = SolveGreedySingle(
        graph, cfg.forced, &forced_conflicts, cfg.budget, cfg.memory);
    if (greedy.truncated) {
      return ResourceCheck(cfg.budget, cfg.memory, "upper-bound seed");
    }
    cfg.upper_bound = greedy.cost;
    best = std::move(greedy);
  }

  uint64_t expanded = 0;
  uint64_t pruned = 0;
  auto sets_result =
      EnumerateMaximalIndependentSets(graph, cfg, &expanded, &pruned);
  if (!sets_result.ok()) return sets_result.status();
  std::vector<std::vector<int>> sets = std::move(sets_result).value();

  double best_cost =
      best.chosen_set.empty() ? ViolationGraph::kInfinity : best.cost;
  bool found = !best.chosen_set.empty();
  for (std::vector<int>& set : sets) {
    if (config.forced != nullptr) {
      // Discard sets missing a trusted pattern.
      std::vector<bool> member(static_cast<size_t>(n), false);
      for (int v : set) member[static_cast<size_t>(v)] = true;
      bool valid = true;
      for (int v = 0; v < n && valid; ++v) {
        valid = !(*config.forced)[static_cast<size_t>(v)] ||
                member[static_cast<size_t>(v)];
      }
      if (!valid) continue;
    }
    std::vector<int> target;
    double cost = EvaluateIndependentSet(graph, set, &target);
    if (cost < best_cost) {
      best_cost = cost;
      best.chosen_set = std::move(set);
      best.repair_target = std::move(target);
      found = true;
    }
  }
  if (!found) {
    return Status::Internal("no maximal independent set evaluated");
  }
  best.cost = best_cost;
  best.nodes_expanded = expanded;
  best.nodes_pruned = pruned;
  return best;
}

}  // namespace

Result<SingleFDSolution> SolveExpansionSingle(const ViolationGraph& graph,
                                              const ExpansionConfig& config) {
  FTR_TRACE_SPAN("expansion.solve_single");
  // Maximal independent sets, repair targets, and costs all decompose
  // over connected components of the violation graph, so the optimum
  // is the union of per-component optima. This keeps the expansion
  // frontier proportional to the largest conflict cluster instead of
  // the whole instance.
  SingleFDSolution solution;
  solution.rung = SolverRung::kExact;
  int n = graph.num_patterns();
  solution.repair_target.assign(static_cast<size_t>(n), -1);
  for (const std::vector<int>& component : graph.ConnectedComponents()) {
    if (component.size() == 1) {
      solution.chosen_set.push_back(component[0]);  // isolated vertex
      continue;
    }
    ViolationGraph sub = graph.InducedSubgraph(component);
    ExpansionConfig local_config = config;
    std::vector<bool> local_forced;
    if (config.forced != nullptr) {
      local_forced.resize(component.size());
      for (size_t i = 0; i < component.size(); ++i) {
        local_forced[i] =
            (*config.forced)[static_cast<size_t>(component[i])];
      }
      local_config.forced = &local_forced;
    }
    FTR_ASSIGN_OR_RETURN(SingleFDSolution local,
                         SolveConnectedComponent(sub, local_config));
    for (int v : local.chosen_set) {
      solution.chosen_set.push_back(component[static_cast<size_t>(v)]);
    }
    for (size_t v = 0; v < component.size(); ++v) {
      int target = local.repair_target[v];
      if (target >= 0) {
        solution.repair_target[static_cast<size_t>(component[v])] =
            component[static_cast<size_t>(target)];
      }
    }
    solution.cost += local.cost;
    solution.nodes_expanded += local.nodes_expanded;
    solution.nodes_pruned += local.nodes_pruned;
  }
  std::sort(solution.chosen_set.begin(), solution.chosen_set.end());
  static Counter* nodes =
      Metrics().GetCounter("ftrepair.solve.expansion_nodes");
  static Counter* pruned =
      Metrics().GetCounter("ftrepair.solve.expansion_pruned");
  nodes->Increment(solution.nodes_expanded);
  pruned->Increment(solution.nodes_pruned);
  return solution;
}

}  // namespace ftrepair
