#include "core/expansion_multi.h"

#include <algorithm>

#include "common/trace.h"
#include "core/appro_multi.h"
#include "core/expansion_single.h"

namespace ftrepair {

namespace {

// Lower bound on the per-tuple cost of changing phi-pattern `v` of
// `graph` to any other existing phi-value (Eq. 9 adapted): a neighbor
// costs at least MinEdgeCost(v); a non-neighbor has weighted projection
// distance > tau, hence unweighted cost > tau / max(w_l, w_r).
double ExclusionFloor(const ViolationGraph& graph, int v,
                      const FTOptions& ft) {
  double non_neighbor_floor =
      ft.tau / std::max(std::max(ft.w_l, ft.w_r), 1e-9);
  return std::min(graph.MinEdgeCost(v), non_neighbor_floor);
}

// Sum of exclusion floors over phi-patterns outside `set`, weighted by
// multiplicity — a sound lower bound on any repair that realizes `set`.
double LocalLowerBound(const ViolationGraph& graph,
                       const std::vector<int>& set, const FTOptions& ft) {
  std::vector<bool> member(static_cast<size_t>(graph.num_patterns()), false);
  for (int v : set) member[static_cast<size_t>(v)] = true;
  double lb = 0;
  for (int v = 0; v < graph.num_patterns(); ++v) {
    if (member[static_cast<size_t>(v)]) continue;
    lb += graph.pattern(v).count() * ExclusionFloor(graph, v, ft);
  }
  return lb;
}

struct CombinationSearch {
  const ComponentContext* context;
  const DistanceModel* model;
  const RepairOptions* options;
  RepairStats* stats;

  // Per FD: enumerated sets, sorted by local lower bound ascending.
  std::vector<std::vector<std::vector<int>>> sets;
  std::vector<std::vector<double>> lbs;
  std::vector<bool> in_disjoint;  // FD participates in the disjoint sum

  double best_cost = ViolationGraph::kInfinity;
  std::vector<std::vector<int>> best_chosen;
  std::vector<int> current;  // set index per FD
  uint64_t examined = 0;

  Status Evaluate() {
    ++examined;
    if (stats != nullptr) ++stats->combinations_examined;
    if (examined > options->max_combinations) {
      return Status::ResourceExhausted(
          "combination count exceeded " +
          std::to_string(options->max_combinations));
    }
    // Per-combination scratch (level inputs + membership bitmaps) is
    // rebuilt each call; the tree build below charges its own nodes.
    MemoryCharge scratch(options->memory);
    if (!BudgetCharge(options->budget) ||
        !scratch.Add(sizeof(TargetTree::LevelInput), MemPhase::kSolve)) {
      return ResourceCheck(options->budget, options->memory,
                           "combination search");
    }
    size_t num_fds = context->fds.size();
    std::vector<TargetTree::LevelInput> inputs(num_fds);
    std::vector<std::vector<bool>> member(num_fds);
    for (size_t k = 0; k < num_fds; ++k) {
      const std::vector<int>& set = sets[k][static_cast<size_t>(current[k])];
      inputs[k].fd = context->fds[k];
      member[k].assign(
          static_cast<size_t>(context->graphs[k].num_patterns()), false);
      for (int j : set) {
        member[k][static_cast<size_t>(j)] = true;
        inputs[k].elements.push_back(context->graphs[k].pattern(j).codes);
      }
    }
    auto tree_result =
        TargetTree::Build(std::move(inputs), context->component_cols,
                          options->max_tree_nodes, options->memory);
    if (!tree_result.ok()) {
      if (tree_result.status().IsNotFound()) return Status::OK();  // no join
      return tree_result.status();
    }
    TargetTree tree = std::move(tree_result).value();

    std::vector<size_t> dirty;
    const std::vector<Pattern>& sigmas = *context->sigma_patterns;
    for (size_t i = 0; i < sigmas.size(); ++i) {
      bool all_member = true;
      for (size_t k = 0; k < num_fds && all_member; ++k) {
        all_member =
            member[k][static_cast<size_t>(context->phi_of_sigma[k][i])];
      }
      if (!all_member) dirty.push_back(i);
    }
    DistanceTable table(tree.domains(), sigmas, dirty);
    if (!table.Fill(*context->table, context->component_cols, *model,
                    options->threads, options->budget, options->memory)) {
      return ResourceCheck(options->budget, options->memory,
                           "combination search");
    }
    double cost = 0;
    for (size_t d = 0; d < dirty.size(); ++d) {
      TargetTree::SearchStats search_stats;
      TargetQuery query = tree.FindBest(table.Rows(d), &search_stats);
      if (stats != nullptr) {
        stats->target_nodes_visited += search_stats.nodes_visited;
        stats->target_nodes_pruned += search_stats.nodes_pruned;
      }
      cost += sigmas[dirty[d]].count() * query.cost;
      if (cost >= best_cost) return Status::OK();  // early abort
    }
    if (cost < best_cost) {
      best_cost = cost;
      best_chosen.clear();
      for (size_t k = 0; k < num_fds; ++k) {
        best_chosen.push_back(sets[k][static_cast<size_t>(current[k])]);
      }
    }
    return Status::OK();
  }

  Status Recurse(size_t k, double disjoint_lb, double max_lb) {
    if (k == sets.size()) return Evaluate();
    for (size_t s = 0; s < sets[k].size(); ++s) {
      double lb_k = lbs[k][s];
      double new_disjoint = disjoint_lb + (in_disjoint[k] ? lb_k : 0.0);
      double new_max = std::max(max_lb, lb_k);
      // Both bounds are monotone in lb_k and sets are sorted by lb
      // ascending, so once pruned every later set is pruned too.
      if (std::max(new_disjoint, new_max) >= best_cost) {
        if (stats != nullptr) ++stats->combinations_pruned;
        break;
      }
      current[k] = static_cast<int>(s);
      FTR_RETURN_NOT_OK(Recurse(k + 1, new_disjoint, new_max));
    }
    return Status::OK();
  }
};

}  // namespace

Result<MultiFDCover> CoverExpansionMulti(const ComponentContext& context,
                                         const DistanceModel& model,
                                         const RepairOptions& options,
                                         RepairStats* stats) {
  FTR_TRACE_SPAN("expansion.solve_multi");
  size_t num_fds = context.fds.size();
  CombinationSearch search;
  search.context = &context;
  search.model = &model;
  search.options = &options;
  search.stats = stats;
  search.sets.resize(num_fds);
  search.lbs.resize(num_fds);
  search.current.assign(num_fds, 0);

  // Trusted rows: enumerated per-FD sets must contain every forced
  // phi-pattern; others are dropped up front.
  std::vector<std::vector<bool>> forced(num_fds);
  if (!options.trusted_rows.empty()) {
    for (size_t k = 0; k < num_fds; ++k) {
      forced[k] = TrustedPatternMask(context.graphs[k].patterns(),
                                     options.trusted_rows);
    }
  }

  // Joint upper bound from Appro-M (an achievable repair, Eq. 11 role)
  // and per-FD unavoidable-cost lower bounds from a greedy matching:
  // every independent set excludes at least one endpoint of each
  // matching edge, and matched edges share no vertex, so the per-edge
  // minima add soundly.
  double ub_joint = ViolationGraph::kInfinity;
  {
    // A truncated Appro-M cost understates the achievable joint cost
    // and would prune valid combinations, so a seed the budget cut
    // short is unusable — and an exhausted budget means the exact
    // search could not finish anyway: hand the component down the
    // ladder right here instead of burning the remaining deadline.
    RepairStats seed_stats;
    auto seed = SolveApproMulti(context, model, options, &seed_stats);
    if (seed.ok() && seed.value().truncated) {
      return ResourceCheck(options.budget, options.memory,
                           "upper-bound seed");
    }
    if (seed.ok() && !seed_stats.join_empty) {
      ub_joint = seed.value().cost;
    }
  }
  std::vector<double> matching_lb(num_fds, 0);
  for (size_t k = 0; k < num_fds; ++k) {
    const ViolationGraph& graph = context.graphs[k];
    std::vector<bool> used(static_cast<size_t>(graph.num_patterns()), false);
    for (int v = 0; v < graph.num_patterns(); ++v) {
      if (used[static_cast<size_t>(v)]) continue;
      for (const ViolationGraph::Edge& e : graph.Neighbors(v)) {
        if (e.to < v || used[static_cast<size_t>(e.to)]) continue;
        used[static_cast<size_t>(v)] = true;
        used[static_cast<size_t>(e.to)] = true;
        matching_lb[k] += std::min(
            graph.pattern(v).count() * ExclusionFloor(graph, v, context.ft[k]),
            graph.pattern(e.to).count() *
                ExclusionFloor(graph, e.to, context.ft[k]));
        break;
      }
    }
  }
  for (size_t k = 0; k < num_fds; ++k) {
    ExpansionConfig config;
    config.max_frontier = options.max_frontier;
    config.budget = options.budget;
    config.memory = options.memory;
    if (ub_joint == ViolationGraph::kInfinity) {
      config.enumerate_all = true;
    } else {
      // A combination containing set I of FD k costs at least
      // local_lb_k(I) plus the matching bounds of a family of FDs that
      // is pairwise attribute-disjoint and disjoint from k (disjoint
      // attribute sets make the costs additive, so no double counting).
      // Prune I when that exceeds the achievable joint cost.
      double others = 0;
      std::vector<size_t> family;
      for (size_t j = 0; j < num_fds; ++j) {
        if (j == k || context.fds[k]->Overlaps(*context.fds[j])) continue;
        bool disjoint = true;
        for (size_t f : family) {
          if (context.fds[j]->Overlaps(*context.fds[f])) {
            disjoint = false;
            break;
          }
        }
        if (disjoint) {
          family.push_back(j);
          others += matching_lb[j];
        }
      }
      config.enumerate_all = false;
      config.upper_bound = ub_joint - others;
      config.lb_floor =
          context.ft[k].tau /
          std::max(std::max(context.ft[k].w_l, context.ft[k].w_r), 1e-9);
    }
    uint64_t expanded = 0;
    uint64_t pruned = 0;
    auto sets_result = EnumerateMaximalIndependentSets(
        context.graphs[k], config, &expanded, &pruned);
    if (stats != nullptr) {
      stats->expansion_nodes += expanded;
      stats->expansion_pruned += pruned;
    }
    if (!sets_result.ok()) return sets_result.status();
    std::vector<std::vector<int>> sets = std::move(sets_result).value();
    if (sets.size() > options.max_sets_per_fd) {
      return Status::ResourceExhausted(
          "FD has " + std::to_string(sets.size()) +
          " maximal independent sets (cap " +
          std::to_string(options.max_sets_per_fd) + ")");
    }
    // Sort by local lower bound ascending.
    std::vector<double> lbs(sets.size());
    for (size_t s = 0; s < sets.size(); ++s) {
      lbs[s] = LocalLowerBound(context.graphs[k], sets[s], context.ft[k]);
    }
    if (!options.trusted_rows.empty()) {
      std::vector<std::vector<int>> kept;
      std::vector<bool> member(
          static_cast<size_t>(context.graphs[k].num_patterns()));
      for (std::vector<int>& set : sets) {
        std::fill(member.begin(), member.end(), false);
        for (int v : set) member[static_cast<size_t>(v)] = true;
        bool valid = true;
        for (int v = 0; v < context.graphs[k].num_patterns() && valid;
             ++v) {
          valid = !forced[k][static_cast<size_t>(v)] ||
                  member[static_cast<size_t>(v)];
        }
        if (valid) kept.push_back(std::move(set));
      }
      sets = std::move(kept);
      if (sets.empty()) {
        // Trusted patterns conflict with every maximal set of this FD;
        // defer to the forced-aware heuristics.
        return Status::ResourceExhausted(
            "no maximal independent set honors the trusted rows for " +
            context.fds[k]->name());
      }
    }
    std::vector<size_t> order(sets.size());
    for (size_t s = 0; s < sets.size(); ++s) order[s] = s;
    std::stable_sort(order.begin(), order.end(),
                     [&lbs](size_t a, size_t b) { return lbs[a] < lbs[b]; });
    for (size_t s : order) {
      search.sets[k].push_back(std::move(sets[s]));
      search.lbs[k].push_back(lbs[s]);
    }
  }

  // Greedy pairwise attribute-disjoint FD subset for the additive bound.
  search.in_disjoint.assign(num_fds, false);
  for (size_t k = 0; k < num_fds; ++k) {
    bool disjoint = true;
    for (size_t j = 0; j < k && disjoint; ++j) {
      if (search.in_disjoint[j] && context.fds[k]->Overlaps(*context.fds[j])) {
        disjoint = false;
      }
    }
    search.in_disjoint[k] = disjoint;
  }

  // The Appro-M cost seeds the combination search bound too.
  search.best_cost = ub_joint;

  FTR_RETURN_NOT_OK(search.Recurse(0, 0.0, 0.0));
  if (search.best_chosen.empty()) {
    // Either the Appro-M seed is optimal or every join was empty;
    // re-derive the cover through Appro-M for consistency.
    return CoverApproMulti(context, options, stats);
  }
  MultiFDCover cover;
  cover.chosen = std::move(search.best_chosen);
  cover.rung = SolverRung::kExact;
  return cover;
}

Result<MultiFDSolution> SolveExpansionMulti(const ComponentContext& context,
                                            const DistanceModel& model,
                                            const RepairOptions& options,
                                            RepairStats* stats) {
  return SolveCover(context,
                    CoverExpansionMulti(context, model, options, stats), model,
                    options, stats);
}

}  // namespace ftrepair
