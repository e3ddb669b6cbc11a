#include "core/multi_common.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "common/metrics.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "common/trace.h"
#include "core/lazy_targets.h"

namespace ftrepair {

std::vector<Pattern> BuildVertices(const Table& table,
                                   const std::vector<int>& cols,
                                   bool group_tuples) {
  return group_tuples ? BuildPatterns(table, cols)
                      : BuildRowPatterns(table, cols);
}

std::vector<Detection> DetectFDs(const Table& table,
                                 const std::vector<const FD*>& fds,
                                 const DistanceModel& model,
                                 const RepairOptions& options,
                                 const std::vector<bool>& grouped, bool keep,
                                 uint64_t* tuple_pairs) {
  std::vector<Detection> detections(fds.size());
  bool dropped = false;
  for (size_t k = 0; k < fds.size(); ++k) {
    const FD& fd = *fds[k];
    std::vector<Pattern> vertices =
        BuildVertices(table, fd.attrs(), grouped[k]);
    Detection& detection = detections[k];
    detection = ViolationGraph::Detect(vertices, table, fd, model,
                                       options.FTFor(fd), options.budget);
    if (tuple_pairs != nullptr) *tuple_pairs += detection.TuplePairs(vertices);
    // Lists from `first` on stop being held: the first truncated one
    // takes every list held before it along.
    size_t first = k;
    if (keep && detection.truncated) {
      first = 0;
      keep = false;
      dropped = true;
    }
    if (keep) continue;
    for (size_t d = first; d <= k; ++d) {
      detections[d].Release(options.memory);
      detections[d].truncated = detections[d].truncated || dropped;
    }
  }
  return detections;
}

ComponentContext BuildComponentContext(const Table& table,
                                       const std::vector<const FD*>& fds,
                                       const DistanceModel& model,
                                       const RepairOptions& options) {
  return BuildComponentContext(
      table, fds, options,
      DetectFDs(table, fds, model, options,
                std::vector<bool>(fds.size(), true), true, nullptr));
}

ComponentContext BuildComponentContext(const Table& table,
                                       const std::vector<const FD*>& fds,
                                       const RepairOptions& options,
                                       std::vector<Detection> detections) {
  ComponentContext ctx;
  ctx.table = &table;
  ctx.fds = fds;
  ctx.component_cols = ComponentColumns(fds);
  ctx.sigma_patterns = std::make_shared<const std::vector<Pattern>>(
      BuildVertices(table, ctx.component_cols, options.group_tuples));
  const std::vector<Pattern>& sigmas = *ctx.sigma_patterns;

  size_t num_fds = fds.size();
  ctx.graphs.reserve(num_fds);
  ctx.phi_of_sigma.resize(num_fds);
  ctx.sigma_of_phi.resize(num_fds);
  ctx.ft.reserve(num_fds);
  for (size_t k = 0; k < num_fds; ++k) {
    const FD& fd = *fds[k];
    ctx.ft.push_back(options.FTFor(fd));
    // Group Sigma-patterns by their phi-projection. The phi-projection
    // is a positional sub-projection, so its codes (the grouping key)
    // are the matching sub-selection of the sigma codes (the component
    // columns are sorted).
    const std::vector<int>& cols = ctx.component_cols;
    std::vector<size_t> pos;
    for (int c : fd.attrs()) {
      pos.push_back(static_cast<size_t>(
          std::lower_bound(cols.begin(), cols.end(), c) - cols.begin()));
    }
    std::vector<Pattern> phi_patterns;
    std::unordered_map<std::vector<uint32_t>, int, CodeVectorHash> index;
    std::vector<uint32_t> proj;
    ctx.phi_of_sigma[k].resize(sigmas.size());
    for (size_t i = 0; i < sigmas.size(); ++i) {
      const Pattern& sigma = sigmas[i];
      proj.clear();
      for (size_t p : pos) proj.push_back(sigma.codes[p]);
      auto [it, inserted] =
          index.try_emplace(proj, static_cast<int>(phi_patterns.size()));
      if (inserted) {
        phi_patterns.emplace_back().codes = proj;
        ctx.sigma_of_phi[k].emplace_back();
      }
      const int phi_id = it->second;
      ctx.phi_of_sigma[k][i] = phi_id;
      ctx.sigma_of_phi[k][static_cast<size_t>(phi_id)].push_back(
          static_cast<int>(i));
      // phi-pattern multiplicity = sum of underlying row counts.
      std::vector<int>& rows = phi_patterns[static_cast<size_t>(phi_id)].rows;
      rows.insert(rows.end(), sigma.rows.begin(), sigma.rows.end());
    }
    ctx.graphs.push_back(ViolationGraph::Index(std::move(phi_patterns),
                                               std::move(detections[k]),
                                               ctx.ft[k].memory));
  }
  return ctx;
}

size_t FindBestTargetLinear(const std::vector<std::vector<uint32_t>>& targets,
                            const DistanceRows& rows, double* cost) {
  double best = ViolationGraph::kInfinity;
  size_t best_idx = 0;
  for (size_t t = 0; t < targets.size(); ++t) {
    double c = 0;
    for (size_t p = 0; p < rows.size() && c < best; ++p) {
      c += rows[p][targets[t][p]];
    }
    if (c < best) {
      best = c;
      best_idx = t;
    }
  }
  *cost = best;
  return best_idx;
}

namespace {

// The Sigma-patterns `chosen` leaves dirty: those with some
// phi-projection outside its FD's chosen set, ascending.
std::vector<size_t> DirtyPatterns(
    const ComponentContext& context,
    const std::vector<std::vector<int>>& chosen) {
  size_t num_fds = context.fds.size();
  std::vector<std::vector<bool>> member(num_fds);
  for (size_t k = 0; k < num_fds; ++k) {
    member[k].assign(
        static_cast<size_t>(context.graphs[k].num_patterns()), false);
    for (int j : chosen[k]) member[k][static_cast<size_t>(j)] = true;
  }
  std::vector<size_t> dirty;
  for (size_t i = 0; i < context.sigma_patterns->size(); ++i) {
    bool all_member = true;
    for (size_t k = 0; k < num_fds && all_member; ++k) {
      int phi = context.phi_of_sigma[k][i];
      all_member = member[k][static_cast<size_t>(phi)];
    }
    if (!all_member) dirty.push_back(i);
  }
  return dirty;
}

}  // namespace

void CaptureCoverLineage(const ComponentContext& context,
                         const RepairOptions& options, MultiFDCover* cover) {
  if (!options.provenance) return;
  const std::vector<size_t> dirty = DirtyPatterns(context, cover->chosen);
  if (dirty.empty()) return;
  cover->prov_edges.assign(context.sigma_patterns->size(), {});
  for (size_t i : dirty) {
    std::vector<ProvenanceEdge>& edges = cover->prov_edges[i];
    for (size_t k = 0; k < context.fds.size(); ++k) {
      int phi = context.phi_of_sigma[k][i];
      for (const ViolationGraph::Edge& e : context.graphs[k].Neighbors(phi)) {
        ProvenanceEdge edge;
        edge.fd = static_cast<int>(k);
        edge.peer = e.to;
        edge.peer_values =
            DecodeProjection(*context.table, context.fds[k]->attrs(),
                             context.graphs[k].pattern(e.to).codes);
        edge.proj_dist = e.proj_dist;
        edge.unit_cost = e.unit_cost;
        edges.push_back(std::move(edge));
      }
    }
  }
}

uint64_t ReleaseCoverInputs(ComponentContext* context) {
  uint64_t freed = 0;
  for (ViolationGraph& graph : context->graphs) freed += graph.ReleaseEdges();
  std::vector<std::vector<std::vector<int>>>().swap(context->sigma_of_phi);
  return freed;
}

Result<MultiFDSolution> AssignCover(const ComponentContext& context,
                                    MultiFDCover cover,
                                    const DistanceModel& model,
                                    const RepairOptions& options,
                                    RepairStats* stats) {
  auto result = AssignTargets(context, cover.chosen, model, options, stats);
  if (result.ok()) {
    MultiFDSolution& solution = result.value();
    solution.rung = cover.rung;
    solution.truncated = solution.truncated || cover.truncated;
    solution.prov_edges = std::move(cover.prov_edges);
  }
  return result;
}

Result<MultiFDSolution> SolveCover(const ComponentContext& context,
                                   Result<MultiFDCover> cover,
                                   const DistanceModel& model,
                                   const RepairOptions& options,
                                   RepairStats* stats) {
  if (!cover.ok()) return cover.status();
  CaptureCoverLineage(context, options, &cover.value());
  return AssignCover(context, std::move(cover).value(), model, options,
                     stats);
}

// Scope guard: accumulates target-assignment wall clock into
// stats->phases.targets_ms (stats may be null) and mirrors the search
// counters into the metrics registry on exit.
class TargetsInstrument {
 public:
  explicit TargetsInstrument(RepairStats* stats) : stats_(stats) {
    if (stats_ != nullptr) {
      visited_before_ = stats_->target_nodes_visited;
      pruned_before_ = stats_->target_nodes_pruned;
    }
  }
  ~TargetsInstrument() {
    static Counter* assign_calls =
        Metrics().GetCounter("ftrepair.targets.assign_calls");
    assign_calls->Increment();
    if (stats_ == nullptr) return;
    stats_->phases.targets_ms += timer_.Millis();
    static Counter* visited =
        Metrics().GetCounter("ftrepair.targets.nodes_visited");
    static Counter* pruned =
        Metrics().GetCounter("ftrepair.targets.nodes_pruned");
    visited->Increment(stats_->target_nodes_visited - visited_before_);
    pruned->Increment(stats_->target_nodes_pruned - pruned_before_);
  }

 private:
  RepairStats* stats_;
  uint64_t visited_before_ = 0;
  uint64_t pruned_before_ = 0;
  Timer timer_;
};

Result<MultiFDSolution> AssignTargets(
    const ComponentContext& context,
    const std::vector<std::vector<int>>& chosen, const DistanceModel& model,
    const RepairOptions& options, RepairStats* stats) {
  FTR_TRACE_SPAN("targets.assign");
  TargetsInstrument instrument(stats);
  const std::vector<Pattern>& sigmas = *context.sigma_patterns;
  MultiFDSolution solution;
  solution.component_cols = context.component_cols;
  solution.sigma_patterns = context.sigma_patterns;
  solution.targets.assign(sigmas.size(), {});
  solution.target_costs.assign(sigmas.size(), 0.0);
  solution.chosen = chosen;
  solution.cost = 0;

  size_t num_fds = context.fds.size();
  std::vector<TargetTree::LevelInput> inputs(num_fds);
  for (size_t k = 0; k < num_fds; ++k) {
    inputs[k].fd = context.fds[k];
    for (int j : chosen[k]) {
      inputs[k].elements.push_back(context.graphs[k].pattern(j).codes);
    }
  }
  const std::vector<size_t> dirty = DirtyPatterns(context, chosen);
  if (dirty.empty()) return solution;

  // Choose the search once: the eager tree; the lazy search when the
  // tree overflows its node cap (but memory is not what ran out); or,
  // as the no-tree ablation, a linear scan over the materialized
  // targets.
  std::optional<TargetTree> tree;
  std::optional<LazyTargetSearch> lazy;
  Status built;
  auto tree_result = TargetTree::Build(inputs, context.component_cols,
                                      options.max_tree_nodes, options.memory);
  if (tree_result.ok()) {
    tree = std::move(tree_result).value();
  } else if (tree_result.status().IsResourceExhausted() &&
             options.use_target_tree && !MemExhausted(options.memory)) {
    auto lazy_result =
        LazyTargetSearch::Build(std::move(inputs), context.component_cols);
    if (lazy_result.ok()) {
      lazy = std::move(lazy_result).value();
    } else {
      built = lazy_result.status();
    }
  } else {
    built = tree_result.status();
  }
  if (built.IsNotFound()) {
    // Empty join: leave tuples unrepaired, surface the flag.
    if (stats != nullptr) stats->join_empty = true;
    return solution;
  }
  FTR_RETURN_NOT_OK(built);
  // The linear scan reads the targets as indices into the tree's
  // domains, which are exactly the codes its targets hold.
  std::vector<std::vector<uint32_t>> linear_targets;
  std::vector<std::vector<uint32_t>> linear_indices;
  if (!options.use_target_tree) {
    linear_targets = tree->EnumerateTargets();
    if (stats != nullptr) {
      stats->targets_materialized += linear_targets.size();
    }
    for (const std::vector<uint32_t>& target : linear_targets) {
      linear_indices.push_back(DomainIndices(tree->domains(), target));
    }
  }

  // Every distance the queries read, computed once. With the budget or
  // memory already out, no query would run: skip the fill.
  DistanceTable table(lazy.has_value() ? lazy->domains() : tree->domains(),
                      sigmas, dirty);
  if (!table.Fill(*context.table, context.component_cols, model,
                  options.threads, options.budget, options.memory)) {
    solution.truncated = true;  // every dirty pattern stays unrepaired
    return solution;
  }
  auto query = [&](size_t d,
                   TargetTree::SearchStats* search_stats) -> TargetQuery {
    const DistanceRows rows = table.Rows(d);
    if (lazy.has_value()) {
      return lazy->FindBest(rows, options.max_target_visits, search_stats,
                            options.budget, options.memory);
    }
    if (options.use_target_tree) {
      return tree->FindBest(rows, search_stats, options.budget,
                            options.memory);
    }
    TargetQuery result;
    size_t t = FindBestTargetLinear(linear_indices, rows, &result.cost);
    result.target = linear_targets[t];
    return result;
  };

  // Per-pattern searches are independent reads of the immutable search
  // structure and distance model; run them across the pool, then merge
  // strictly in dirty order so cost summation and the search-counter
  // accumulation follow the serial order. Once the budget or memory
  // runs out, remaining shards do not run and the merge stops at the
  // first of them (at threads > 1, exactly which later shards ran is
  // the documented truncation nondeterminism).
  struct Shard {
    TargetQuery query;
    TargetTree::SearchStats search_stats;
    bool ran = false;
  };
  std::vector<Shard> shards(dirty.size());
  ParallelFor(
      static_cast<int>(dirty.size()), options.threads,
      [&](int d) {
        // Before the search: its first BudgetCharge would spend a unit.
        if (BudgetExhausted(options.budget) || MemExhausted(options.memory)) {
          return;
        }
        Shard& shard = shards[static_cast<size_t>(d)];
        shard.query = query(static_cast<size_t>(d), &shard.search_stats);
        shard.ran = true;
      },
      options.budget);
  for (size_t d = 0; d < dirty.size(); ++d) {
    Shard& shard = shards[d];
    if (!shard.ran) {
      // Remaining dirty patterns stay unrepaired (detect-only).
      solution.truncated = true;
      break;
    }
    if (stats != nullptr) {
      stats->target_nodes_visited += shard.search_stats.nodes_visited;
      stats->target_nodes_pruned += shard.search_stats.nodes_pruned;
    }
    size_t i = dirty[d];
    if (shard.query.target.empty()) {
      if (shard.query.truncated) {
        solution.truncated = true;
      } else if (stats != nullptr) {
        stats->join_empty = true;
      }
      continue;  // leave this pattern unrepaired
    }
    solution.targets[i] = std::move(shard.query.target);
    solution.target_costs[i] = shard.query.cost;
    solution.cost += sigmas[i].count() * shard.query.cost;
  }
  return solution;
}

}  // namespace ftrepair
