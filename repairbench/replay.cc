#include "replay.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/budget.h"
#include "common/parallel.h"
#include "common/resource.h"
#include "common/timer.h"
#include "constraint/fd_graph.h"
#include "core/appro_multi.h"
#include "core/greedy_multi.h"
#include "core/multi_common.h"
#include "data/csv.h"
#include "detect/detector.h"
#include "metric/projection.h"

namespace repairbench {

using ftrepair::FD;
using ftrepair::RepairAlgorithm;
using ftrepair::RepairOptions;
using ftrepair::Result;
using ftrepair::Status;
using ftrepair::Timer;

namespace {

// One FD component's pass through the graph and solve layers. Written
// only by the thread that runs the component.
struct ComponentRun {
  Status status = Status::OK();
  bool solved = false;
  bool degraded = false;
  ftrepair::ComponentContext context;
  ftrepair::MultiFDSolution solution;
  double graph_ms = 0;
  // Solver self time: the solver span minus the AssignTargets time the
  // solver reports for its own nested call.
  double greedy_ms = 0;
  double appro_ms = 0;
  double span_ms = 0;
};

void RunComponent(const ftrepair::Table& table,
                  const std::vector<const FD*>& fds,
                  const ftrepair::DistanceModel& model,
                  const RepairOptions& options, ComponentRun* run) {
  Timer span;
  if (ftrepair::BudgetExhausted(options.budget)) {
    run->degraded = true;  // skipped: the component stays unrepaired
    return;
  }
  Timer graph;
  run->context = ftrepair::BuildComponentContext(table, fds, model, options);
  run->graph_ms = graph.Millis();
  for (const ftrepair::ViolationGraph& g : run->context.graphs) {
    run->degraded = run->degraded || g.truncated();
  }
  // The pipeline's multi-FD ladder below the requested rung.
  bool greedy = options.algorithm == RepairAlgorithm::kGreedy;
  while (true) {
    ftrepair::RepairStats stats;
    Timer solve;
    auto solved = greedy ? ftrepair::SolveGreedyMulti(run->context, model,
                                                      options, &stats)
                         : ftrepair::SolveApproMulti(run->context, model,
                                                     options, &stats);
    (greedy ? run->greedy_ms : run->appro_ms) +=
        solve.Millis() - stats.phases.targets_ms;
    if (solved.ok()) {
      run->solution = std::move(solved).value();
      run->solved = true;
      run->degraded = run->degraded || run->solution.truncated;
      break;
    }
    if (!solved.status().IsResourceExhausted()) {
      run->status = solved.status();
      break;
    }
    run->degraded = true;
    if (!greedy) break;  // bottom rung: the component stays unrepaired
    greedy = false;
  }
  run->span_ms = span.Millis();
}

}  // namespace

Result<Replay> ReplayPipeline(const std::string& csv,
                              const std::vector<FD>& fds,
                              RepairOptions options, double deadline_ms) {
  if (options.algorithm == RepairAlgorithm::kExact) {
    return Status::InvalidArgument("the replay covers Greedy and Appro only");
  }
  Replay replay;
  std::map<std::string, double>& m = replay.metrics;
  ftrepair::MemoryBudget memory;
  options.memory = &memory;

  Timer read;
  ftrepair::CsvOptions csv_options;
  csv_options.memory = &memory;
  FTR_ASSIGN_OR_RETURN(ftrepair::Table table,
                       ftrepair::ReadCsvString(csv, csv_options));
  m["data.read_csv_ms"] = read.Millis();

  std::unique_ptr<ftrepair::Budget> budget;
  if (deadline_ms > 0) {
    budget = std::make_unique<ftrepair::Budget>(deadline_ms);
    options.budget = budget.get();
  }
  ftrepair::DistanceModel model(table);
  bool degraded = false;

  Timer count;
  for (const FD& fd : fds) {
    bool truncated = false;
    replay.result.stats.ft_violations_before += ftrepair::CountFTViolations(
        table, fd, model, options.FTFor(fd), options.budget, &truncated);
    degraded = degraded || truncated;
  }
  m["detect.count_before_ms"] = count.Millis();

  const ftrepair::FDGraph fd_graph(fds);
  const std::vector<std::vector<int>>& components = fd_graph.Components();
  std::vector<std::vector<const FD*>> component_fds;
  for (const std::vector<int>& component : components) {
    if (component.size() < 2) {
      return Status::InvalidArgument(
          "the replay covers multi-FD components only");
    }
    component_fds.emplace_back();
    for (int idx : component) {
      component_fds.back().push_back(&fds[static_cast<size_t>(idx)]);
    }
  }
  const int parallelism =
      components.size() > 1
          ? std::min(ftrepair::ResolveThreads(options.threads),
                     static_cast<int>(components.size()))
          : 1;
  std::vector<ComponentRun> runs(components.size());
  Timer stage;
  ftrepair::ParallelFor(static_cast<int>(runs.size()), parallelism,
                        [&](int c) {
                          const size_t i = static_cast<size_t>(c);
                          RunComponent(table, component_fds[i], model,
                                       options, &runs[i]);
                        });
  m["solve.wall_ms"] = stage.Millis();

  double graph_ms = 0, greedy_ms = 0, appro_ms = 0, busy_ms = 0;
  double patterns = 0, generated = 0, verified = 0, edges = 0, chosen = 0;
  double targets_ms = 0, visited = 0, pruned = 0;
  for (ComponentRun& run : runs) {
    if (!run.status.ok()) return run.status;
    degraded = degraded || run.degraded;
    graph_ms += run.graph_ms;
    greedy_ms += run.greedy_ms;
    appro_ms += run.appro_ms;
    busy_ms += run.span_ms;
    for (const ftrepair::ViolationGraph& g : run.context.graphs) {
      patterns += g.num_patterns();
      generated += static_cast<double>(g.candidates_generated());
      verified += static_cast<double>(g.candidates_verified());
      edges += static_cast<double>(g.num_edges());
    }
    if (!run.solved) continue;
    for (const std::vector<int>& set : run.solution.chosen) {
      chosen += static_cast<double>(set.size());
    }
    // The targets layer on its own: the solver's chosen sets again.
    ftrepair::RepairStats stats;
    Timer targets;
    auto again = ftrepair::AssignTargets(run.context, run.solution.chosen,
                                         model, options, &stats);
    targets_ms += targets.Millis();
    visited += static_cast<double>(stats.target_nodes_visited);
    pruned += static_cast<double>(stats.target_nodes_pruned);
    if (!again.ok()) return again.status();
    if (options.budget == nullptr &&
        (again.value().targets != run.solution.targets ||
         again.value().target_costs != run.solution.target_costs)) {
      replay.mismatch = "replayed AssignTargets disagrees with the solver";
    }
  }
  m["detect.graph_ms"] = graph_ms;
  m["detect.patterns"] = patterns;
  m["detect.candidates_generated"] = generated;
  m["detect.candidates_verified"] = verified;
  m["detect.edges"] = edges;
  m["detect.edge_yield"] = verified > 0 ? edges / verified : 0;
  m["solve.greedy_multi_ms"] = greedy_ms;
  m["solve.appro_multi_ms"] = appro_ms;
  m["solve.chosen"] = chosen;
  m["solve.busy_ms"] = busy_ms;
  m["targets.assign_ms"] = targets_ms;
  m["targets.nodes_visited"] = visited;
  m["targets.nodes_pruned"] = pruned;

  ftrepair::RepairResult& result = replay.result;
  result.repaired = table;
  Timer apply;
  for (const ComponentRun& run : runs) {
    if (run.solved) {
      ftrepair::ApplyMultiFDSolution(run.solution, &result.repaired,
                                     &result.changes);
    }
  }
  m["apply.ms"] = apply.Millis();
  m["apply.cells"] = static_cast<double>(result.changes.size());

  Timer recount;
  for (const FD& fd : fds) {
    bool truncated = false;
    result.stats.ft_violations_after += ftrepair::CountFTViolations(
        result.repaired, fd, model, options.FTFor(fd), options.budget,
        &truncated);
    degraded = degraded || truncated;
  }
  result.stats.repair_cost =
      ftrepair::TableRepairCost(table, result.repaired, model);
  m["stats.recount_ms"] = recount.Millis();
  result.stats.cells_changed = static_cast<int>(result.changes.size());
  if (degraded) {
    ftrepair::DegradationEvent marker;
    marker.component = "replay";
    marker.stage = "degraded";
    result.stats.degradations.push_back(std::move(marker));
  }

  m["memory.peak_charged_mb"] =
      static_cast<double>(memory.peak_bytes()) / (1024.0 * 1024.0);
  m["replay.stage_sum_ms"] = m["data.read_csv_ms"] +
                             m["detect.count_before_ms"] +
                             m["solve.wall_ms"] + m["apply.ms"] +
                             m["stats.recount_ms"];
  return replay;
}

}  // namespace repairbench
