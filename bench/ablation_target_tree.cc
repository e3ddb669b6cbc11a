// Ablation: target search engines (§5). Compares, per multi-FD target
// query, the eager target tree, the lazy-materialization search, and a
// linear scan over materialized targets, on the HOSP measure component.
// Every engine reads its distances from a DistanceTable over its own
// domains; the table's fill time is reported on its own row.

#include <iostream>

#include "bench_common.h"
#include "common/timer.h"
#include "core/lazy_targets.h"
#include "core/multi_common.h"
#include "core/greedy_single.h"
#include "gen/error_injector.h"

int main() {
  using namespace ftrepair;
  using namespace ftrepair::bench;

  const Dataset& dataset = HospDataset();
  int rows = GetScale().hosp.fixed_rows;
  Table truth = dataset.clean.Head(rows);
  NoiseOptions noise;
  noise.error_rate = GetScale().fixed_error_percent / 100.0;
  noise.seed = 42;
  Table dirty = std::move(InjectErrors(truth, dataset.fds, noise, nullptr))
                    .ValueOrDie();
  DistanceModel model(dirty);

  // The measure component {h7, h8, h9}: run Greedy-S per FD and take
  // the chosen sets, exactly as Appro-M would.
  RepairOptions options;
  options.w_l = dataset.recommended_w_l;
  options.w_r = dataset.recommended_w_r;
  for (const auto& [name, tau] : dataset.recommended_tau) {
    options.tau_by_fd[name] = tau;
  }
  std::vector<const FD*> fds = {&dataset.fds[6], &dataset.fds[7],
                                &dataset.fds[8]};
  ComponentContext context = BuildComponentContext(dirty, fds, model,
                                                   options);
  std::vector<TargetTree::LevelInput> inputs(fds.size());
  for (size_t k = 0; k < fds.size(); ++k) {
    inputs[k].fd = fds[k];
    for (int j : SolveGreedySingle(context.graphs[k]).chosen_set) {
      inputs[k].elements.push_back(context.graphs[k].pattern(j).codes);
    }
  }

  Report report("Ablation: target search engines (HOSP measure component)");
  report.SetHeader({"engine", "build t(s)", "query t(s) total", "targets"});
  std::vector<size_t> ids(context.sigma_patterns->size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  // Lays out and fills the table over `domains`, adding a report row.
  auto fill = [&](const char* engine,
                  std::vector<std::vector<uint32_t>> domains) {
    Timer timer;
    DistanceTable table(std::move(domains), *context.sigma_patterns, ids);
    table.Fill(dirty, context.component_cols, model, 1, nullptr, nullptr);
    report.AddRow({std::string(engine) + " distance table",
                   Cell(timer.Seconds(), 4), "-",
                   std::to_string(table.entries()) + " entries"});
    return table;
  };

  // Eager tree.
  {
    Timer build;
    auto tree = TargetTree::Build(inputs, context.component_cols, 2'000'000);
    double build_time = build.Seconds();
    if (tree.ok()) {
      DistanceTable table = fill("eager tree", tree.value().domains());
      Timer queries;
      for (size_t q = 0; q < ids.size(); ++q) {
        tree.value().FindBest(table.Rows(q), nullptr);
      }
      report.AddRow({"eager tree", Cell(build_time, 4),
                     Cell(queries.Seconds(), 4),
                     std::to_string(tree.value().num_targets())});
      // Linear scan over the same targets (and the same table).
      std::vector<std::vector<uint32_t>> targets;
      for (const auto& target : tree.value().EnumerateTargets()) {
        targets.push_back(DomainIndices(tree.value().domains(), target));
      }
      Timer linear;
      for (size_t q = 0; q < ids.size(); ++q) {
        double cost = 0;
        FindBestTargetLinear(targets, table.Rows(q), &cost);
      }
      report.AddRow({"linear scan", "-", Cell(linear.Seconds(), 4),
                     std::to_string(targets.size())});
    } else {
      report.AddRow({"eager tree", "exhausted", "-", "-"});
    }
  }
  // Lazy search.
  {
    Timer build;
    auto lazy = LazyTargetSearch::Build(inputs, context.component_cols);
    double build_time = build.Seconds();
    if (lazy.ok()) {
      DistanceTable table = fill("lazy search", lazy.value().domains());
      Timer queries;
      for (size_t q = 0; q < ids.size(); ++q) {
        lazy.value().FindBest(table.Rows(q), 200000, nullptr);
      }
      report.AddRow({"lazy search", Cell(build_time, 4),
                     Cell(queries.Seconds(), 4), "-"});
    } else {
      report.AddRow({"lazy search", lazy.status().ToString(), "-", "-"});
    }
  }
  report.Print(std::cout);
  return 0;
}
