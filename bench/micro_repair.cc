// Micro-benchmarks of the repair kernels (google-benchmark): Greedy-S,
// Expansion-S, the target-tree search, and the deadline-governed full
// pipeline, on fixed HOSP-derived inputs.

#include <benchmark/benchmark.h>

#include "common/budget.h"
#include "common/resource.h"
#include "core/expansion_single.h"
#include "core/greedy_single.h"
#include "core/multi_common.h"
#include "core/repairer.h"
#include "core/target_tree.h"
#include "gen/error_injector.h"
#include "gen/hosp_gen.h"

namespace {

using namespace ftrepair;

struct Fixture {
  Dataset dataset;
  Table dirty;
  DistanceModel model;
  ViolationGraph graph;

  Fixture()
      : dataset(std::move(GenerateHosp({.num_rows = 2000, .seed = 7}))
                    .ValueOrDie()),
        dirty(MakeDirty()),
        model(dirty),
        graph(MakeGraph()) {}

  Table MakeDirty() {
    NoiseOptions noise;
    noise.error_rate = 0.04;
    noise.seed = 42;
    return std::move(InjectErrors(dataset.clean, dataset.fds, noise,
                                  nullptr))
        .ValueOrDie();
  }

  ViolationGraph MakeGraph() {
    const FD& fd = dataset.fds[2];  // ZipCode -> City
    FTOptions ft{dataset.recommended_w_l, dataset.recommended_w_r,
                 dataset.recommended_tau.at(fd.name())};
    return ViolationGraph::Build(BuildPatterns(dirty, fd.attrs()), dirty, fd,
                                 model, ft);
  }
};

Fixture& SharedFixture() {
  static Fixture* kFixture = new Fixture();
  return *kFixture;
}

void BM_GreedySingle(benchmark::State& state) {
  Fixture& fixture = SharedFixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveGreedySingle(fixture.graph));
  }
}
BENCHMARK(BM_GreedySingle);

void BM_ExpansionSingle(benchmark::State& state) {
  Fixture& fixture = SharedFixture();
  for (auto _ : state) {
    auto solution = SolveExpansionSingle(fixture.graph, ExpansionConfig{});
    benchmark::DoNotOptimize(solution);
  }
}
BENCHMARK(BM_ExpansionSingle);

void BM_TargetTreeSearch(benchmark::State& state) {
  Fixture& fixture = SharedFixture();
  // Measure component: the measure FDs h7-h9 joined through MeasureCode.
  RepairOptions options;
  options.w_l = fixture.dataset.recommended_w_l;
  options.w_r = fixture.dataset.recommended_w_r;
  for (const auto& [name, tau] : fixture.dataset.recommended_tau) {
    options.tau_by_fd[name] = tau;
  }
  std::vector<const FD*> fds = {&fixture.dataset.fds[6],
                                &fixture.dataset.fds[7],
                                &fixture.dataset.fds[8]};
  ComponentContext context =
      BuildComponentContext(fixture.dirty, fds, fixture.model, options);
  std::vector<TargetTree::LevelInput> inputs(fds.size());
  for (size_t k = 0; k < fds.size(); ++k) {
    inputs[k].fd = fds[k];
    for (int j : SolveGreedySingle(context.graphs[k]).chosen_set) {
      inputs[k].elements.push_back(context.graphs[k].pattern(j).codes);
    }
  }
  TargetTree tree =
      std::move(TargetTree::Build(inputs, context.component_cols, 1000000))
          .ValueOrDie();
  // One distance table for every Sigma-pattern, filled outside the
  // timed loop: the loop times the search alone.
  std::vector<size_t> ids(context.sigma_patterns->size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  DistanceTable table(tree.domains(), *context.sigma_patterns, ids);
  table.Fill(fixture.dirty, context.component_cols, fixture.model, 1,
             nullptr, nullptr);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.FindBest(table.Rows(i++ % ids.size()), nullptr));
  }
}
BENCHMARK(BM_TargetTreeSearch);

// Deadline sweep: the full exact pipeline under shrinking budgets.
// Arg is the deadline in microseconds (0 = unlimited). Shows how much
// repair (cost recovered, ladder steps taken) each slice of wall-clock
// buys — the graceful-degradation latency/quality trade-off.
void BM_RepairDeadlineSweep(benchmark::State& state) {
  Fixture& fixture = SharedFixture();
  RepairOptions options;
  options.algorithm = RepairAlgorithm::kExact;
  options.w_l = fixture.dataset.recommended_w_l;
  options.w_r = fixture.dataset.recommended_w_r;
  for (const auto& [name, tau] : fixture.dataset.recommended_tau) {
    options.tau_by_fd[name] = tau;
  }
  options.compute_violation_stats = false;
  double deadline_ms = static_cast<double>(state.range(0)) / 1000.0;
  double cost = 0;
  double degradations = 0;
  double cells = 0;
  int64_t runs = 0;
  for (auto _ : state) {
    Budget budget(deadline_ms > 0 ? deadline_ms : Budget::kUnlimited);
    options.budget = &budget;
    Repairer repairer(options);
    auto result = repairer.Repair(fixture.dirty, fixture.dataset.fds);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    cost += result.value().stats.repair_cost;
    degradations +=
        static_cast<double>(result.value().stats.degradations.size());
    cells += static_cast<double>(result.value().stats.cells_changed);
    ++runs;
    benchmark::DoNotOptimize(result);
  }
  if (runs > 0) {
    state.counters["cost"] = cost / static_cast<double>(runs);
    state.counters["ladder_steps"] = degradations / static_cast<double>(runs);
    state.counters["cells_changed"] = cells / static_cast<double>(runs);
  }
}
BENCHMARK(BM_RepairDeadlineSweep)
    ->Arg(0)        // unlimited baseline
    ->Arg(100000)   // 100 ms
    ->Arg(10000)    // 10 ms
    ->Arg(1000)     // 1 ms
    ->Arg(100)      // 100 us
    ->Arg(10)       // 10 us
    ->Unit(benchmark::kMillisecond);

// Memory sweep: the full exact pipeline under shrinking resident-byte
// budgets. Arg is the hard limit in KB (0 = unlimited). Shows what
// each slice of memory buys (cells repaired, ladder steps taken) and
// what charging itself costs: the unlimited-budget row vs. the
// no-budget deadline baseline above is the pure accounting overhead.
void BM_RepairMemorySweep(benchmark::State& state) {
  Fixture& fixture = SharedFixture();
  RepairOptions options;
  options.algorithm = RepairAlgorithm::kExact;
  options.w_l = fixture.dataset.recommended_w_l;
  options.w_r = fixture.dataset.recommended_w_r;
  for (const auto& [name, tau] : fixture.dataset.recommended_tau) {
    options.tau_by_fd[name] = tau;
  }
  options.compute_violation_stats = false;
  uint64_t limit_bytes = static_cast<uint64_t>(state.range(0)) * 1024;
  double peak = 0;
  double degradations = 0;
  double cells = 0;
  int64_t runs = 0;
  for (auto _ : state) {
    MemoryBudget memory(limit_bytes > 0 ? limit_bytes
                                        : MemoryBudget::kUnlimited);
    options.memory = &memory;
    Repairer repairer(options);
    auto result = repairer.Repair(fixture.dirty, fixture.dataset.fds);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    peak += static_cast<double>(memory.peak_bytes());
    degradations +=
        static_cast<double>(result.value().stats.degradations.size());
    cells += static_cast<double>(result.value().stats.cells_changed);
    ++runs;
    benchmark::DoNotOptimize(result);
  }
  if (runs > 0) {
    state.counters["peak_bytes"] = peak / static_cast<double>(runs);
    state.counters["ladder_steps"] = degradations / static_cast<double>(runs);
    state.counters["cells_changed"] = cells / static_cast<double>(runs);
  }
}
BENCHMARK(BM_RepairMemorySweep)
    ->Arg(0)       // unlimited: isolates the charging overhead
    ->Arg(65536)   // 64 MB: no watermark reached on this instance
    ->Arg(4096)    // 4 MB
    ->Arg(1024)    // 1 MB
    ->Arg(256)     // 256 KB
    ->Arg(64)      // 64 KB: deep in the ladder
    ->Unit(benchmark::kMillisecond);

// Thread sweep over the solve-phase fan-out: the full greedy pipeline
// on HOSP (nine FDs, several independent components) at 1/2/4/8 solve
// threads. The merge keeps the result bit-identical, so the sweep
// isolates pure scheduling gain.
void BM_RepairSolveThreads(benchmark::State& state) {
  Fixture& fixture = SharedFixture();
  RepairOptions options;
  options.algorithm = RepairAlgorithm::kGreedy;
  options.w_l = fixture.dataset.recommended_w_l;
  options.w_r = fixture.dataset.recommended_w_r;
  for (const auto& [name, tau] : fixture.dataset.recommended_tau) {
    options.tau_by_fd[name] = tau;
  }
  options.compute_violation_stats = false;
  options.threads = static_cast<int>(state.range(0));
  Repairer repairer(options);
  for (auto _ : state) {
    auto result = repairer.Repair(fixture.dirty, fixture.dataset.fds);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_RepairSolveThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
