// Micro-benchmarks of the detection pipeline: tuple grouping, violation
// graph construction (the similarity self-join) and threshold
// suggestion, on HOSP slices.

#include <benchmark/benchmark.h>

#include "detect/pattern.h"
#include "detect/threshold.h"
#include "detect/violation_graph.h"
#include "gen/error_injector.h"
#include "gen/hosp_gen.h"

namespace {

using namespace ftrepair;

const Dataset& SharedDataset() {
  static const Dataset* kDataset = new Dataset(
      std::move(GenerateHosp({.num_rows = 4000, .seed = 7})).ValueOrDie());
  return *kDataset;
}

const Table& DirtyTable() {
  static const Table* kTable = [] {
    NoiseOptions noise;
    noise.error_rate = 0.04;
    return new Table(std::move(InjectErrors(SharedDataset().clean,
                                            SharedDataset().fds, noise,
                                            nullptr))
                         .ValueOrDie());
  }();
  return *kTable;
}

void BM_BuildPatterns(benchmark::State& state) {
  const Dataset& ds = SharedDataset();
  const Table& dirty = DirtyTable();
  Table slice = dirty.Head(static_cast<int>(state.range(0)));
  const FD& fd = ds.fds[2];  // ZipCode -> City
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildPatterns(slice, fd.attrs()));
  }
}
BENCHMARK(BM_BuildPatterns)->Arg(1000)->Arg(4000);

void BM_ViolationGraphBuild(benchmark::State& state) {
  const Dataset& ds = SharedDataset();
  const Table& dirty = DirtyTable();
  Table slice = dirty.Head(static_cast<int>(state.range(0)));
  const FD& fd = ds.fds[2];
  DistanceModel model(slice);
  FTOptions opts{ds.recommended_w_l, ds.recommended_w_r,
                 ds.recommended_tau.at(fd.name())};
  std::vector<Pattern> patterns = BuildPatterns(slice, fd.attrs());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ViolationGraph::Build(patterns, slice, fd, model, opts));
  }
}
BENCHMARK(BM_ViolationGraphBuild)->Arg(1000)->Arg(4000);

// Thread-count sweep of the same build: the graph is bit-identical at
// every point, so this isolates the parallel-join scaling (acceptance
// target: >= 2x at 4 threads on the 4000-row HOSP slice).
void BM_ViolationGraphBuildThreads(benchmark::State& state) {
  const Dataset& ds = SharedDataset();
  const Table& dirty = DirtyTable();
  Table slice = dirty.Head(static_cast<int>(state.range(0)));
  const FD& fd = ds.fds[2];
  DistanceModel model(slice);
  FTOptions opts{ds.recommended_w_l, ds.recommended_w_r,
                 ds.recommended_tau.at(fd.name()),
                 static_cast<int>(state.range(1))};
  std::vector<Pattern> patterns = BuildPatterns(slice, fd.attrs());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ViolationGraph::Build(patterns, slice, fd, model, opts));
  }
}
BENCHMARK(BM_ViolationGraphBuildThreads)
    ->Args({4000, 1})
    ->Args({4000, 2})
    ->Args({4000, 4})
    ->Args({4000, 8});

// --- blocking-index sweeps -----------------------------------------

// A larger HOSP instance for the index benchmarks; generated once.
const Dataset& IndexDataset() {
  static const Dataset* kDataset = new Dataset(
      std::move(GenerateHosp({.num_rows = 50000, .seed = 7})).ValueOrDie());
  return *kDataset;
}

const Table& IndexDirtyTable() {
  static const Table* kTable = [] {
    NoiseOptions noise;
    noise.error_rate = 0.04;
    return new Table(std::move(InjectErrors(IndexDataset().clean,
                                            IndexDataset().fds, noise,
                                            nullptr))
                         .ValueOrDie());
  }();
  return *kTable;
}

// Candidate counters of one build: `cand_generated` beside `all_pairs`
// = n(n-1)/2, what enumerating every pair would generate.
void ReportCandidates(benchmark::State& state, const ViolationGraph& g) {
  uint64_t n = static_cast<uint64_t>(g.num_patterns());
  state.counters["patterns"] = static_cast<double>(n);
  state.counters["edges"] = static_cast<double>(g.num_edges());
  state.counters["cand_generated"] =
      static_cast<double>(g.candidates_generated());
  state.counters["all_pairs"] = static_cast<double>(n * (n - 1) / 2);
}

// The tau > 0 q-gram path: h3 (ZipCode -> City) at tau = 0.2 with the
// recommended weights at 10k and 50k dirty rows, where the build joins
// through the index (acceptance: >= 5x candidate reduction at 50k).
// Single-threaded so the sweep isolates the candidate generation, not
// the shard fan-out.
void BM_ViolationGraphBuildIndex(benchmark::State& state) {
  const Dataset& ds = IndexDataset();
  Table slice = IndexDirtyTable().Head(static_cast<int>(state.range(0)));
  const FD& fd = ds.fds[2];
  DistanceModel model(slice);
  FTOptions opts{ds.recommended_w_l, ds.recommended_w_r, 0.2};
  std::vector<Pattern> patterns = BuildPatterns(slice, fd.attrs());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ViolationGraph::Build(patterns, slice, fd, model, opts));
  }
  ViolationGraph g = ViolationGraph::Build(patterns, slice, fd, model, opts);
  ReportCandidates(state, g);
  state.counters["cand_verified"] =
      static_cast<double>(g.candidates_verified());
}
BENCHMARK(BM_ViolationGraphBuildIndex)
    ->Arg(10000)
    ->Arg(50000)
    ->Unit(benchmark::kMillisecond);

// The tau = 0 exact-match bucket join under classical FD semantics:
// h1 (ProviderNumber -> HospitalName) over a key-rich 100k-row HOSP
// table (acceptance: >= 10x over all-pairs at 100k rows).
// Default provider count (rows / 64 = 1562 distinct keys). Generating
// this table takes ~2 minutes of rejection sampling in the provider
// pool; the static init only runs when a Tau0 benchmark is selected.
const Dataset& Tau0Dataset() {
  static const Dataset* kDataset = new Dataset(
      std::move(GenerateHosp({.num_rows = 100000, .seed = 7})).ValueOrDie());
  return *kDataset;
}

const Table& Tau0DirtyTable() {
  static const Table* kTable = [] {
    NoiseOptions noise;
    noise.error_rate = 0.04;
    return new Table(std::move(InjectErrors(Tau0Dataset().clean,
                                            Tau0Dataset().fds, noise,
                                            nullptr))
                         .ValueOrDie());
  }();
  return *kTable;
}

void BM_ViolationGraphBuildTau0(benchmark::State& state) {
  const Dataset& ds = Tau0Dataset();
  Table slice = Tau0DirtyTable().Head(static_cast<int>(state.range(0)));
  const FD& fd = ds.fds[0];
  DistanceModel model(slice);
  FTOptions opts = ClassicalFTOptions();
  std::vector<Pattern> patterns = BuildPatterns(slice, fd.attrs());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ViolationGraph::Build(patterns, slice, fd, model, opts));
  }
  ReportCandidates(state,
                   ViolationGraph::Build(patterns, slice, fd, model, opts));
}
BENCHMARK(BM_ViolationGraphBuildTau0)
    ->Arg(20000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_SuggestThreshold(benchmark::State& state) {
  const Dataset& ds = SharedDataset();
  const Table& dirty = DirtyTable();
  Table slice = dirty.Head(1000);
  const FD& fd = ds.fds[2];
  DistanceModel model(slice);
  ThresholdOptions topt;
  topt.w_l = ds.recommended_w_l;
  topt.w_r = ds.recommended_w_r;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SuggestThreshold(slice, fd, model, topt));
  }
}
BENCHMARK(BM_SuggestThreshold);

}  // namespace

BENCHMARK_MAIN();
