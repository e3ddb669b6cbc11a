// Micro-benchmarks of the columnar (dictionary-code) detect path on
// HOSP slices up to 50k rows: pattern grouping, the violation-graph
// build, the whole detect phase, and streaming CSV ingest. The value
// paths these once ran beside are gone; their rows in
// BENCH_columnar.json are historical (see PERFORMANCE.md, "The
// columnar dictionary layer").

#include <benchmark/benchmark.h>

#include "data/csv.h"
#include "detect/pattern.h"
#include "detect/violation_graph.h"
#include "gen/error_injector.h"
#include "gen/hosp_gen.h"

namespace {

using namespace ftrepair;

constexpr int kMaxRows = 50000;

const Dataset& SharedDataset() {
  static const Dataset* kDataset = new Dataset(
      std::move(GenerateHosp({.num_rows = kMaxRows, .seed = 7}))
          .ValueOrDie());
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

// Pattern grouping on code-vector keys.
void BM_BuildPatternsCoded(benchmark::State& state) {
  const Dataset& ds = SharedDataset();
  Table slice = DirtyTable().Head(static_cast<int>(state.range(0)));
  const FD& fd = ds.fds[2];  // ZipCode -> City
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildPatterns(slice, fd.attrs()));
  }
}
BENCHMARK(BM_BuildPatternsCoded)->Arg(10000)->Arg(kMaxRows);

// The detect phase proper: violation-graph build (code-keyed identical
// check, coded bucket join, per-pair distance memoization).
void BM_ViolationGraphInterned(benchmark::State& state) {
  const Dataset& ds = SharedDataset();
  Table slice = DirtyTable().Head(static_cast<int>(state.range(0)));
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
BENCHMARK(BM_ViolationGraphInterned)
    ->Arg(10000)
    ->Arg(kMaxRows)
    ->Unit(benchmark::kMillisecond);

// End-to-end detect phase (grouping + graph build) over every HOSP FD
// ahead of the solvers.
void BM_DetectPhaseColumnar(benchmark::State& state) {
  const Dataset& ds = SharedDataset();
  Table slice = DirtyTable().Head(static_cast<int>(state.range(0)));
  DistanceModel model(slice);
  for (auto _ : state) {
    uint64_t edges = 0;
    for (const FD& fd : ds.fds) {
      FTOptions opts{ds.recommended_w_l, ds.recommended_w_r,
                     ds.recommended_tau.at(fd.name())};
      std::vector<Pattern> patterns = BuildPatterns(slice, fd.attrs());
      edges += ViolationGraph::Build(patterns, slice, fd, model, opts)
                   .num_edges();
    }
    benchmark::DoNotOptimize(edges);
  }
}
BENCHMARK(BM_DetectPhaseColumnar)
    ->Arg(10000)
    ->Arg(kMaxRows)
    ->Unit(benchmark::kMillisecond);

// Streaming CSV ingest of the 50k-row dirty table (from a string, so
// the numbers are parse + intern, not disk).
void BM_CsvIngest(benchmark::State& state) {
  static const std::string* kText =
      new std::string(WriteCsvString(DirtyTable()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ReadCsvString(*kText));
  }
}
BENCHMARK(BM_CsvIngest)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
