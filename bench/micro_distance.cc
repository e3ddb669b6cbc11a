// Micro-benchmarks of the distance kernels everything else is built on
// (google-benchmark).
//
// The kernel A/B suites (BM_*Kernel) drive both edit-distance kernels
// — the scalar banded DP oracle vs the Myers bit-parallel kernel the
// library runs — across string lengths straddling the
// one-word/multi-word boundary, plus the detect phase end-to-end and a
// graph-build thread sweep for the multi-core protocol
// (tools/bench_multicore.sh records these into
// BENCH_distance_kernels.json). Kernel arg convention: 0 = scalar,
// 1 = bitparallel.

#include <cstdint>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "detect/pattern.h"
#include "detect/violation_graph.h"
#include "gen/error_injector.h"
#include "gen/hosp_gen.h"
#include "metric/distance.h"

namespace {

using namespace ftrepair;

std::string RandomString(ftrepair::Rng* rng, size_t len) {
  std::string s;
  for (size_t i = 0; i < len; ++i) {
    s += static_cast<char>('a' + rng->Index(26));
  }
  return s;
}

// `a` with a few random byte edits: realistic near-duplicate pairs so
// bounded kernels see small true distances, not the ~len of two
// independent random strings.
std::string Mutate(ftrepair::Rng* rng, std::string a, int edits) {
  for (int i = 0; i < edits && !a.empty(); ++i) {
    a[rng->Index(a.size())] = static_cast<char>('a' + rng->Index(26));
  }
  return a;
}

void BM_EditDistance(benchmark::State& state) {
  ftrepair::Rng rng(1);
  size_t len = static_cast<size_t>(state.range(0));
  std::string a = RandomString(&rng, len);
  std::string b = RandomString(&rng, len);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ftrepair::EditDistance(a, b));
  }
}
BENCHMARK(BM_EditDistance)->Arg(8)->Arg(16)->Arg(64);

void BM_BoundedEditDistance(benchmark::State& state) {
  ftrepair::Rng rng(1);
  size_t len = static_cast<size_t>(state.range(0));
  std::string a = RandomString(&rng, len);
  std::string b = RandomString(&rng, len);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ftrepair::BoundedEditDistance(a, b, 3));
  }
}
BENCHMARK(BM_BoundedEditDistance)->Arg(8)->Arg(16)->Arg(64);

void BM_NormalizedEditDistance(benchmark::State& state) {
  ftrepair::Rng rng(2);
  std::string a = RandomString(&rng, 12);
  std::string b = RandomString(&rng, 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ftrepair::NormalizedEditDistance(a, b));
  }
}
BENCHMARK(BM_NormalizedEditDistance);

void BM_TokenJaccard(benchmark::State& state) {
  std::string a = "aspirin prescribed at discharge for patients";
  std::string b = "statin prescribed at discharge for all patients";
  for (auto _ : state) {
    benchmark::DoNotOptimize(ftrepair::TokenJaccardDistance(a, b));
  }
}
BENCHMARK(BM_TokenJaccard);

// ---- Kernel A/B: scalar vs bit-parallel -----------------------------

void BM_EditDistanceKernel(benchmark::State& state) {
  ftrepair::Rng rng(1);
  size_t len = static_cast<size_t>(state.range(0));
  bool bitparallel = state.range(1) != 0;
  std::string a = RandomString(&rng, len);
  std::string b = Mutate(&rng, a, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bitparallel ? EditDistance(a, b)
                                         : EditDistanceScalar(a, b));
  }
}
BENCHMARK(BM_EditDistanceKernel)
    ->ArgsProduct({{8, 16, 32, 63, 64, 65, 128, 256}, {0, 1}});

void BM_BoundedEditDistanceKernel(benchmark::State& state) {
  ftrepair::Rng rng(1);
  size_t len = static_cast<size_t>(state.range(0));
  size_t cap = static_cast<size_t>(state.range(1));
  bool bitparallel = state.range(2) != 0;
  std::string a = RandomString(&rng, len);
  std::string b = Mutate(&rng, a, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bitparallel
                                 ? BoundedEditDistance(a, b, cap)
                                 : BoundedEditDistanceScalar(a, b, cap));
  }
}
BENCHMARK(BM_BoundedEditDistanceKernel)
    ->ArgsProduct({{8, 16, 64, 128}, {1, 3, 8}, {0, 1}});

// ---- Detect phase (50k-row HOSP) ------------------------------------

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

// End-to-end detect phase (grouping + graph build) over every HOSP FD
// — the workload the edit-distance kernel actually moves.
void BM_DetectPhase(benchmark::State& state) {
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
BENCHMARK(BM_DetectPhase)
    ->Arg(10000)
    ->Arg(kMaxRows)
    ->Unit(benchmark::kMillisecond);

// Thread-scaling curve of the graph build: the multi-core protocol's
// payload (single-core boxes record a flat curve; bench_multicore.sh
// refuses to record it — see docs/PERFORMANCE.md, "Measuring on
// multiple cores").
void BM_ViolationGraphThreads(benchmark::State& state) {
  const Dataset& ds = SharedDataset();
  Table slice = DirtyTable().Head(kMaxRows);
  const FD& fd = ds.fds[2];  // ZipCode -> City
  DistanceModel model(slice);
  FTOptions opts{ds.recommended_w_l, ds.recommended_w_r,
                 ds.recommended_tau.at(fd.name())};
  opts.threads = static_cast<int>(state.range(0));
  std::vector<Pattern> patterns = BuildPatterns(slice, fd.attrs());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ViolationGraph::Build(patterns, slice, fd, model, opts));
  }
}
BENCHMARK(BM_ViolationGraphThreads)
    ->RangeMultiplier(2)
    ->Range(1, 8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
