// Differential harness for the blocking candidate index
// (detect/block_index.h): a ViolationGraph built with
// DetectIndexMode::kBlocked must be byte-identical — same edges, same
// order, same doubles, same truncation flag — to the historical
// all-pairs build, across datasets, (tau, w_l, w_r) sweeps, thread
// counts, clipping and budget exhaustion. The fingerprint helper
// serializes every edge in hexfloat so any drifted bit fails loudly.

#include <cstdlib>
#include <iomanip>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/budget.h"
#include "common/metrics.h"
#include "data/table.h"
#include "detect/block_index.h"
#include "detect/violation_graph.h"
#include "gen/dataset.h"
#include "gen/error_injector.h"
#include "gen/hosp_gen.h"
#include "gen/tax_gen.h"
#include "test_util.h"

namespace ftrepair {
namespace {

using testing_util::CitizensDirty;
using testing_util::CitizensFDs;
using testing_util::RandomFDTable;

// Serializes everything the graph build promises to keep bit-identical
// across join strategies and thread counts: vertex count, per-vertex
// adjacency in stored order with hexfloat weights, derived aggregates,
// and the truncation flag. Candidate-accounting stats are deliberately
// excluded — those legitimately differ between modes.
std::string Fingerprint(const ViolationGraph& g) {
  std::ostringstream os;
  os << std::hexfloat;
  os << "n=" << g.num_patterns() << " e=" << g.num_edges()
     << " trunc=" << g.truncated() << "\n";
  for (int i = 0; i < g.num_patterns(); ++i) {
    os << i << ":";
    for (const ViolationGraph::Edge& e : g.Neighbors(i)) {
      os << " (" << e.to << "," << e.proj_dist << "," << e.unit_cost << ")";
    }
    os << " min=" << g.MinEdgeCost(i) << "\n";
  }
  os << "total=" << g.TotalMinEdgeCost() << "\n";
  return os.str();
}

ViolationGraph BuildMode(const Table& t, const FD& fd,
                         const DistanceModel& model, double w_l, double w_r,
                         double tau, DetectIndexMode mode, int threads = 1,
                         const Budget* budget = nullptr) {
  FTOptions opts{w_l, w_r, tau, threads, mode};
  return ViolationGraph::Build(BuildPatterns(t, fd.attrs()), t, fd, model, opts,
                               budget);
}

// Asserts the accounting invariants every complete build must satisfy,
// and returns the graph for further checks.
void CheckAccounting(const ViolationGraph& g) {
  uint64_t n = static_cast<uint64_t>(g.num_patterns());
  EXPECT_EQ(g.candidates_generated(),
            g.candidates_filtered() + g.candidates_verified());
  EXPECT_LE(g.candidates_generated(), n * (n > 0 ? n - 1 : 0) / 2);
}

// The core differential assertion: blocked == all-pairs, byte for byte.
void ExpectModesIdentical(const Table& t, const FD& fd,
                          const DistanceModel& model, double w_l, double w_r,
                          double tau) {
  ViolationGraph all =
      BuildMode(t, fd, model, w_l, w_r, tau, DetectIndexMode::kAllPairs);
  ViolationGraph blocked =
      BuildMode(t, fd, model, w_l, w_r, tau, DetectIndexMode::kBlocked);
  EXPECT_EQ(Fingerprint(all), Fingerprint(blocked))
      << "fd=" << fd.name() << " tau=" << tau << " w_l=" << w_l
      << " w_r=" << w_r;
  CheckAccounting(all);
  CheckAccounting(blocked);
  // The index may only *reduce* the candidate stream, never grow it.
  EXPECT_LE(blocked.candidates_generated(), all.candidates_generated());
  EXPECT_EQ(all.index_mode(), DetectIndexMode::kAllPairs);
  EXPECT_EQ(blocked.index_mode(), DetectIndexMode::kBlocked);
}

const double kTaus[] = {0.0, 0.05, 0.2, 0.5};
const std::pair<double, double> kWeights[] = {
    {1.0, 0.0}, {0.5, 0.5}, {0.3, 0.7}};

void SweepTable(const Table& t, const std::vector<FD>& fds) {
  DistanceModel model(t);
  for (const FD& fd : fds) {
    for (double tau : kTaus) {
      for (const auto& w : kWeights) {
        ExpectModesIdentical(t, fd, model, w.first, w.second, tau);
      }
    }
  }
}

Table HospSlice(int rows) {
  HospOptions opts;
  opts.num_rows = rows;
  opts.seed = 7;
  Dataset ds = std::move(GenerateHosp(opts)).ValueOrDie();
  NoiseOptions noise;
  noise.error_rate = 0.05;
  return std::move(InjectErrors(ds.clean, ds.fds, noise)).ValueOrDie();
}

std::vector<FD> HospFDs(int rows) {
  HospOptions opts;
  opts.num_rows = rows;
  opts.seed = 7;
  return std::move(GenerateHosp(opts)).ValueOrDie().fds;
}

TEST(BlockIndexTest, CitizensFullSweepIdentical) {
  Table t = CitizensDirty();
  SweepTable(t, CitizensFDs(t.schema()));
}

TEST(BlockIndexTest, HospSliceSweepIdentical) {
  // 1200 rows of dirty HOSP; all nine FDs under the full (tau, w)
  // sweep. Exercises exact keys (discrete-like provider numbers),
  // numeric columns, and the q-gram path on zips/phones/cities.
  Table t = HospSlice(1200);
  SweepTable(t, HospFDs(1200));
}

TEST(BlockIndexTest, TaxSliceSweepIdentical) {
  TaxOptions opts;
  opts.num_rows = 1000;
  opts.seed = 11;
  Dataset ds = std::move(GenerateTax(opts)).ValueOrDie();
  NoiseOptions noise;
  noise.error_rate = 0.05;
  Table t = std::move(InjectErrors(ds.clean, ds.fds, noise)).ValueOrDie();
  SweepTable(t, ds.fds);
}

TEST(BlockIndexTest, RandomTablesSweepIdentical) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Table t = RandomFDTable(80, 3, 10, 30, seed);
    FD fd01 = std::move(FD::Make({0}, {1}, "r01")).ValueOrDie();
    FD fd012 = std::move(FD::Make({0, 1}, {2}, "r012")).ValueOrDie();
    SweepTable(t, {fd01, fd012});
  }
}

TEST(BlockIndexTest, ThreadCountsBitIdentical) {
  // Blocked builds at 1/2/4/8 threads must all match the serial
  // all-pairs build — the sharded replay-merge composes with the index.
  Table t = HospSlice(1500);
  std::vector<FD> fds = HospFDs(1500);
  DistanceModel model(t);
  const FD& fd = fds[2];  // h3: ZipCode -> City
  std::string want = Fingerprint(
      BuildMode(t, fd, model, 0.7, 0.3, 0.2, DetectIndexMode::kAllPairs, 1));
  for (int threads : {1, 2, 4, 8}) {
    ViolationGraph g = BuildMode(t, fd, model, 0.7, 0.3, 0.2,
                                 DetectIndexMode::kBlocked, threads);
    EXPECT_EQ(want, Fingerprint(g)) << "threads=" << threads;
    CheckAccounting(g);
  }
  // And all-pairs itself stays thread-invariant alongside.
  for (int threads : {2, 8}) {
    EXPECT_EQ(want, Fingerprint(BuildMode(t, fd, model, 0.7, 0.3, 0.2,
                                          DetectIndexMode::kAllPairs,
                                          threads)))
        << "threads=" << threads;
  }
}

TEST(BlockIndexTest, Tau0ClassicalSemanticsIdentical) {
  // The exact-match bucket join under classical options (w_l=1, w_r=0,
  // tau=0) — the Remark of §2.1 — on every citizens FD.
  Table t = CitizensDirty();
  DistanceModel model(t);
  for (const FD& fd : CitizensFDs(t.schema())) {
    ExpectModesIdentical(t, fd, model, 1.0, 0.0, 0.0);
  }
}

TEST(BlockIndexTest, CandidateReductionOnHosp) {
  // The acceptance bar scaled down: at 1500 dirty HOSP rows, h3 with
  // the recommended weights at tau=0.2 must cut generated candidates
  // by at least 5x versus all-pairs, with an identical edge list.
  Table t = HospSlice(1500);
  std::vector<FD> fds = HospFDs(1500);
  DistanceModel model(t);
  const FD& fd = fds[2];
  ViolationGraph all =
      BuildMode(t, fd, model, 0.7, 0.3, 0.2, DetectIndexMode::kAllPairs);
  ViolationGraph blocked =
      BuildMode(t, fd, model, 0.7, 0.3, 0.2, DetectIndexMode::kBlocked);
  ASSERT_EQ(Fingerprint(all), Fingerprint(blocked));
  ASSERT_GT(all.candidates_generated(), 0u);
  EXPECT_LE(blocked.candidates_generated() * 5, all.candidates_generated())
      << "blocked=" << blocked.candidates_generated()
      << " allpairs=" << all.candidates_generated();
}

TEST(BlockIndexTest, BudgetExhaustedBlockedRunIsWellFormed) {
  // Byte-identity is out of reach under an exhausting budget (the two
  // modes charge different candidate streams, as documented on
  // FTOptions::index); instead the truncated blocked graph must flag
  // itself and emit a subset of the complete edge set.
  Table t = RandomFDTable(80, 3, 12, 25, 5);
  FD fd = std::move(FD::Make({0}, {1}, "rb")).ValueOrDie();
  DistanceModel model(t);
  ViolationGraph full =
      BuildMode(t, fd, model, 0.5, 0.5, 0.45, DetectIndexMode::kBlocked);
  ASSERT_FALSE(full.truncated());
  std::set<std::pair<int, int>> full_edges;
  for (int i = 0; i < full.num_patterns(); ++i) {
    for (const ViolationGraph::Edge& e : full.Neighbors(i)) {
      full_edges.emplace(std::min(i, e.to), std::max(i, e.to));
    }
  }
  setenv("FTREPAIR_FAULT_BUDGET_UNITS", "40", 1);
  Budget budget(1e9);
  ViolationGraph g = BuildMode(t, fd, model, 0.5, 0.5, 0.45,
                               DetectIndexMode::kBlocked, 1, &budget);
  unsetenv("FTREPAIR_FAULT_BUDGET_UNITS");
  EXPECT_TRUE(g.truncated());
  CheckAccounting(g);
  for (int i = 0; i < g.num_patterns(); ++i) {
    for (const ViolationGraph::Edge& e : g.Neighbors(i)) {
      EXPECT_TRUE(full_edges.count(
          {std::min(i, e.to), std::max(i, e.to)}))
          << "truncated build invented edge " << i << "-" << e.to;
    }
  }
  EXPECT_LE(g.num_edges(), full.num_edges());
}

TEST(BlockIndexTest, BudgetExhaustedAllPairsStillTruncates) {
  // The same fault seam through the historical path, as a control.
  setenv("FTREPAIR_FAULT_BUDGET_UNITS", "40", 1);
  Table t = RandomFDTable(80, 3, 12, 25, 5);
  FD fd = std::move(FD::Make({0}, {1}, "rb")).ValueOrDie();
  DistanceModel model(t);
  Budget budget(1e9);
  ViolationGraph g = BuildMode(t, fd, model, 0.5, 0.5, 0.45,
                               DetectIndexMode::kAllPairs, 1, &budget);
  unsetenv("FTREPAIR_FAULT_BUDGET_UNITS");
  EXPECT_TRUE(g.truncated());
  CheckAccounting(g);
}

TEST(BlockIndexTest, AutoStaysAllPairsOnSmallTables) {
  // Below kAutoMinPatterns the auto heuristic must keep the historical
  // join, so every pre-existing small-table behavior is untouched.
  Table t = CitizensDirty();
  DistanceModel model(t);
  for (const FD& fd : CitizensFDs(t.schema())) {
    ViolationGraph g =
        BuildMode(t, fd, model, 0.5, 0.5, 0.2, DetectIndexMode::kAuto);
    EXPECT_EQ(g.index_mode(), DetectIndexMode::kAllPairs) << fd.name();
  }
}

TEST(BlockIndexTest, AutoPicksBlockedOnLargeSelectiveInput) {
  Table t = HospSlice(4000);
  std::vector<FD> fds = HospFDs(4000);
  DistanceModel model(t);
  const FD& fd = fds[2];  // zips: short strings, tight kmax
  std::vector<Pattern> patterns = BuildPatterns(t, fd.attrs());
  ASSERT_GE(static_cast<int>(patterns.size()), BlockIndex::kAutoMinPatterns);
  ViolationGraph g =
      BuildMode(t, fd, model, 0.7, 0.3, 0.2, DetectIndexMode::kAuto);
  EXPECT_EQ(g.index_mode(), DetectIndexMode::kBlocked);
  EXPECT_EQ(Fingerprint(g),
            Fingerprint(BuildMode(t, fd, model, 0.7, 0.3, 0.2,
                                  DetectIndexMode::kAllPairs)));
}

TEST(BlockIndexTest, AutoFallsBackWhenNoSoundFilterExists) {
  // Jaccard columns support neither the exact key nor the q-gram
  // filter, so auto must refuse the index no matter the table size.
  Table t = HospSlice(1500);
  std::vector<FD> fds = HospFDs(1500);
  DistanceModel model(t);
  const FD& fd = fds[2];
  for (int col : fd.attrs()) {
    model.SetColumnMetric(col, ColumnMetric::kJaccard);
  }
  ViolationGraph g =
      BuildMode(t, fd, model, 0.7, 0.3, 0.2, DetectIndexMode::kAuto);
  EXPECT_EQ(g.index_mode(), DetectIndexMode::kAllPairs);
}

TEST(BlockIndexTest, ForcedBlockedWithoutFiltersStillIdentical) {
  // kBlocked on an input where no attribute supports a filter must
  // degrade to a sound (if unselective) candidate stream — never to a
  // wrong edge set.
  Table t = CitizensDirty();
  DistanceModel model(t);
  std::vector<FD> fds = CitizensFDs(t.schema());
  for (int col : fds[1].attrs()) {
    model.SetColumnMetric(col, ColumnMetric::kJaccard);
  }
  ExpectModesIdentical(t, fds[1], model, 0.5, 0.5, 0.2);
  ExpectModesIdentical(t, fds[1], model, 0.5, 0.5, 0.0);
}

TEST(BlockIndexTest, DiscreteMetricSweepIdentical) {
  // kDiscrete columns: exact keys at tau=0 and — when w > tau — at
  // tau > 0 too (any differing pair already costs w > tau).
  Table t = RandomFDTable(60, 2, 8, 20, 9);
  FD fd = std::move(FD::Make({0}, {1}, "rd")).ValueOrDie();
  DistanceModel model(t);
  model.SetColumnMetric(0, ColumnMetric::kDiscrete);
  model.SetColumnMetric(1, ColumnMetric::kDiscrete);
  for (double tau : kTaus) {
    for (const auto& w : kWeights) {
      ExpectModesIdentical(t, fd, model, w.first, w.second, tau);
    }
  }
}

TEST(BlockIndexTest, InducedSubgraphPropagatesIndexStats) {
  Table t = HospSlice(800);
  std::vector<FD> fds = HospFDs(800);
  DistanceModel model(t);
  ViolationGraph g =
      BuildMode(t, fds[2], model, 0.7, 0.3, 0.2, DetectIndexMode::kBlocked);
  for (const auto& comp : g.ConnectedComponents()) {
    ViolationGraph sub = g.InducedSubgraph(comp);
    EXPECT_EQ(sub.candidates_generated(), g.candidates_generated());
    EXPECT_EQ(sub.candidates_verified(), g.candidates_verified());
    EXPECT_EQ(sub.candidates_filtered(), g.candidates_filtered());
    EXPECT_EQ(sub.index_mode(), g.index_mode());
  }
}

TEST(BlockIndexTest, DetectIndexModeNames) {
  EXPECT_STREQ(DetectIndexModeName(DetectIndexMode::kAuto), "auto");
  EXPECT_STREQ(DetectIndexModeName(DetectIndexMode::kAllPairs), "allpairs");
  EXPECT_STREQ(DetectIndexModeName(DetectIndexMode::kBlocked), "blocked");
}

// --- Ungrouped builds (one pattern per row) through both modes ---

TEST(BlockIndexTest, RowPatternModesAgree) {
  // The no-grouping ablation hands the build one pattern per row, so
  // identical projections arrive as distinct patterns; both joins must
  // still skip them and agree on every edge.
  Table t = HospSlice(600);
  std::vector<FD> fds = HospFDs(600);
  DistanceModel model(t);
  std::vector<ViolationGraph> graphs;
  for (DetectIndexMode mode :
       {DetectIndexMode::kAllPairs, DetectIndexMode::kBlocked}) {
    FTOptions opts{0.7, 0.3, 0.2, 1, mode};
    graphs.push_back(ViolationGraph::Build(
        BuildRowPatterns(t, fds[2].attrs()), t, fds[2], model, opts));
    CheckAccounting(graphs.back());
  }
  EXPECT_GT(graphs[0].num_edges(), 0u);
  EXPECT_EQ(Fingerprint(graphs[0]), Fingerprint(graphs[1]));
  EXPECT_LE(graphs[1].candidates_generated(),
            graphs[0].candidates_generated());
}

TEST(BlockIndexTest, GraphBuildFeedsCandidateCounters) {
  Table t = CitizensDirty();
  std::vector<FD> fds = CitizensFDs(t.schema());
  DistanceModel model(t);
  Counter* generated =
      Metrics().GetCounter("ftrepair.detect.candidates_generated");
  Counter* verified =
      Metrics().GetCounter("ftrepair.detect.candidates_verified");
  Counter* filtered =
      Metrics().GetCounter("ftrepair.detect.candidates_filtered");
  uint64_t g0 = generated->value();
  uint64_t v0 = verified->value();
  uint64_t f0 = filtered->value();
  ViolationGraph g =
      BuildMode(t, fds[0], model, 0.5, 0.5, 0.35, DetectIndexMode::kAllPairs);
  EXPECT_EQ(generated->value() - g0, g.candidates_generated());
  EXPECT_EQ(verified->value() - v0, g.candidates_verified());
  EXPECT_EQ(filtered->value() - f0, g.candidates_filtered());
}

}  // namespace
}  // namespace ftrepair
