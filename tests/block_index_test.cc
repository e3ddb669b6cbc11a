// Tests of the blocking candidate index (detect/block_index.h) and of
// the graph build's join choice. Across datasets and (tau, w_l, w_r)
// sweeps, an index built directly on each input must be sound against
// the brute-force oracle (ascending candidates past each anchor, no
// missed partner), and the graph build, whichever join it picks, must
// be exactly the oracle's graph (same edge set, same doubles, ascending
// adjacency). Inputs on which the build picks the index by itself check
// thread counts and budget exhaustion, and the build must pick the
// index exactly where it prunes. The fingerprint helper serializes
// every edge in hexfloat so any drifted bit between thread counts fails
// loudly.

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
#include "common/resource.h"
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

using testing_util::AllPairs;
using testing_util::CandidateMismatch;
using testing_util::CitizensDirty;
using testing_util::CitizensFDs;
using testing_util::OracleEdges;
using testing_util::OracleMismatch;
using testing_util::RandomFDTable;

// Serializes everything the graph build promises to keep bit-identical
// across thread counts: vertex count, per-vertex adjacency in stored
// order with hexfloat weights, and the truncation flag.
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
  return os.str();
}

ViolationGraph BuildGraph(const Table& t, const FD& fd,
                          const DistanceModel& model, double w_l, double w_r,
                          double tau, int threads = 1,
                          const Budget* budget = nullptr) {
  FTOptions opts{w_l, w_r, tau, threads};
  return ViolationGraph::Build(BuildPatterns(t, fd.attrs()), t, fd, model, opts,
                               budget);
}

// Bytes a build of `fd` charges to MemPhase::kIndex: non-zero exactly
// when the build made a BlockIndex.
uint64_t IndexBytes(const Table& t, const FD& fd, const DistanceModel& model,
                    double w_l, double w_r, double tau) {
  MemoryBudget memory;
  FTOptions opts{w_l, w_r, tau};
  opts.memory = &memory;
  ViolationGraph::Build(BuildPatterns(t, fd.attrs()), t, fd, model, opts);
  return memory.charged_bytes(MemPhase::kIndex);
}

// Asserts the accounting invariants every build must satisfy.
void CheckAccounting(const ViolationGraph& g) {
  EXPECT_EQ(g.candidates_generated(),
            g.candidates_filtered() + g.candidates_verified());
  EXPECT_LE(g.candidates_generated(), AllPairs(g.num_patterns()));
}

// The core assertion: an index built directly on the input (on any
// sound plan, whether or not the build would pick it) is sound against
// the oracle, and the build, whichever join it picked, is the oracle's
// graph.
void ExpectMatchesOracle(const Table& t, const FD& fd,
                         const DistanceModel& model, double w_l, double w_r,
                         double tau) {
  std::vector<Pattern> patterns = BuildPatterns(t, fd.attrs());
  BlockIndex index(patterns, t, fd, model, FTOptions{w_l, w_r, tau});
  uint64_t generated = 0;
  EXPECT_EQ(CandidateMismatch(
                index, static_cast<int>(patterns.size()),
                OracleEdges(patterns, t, fd, model, w_l, w_r, tau),
                &generated),
            "")
      << "fd=" << fd.name() << " tau=" << tau << " w_l=" << w_l
      << " w_r=" << w_r;
  ViolationGraph g = BuildGraph(t, fd, model, w_l, w_r, tau);
  EXPECT_EQ(OracleMismatch(g, t, fd, model, w_l, w_r, tau), "")
      << "fd=" << fd.name() << " tau=" << tau << " w_l=" << w_l
      << " w_r=" << w_r;
  CheckAccounting(g);
}

const double kTaus[] = {0.0, 0.05, 0.2, 0.5};
const std::pair<double, double> kWeights[] = {
    {1.0, 0.0}, {0.5, 0.5}, {0.3, 0.7}};

void SweepTable(const Table& t, const std::vector<FD>& fds) {
  DistanceModel model(t);
  for (const FD& fd : fds) {
    for (double tau : kTaus) {
      for (const auto& w : kWeights) {
        ExpectMatchesOracle(t, fd, model, w.first, w.second, tau);
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

// A key-rich random table whose c0 -> c1 FD has well over
// kMinPatterns patterns, so at tau = 0 the build picks the exact
// bucket join on its own.
Table ExactJoinTable() { return RandomFDTable(800, 2, 400, 80, 17); }

// Asserts that `fd` over `t` builds at threads {1, 2, 4, 8} into one
// bit-identical graph, the oracle's, through an index that pruned.
void ExpectIndexedBuildThreadInvariant(const Table& t, const FD& fd,
                                       double w_l, double w_r, double tau) {
  DistanceModel model(t);
  ViolationGraph serial = BuildGraph(t, fd, model, w_l, w_r, tau, 1);
  ASSERT_GE(serial.num_patterns(), BlockIndex::kMinPatterns);
  EXPECT_LT(serial.candidates_generated(), AllPairs(serial.num_patterns()));
  EXPECT_EQ(OracleMismatch(serial, t, fd, model, w_l, w_r, tau), "");
  std::string want = Fingerprint(serial);
  for (int threads : {2, 4, 8}) {
    ViolationGraph g = BuildGraph(t, fd, model, w_l, w_r, tau, threads);
    EXPECT_EQ(want, Fingerprint(g)) << "threads=" << threads;
    EXPECT_EQ(g.candidates_generated(), serial.candidates_generated());
    CheckAccounting(g);
  }
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
  // The gram join: the 4000-row HOSP h3 slice (ZipCode -> City) at the
  // recommended weights, where the build picks the index by itself.
  // The sharded replay-merge composes with it at 1/2/4/8 threads.
  Table t = HospSlice(4000);
  ExpectIndexedBuildThreadInvariant(t, HospFDs(4000)[2], 0.7, 0.3, 0.2);
}

TEST(BlockIndexTest, Tau0ClassicalSemanticsIdentical) {
  // The exact-match bucket join under classical options (w_l=1, w_r=0,
  // tau=0) — the Remark of §2.1 — on an input large enough for the
  // build to pick it, at 1/2/4/8 threads.
  Table t = ExactJoinTable();
  FD fd = std::move(FD::Make({0}, {1}, "x01")).ValueOrDie();
  ExpectIndexedBuildThreadInvariant(t, fd, 1.0, 0.0, 0.0);
}

TEST(BlockIndexTest, CandidateReductionOnHosp) {
  // At 4000 dirty HOSP rows, h3 with the recommended weights at
  // tau=0.2 must generate at most a fifth of the all-pairs candidates,
  // with the oracle's edge list.
  Table t = HospSlice(4000);
  std::vector<FD> fds = HospFDs(4000);
  DistanceModel model(t);
  const FD& fd = fds[2];
  ViolationGraph g = BuildGraph(t, fd, model, 0.7, 0.3, 0.2);
  ASSERT_EQ(OracleMismatch(g, t, fd, model, 0.7, 0.3, 0.2), "");
  ASSERT_GT(AllPairs(g.num_patterns()), 0u);
  EXPECT_LE(g.candidates_generated() * 5, AllPairs(g.num_patterns()))
      << "generated=" << g.candidates_generated()
      << " allpairs=" << AllPairs(g.num_patterns());
}

TEST(BlockIndexTest, BudgetExhaustedBlockedRunIsWellFormed) {
  // A budget that runs out mid-build on the gram-join input: the
  // truncated graph must flag itself and emit a subset of the oracle
  // edges, at every thread count.
  Table t = HospSlice(4000);
  const FD fd = HospFDs(4000)[2];
  DistanceModel model(t);
  ViolationGraph full = BuildGraph(t, fd, model, 0.7, 0.3, 0.2);
  ASSERT_FALSE(full.truncated());
  // The index ran.
  ASSERT_LT(full.candidates_generated(), AllPairs(full.num_patterns()));
  std::set<std::pair<int, int>> oracle =
      OracleEdges(full.patterns(), t, fd, model, 0.7, 0.3, 0.2);
  for (int threads : {1, 2, 4, 8}) {
    setenv("FTREPAIR_FAULT_BUDGET_UNITS", "40", 1);
    Budget budget(1e9);
    ViolationGraph g = BuildGraph(t, fd, model, 0.7, 0.3, 0.2, threads,
                                  &budget);
    unsetenv("FTREPAIR_FAULT_BUDGET_UNITS");
    EXPECT_TRUE(g.truncated()) << "threads=" << threads;
    CheckAccounting(g);
    for (int i = 0; i < g.num_patterns(); ++i) {
      for (const ViolationGraph::Edge& e : g.Neighbors(i)) {
        EXPECT_TRUE(oracle.count({std::min(i, e.to), std::max(i, e.to)}))
            << "truncated build invented edge " << i << "-" << e.to;
      }
    }
    EXPECT_LT(g.num_edges(), full.num_edges());
  }
}

TEST(BlockIndexTest, BudgetExhaustedAllPairsStillTruncates) {
  // The same fault seam through the all-pairs join (a table below
  // kMinPatterns), as a control.
  setenv("FTREPAIR_FAULT_BUDGET_UNITS", "40", 1);
  Table t = RandomFDTable(80, 3, 12, 25, 5);
  FD fd = std::move(FD::Make({0}, {1}, "rb")).ValueOrDie();
  DistanceModel model(t);
  Budget budget(1e9);
  ViolationGraph g = BuildGraph(t, fd, model, 0.5, 0.5, 0.45, 1, &budget);
  unsetenv("FTREPAIR_FAULT_BUDGET_UNITS");
  EXPECT_LT(g.num_patterns(), BlockIndex::kMinPatterns);
  EXPECT_TRUE(g.truncated());
  CheckAccounting(g);
}

TEST(BlockIndexTest, AutoStaysAllPairsOnSmallTables) {
  // Below kMinPatterns the build keeps the all-pairs join, so every
  // small-table behavior is untouched.
  Table t = CitizensDirty();
  DistanceModel model(t);
  for (const FD& fd : CitizensFDs(t.schema())) {
    ViolationGraph g = BuildGraph(t, fd, model, 0.5, 0.5, 0.2);
    EXPECT_EQ(g.candidates_generated(), AllPairs(g.num_patterns()))
        << fd.name();
    EXPECT_EQ(IndexBytes(t, fd, model, 0.5, 0.5, 0.2), 0u) << fd.name();
  }
}

TEST(BlockIndexTest, AutoPicksBlockedOnLargeSelectiveInput) {
  Table t = HospSlice(4000);
  std::vector<FD> fds = HospFDs(4000);
  DistanceModel model(t);
  const FD& fd = fds[2];  // zips: short strings, tight kmax
  ViolationGraph g = BuildGraph(t, fd, model, 0.7, 0.3, 0.2);
  ASSERT_GE(g.num_patterns(), BlockIndex::kMinPatterns);
  EXPECT_LT(g.candidates_generated(), AllPairs(g.num_patterns()));
  EXPECT_GT(IndexBytes(t, fd, model, 0.7, 0.3, 0.2), 0u);
  EXPECT_EQ(OracleMismatch(g, t, fd, model, 0.7, 0.3, 0.2), "");
}

TEST(BlockIndexTest, AutoFallsBackWhenNoSoundFilterExists) {
  // Jaccard columns support neither the exact key nor the q-gram
  // filter, so the build must refuse the index no matter the table
  // size.
  Table t = HospSlice(4000);
  std::vector<FD> fds = HospFDs(4000);
  DistanceModel model(t);
  const FD& fd = fds[2];
  for (int col : fd.attrs()) {
    model.SetColumnMetric(col, ColumnMetric::kJaccard);
  }
  ViolationGraph g = BuildGraph(t, fd, model, 0.7, 0.3, 0.2);
  ASSERT_GE(g.num_patterns(), BlockIndex::kMinPatterns);
  EXPECT_EQ(g.candidates_generated(), AllPairs(g.num_patterns()));
  EXPECT_EQ(IndexBytes(t, fd, model, 0.7, 0.3, 0.2), 0u);
}

TEST(BlockIndexTest, ForcedBlockedWithoutFiltersStillIdentical) {
  // An index built directly on an input where no attribute supports a
  // filter must degrade to a sound (if unselective) candidate stream:
  // every j > i, never a missed pair.
  Table t = CitizensDirty();
  DistanceModel model(t);
  std::vector<FD> fds = CitizensFDs(t.schema());
  const FD& fd = fds[1];
  for (int col : fd.attrs()) {
    model.SetColumnMetric(col, ColumnMetric::kJaccard);
  }
  std::vector<Pattern> patterns = BuildPatterns(t, fd.attrs());
  int n = static_cast<int>(patterns.size());
  for (double tau : {0.2, 0.0}) {
    BlockIndex index(patterns, t, fd, model, FTOptions{0.5, 0.5, tau});
    EXPECT_TRUE(index.degenerate()) << "tau=" << tau;
    BlockIndex::Scratch scratch;
    for (int i = 0; i < n; ++i) {
      std::vector<int> cand;
      index.AppendCandidates(i, &scratch, &cand);
      EXPECT_EQ(static_cast<int>(cand.size()), n - 1 - i) << "tau=" << tau;
    }
    ExpectMatchesOracle(t, fd, model, 0.5, 0.5, tau);
  }
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
      ExpectMatchesOracle(t, fd, model, w.first, w.second, tau);
    }
  }
}

TEST(BlockIndexTest, InducedSubgraphPropagatesIndexStats) {
  Table t = HospSlice(800);
  std::vector<FD> fds = HospFDs(800);
  DistanceModel model(t);
  ViolationGraph g = BuildGraph(t, fds[2], model, 0.7, 0.3, 0.2);
  for (const auto& comp : g.ConnectedComponents()) {
    ViolationGraph sub = g.InducedSubgraph(comp);
    EXPECT_EQ(sub.candidates_generated(), g.candidates_generated());
    EXPECT_EQ(sub.candidates_verified(), g.candidates_verified());
    EXPECT_EQ(sub.candidates_filtered(), g.candidates_filtered());
  }
}

// --- Ungrouped builds (one pattern per row) ---

TEST(BlockIndexTest, RowPatternModesAgree) {
  // The no-grouping ablation hands the build one pattern per row, so
  // identical projections arrive as distinct patterns; the indexed join
  // must still skip them and match the oracle on every edge.
  Table t = HospSlice(600);
  std::vector<FD> fds = HospFDs(600);
  DistanceModel model(t);
  ViolationGraph g =
      ViolationGraph::Build(BuildRowPatterns(t, fds[2].attrs()), t, fds[2],
                            model, FTOptions{0.7, 0.3, 0.2});
  CheckAccounting(g);
  EXPECT_GT(g.num_edges(), 0u);
  EXPECT_LT(g.candidates_generated(), AllPairs(g.num_patterns()));
  EXPECT_EQ(OracleMismatch(g, t, fds[2], model, 0.7, 0.3, 0.2), "");
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
  ViolationGraph g = BuildGraph(t, fds[0], model, 0.5, 0.5, 0.35);
  EXPECT_EQ(generated->value() - g0, g.candidates_generated());
  EXPECT_EQ(verified->value() - v0, g.candidates_verified());
  EXPECT_EQ(filtered->value() - f0, g.candidates_filtered());
}

}  // namespace
}  // namespace ftrepair
