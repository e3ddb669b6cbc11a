// Seeded property/fuzz harness for the blocking candidate index
// (detect/block_index.h) and the graph build over it. Over 1000+ random
// tables — small alphabets, adversarial near-threshold strings built by
// applying exactly k edits around the filter bound, mixed nulls and
// numbers — it asserts:
//
//   * soundness: an index built directly on the instance emits, for
//     every anchor i, strictly ascending candidates j > i that include
//     every j the brute-force oracle (exact ProjDistance <= tau, no
//     filters) pairs with i;
//   * exactness: ViolationGraph::Build, whichever join it picks, has
//     the oracle's edge set, each edge's proj_dist / unit_cost (the
//     memoized code-keyed kernels) equals ProjDistance / UnitCost on
//     values, and every adjacency list is strictly ascending — which
//     together fix the whole graph;
//   * accounting: verified <= generated <= n*(n-1)/2 and
//     generated = filtered + verified;
//   * determinism: thread counts and scratch reuse never change the
//     graph;
//   * non-vacuity: each sweep whose columns admit a gram filter has
//     instances where the gram join ran and generated fewer than
//     n*(n-1)/2 candidates, so the shared-gram screen is actually
//     exercised.
//
// Each TEST iterates many seeds so the whole file sweeps well over the
// 1000-table floor while any failure prints the seed that caused it.

#include <algorithm>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/budget.h"
#include "common/rng.h"
#include "data/schema.h"
#include "data/table.h"
#include "detect/block_index.h"
#include "detect/pattern.h"
#include "detect/violation_graph.h"
#include "test_util.h"

namespace ftrepair {
namespace {

// --- random-table machinery ------------------------------------------

// A tiny alphabet maximizes gram collisions, stressing the multiset
// (min-count) semantics of the shared-gram filter.
constexpr char kAlphabet[] = "ab01";
constexpr int kAlphabetSize = 4;

std::string RandomString(Rng* rng, int min_len, int max_len) {
  int len = min_len + static_cast<int>(rng->Uniform(
                          static_cast<uint64_t>(max_len - min_len + 1)));
  std::string s;
  s.reserve(static_cast<size_t>(len));
  for (int i = 0; i < len; ++i) {
    s.push_back(kAlphabet[rng->Uniform(kAlphabetSize)]);
  }
  return s;
}

// Applies exactly `edits` random single-character edits. Combined with
// taus chosen so the per-attribute bound k sits near `edits`, this
// plants pairs exactly on both sides of every filter threshold.
std::string Mutate(Rng* rng, std::string s, int edits) {
  for (int e = 0; e < edits; ++e) {
    uint64_t op = rng->Uniform(3);
    size_t pos =
        s.empty() ? 0 : static_cast<size_t>(rng->Uniform(s.size() + 1));
    char c = kAlphabet[rng->Uniform(kAlphabetSize)];
    if (op == 0 && !s.empty() && pos < s.size()) {
      s[pos] = c;  // substitute
    } else if (op == 1 && !s.empty() && pos < s.size()) {
      s.erase(pos, 1);  // delete
    } else {
      s.insert(pos, 1, c);  // insert
    }
  }
  return s;
}

struct TableConfig {
  int rows = 36;
  int num_bases = 6;          // distinct base strings per column
  int max_edits = 3;          // adversarial mutation depth
  double null_fraction = 0;   // chance a cell is null
  double number_fraction = 0; // chance a cell is numeric
};

// col0 -> col1 FD over adversarially clustered strings.
Table RandomAdversarialTable(uint64_t seed, const TableConfig& cfg) {
  Rng rng(seed);
  Schema schema({{"A", ValueType::kString}, {"B", ValueType::kString}});
  std::vector<std::string> bases_a, bases_b;
  for (int i = 0; i < cfg.num_bases; ++i) {
    bases_a.push_back(RandomString(&rng, 3, 8));
    bases_b.push_back(RandomString(&rng, 3, 8));
  }
  Table t(schema);
  for (int r = 0; r < cfg.rows; ++r) {
    Row row;
    for (const auto* bases : {&bases_a, &bases_b}) {
      double roll = rng.UniformDouble();
      if (roll < cfg.null_fraction) {
        row.push_back(Value());
      } else if (roll < cfg.null_fraction + cfg.number_fraction) {
        row.push_back(Value(static_cast<double>(rng.Uniform(20))));
      } else {
        const std::string& base =
            (*bases)[rng.Uniform(static_cast<uint64_t>(bases->size()))];
        int edits = static_cast<int>(
            rng.Uniform(static_cast<uint64_t>(cfg.max_edits + 1)));
        row.push_back(Value(Mutate(&rng, base, edits)));
      }
    }
    EXPECT_TRUE(t.AppendRow(std::move(row)).ok());
  }
  return t;
}

// --- oracle + fingerprints -------------------------------------------

using testing_util::AllPairs;
using testing_util::CandidateMismatch;
using testing_util::OracleEdges;
using testing_util::OracleMismatch;

std::set<std::pair<int, int>> EdgeSet(const ViolationGraph& g) {
  std::set<std::pair<int, int>> edges;
  for (int i = 0; i < g.num_patterns(); ++i) {
    for (const ViolationGraph::Edge& e : g.Neighbors(i)) {
      edges.emplace(std::min(i, e.to), std::max(i, e.to));
    }
  }
  return edges;
}

std::string Fingerprint(const ViolationGraph& g) {
  std::ostringstream os;
  os << std::hexfloat << g.num_patterns() << "/" << g.num_edges() << "/"
     << g.truncated() << "|";
  for (int i = 0; i < g.num_patterns(); ++i) {
    for (const ViolationGraph::Edge& e : g.Neighbors(i)) {
      os << i << ":" << e.to << ":" << e.proj_dist << ":" << e.unit_cost
         << ";";
    }
  }
  return os.str();
}

void CheckInvariants(const ViolationGraph& g, uint64_t seed) {
  EXPECT_LE(g.candidates_verified(), g.candidates_generated())
      << "seed=" << seed;
  EXPECT_LE(g.candidates_generated(), AllPairs(g.num_patterns()))
      << "seed=" << seed;
  EXPECT_EQ(g.candidates_generated(),
            g.candidates_filtered() + g.candidates_verified())
      << "seed=" << seed;
}

// One full property check of a (table, w, tau) instance: the index
// built directly, then the graph build against the oracle. Returns true
// when the index ran the gram join and generated fewer candidates than
// all pairs (the sweeps count these to stay non-vacuous).
bool CheckInstance(const Table& t, const DistanceModel& model, double w_l,
                   double w_r, double tau, uint64_t seed) {
  FD fd = std::move(FD::Make({0}, {1}, "p")).ValueOrDie();
  std::vector<Pattern> patterns = BuildPatterns(t, fd.attrs());
  int n = static_cast<int>(patterns.size());
  FTOptions opts{w_l, w_r, tau};
  BlockIndex index(patterns, t, fd, model, opts);
  uint64_t generated = 0;
  EXPECT_EQ(CandidateMismatch(
                index, n, OracleEdges(patterns, t, fd, model, w_l, w_r, tau),
                &generated),
            "")
      << "seed=" << seed << " tau=" << tau << " w_l=" << w_l;
  ViolationGraph g = ViolationGraph::Build(patterns, t, fd, model, opts);
  EXPECT_EQ(OracleMismatch(g, t, fd, model, w_l, w_r, tau), "")
      << "seed=" << seed << " tau=" << tau << " w_l=" << w_l;
  CheckInvariants(g, seed);
  return index.gram_primary() >= 0 && generated < AllPairs(n);
}

const double kTaus[] = {0.0, 0.1, 0.25, 0.5};
const std::pair<double, double> kWeights[] = {
    {1.0, 0.0}, {0.5, 0.5}, {0.3, 0.7}};

// --- the properties ---------------------------------------------------

TEST(BlockIndexPropertyTest, AdversarialStringsSoundAndIdentical) {
  // 150 tables x 4 taus x 3 weights = 1800 instances of pure
  // near-threshold string data.
  int gram_pruned = 0;
  TableConfig cfg;
  for (uint64_t seed = 1; seed <= 150; ++seed) {
    Table t = RandomAdversarialTable(seed, cfg);
    DistanceModel model(t);
    for (double tau : kTaus) {
      for (const auto& w : kWeights) {
        gram_pruned += CheckInstance(t, model, w.first, w.second, tau, seed);
      }
    }
  }
  // Plus 10 x 12 instances over small, heavily flipped key/value
  // domains. Every code recurs across many patterns, so the build keeps
  // its per-pair memo slots on and edges replay memoized distances —
  // the near-unique strings above leave the memo off.
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Table t = testing_util::RandomFDTable(80, 2, 8, 120, seed);
    DistanceModel model(t);
    for (double tau : kTaus) {
      for (const auto& w : kWeights) {
        gram_pruned += CheckInstance(t, model, w.first, w.second, tau, seed);
      }
    }
  }
  EXPECT_GT(gram_pruned, 0);
}

TEST(BlockIndexPropertyTest, NullsAndNumbersSoundAndIdentical) {
  // 150 tables x 12 instances with nulls (distance 1 to everything) and
  // numbers (Euclidean under kAuto — excluded from tau=0 exact keys).
  TableConfig cfg;
  cfg.null_fraction = 0.12;
  cfg.number_fraction = 0.15;
  for (uint64_t seed = 1000; seed < 1150; ++seed) {
    Table t = RandomAdversarialTable(seed, cfg);
    DistanceModel model(t);
    for (double tau : kTaus) {
      for (const auto& w : kWeights) {
        CheckInstance(t, model, w.first, w.second, tau, seed);
      }
    }
  }
}

TEST(BlockIndexPropertyTest, DeepMutationsNearFilterBound) {
  // Long strings + deep mutations so |len(a) - len(b)| brushes against
  // the length filter bound from both sides.
  int gram_pruned = 0;
  TableConfig cfg;
  cfg.num_bases = 4;
  cfg.max_edits = 6;
  for (uint64_t seed = 2000; seed < 2120; ++seed) {
    Table t = RandomAdversarialTable(seed, cfg);
    DistanceModel model(t);
    for (double tau : {0.15, 0.35, 0.6}) {
      gram_pruned += CheckInstance(t, model, 0.5, 0.5, tau, seed);
      gram_pruned += CheckInstance(t, model, 0.3, 0.7, tau, seed);
    }
  }
  EXPECT_GT(gram_pruned, 0);
}

TEST(BlockIndexPropertyTest, DiscreteMetricExactKeys) {
  // kDiscrete columns become exact keys at tau=0 and, when w > tau, at
  // tau > 0 too. 120 tables x 8 instances.
  int gram_pruned = 0;
  TableConfig cfg;
  cfg.null_fraction = 0.1;
  for (uint64_t seed = 3000; seed < 3120; ++seed) {
    Table t = RandomAdversarialTable(seed, cfg);
    DistanceModel model(t);
    model.SetColumnMetric(0, ColumnMetric::kDiscrete);
    for (double tau : kTaus) {
      gram_pruned += CheckInstance(t, model, 0.6, 0.4, tau, seed);
      gram_pruned += CheckInstance(t, model, 0.2, 0.8, tau, seed);
    }
  }
  EXPECT_GT(gram_pruned, 0);
}

TEST(BlockIndexPropertyTest, EditMetricForcedOnMixedData) {
  // kEdit compares ToString forms, so numbers join the gram/key paths.
  int gram_pruned = 0;
  TableConfig cfg;
  cfg.number_fraction = 0.3;
  cfg.null_fraction = 0.05;
  for (uint64_t seed = 4000; seed < 4120; ++seed) {
    Table t = RandomAdversarialTable(seed, cfg);
    DistanceModel model(t);
    model.SetColumnMetric(0, ColumnMetric::kEdit);
    model.SetColumnMetric(1, ColumnMetric::kEdit);
    for (double tau : kTaus) {
      gram_pruned += CheckInstance(t, model, 0.5, 0.5, tau, seed);
    }
  }
  EXPECT_GT(gram_pruned, 0);
}

TEST(BlockIndexPropertyTest, UnfilterableMetricsDegradeSoundly) {
  // Jaccard / q-gram-cosine columns admit no sound filter; an index
  // built on them anyway must stay sound (via the degenerate or
  // filter-free paths), just unselective.
  TableConfig cfg;
  cfg.rows = 24;
  for (uint64_t seed = 5000; seed < 5100; ++seed) {
    Table t = RandomAdversarialTable(seed, cfg);
    DistanceModel model(t);
    model.SetColumnMetric(0, seed % 2 == 0 ? ColumnMetric::kJaccard
                                           : ColumnMetric::kQGramCosine);
    model.SetColumnMetric(1, ColumnMetric::kJaroWinkler);
    for (double tau : {0.0, 0.3}) {
      CheckInstance(t, model, 0.5, 0.5, tau, seed);
    }
  }
}

TEST(BlockIndexPropertyTest, ExtremeWeightsAndTinyTau) {
  // Degenerate weights (all mass on one side) and taus near the float
  // rounding edge of the k_max fix-up loops.
  int gram_pruned = 0;
  TableConfig cfg;
  for (uint64_t seed = 6000; seed < 6100; ++seed) {
    Table t = RandomAdversarialTable(seed, cfg);
    DistanceModel model(t);
    for (double tau : {1e-9, 0.01, 0.999}) {
      gram_pruned += CheckInstance(t, model, 1.0, 0.0, tau, seed);
      gram_pruned += CheckInstance(t, model, 0.0, 1.0, tau, seed);
      gram_pruned += CheckInstance(t, model, 1e-3, 1.0 - 1e-3, tau, seed);
    }
  }
  EXPECT_GT(gram_pruned, 0);
}

// Adversarial tables with well over BlockIndex::kMinPatterns patterns,
// so ViolationGraph::Build joins through the index by itself.
constexpr int kIndexedRows = 320;

TEST(BlockIndexPropertyTest, ThreadedBlockedBuildsBitIdentical) {
  // 20 indexed builds, each bit-identical at 1/2/4 threads and equal to
  // the oracle's graph.
  int indexed = 0;
  TableConfig cfg;
  cfg.rows = kIndexedRows;
  for (uint64_t seed = 7000; seed < 7020; ++seed) {
    Table t = RandomAdversarialTable(seed, cfg);
    DistanceModel model(t);
    FD fd = std::move(FD::Make({0}, {1}, "p")).ValueOrDie();
    std::vector<Pattern> patterns = BuildPatterns(t, fd.attrs());
    ASSERT_GE(static_cast<int>(patterns.size()), BlockIndex::kMinPatterns);
    ViolationGraph serial = ViolationGraph::Build(patterns, t, fd, model,
                                                  FTOptions{0.5, 0.5, 0.3});
    EXPECT_EQ(OracleMismatch(serial, t, fd, model, 0.5, 0.5, 0.3), "")
        << "seed=" << seed;
    indexed += serial.candidates_generated() < AllPairs(serial.num_patterns());
    std::string want = Fingerprint(serial);
    for (int threads : {2, 4}) {
      ViolationGraph g = ViolationGraph::Build(
          patterns, t, fd, model, FTOptions{0.5, 0.5, 0.3, threads});
      EXPECT_EQ(want, Fingerprint(g)) << "seed=" << seed
                                      << " threads=" << threads;
      CheckInvariants(g, seed);
    }
  }
  EXPECT_GT(indexed, 0);
}

TEST(BlockIndexPropertyTest, ScratchReuseIsDeterministic) {
  // AppendCandidates through one shared Scratch across many anchors
  // and rebuilt indexes must replay identically.
  TableConfig cfg;
  for (uint64_t seed = 8000; seed < 8050; ++seed) {
    Table t = RandomAdversarialTable(seed, cfg);
    DistanceModel model(t);
    FD fd = std::move(FD::Make({0}, {1}, "p")).ValueOrDie();
    std::vector<Pattern> patterns = BuildPatterns(t, fd.attrs());
    FTOptions opts{0.5, 0.5, 0.3};
    BlockIndex index(patterns, t, fd, model, opts);
    BlockIndex::Scratch scratch;
    std::vector<std::vector<int>> first;
    for (int i = 0; i < static_cast<int>(patterns.size()); ++i) {
      std::vector<int> cand;
      index.AppendCandidates(i, &scratch, &cand);
      first.push_back(std::move(cand));
    }
    BlockIndex again(patterns, t, fd, model, opts);
    for (int i = 0; i < static_cast<int>(patterns.size()); ++i) {
      std::vector<int> cand;
      again.AppendCandidates(i, &scratch, &cand);
      EXPECT_EQ(cand, first[static_cast<size_t>(i)]) << "seed=" << seed;
    }
  }
}

TEST(BlockIndexPropertyTest, BudgetExhaustionStaysSound) {
  // Under an exhausting budget an indexed build must flag truncation
  // and emit a subset of the oracle edges — never an invented edge.
  int indexed = 0;
  TableConfig cfg;
  cfg.rows = kIndexedRows;
  for (uint64_t seed = 9000; seed < 9020; ++seed) {
    Table t = RandomAdversarialTable(seed, cfg);
    DistanceModel model(t);
    FD fd = std::move(FD::Make({0}, {1}, "p")).ValueOrDie();
    std::vector<Pattern> patterns = BuildPatterns(t, fd.attrs());
    FTOptions opts{0.5, 0.5, 0.4};
    std::set<std::pair<int, int>> oracle =
        OracleEdges(patterns, t, fd, model, 0.5, 0.5, 0.4);
    ViolationGraph full = ViolationGraph::Build(patterns, t, fd, model, opts);
    indexed += full.candidates_generated() < AllPairs(full.num_patterns());
    setenv("FTREPAIR_FAULT_BUDGET_UNITS", "30", 1);
    Budget budget(1e9);
    ViolationGraph g =
        ViolationGraph::Build(patterns, t, fd, model, opts, &budget);
    unsetenv("FTREPAIR_FAULT_BUDGET_UNITS");
    CheckInvariants(g, seed);
    EXPECT_TRUE(g.truncated()) << "seed=" << seed;
    for (const auto& e : EdgeSet(g)) {
      EXPECT_TRUE(oracle.count(e))
          << "seed=" << seed << " invented edge " << e.first << "-"
          << e.second;
    }
  }
  EXPECT_GT(indexed, 0);
}

TEST(BlockIndexPropertyTest, RandomFDTablesFromSharedHelper) {
  // The shared RandomFDTable generator (different value shapes: keyNN /
  // valNNcC strings) through the same full property check.
  int gram_pruned = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Table t = testing_util::RandomFDTable(50, 2, 7, 18, seed);
    DistanceModel model(t);
    for (double tau : kTaus) {
      gram_pruned += CheckInstance(t, model, 0.5, 0.5, tau, seed);
    }
  }
  EXPECT_GT(gram_pruned, 0);
}

}  // namespace
}  // namespace ftrepair
