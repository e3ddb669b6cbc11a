#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/expansion_single.h"
#include "core/greedy_single.h"
#include "gen/error_injector.h"
#include "gen/hosp_gen.h"
#include "gen/tax_gen.h"
#include "test_util.h"

namespace ftrepair {
namespace {

using testing_util::CitizensDirty;
using testing_util::CitizensFDs;
using testing_util::RandomFDTable;

ViolationGraph Phi1Graph(const Table& t, const DistanceModel& model) {
  std::vector<FD> fds = CitizensFDs(t.schema());
  // tau = 0.30 reproduces the Fig. 2 graph exactly (see
  // expansion_single_test.cc for the 0.34 cross-cluster pair).
  return ViolationGraph::Build(BuildPatterns(t, fds[0].attrs()), t, fds[0],
                               model, FTOptions{0.5, 0.5, 0.30});
}

// Pattern id of a phi1 graph over `t` whose values match (education,
// level); -1 if absent.
int PatternOf(const ViolationGraph& g, const Table& t, const char* education,
              double level) {
  const std::vector<int> cols = CitizensFDs(t.schema())[0].attrs();
  for (int i = 0; i < g.num_patterns(); ++i) {
    if (DecodeProjection(t, cols, g.pattern(i).codes) ==
        std::vector<Value>{Value(education), Value(level)}) {
      return i;
    }
  }
  return -1;
}

TEST(GreedySingleTest, PaperExample9Outcome) {
  // Greedy-S over phi1 ends with the correct anchors chosen and
  // t9, t10 modified to t1's pattern, t6, t8 to t4's (Example 9).
  Table t = CitizensDirty();
  DistanceModel model(t);
  ViolationGraph g = Phi1Graph(t, model);
  SingleFDSolution solution = SolveGreedySingle(g);
  std::set<int> chosen(solution.chosen_set.begin(),
                       solution.chosen_set.end());
  int bachelors3 = PatternOf(g, t, "Bachelors", 3);
  int masters4 = PatternOf(g, t, "Masters", 4);
  int hsgrad9 = PatternOf(g, t, "HS-grad", 9);
  EXPECT_TRUE(chosen.count(bachelors3));
  EXPECT_TRUE(chosen.count(masters4));
  EXPECT_TRUE(chosen.count(hsgrad9));  // isolated: always kept
  EXPECT_EQ(solution.repair_target[static_cast<size_t>(
                PatternOf(g, t, "Masers", 4))],
            masters4);
  EXPECT_EQ(solution.repair_target[static_cast<size_t>(
                PatternOf(g, t, "Masters", 3))],
            masters4);
  EXPECT_EQ(solution.repair_target[static_cast<size_t>(
                PatternOf(g, t, "Bachelors", 1))],
            bachelors3);
  EXPECT_EQ(solution.repair_target[static_cast<size_t>(
                PatternOf(g, t, "Bachelers", 3))],
            bachelors3);
}

class GreedyPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GreedyPropertyTest, ChosenSetIsMaximalIndependent) {
  Table t = RandomFDTable(50, 3, 6, 15, GetParam());
  FD fd = std::move(FD::Make({0, 2}, {1})).ValueOrDie();
  DistanceModel model(t);
  ViolationGraph g = ViolationGraph::Build(
      BuildPatterns(t, fd.attrs()), t, fd, model, FTOptions{0.5, 0.5, 0.5});
  SingleFDSolution solution = SolveGreedySingle(g);
  std::set<int> chosen(solution.chosen_set.begin(),
                       solution.chosen_set.end());
  // Independence.
  for (int v : solution.chosen_set) {
    for (const ViolationGraph::Edge& e : g.Neighbors(v)) {
      EXPECT_FALSE(chosen.count(e.to))
          << "edge inside chosen set: " << v << "-" << e.to;
    }
  }
  // Maximality + targets are chosen neighbors.
  for (int v = 0; v < g.num_patterns(); ++v) {
    if (chosen.count(v)) {
      EXPECT_EQ(solution.repair_target[static_cast<size_t>(v)], -1);
      continue;
    }
    int target = solution.repair_target[static_cast<size_t>(v)];
    ASSERT_GE(target, 0) << "excluded pattern without repair target";
    EXPECT_TRUE(chosen.count(target));
  }
}

TEST_P(GreedyPropertyTest, CostNeverBeatsExact) {
  Table t = RandomFDTable(25, 2, 4, 6, GetParam() * 7 + 3);
  FD fd = std::move(FD::Make({0}, {1})).ValueOrDie();
  DistanceModel model(t);
  ViolationGraph g = ViolationGraph::Build(
      BuildPatterns(t, fd.attrs()), t, fd, model, FTOptions{0.5, 0.5, 0.6});
  SingleFDSolution greedy = SolveGreedySingle(g);
  auto exact = SolveExpansionSingle(g, ExpansionConfig{});
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_GE(greedy.cost + 1e-9, exact.value().cost);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(GreedySingleTest, DeterministicAcrossRuns) {
  Table t = RandomFDTable(60, 2, 8, 20, 5);
  FD fd = std::move(FD::Make({0}, {1})).ValueOrDie();
  DistanceModel model(t);
  ViolationGraph g = ViolationGraph::Build(
      BuildPatterns(t, fd.attrs()), t, fd, model, FTOptions{0.5, 0.5, 0.5});
  SingleFDSolution a = SolveGreedySingle(g);
  SingleFDSolution b = SolveGreedySingle(g);
  EXPECT_EQ(a.chosen_set, b.chosen_set);
  EXPECT_EQ(a.repair_target, b.repair_target);
  EXPECT_DOUBLE_EQ(a.cost, b.cost);
}

TEST(GreedySingleTest, EmptyGraph) {
  Table t(Schema({{"a", ValueType::kString}, {"b", ValueType::kString}}));
  FD fd = std::move(FD::Make({0}, {1})).ValueOrDie();
  DistanceModel model(t);
  ViolationGraph g = ViolationGraph::Build({}, t, fd, model,
                                           FTOptions{0.5, 0.5, 0.3});
  SingleFDSolution solution = SolveGreedySingle(g);
  EXPECT_TRUE(solution.chosen_set.empty());
  EXPECT_DOUBLE_EQ(solution.cost, 0.0);
}

TEST(GreedySingleTest, HighFrequencyPatternWins) {
  // One frequent correct pattern vs a singleton typo: greedy must keep
  // the frequent one and repair the typo toward it.
  Table t(Schema({{"k", ValueType::kString}, {"v", ValueType::kString}}));
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(t.AppendRow({Value("aaaaaa"), Value("right")}).ok());
  }
  ASSERT_TRUE(t.AppendRow({Value("aaaaab"), Value("right")}).ok());
  FD fd = std::move(FD::Make({0}, {1})).ValueOrDie();
  DistanceModel model(t);
  ViolationGraph g = ViolationGraph::Build(
      BuildPatterns(t, fd.attrs()), t, fd, model, FTOptions{0.5, 0.5, 0.3});
  ASSERT_EQ(g.num_patterns(), 2);
  SingleFDSolution solution = SolveGreedySingle(g);
  ASSERT_EQ(solution.chosen_set.size(), 1u);
  int kept = solution.chosen_set[0];
  EXPECT_EQ(t.dictionary(0).value(g.pattern(kept).codes[0]), Value("aaaaaa"));
  EXPECT_EQ(solution.repair_target[static_cast<size_t>(1 - kept)], kept);
}

// ---------------------------------------------------------------------------
// Differential suite: the production grow loop uses a lazy-deletion
// priority queue; this is the historical full-rescan implementation it
// replaced, kept verbatim as the reference oracle. The two must select
// bit-identical solutions on every graph.

SingleFDSolution ReferenceGreedySingle(const ViolationGraph& graph,
                                       const std::vector<bool>* forced =
                                           nullptr) {
  SingleFDSolution solution;
  int n = graph.num_patterns();
  solution.repair_target.assign(static_cast<size_t>(n), -1);
  if (n == 0) return solution;
  constexpr double kInf = ViolationGraph::kInfinity;
  std::vector<bool> in_set(static_cast<size_t>(n), false);
  std::vector<int> blocked(static_cast<size_t>(n), 0);
  std::vector<double> best(static_cast<size_t>(n), kInf);
  std::vector<int> best_to(static_cast<size_t>(n), -1);
  int pending = 0;
  for (int v = 0; v < n; ++v) {
    if (graph.degree(v) == 0) {
      in_set[static_cast<size_t>(v)] = true;
      solution.chosen_set.push_back(v);
    } else {
      ++pending;
    }
  }
  auto add_member = [&](int t) {
    in_set[static_cast<size_t>(t)] = true;
    solution.chosen_set.push_back(t);
    --pending;
    for (const ViolationGraph::Edge& e : graph.Neighbors(t)) {
      ++blocked[static_cast<size_t>(e.to)];
      if (e.unit_cost < best[static_cast<size_t>(e.to)]) {
        best[static_cast<size_t>(e.to)] = e.unit_cost;
        best_to[static_cast<size_t>(e.to)] = t;
      }
    }
  };
  if (forced != nullptr) {
    for (int t = 0; t < n; ++t) {
      if (!(*forced)[static_cast<size_t>(t)] ||
          in_set[static_cast<size_t>(t)]) {
        continue;
      }
      add_member(t);
    }
  }
  auto regret = [&graph](int t) {
    double mec = graph.MinEdgeCost(t);
    return mec == kInf ? 0.0 : graph.pattern(t).count() * mec;
  };
  if (pending > 0) {
    int first = -1;
    double first_cost = kInf;
    for (int t = 0; t < n; ++t) {
      if (in_set[static_cast<size_t>(t)] ||
          blocked[static_cast<size_t>(t)] != 0) {
        continue;
      }
      double s = 0;
      for (const ViolationGraph::Edge& e : graph.Neighbors(t)) {
        s += graph.pattern(e.to).count() * e.unit_cost;
      }
      s -= regret(t);
      if (s < first_cost) {
        first_cost = s;
        first = t;
      }
    }
    if (first >= 0) add_member(first);
  }
  while (pending > 0) {
    int pick = -1;
    double pick_cost = kInf;
    for (int t = 0; t < n; ++t) {
      if (in_set[static_cast<size_t>(t)] ||
          blocked[static_cast<size_t>(t)] != 0) {
        continue;
      }
      double s = 0;
      for (const ViolationGraph::Edge& e : graph.Neighbors(t)) {
        int v = e.to;
        double m = graph.pattern(v).count();
        if (best[static_cast<size_t>(v)] == kInf) {
          s += m * e.unit_cost;
        } else if (e.unit_cost < best[static_cast<size_t>(v)]) {
          s += m * (e.unit_cost - best[static_cast<size_t>(v)]);
        }
      }
      s -= regret(t);
      if (s < pick_cost) {
        pick_cost = s;
        pick = t;
      }
    }
    if (pick < 0) break;
    add_member(pick);
  }
  solution.cost = 0;
  for (int v = 0; v < n; ++v) {
    if (in_set[static_cast<size_t>(v)]) continue;
    if (best[static_cast<size_t>(v)] == kInf) continue;
    solution.repair_target[static_cast<size_t>(v)] =
        best_to[static_cast<size_t>(v)];
    solution.cost += graph.pattern(v).count() * best[static_cast<size_t>(v)];
  }
  std::sort(solution.chosen_set.begin(), solution.chosen_set.end());
  return solution;
}

void ExpectSameSolution(const ViolationGraph& g,
                        const std::vector<bool>* forced = nullptr) {
  SingleFDSolution reference = ReferenceGreedySingle(g, forced);
  SingleFDSolution got = SolveGreedySingle(g, forced);
  EXPECT_EQ(reference.chosen_set, got.chosen_set);
  EXPECT_EQ(reference.repair_target, got.repair_target);
  EXPECT_EQ(reference.cost, got.cost);  // exact: same FP operation order
}

TEST(GreedyDifferentialTest, MatchesFullRescanOnCitizens) {
  Table t = CitizensDirty();
  DistanceModel model(t);
  ExpectSameSolution(Phi1Graph(t, model));
}

TEST(GreedyDifferentialTest, MatchesFullRescanOnGenerators) {
  for (bool hosp : {true, false}) {
    Dataset ds =
        hosp ? std::move(GenerateHosp({.num_rows = 500, .seed = 13}))
                   .ValueOrDie()
             : std::move(GenerateTax({.num_rows = 500, .seed = 13}))
                   .ValueOrDie();
    NoiseOptions noise;
    noise.error_rate = 0.06;
    noise.seed = 17;
    Table dirty = std::move(InjectErrors(ds.clean, ds.fds, noise, nullptr))
                      .ValueOrDie();
    DistanceModel model(dirty);
    for (const FD& fd : ds.fds) {
      ViolationGraph g = ViolationGraph::Build(
          BuildPatterns(dirty, fd.attrs()), dirty, fd, model,
          FTOptions{ds.recommended_w_l, ds.recommended_w_r,
                    ds.recommended_tau.at(fd.name())});
      SCOPED_TRACE((hosp ? std::string("hosp fd=") : std::string("tax fd=")) +
                   fd.name());
      ExpectSameSolution(g);
    }
  }
}

TEST(GreedyDifferentialTest, MatchesFullRescanOnRandomTables) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Table t = RandomFDTable(300, 3, 40, 60, seed);
    FD fd = std::move(FD::Make({0}, {1})).ValueOrDie();
    DistanceModel model(t);
    ViolationGraph g = ViolationGraph::Build(
        BuildPatterns(t, fd.attrs()), t, fd, model, FTOptions{0.5, 0.5, 0.45});
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ExpectSameSolution(g);
    // Also with a forced mask pinning a slice of the patterns.
    std::vector<bool> forced(static_cast<size_t>(g.num_patterns()), false);
    for (int i = 0; i < g.num_patterns(); i += 5) {
      forced[static_cast<size_t>(i)] = true;
    }
    ExpectSameSolution(g, &forced);
  }
}

}  // namespace
}  // namespace ftrepair
