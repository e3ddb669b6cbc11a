#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "core/expansion_single.h"
#include "core/greedy_single.h"
#include "test_util.h"

namespace ftrepair {
namespace {

using testing_util::RandomFDTable;

bool IsIndependent(const ViolationGraph& g, const std::vector<int>& set) {
  std::set<int> members(set.begin(), set.end());
  for (int v : set) {
    for (const ViolationGraph::Edge& e : g.Neighbors(v)) {
      if (members.count(e.to)) return false;
    }
  }
  return true;
}

bool IsMaximal(const ViolationGraph& g, const std::vector<int>& set) {
  if (!IsIndependent(g, set)) return false;
  std::set<int> members(set.begin(), set.end());
  for (int v = 0; v < g.num_patterns(); ++v) {
    if (members.count(v)) continue;
    bool conflicts = false;
    for (const ViolationGraph::Edge& e : g.Neighbors(v)) {
      if (members.count(e.to)) {
        conflicts = true;
        break;
      }
    }
    if (!conflicts) return false;  // could be added
  }
  return true;
}

// Brute-force optimal repair cost: enumerate all subsets (graph must be
// small), keep maximal independent ones, evaluate.
double BruteForceOptimal(const ViolationGraph& g) {
  int n = g.num_patterns();
  double best = ViolationGraph::kInfinity;
  for (int mask = 0; mask < (1 << n); ++mask) {
    std::vector<int> set;
    for (int v = 0; v < n; ++v) {
      if (mask & (1 << v)) set.push_back(v);
    }
    if (!IsMaximal(g, set)) continue;
    std::vector<int> target;
    double cost = EvaluateIndependentSet(g, set, &target);
    best = std::min(best, cost);
  }
  return best;
}

ViolationGraph GraphFromTable(const Table& t, const FD& fd,
                              const DistanceModel& model, double tau) {
  return ViolationGraph::Build(BuildPatterns(t, fd.attrs()), t, fd, model,
                               FTOptions{0.5, 0.5, tau});
}

TEST(EnumerateMISTest, FindsAllSetsOfATriangleWithTail) {
  // Manual graph via a table: patterns a~b~c mutually close (triangle)
  // and d adjacent only to c is hard to construct via strings; instead
  // verify counts on random instances against subset brute force.
  Table t = RandomFDTable(30, 2, 4, 8, 3);
  FD fd = std::move(FD::Make({0}, {1})).ValueOrDie();
  DistanceModel model(t);
  ViolationGraph g = GraphFromTable(t, fd, model, 0.6);
  ASSERT_LE(g.num_patterns(), 20);
  ExpansionConfig config;
  config.enumerate_all = true;
  uint64_t expanded = 0, pruned = 0;
  auto sets = std::move(EnumerateMaximalIndependentSets(g, config, &expanded,
                                                        &pruned))
                  .ValueOrDie();
  // Every returned set is maximal independent; and the count matches
  // brute force.
  std::set<std::vector<int>> unique_sets;
  for (const auto& set : sets) {
    EXPECT_TRUE(IsMaximal(g, set));
    unique_sets.insert(set);
  }
  EXPECT_EQ(unique_sets.size(), sets.size()) << "duplicates returned";
  size_t brute = 0;
  int n = g.num_patterns();
  for (int mask = 0; mask < (1 << n); ++mask) {
    std::vector<int> set;
    for (int v = 0; v < n; ++v) {
      if (mask & (1 << v)) set.push_back(v);
    }
    if (IsMaximal(g, set)) ++brute;
  }
  EXPECT_EQ(sets.size(), brute);
}

TEST(ExpansionSingleTest, OptimalOnPaperExample8) {
  // Expansion over phi1 of Table 1: tuples t6, t8 repaired to t4's
  // pattern and t9, t10 to t1's (Example 8 outcome). tau = 0.30 keeps
  // the graph identical to Fig. 2 (0.35 would add a spurious
  // (Bachelors,3)-(Masters,4) edge at 0.34 under our edit distance).
  Table t = testing_util::CitizensDirty();
  std::vector<FD> fds = testing_util::CitizensFDs(t.schema());
  DistanceModel model(t);
  ViolationGraph g = GraphFromTable(t, fds[0], model, 0.30);
  SingleFDSolution solution =
      std::move(SolveExpansionSingle(g, ExpansionConfig{})).ValueOrDie();
  EXPECT_TRUE(IsMaximal(g, solution.chosen_set));
  auto pattern_of = [&](const char* education, double level) {
    for (int i = 0; i < g.num_patterns(); ++i) {
      if (DecodeProjection(t, fds[0].attrs(), g.pattern(i).codes) ==
          std::vector<Value>{Value(education), Value(level)}) {
        return i;
      }
    }
    return -1;
  };
  int bachelors3 = pattern_of("Bachelors", 3);
  int masters4 = pattern_of("Masters", 4);
  int masers4 = pattern_of("Masers", 4);
  int masters3 = pattern_of("Masters", 3);
  int bachelors1 = pattern_of("Bachelors", 1);
  int bachelers3 = pattern_of("Bachelers", 3);
  std::set<int> chosen(solution.chosen_set.begin(),
                       solution.chosen_set.end());
  EXPECT_TRUE(chosen.count(bachelors3));
  EXPECT_TRUE(chosen.count(masters4));
  // Erroneous patterns are repaired to their correct anchors.
  EXPECT_EQ(solution.repair_target[static_cast<size_t>(masers4)], masters4);
  EXPECT_EQ(solution.repair_target[static_cast<size_t>(masters3)], masters4);
  EXPECT_EQ(solution.repair_target[static_cast<size_t>(bachelors1)],
            bachelors3);
  EXPECT_EQ(solution.repair_target[static_cast<size_t>(bachelers3)],
            bachelors3);
}

class ExpansionOptimalityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExpansionOptimalityTest, MatchesBruteForceOnRandomInstances) {
  Table t = RandomFDTable(25, 2, 4, 6, GetParam());
  FD fd = std::move(FD::Make({0}, {1})).ValueOrDie();
  DistanceModel model(t);
  ViolationGraph g = GraphFromTable(t, fd, model, 0.6);
  if (g.num_patterns() > 18) GTEST_SKIP() << "instance too large for 2^n";
  SingleFDSolution solution =
      std::move(SolveExpansionSingle(g, ExpansionConfig{})).ValueOrDie();
  EXPECT_TRUE(IsMaximal(g, solution.chosen_set));
  double brute = BruteForceOptimal(g);
  EXPECT_NEAR(solution.cost, brute, 1e-9);
  // Exact never exceeds greedy (Theorem 2: expansion is optimal).
  SingleFDSolution greedy = SolveGreedySingle(g);
  EXPECT_LE(solution.cost, greedy.cost + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExpansionOptimalityTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(ExpansionSingleTest, RepairTargetsAreChosenNeighbors) {
  Table t = RandomFDTable(40, 2, 5, 12, 42);
  FD fd = std::move(FD::Make({0}, {1})).ValueOrDie();
  DistanceModel model(t);
  ViolationGraph g = GraphFromTable(t, fd, model, 0.6);
  SingleFDSolution solution =
      std::move(SolveExpansionSingle(g, ExpansionConfig{})).ValueOrDie();
  std::set<int> chosen(solution.chosen_set.begin(),
                       solution.chosen_set.end());
  for (int v = 0; v < g.num_patterns(); ++v) {
    int target = solution.repair_target[static_cast<size_t>(v)];
    if (chosen.count(v)) {
      EXPECT_EQ(target, -1);
    } else {
      ASSERT_GE(target, 0);
      EXPECT_TRUE(chosen.count(target));
      bool is_neighbor = false;
      for (const ViolationGraph::Edge& e : g.Neighbors(v)) {
        if (e.to == target) is_neighbor = true;
      }
      EXPECT_TRUE(is_neighbor);
    }
  }
}

TEST(ExpansionSingleTest, FrontierCapReturnsResourceExhausted) {
  // Many independent conflict pairs in ONE connected component are hard
  // to build from strings; instead cap the frontier at 1 on a graph
  // with a component that branches.
  Table t = RandomFDTable(40, 2, 4, 14, 11);
  FD fd = std::move(FD::Make({0}, {1})).ValueOrDie();
  DistanceModel model(t);
  ViolationGraph g = GraphFromTable(t, fd, model, 0.9);
  ExpansionConfig config;
  config.enumerate_all = true;
  config.max_frontier = 1;
  uint64_t expanded = 0, pruned = 0;
  auto result =
      EnumerateMaximalIndependentSets(g, config, &expanded, &pruned);
  // Either the graph is trivially small or the cap trips.
  if (!result.ok()) {
    EXPECT_TRUE(result.status().IsResourceExhausted());
  }
}

TEST(ExpansionSingleTest, EmptyGraph) {
  Table t(Schema({{"a", ValueType::kString}, {"b", ValueType::kString}}));
  FD fd = std::move(FD::Make({0}, {1})).ValueOrDie();
  DistanceModel model(t);
  ViolationGraph g = GraphFromTable(t, fd, model, 0.3);
  SingleFDSolution solution =
      std::move(SolveExpansionSingle(g, ExpansionConfig{})).ValueOrDie();
  EXPECT_TRUE(solution.chosen_set.empty());
  EXPECT_DOUBLE_EQ(solution.cost, 0.0);
}

TEST(EvaluateIndependentSetTest, NonMaximalSetIsInfinity) {
  Table t = testing_util::CitizensDirty();
  std::vector<FD> fds = testing_util::CitizensFDs(t.schema());
  DistanceModel model(t);
  ViolationGraph g = GraphFromTable(t, fds[0], model, 0.35);
  // The empty set is independent but not maximal (unless no patterns).
  std::vector<int> target;
  EXPECT_EQ(EvaluateIndependentSet(g, {}, &target),
            ViolationGraph::kInfinity);
}

}  // namespace
}  // namespace ftrepair
