#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "core/multi_common.h"
#include "core/target_tree.h"
#include "test_util.h"

namespace ftrepair {
namespace {

using testing_util::CitizensDirty;
using testing_util::CitizensFDs;

// The paper's Example 13 setup: independent sets for phi2 (City ->
// State) and phi3 (City, Street -> District) over Table 1.
struct Example13 {
  Table table = CitizensDirty();
  std::vector<FD> fds = CitizensFDs(table.schema());
  std::vector<TargetTree::LevelInput> inputs;
  std::vector<int> cols;

  Example13() {
    TargetTree::LevelInput phi2;
    phi2.fd = &fds[1];
    phi2.elements = {{Value("New York"), Value("NY")},
                     {Value("Boston"), Value("MA")}};
    TargetTree::LevelInput phi3;
    phi3.fd = &fds[2];
    phi3.elements = {
        {Value("New York"), Value("Main"), Value("Manhattan")},
        {Value("New York"), Value("Western"), Value("Queens")},
        {Value("Boston"), Value("Main"), Value("Financial")},
        {Value("Boston"), Value("Arlingto"), Value("Brookside")}};
    inputs = {phi2, phi3};
    // Component columns: City(3), Street(4), District(5), State(6).
    cols = {3, 4, 5, 6};
  }
};

std::vector<Value> Target(const char* city, const char* street,
                          const char* district, const char* state) {
  return {Value(city), Value(street), Value(district), Value(state)};
}

TEST(TargetTreeTest, Example13BuildsFourTargets) {
  Example13 ex;
  TargetTree tree =
      std::move(TargetTree::Build(ex.inputs, ex.cols, 100000)).ValueOrDie();
  EXPECT_EQ(tree.num_targets(), 4u);
  std::set<std::vector<Value>> targets;
  for (auto& t : tree.EnumerateTargets()) targets.insert(t);
  EXPECT_TRUE(targets.count(Target("New York", "Main", "Manhattan", "NY")));
  EXPECT_TRUE(targets.count(Target("New York", "Western", "Queens", "NY")));
  EXPECT_TRUE(targets.count(Target("Boston", "Main", "Financial", "MA")));
  EXPECT_TRUE(
      targets.count(Target("Boston", "Arlingto", "Brookside", "MA")));
}

TEST(TargetTreeTest, Example14SearchRepairsT4) {
  // t4 = (New York, Western, Queens, MA); the best target keeps the
  // first three values and fixes State to NY, at cost dist(NY, MA) = 1.
  Example13 ex;
  TargetTree tree =
      std::move(TargetTree::Build(ex.inputs, ex.cols, 100000)).ValueOrDie();
  DistanceModel model(ex.table);
  std::vector<Value> t4_proj = Target("New York", "Western", "Queens", "MA");
  TargetTree::SearchStats stats;
  TargetQuery best = tree.FindBest(t4_proj, model, &stats);
  EXPECT_EQ(best.target, Target("New York", "Western", "Queens", "NY"));
  EXPECT_DOUBLE_EQ(best.cost, 1.0);  // dist("MA", "NY") = 1
  EXPECT_FALSE(best.truncated);
  EXPECT_GT(stats.nodes_visited, 0u);
}

TEST(TargetTreeTest, Example3SearchRepairsT5) {
  // t5 = (Boston, Main, Manhattan, NY): joint repair picks
  // (New York, Main, Manhattan, NY) — changing City only (§1 Example 3).
  Example13 ex;
  TargetTree tree =
      std::move(TargetTree::Build(ex.inputs, ex.cols, 100000)).ValueOrDie();
  DistanceModel model(ex.table);
  std::vector<Value> t5_proj = Target("Boston", "Main", "Manhattan", "NY");
  TargetTree::SearchStats stats;
  TargetQuery best = tree.FindBest(t5_proj, model, &stats);
  EXPECT_EQ(best.target, Target("New York", "Main", "Manhattan", "NY"));
}

TEST(TargetTreeTest, SearchMatchesLinearScan) {
  Example13 ex;
  TargetTree tree =
      std::move(TargetTree::Build(ex.inputs, ex.cols, 100000)).ValueOrDie();
  DistanceModel model(ex.table);
  std::vector<std::vector<Value>> targets = tree.EnumerateTargets();
  // Probe with every tuple of the table.
  for (int r = 0; r < ex.table.num_rows(); ++r) {
    std::vector<Value> proj;
    for (int c : ex.cols) proj.push_back(ex.table.cell(r, c));
    double linear_cost = 0;
    FindBestTargetLinear(targets, proj, ex.cols, model, &linear_cost);
    EXPECT_NEAR(tree.FindBest(proj, model, nullptr).cost, linear_cost, 1e-12)
        << "row " << r;
  }
}

TEST(TargetTreeTest, ExhaustedBudgetTruncatesSearch) {
  Example13 ex;
  TargetTree tree =
      std::move(TargetTree::Build(ex.inputs, ex.cols, 100000)).ValueOrDie();
  DistanceModel model(ex.table);
  Budget budget;
  budget.Cancel();
  TargetQuery query =
      tree.FindBest(Target("New York", "Western", "Queens", "MA"), model,
                    nullptr, &budget);
  EXPECT_TRUE(query.truncated);
  EXPECT_TRUE(query.target.empty());
}

TEST(TargetTreeTest, DisagreeingSetsYieldEmptyJoin) {
  Example13 ex;
  // Restrict phi3 to a Boston element but phi2 to New York only: the
  // join on City is empty.
  ex.inputs[0].elements = {{Value("New York"), Value("NY")}};
  ex.inputs[1].elements = {
      {Value("Boston"), Value("Main"), Value("Financial")}};
  auto result = TargetTree::Build(ex.inputs, ex.cols, 100000);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound());
}

TEST(TargetTreeTest, NodeCapReturnsResourceExhausted) {
  Example13 ex;
  auto result = TargetTree::Build(ex.inputs, ex.cols, 3);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted());
}

TEST(TargetTreeTest, SingleLevelTree) {
  Example13 ex;
  std::vector<TargetTree::LevelInput> inputs = {ex.inputs[0]};
  std::vector<int> cols = {3, 6};  // City, State
  TargetTree tree =
      std::move(TargetTree::Build(inputs, cols, 1000)).ValueOrDie();
  EXPECT_EQ(tree.num_targets(), 2u);
  DistanceModel model(ex.table);
  TargetQuery best =
      tree.FindBest({Value("Boton"), Value("MA")}, model, nullptr);
  EXPECT_EQ(best.target, (std::vector<Value>{Value("Boston"), Value("MA")}));
  EXPECT_NEAR(best.cost, 1.0 / 6.0, 1e-12);  // edit(Boton, Boston) = 1/6
}

TEST(TargetTreeTest, UncoveredColumnIsError) {
  Example13 ex;
  std::vector<TargetTree::LevelInput> inputs = {ex.inputs[0]};
  // Street (4) is covered by no FD here.
  auto result = TargetTree::Build(inputs, {3, 4, 6}, 1000);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(TargetTreeTest, NoInputsIsError) {
  auto result = TargetTree::Build({}, {0}, 10);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

}  // namespace
}  // namespace ftrepair
