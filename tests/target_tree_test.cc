#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "common/resource.h"
#include "core/multi_common.h"
#include "core/target_tree.h"
#include "test_util.h"

namespace ftrepair {
namespace {

using testing_util::CitizensDirty;
using testing_util::CitizensFDs;
using testing_util::CodeBook;
using testing_util::QueryTable;

// The paper's Example 13 setup: independent sets for phi2 (City ->
// State) and phi3 (City, Street -> District) over Table 1. The sets'
// values are interned into `book`, whose codes the tree is built over.
struct Example13 {
  Table table = CitizensDirty();
  std::vector<FD> fds = CitizensFDs(table.schema());
  CodeBook book{table.schema()};
  std::vector<TargetTree::LevelInput> inputs;
  std::vector<int> cols;

  Example13() {
    TargetTree::LevelInput phi2;
    phi2.fd = &fds[1];
    phi2.elements = book.Elements(fds[1].attrs(),
                                  {{Value("New York"), Value("NY")},
                                   {Value("Boston"), Value("MA")}});
    TargetTree::LevelInput phi3;
    phi3.fd = &fds[2];
    phi3.elements = book.Elements(
        fds[2].attrs(),
        {{Value("New York"), Value("Main"), Value("Manhattan")},
         {Value("New York"), Value("Western"), Value("Queens")},
         {Value("Boston"), Value("Main"), Value("Financial")},
         {Value("Boston"), Value("Arlingto"), Value("Brookside")}});
    inputs = {phi2, phi3};
    // Component columns: City(3), Street(4), District(5), State(6).
    cols = {3, 4, 5, 6};
  }

  Result<TargetTree> Build(size_t max_nodes) {
    return TargetTree::Build(inputs, cols, max_nodes);
  }
  // A projection over `cols`, as codes / as values.
  std::vector<uint32_t> Proj(const std::vector<Value>& values) {
    return book.Codes(cols, values);
  }
  std::vector<Value> Values(const std::vector<uint32_t>& codes) const {
    return book.Values(cols, codes);
  }
  // The distance table of one query `proj` over `tree`'s domains.
  DistanceTable DistancesOf(const TargetTree& tree,
                      const std::vector<uint32_t>& proj,
                      const DistanceModel& model) const {
    return QueryTable(tree.domains(), proj, book.table(), cols, model);
  }
};

std::vector<Value> Target(const char* city, const char* street,
                          const char* district, const char* state) {
  return {Value(city), Value(street), Value(district), Value(state)};
}

TEST(TargetTreeTest, Example13BuildsFourTargets) {
  Example13 ex;
  TargetTree tree = std::move(ex.Build(100000)).ValueOrDie();
  EXPECT_EQ(tree.num_targets(), 4u);
  std::set<std::vector<Value>> targets;
  for (auto& t : tree.EnumerateTargets()) targets.insert(ex.Values(t));
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
  TargetTree tree = std::move(ex.Build(100000)).ValueOrDie();
  DistanceModel model(ex.table);
  std::vector<uint32_t> t4_proj =
      ex.Proj(Target("New York", "Western", "Queens", "MA"));
  TargetTree::SearchStats stats;
  TargetQuery best = tree.FindBest(ex.DistancesOf(tree, t4_proj, model).Rows(0),
                                   &stats);
  EXPECT_EQ(ex.Values(best.target),
            Target("New York", "Western", "Queens", "NY"));
  EXPECT_DOUBLE_EQ(best.cost, 1.0);  // dist("MA", "NY") = 1
  EXPECT_FALSE(best.truncated);
  EXPECT_GT(stats.nodes_visited, 0u);
}

TEST(TargetTreeTest, Example3SearchRepairsT5) {
  // t5 = (Boston, Main, Manhattan, NY): joint repair picks
  // (New York, Main, Manhattan, NY) — changing City only (§1 Example 3).
  Example13 ex;
  TargetTree tree = std::move(ex.Build(100000)).ValueOrDie();
  DistanceModel model(ex.table);
  std::vector<uint32_t> t5_proj =
      ex.Proj(Target("Boston", "Main", "Manhattan", "NY"));
  TargetTree::SearchStats stats;
  TargetQuery best = tree.FindBest(ex.DistancesOf(tree, t5_proj, model).Rows(0),
                                   &stats);
  EXPECT_EQ(ex.Values(best.target),
            Target("New York", "Main", "Manhattan", "NY"));
}

TEST(TargetTreeTest, SearchMatchesLinearScan) {
  Example13 ex;
  TargetTree tree = std::move(ex.Build(100000)).ValueOrDie();
  DistanceModel model(ex.table);
  std::vector<std::vector<uint32_t>> targets;
  for (const auto& target : tree.EnumerateTargets()) {
    targets.push_back(DomainIndices(tree.domains(), target));
  }
  // Probe with every tuple of the table.
  for (int r = 0; r < ex.table.num_rows(); ++r) {
    std::vector<Value> values;
    for (int c : ex.cols) values.push_back(ex.table.cell(r, c));
    DistanceTable table = ex.DistancesOf(tree, ex.Proj(values), model);
    double linear_cost = 0;
    FindBestTargetLinear(targets, table.Rows(0), &linear_cost);
    EXPECT_NEAR(tree.FindBest(table.Rows(0), nullptr).cost, linear_cost,
                1e-12)
        << "row " << r;
  }
}

TEST(TargetTreeTest, ExhaustedBudgetTruncatesSearch) {
  Example13 ex;
  TargetTree tree = std::move(ex.Build(100000)).ValueOrDie();
  DistanceModel model(ex.table);
  Budget budget;
  budget.Cancel();
  DistanceTable table = ex.DistancesOf(
      tree, ex.Proj(Target("New York", "Western", "Queens", "MA")), model);
  TargetQuery query = tree.FindBest(table.Rows(0), nullptr, &budget);
  EXPECT_TRUE(query.truncated);
  EXPECT_TRUE(query.target.empty());
}

TEST(TargetTreeTest, DisagreeingSetsYieldEmptyJoin) {
  Example13 ex;
  // Restrict phi3 to a Boston element but phi2 to New York only: the
  // join on City is empty.
  ex.inputs[0].elements =
      ex.book.Elements(ex.fds[1].attrs(), {{Value("New York"), Value("NY")}});
  ex.inputs[1].elements = ex.book.Elements(
      ex.fds[2].attrs(),
      {{Value("Boston"), Value("Main"), Value("Financial")}});
  auto result = ex.Build(100000);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound());
}

TEST(TargetTreeTest, DeadNodesReturnTheirMemoryCharge) {
  Example13 ex;
  // A phi2 element no phi3 element agrees with on City: its node is
  // created, then dropped by compaction.
  ex.inputs[0].elements.push_back(
      ex.book.Elements(ex.fds[1].attrs(), {{Value("Chicago"), Value("IL")}})
          .front());
  MemoryBudget memory;
  auto tree = TargetTree::Build(ex.inputs, ex.cols, 100000, &memory);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ(tree.value().num_targets(), 4u);
  // 3 + 4 nodes are created and charged alike (the root is not);
  // only the 2 + 4 live ones stay charged.
  const uint64_t charged = memory.charged_total_bytes();
  ASSERT_EQ(charged % 7, 0u);
  EXPECT_EQ(memory.resident_bytes(), charged / 7 * 6);
}

TEST(TargetTreeTest, NodeCapReturnsResourceExhausted) {
  Example13 ex;
  auto result = ex.Build(3);
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
  DistanceTable table =
      QueryTable(tree.domains(),
                 ex.book.Codes(cols, {Value("Boton"), Value("MA")}),
                 ex.book.table(), cols, model);
  TargetQuery best = tree.FindBest(table.Rows(0), nullptr);
  EXPECT_EQ(ex.book.Values(cols, best.target),
            (std::vector<Value>{Value("Boston"), Value("MA")}));
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
