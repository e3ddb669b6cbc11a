#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/lazy_targets.h"
#include "core/multi_common.h"
#include "test_util.h"

namespace ftrepair {
namespace {

using testing_util::CitizensDirty;
using testing_util::CitizensFDs;
using testing_util::CodeBook;
using testing_util::QueryTable;

// Example 13's independent sets (see target_tree_test.cc), interned
// into `book`.
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
    cols = {3, 4, 5, 6};
  }
};

TEST(LazyTargetsTest, MatchesEagerTreeCosts) {
  Example13 ex;
  TargetTree tree =
      std::move(TargetTree::Build(ex.inputs, ex.cols, 100000)).ValueOrDie();
  LazyTargetSearch lazy =
      std::move(LazyTargetSearch::Build(ex.inputs, ex.cols)).ValueOrDie();
  DistanceModel model(ex.table);
  for (int r = 0; r < ex.table.num_rows(); ++r) {
    std::vector<Value> values;
    for (int c : ex.cols) values.push_back(ex.table.cell(r, c));
    std::vector<uint32_t> proj = ex.book.Codes(ex.cols, values);
    DistanceTable eager_table =
        QueryTable(tree.domains(), proj, ex.book.table(), ex.cols, model);
    DistanceTable lazy_table =
        QueryTable(lazy.domains(), proj, ex.book.table(), ex.cols, model);
    TargetQuery eager_result = tree.FindBest(eager_table.Rows(0), nullptr);
    TargetQuery lazy_result =
        lazy.FindBest(lazy_table.Rows(0), 100000, nullptr);
    ASSERT_FALSE(lazy_result.target.empty());
    EXPECT_FALSE(lazy_result.truncated);
    EXPECT_NEAR(lazy_result.cost, eager_result.cost, 1e-12) << "row " << r;
  }
}

TEST(LazyTargetsTest, MatchesEagerOnRandomInstances) {
  // Random sets over three overlapping synthetic FDs.
  Schema schema({{"a", ValueType::kString},
                 {"b", ValueType::kString},
                 {"c", ValueType::kString},
                 {"d", ValueType::kString}});
  FD f1 = std::move(FD::Make({0}, {1}, "f1")).ValueOrDie();
  FD f2 = std::move(FD::Make({1}, {2}, "f2")).ValueOrDie();
  FD f3 = std::move(FD::Make({2}, {3}, "f3")).ValueOrDie();
  Table table(schema);  // only used for the distance model
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(table
                    .AppendRow({Value("a" + std::to_string(i)),
                                Value("b" + std::to_string(i)),
                                Value("c" + std::to_string(i)),
                                Value("d" + std::to_string(i))})
                    .ok());
  }
  DistanceModel model(table);
  CodeBook book(schema);
  Rng rng(17);
  for (int iter = 0; iter < 20; ++iter) {
    auto rnd = [&rng](const char* prefix) {
      return Value(std::string(prefix) + std::to_string(rng.Index(4)));
    };
    std::vector<TargetTree::LevelInput> inputs(3);
    inputs[0].fd = &f1;
    inputs[1].fd = &f2;
    inputs[2].fd = &f3;
    for (int e = 0; e < 6; ++e) {
      inputs[0].elements.push_back(
          book.Codes(f1.attrs(), {rnd("a"), rnd("b")}));
      inputs[1].elements.push_back(
          book.Codes(f2.attrs(), {rnd("b"), rnd("c")}));
      inputs[2].elements.push_back(
          book.Codes(f3.attrs(), {rnd("c"), rnd("d")}));
    }
    std::vector<int> cols = {0, 1, 2, 3};
    auto eager = TargetTree::Build(inputs, cols, 1000000);
    auto lazy = LazyTargetSearch::Build(inputs, cols);
    if (!eager.ok()) {
      // Empty joins must agree (the lazy prefilter is a relaxation, so
      // it may only fail to *prove* emptiness, not invent targets).
      ASSERT_TRUE(eager.status().IsNotFound());
      if (lazy.ok()) {
        DistanceTable table = QueryTable(
            lazy.value().domains(),
            book.Codes(cols,
                       {Value("a0"), Value("b0"), Value("c0"), Value("d0")}),
            book.table(), cols, model);
        TargetQuery q = lazy.value().FindBest(table.Rows(0), 100000, nullptr);
        EXPECT_TRUE(q.target.empty());
      }
      continue;
    }
    ASSERT_TRUE(lazy.ok()) << lazy.status().ToString();
    std::vector<uint32_t> probe =
        book.Codes(cols, {rnd("a"), rnd("b"), rnd("c"), rnd("d")});
    DistanceTable eager_table =
        QueryTable(eager.value().domains(), probe, book.table(), cols, model);
    DistanceTable lazy_table =
        QueryTable(lazy.value().domains(), probe, book.table(), cols, model);
    TargetQuery eager_q = eager.value().FindBest(eager_table.Rows(0), nullptr);
    TargetQuery q = lazy.value().FindBest(lazy_table.Rows(0), 100000, nullptr);
    ASSERT_FALSE(q.target.empty());
    EXPECT_NEAR(q.cost, eager_q.cost, 1e-12) << "iter " << iter;
  }
}

TEST(LazyTargetsTest, PairwisePrefilterDetectsEmptyJoin) {
  Example13 ex;
  ex.inputs[0].elements =
      ex.book.Elements(ex.fds[1].attrs(), {{Value("New York"), Value("NY")}});
  ex.inputs[1].elements = ex.book.Elements(
      ex.fds[2].attrs(),
      {{Value("Boston"), Value("Main"), Value("Financial")}});
  auto result = LazyTargetSearch::Build(ex.inputs, ex.cols);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound());
}

TEST(LazyTargetsTest, VisitBudgetTruncates) {
  Example13 ex;
  LazyTargetSearch lazy =
      std::move(LazyTargetSearch::Build(ex.inputs, ex.cols)).ValueOrDie();
  DistanceModel model(ex.table);
  std::vector<uint32_t> proj = ex.book.Codes(
      ex.cols,
      {Value("Boston"), Value("Main"), Value("Manhattan"), Value("NY")});
  DistanceTable table =
      QueryTable(lazy.domains(), proj, ex.book.table(), ex.cols, model);
  TargetQuery q = lazy.FindBest(table.Rows(0), 1, nullptr);
  EXPECT_TRUE(q.truncated || !q.target.empty());
}

TEST(LazyTargetsTest, UncoveredColumnIsError) {
  Example13 ex;
  std::vector<TargetTree::LevelInput> inputs = {ex.inputs[0]};
  auto result = LazyTargetSearch::Build(inputs, {3, 4, 6});
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

}  // namespace
}  // namespace ftrepair
