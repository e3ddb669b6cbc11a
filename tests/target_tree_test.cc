#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/resource.h"
#include "common/rng.h"
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
  // created, and not kept.
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

TEST(TargetTreeTest, FailedBuildReturnsItsCharge) {
  {
    // The node cap: three nodes are created and charged before the
    // fourth would pass it.
    Example13 ex;
    MemoryBudget memory;
    auto result = TargetTree::Build(ex.inputs, ex.cols, 4, &memory);
    ASSERT_TRUE(result.status().IsResourceExhausted());
    EXPECT_GT(memory.charged_total_bytes(), 0u);
    EXPECT_EQ(memory.resident_bytes(), 0u);
  }
  {
    // An empty join: the phi2 node is created, no phi3 node agrees.
    Example13 ex;
    ex.inputs[0].elements = ex.book.Elements(
        ex.fds[1].attrs(), {{Value("New York"), Value("NY")}});
    ex.inputs[1].elements = ex.book.Elements(
        ex.fds[2].attrs(),
        {{Value("Boston"), Value("Main"), Value("Financial")}});
    MemoryBudget memory;
    auto result = TargetTree::Build(ex.inputs, ex.cols, 100000, &memory);
    ASSERT_TRUE(result.status().IsNotFound());
    EXPECT_GT(memory.charged_total_bytes(), 0u);
    EXPECT_EQ(memory.resident_bytes(), 0u);
  }
  {
    // The memory budget runs out after the first node.
    Example13 ex;
    MemoryBudget unlimited;
    auto built = TargetTree::Build(ex.inputs, ex.cols, 100000, &unlimited);
    ASSERT_TRUE(built.ok());
    const uint64_t node_bytes = unlimited.charged_total_bytes() / 6;
    MemoryBudget memory(node_bytes + node_bytes / 2);
    auto result = TargetTree::Build(ex.inputs, ex.cols, 100000, &memory);
    ASSERT_TRUE(result.status().IsResourceExhausted());
    EXPECT_TRUE(memory.Exhausted());
    EXPECT_EQ(memory.resident_bytes(), 0u);
  }
}

// Reference for the live-only build: a nested-loop join over the levels
// in build order (independent-set size ascending, stable), one element
// per level, agreeing wherever two FDs share a column.
struct NestedLoopJoin {
  /// Complete paths as codes over `cols`, element indices ascending
  /// level by level (lexicographic).
  std::vector<std::vector<uint32_t>> targets;
  /// Trie nodes the join creates (agreeing prefixes) and the ones on a
  /// complete path, the root included in both.
  uint64_t created = 1;
  uint64_t kept = 1;

  NestedLoopJoin(std::vector<TargetTree::LevelInput> inputs,
                 const std::vector<int>& cols) {
    std::stable_sort(inputs.begin(), inputs.end(),
                     [](const TargetTree::LevelInput& a,
                        const TargetTree::LevelInput& b) {
                       return a.elements.size() < b.elements.size();
                     });
    constexpr uint32_t kUnset = UINT32_MAX;
    std::vector<uint32_t> partial(cols.size(), kUnset);
    std::set<std::vector<size_t>> kept_prefixes;
    std::vector<size_t> prefix;
    auto join = [&](auto&& self, size_t level) -> void {
      if (level == inputs.size()) {
        targets.push_back(partial);
        for (size_t l = 1; l <= prefix.size(); ++l) {
          kept_prefixes.emplace(prefix.begin(),
                                prefix.begin() + static_cast<long>(l));
        }
        return;
      }
      const std::vector<int>& attrs = inputs[level].fd->attrs();
      for (size_t e = 0; e < inputs[level].elements.size(); ++e) {
        const std::vector<uint32_t>& elem = inputs[level].elements[e];
        std::vector<uint32_t> saved = partial;
        bool agrees = true;
        for (size_t a = 0; a < attrs.size() && agrees; ++a) {
          size_t pos = static_cast<size_t>(
              std::find(cols.begin(), cols.end(), attrs[a]) - cols.begin());
          agrees = partial[pos] == kUnset || partial[pos] == elem[a];
          partial[pos] = elem[a];
        }
        if (agrees) {
          ++created;
          prefix.push_back(e);
          self(self, level + 1);
          prefix.pop_back();
        }
        partial = std::move(saved);
      }
    };
    join(join, 0);
    kept += kept_prefixes.size();
  }

  std::vector<std::vector<uint32_t>> Domains(size_t width) const {
    std::vector<std::vector<uint32_t>> domains(width);
    for (size_t p = 0; p < width; ++p) {
      std::set<uint32_t> codes;
      for (const std::vector<uint32_t>& target : targets) {
        codes.insert(target[p]);
      }
      domains[p].assign(codes.begin(), codes.end());
    }
    return domains;
  }
};

TEST(TargetTreeTest, LiveOnlyBuildMatchesNestedLoopJoin) {
  Schema schema({{"a", ValueType::kString},
                 {"b", ValueType::kString},
                 {"c", ValueType::kString},
                 {"d", ValueType::kString},
                 {"e", ValueType::kString},
                 {"f", ValueType::kString}});
  // f1 and f2 share no column, and their sets are the smallest, so the
  // second level is a cross product of the first two (HOSP's shape,
  // where most created nodes die); f3 ties them together.
  FD f1 = std::move(FD::Make({0}, {1}, "f1")).ValueOrDie();
  FD f2 = std::move(FD::Make({2}, {3}, "f2")).ValueOrDie();
  FD f3 = std::move(FD::Make({1, 3}, {4}, "f3")).ValueOrDie();
  FD f4 = std::move(FD::Make({4}, {5}, "f4")).ValueOrDie();
  Table model_table(schema);
  ASSERT_TRUE(model_table.AppendRow(Row(6)).ok());
  DistanceModel model(model_table);
  CodeBook book(schema);
  const std::vector<int> cols = {0, 1, 2, 3, 4, 5};
  Rng rng(23);
  auto rnd = [&rng](int column) {
    std::string s(1, static_cast<char>('a' + column));
    s += std::to_string(rng.Index(4));
    return Value(s);
  };
  Counter* created_counter =
      Metrics().GetCounter("ftrepair.targets.tree_nodes");
  Counter* kept_counter =
      Metrics().GetCounter("ftrepair.targets.tree_live_nodes");
  int nonempty = 0;
  int mostly_dead = 0;  // builds that keep under half the nodes created
  for (int iter = 0; iter < 80; ++iter) {
    std::vector<TargetTree::LevelInput> inputs(4);
    inputs[0].fd = &f1;
    inputs[1].fd = &f2;
    inputs[2].fd = &f3;
    inputs[3].fd = &f4;
    const size_t sizes[4] = {2 + rng.Index(6), 2 + rng.Index(6),
                             8 + rng.Index(8), 8 + rng.Index(10)};
    for (size_t k = 0; k < 4; ++k) {
      const std::vector<int>& attrs = inputs[k].fd->attrs();
      for (size_t e = 0; e < sizes[k]; ++e) {
        std::vector<Value> values;
        for (int c : attrs) values.push_back(rnd(c));
        inputs[k].elements.push_back(book.Codes(attrs, values));
      }
    }
    const NestedLoopJoin want(inputs, cols);

    MemoryBudget memory;
    const uint64_t created_before = created_counter->value();
    const uint64_t kept_before = kept_counter->value();
    auto built = TargetTree::Build(inputs, cols, 1'000'000, &memory);
    if (want.targets.empty()) {
      EXPECT_TRUE(built.status().IsNotFound()) << "iter " << iter;
      EXPECT_EQ(memory.resident_bytes(), 0u) << "iter " << iter;
      continue;
    }
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    ++nonempty;
    if (want.created > 2 * want.kept) ++mostly_dead;
    const TargetTree& tree = built.value();
    EXPECT_EQ(created_counter->value() - created_before, want.created)
        << "iter " << iter;
    EXPECT_EQ(kept_counter->value() - kept_before, want.kept)
        << "iter " << iter;
    // Every created node is charged alike; only the kept ones (the root
    // is never charged) stay resident.
    ASSERT_EQ(memory.charged_total_bytes() % (want.created - 1), 0u);
    EXPECT_EQ(memory.resident_bytes(),
              memory.charged_total_bytes() / (want.created - 1) *
                  (want.kept - 1))
        << "iter " << iter;
    EXPECT_EQ(tree.num_targets(), want.targets.size());
    EXPECT_EQ(tree.domains(), want.Domains(cols.size()));
    // EnumerateTargets pops the last child first: the reverse of the
    // lexicographic order, as over the breadth-first build.
    std::vector<std::vector<uint32_t>> enumerated = tree.EnumerateTargets();
    EXPECT_EQ(enumerated, std::vector<std::vector<uint32_t>>(
                              want.targets.rbegin(), want.targets.rend()))
        << "iter " << iter;

    std::vector<std::vector<uint32_t>> indices;
    for (const std::vector<uint32_t>& target : enumerated) {
      indices.push_back(DomainIndices(tree.domains(), target));
    }
    for (int probe = 0; probe < 4; ++probe) {
      std::vector<Value> values;
      for (int c : cols) values.push_back(rnd(c));
      DistanceTable table = QueryTable(tree.domains(), book.Codes(cols, values),
                                       book.table(), cols, model);
      double linear_cost = 0;
      FindBestTargetLinear(indices, table.Rows(0), &linear_cost);
      EXPECT_NEAR(tree.FindBest(table.Rows(0), nullptr).cost, linear_cost,
                  1e-12)
          << "iter " << iter << ", probe " << probe;
    }

    // The cap counts created nodes, the root included: the created
    // count passes and one less fails, charging nothing that stays.
    MemoryBudget capped;
    EXPECT_TRUE(TargetTree::Build(inputs, cols, want.created).ok())
        << "iter " << iter;
    EXPECT_TRUE(TargetTree::Build(inputs, cols, want.created - 1, &capped)
                    .status()
                    .IsResourceExhausted())
        << "iter " << iter;
    EXPECT_EQ(capped.resident_bytes(), 0u) << "iter " << iter;
  }
  EXPECT_GT(nonempty, 20);
  EXPECT_GT(mostly_dead, 5);
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
