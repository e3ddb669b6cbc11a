// Search-equivalence harness: the table-backed target searches (eager
// tree, lazy search, linear scan) against a brute-force reference that
// enumerates every joinable target and prices it with
// ProjectionDecoder::Distance. Each returned cost must equal the
// reference minimum bit for bit (summed in the engine's own order),
// re-pricing each returned target must give that cost, and
// AssignTargets must return the same solution at threads 1 and 4.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "constraint/fd_graph.h"
#include "core/greedy_single.h"
#include "core/lazy_targets.h"
#include "core/multi_common.h"
#include "gen/error_injector.h"
#include "gen/hosp_gen.h"
#include "gen/tax_gen.h"
#include "test_util.h"

namespace ftrepair {
namespace {

using testing_util::CodeBook;
using testing_util::OracleTargetCost;
using testing_util::OracleTargets;
using testing_util::PriceTarget;
using testing_util::QueryTable;
using testing_util::SearchSumOrder;

std::vector<int> PositionOrder(size_t width) {
  std::vector<int> order(width);
  for (size_t p = 0; p < width; ++p) order[p] = static_cast<int>(p);
  return order;
}

// --- Random coded instances -------------------------------------------

TEST(TargetSearchEquivalenceTest, RandomInstancesMatchTheReference) {
  Schema schema({{"a", ValueType::kString},
                 {"b", ValueType::kString},
                 {"c", ValueType::kString},
                 {"d", ValueType::kString},
                 {"e", ValueType::kString}});
  FD f1 = std::move(FD::Make({0}, {1}, "f1")).ValueOrDie();
  FD f2 = std::move(FD::Make({1, 2}, {3}, "f2")).ValueOrDie();
  FD f3 = std::move(FD::Make({3}, {4}, "f3")).ValueOrDie();
  Table model_table(schema);
  ASSERT_TRUE(model_table.AppendRow(Row(5)).ok());
  DistanceModel model(model_table);
  CodeBook book(schema);
  const std::vector<int> cols = {0, 1, 2, 3, 4};
  Rng rng(2024);
  // A pool of four values of mixed lengths per column: few enough that
  // joins are nonempty, varied enough that edit distances take many
  // fractional values.
  std::vector<std::vector<Value>> pools;
  for (char column = 'a'; column <= 'e'; ++column) {
    std::vector<Value> pool;
    for (int v = 0; v < 4; ++v) {
      std::string s(1, column);
      size_t length = 1 + rng.Index(6);
      for (size_t i = 0; i < length; ++i) {
        s.push_back(static_cast<char>('p' + rng.Index(3)));
      }
      pool.push_back(Value(s));
    }
    pools.push_back(pool);
  }
  auto rnd = [&rng, &pools](char column) {
    return pools[static_cast<size_t>(column - 'a')][rng.Index(4)];
  };
  int searched = 0;
  for (int iter = 0; iter < 60; ++iter) {
    std::vector<TargetTree::LevelInput> inputs(3);
    inputs[0].fd = &f1;
    inputs[1].fd = &f2;
    inputs[2].fd = &f3;
    size_t sizes[3] = {2 + rng.Index(6), 2 + rng.Index(8),
                       2 + rng.Index(6)};
    for (size_t e = 0; e < sizes[0]; ++e) {
      inputs[0].elements.push_back(
          book.Codes(f1.attrs(), {rnd('a'), rnd('b')}));
    }
    for (size_t e = 0; e < sizes[1]; ++e) {
      inputs[1].elements.push_back(
          book.Codes(f2.attrs(), {rnd('b'), rnd('c'), rnd('d')}));
    }
    for (size_t e = 0; e < sizes[2]; ++e) {
      inputs[2].elements.push_back(
          book.Codes(f3.attrs(), {rnd('d'), rnd('e')}));
    }
    std::vector<std::vector<uint32_t>> all = OracleTargets(inputs, cols);
    auto tree = TargetTree::Build(inputs, cols, 1'000'000);
    auto lazy = LazyTargetSearch::Build(inputs, cols);
    if (all.empty()) {
      EXPECT_TRUE(tree.status().IsNotFound()) << "iter " << iter;
      continue;
    }
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    ASSERT_TRUE(lazy.ok()) << lazy.status().ToString();
    EXPECT_EQ(tree.value().num_targets(), all.size());
    const std::vector<int> search_order = SearchSumOrder(inputs, cols);
    const std::vector<int> scan_order = PositionOrder(cols.size());
    std::vector<std::vector<uint32_t>> targets =
        tree.value().EnumerateTargets();
    std::vector<std::vector<uint32_t>> indices;
    for (const auto& target : targets) {
      indices.push_back(DomainIndices(tree.value().domains(), target));
    }
    for (int probe = 0; probe < 8; ++probe) {
      std::vector<uint32_t> query = book.Codes(
          cols, {rnd('a'), rnd('b'), rnd('c'), rnd('d'), rnd('e')});
      const Table& table = book.table();
      double want = OracleTargetCost(all, query, table, cols, model,
                                     search_order);
      double want_scan =
          OracleTargetCost(all, query, table, cols, model, scan_order);

      DistanceTable tree_table =
          QueryTable(tree.value().domains(), query, table, cols, model);
      TargetQuery eager =
          tree.value().FindBest(tree_table.Rows(0), nullptr);
      EXPECT_EQ(eager.cost, want) << "tree, iter " << iter;
      EXPECT_EQ(PriceTarget(eager.target, query, table, cols, model,
                            search_order),
                eager.cost);

      DistanceTable lazy_table =
          QueryTable(lazy.value().domains(), query, table, cols, model);
      TargetQuery found =
          lazy.value().FindBest(lazy_table.Rows(0), 1'000'000, nullptr);
      ASSERT_FALSE(found.target.empty());
      EXPECT_EQ(found.cost, want) << "lazy, iter " << iter;
      EXPECT_EQ(PriceTarget(found.target, query, table, cols, model,
                            search_order),
                found.cost);

      double scan_cost = 0;
      size_t t =
          FindBestTargetLinear(indices, tree_table.Rows(0), &scan_cost);
      EXPECT_EQ(scan_cost, want_scan) << "linear, iter " << iter;
      EXPECT_EQ(
          PriceTarget(targets[t], query, table, cols, model, scan_order),
          scan_cost);
      ++searched;
    }
  }
  EXPECT_GT(searched, 100);
}

// --- HOSP and Tax component slices through AssignTargets ---------------

struct Slice {
  Table dirty;
  std::vector<FD> fds;
  RepairOptions options;
};

Slice MakeSlice(bool hosp, int rows) {
  Dataset ds;
  if (hosp) {
    HospOptions gen;
    gen.num_rows = rows;
    gen.seed = 7;
    ds = std::move(GenerateHosp(gen)).ValueOrDie();
  } else {
    TaxOptions gen;
    gen.num_rows = rows;
    ds = std::move(GenerateTax(gen)).ValueOrDie();
  }
  NoiseOptions noise;
  noise.error_rate = 0.04;
  noise.seed = 42;
  Slice slice{std::move(InjectErrors(ds.clean, ds.fds, noise)).ValueOrDie(),
              ds.fds, RepairOptions{}};
  slice.options.w_l = ds.recommended_w_l;
  slice.options.w_r = ds.recommended_w_r;
  slice.options.tau_by_fd = ds.recommended_tau;
  return slice;
}

bool SameSolution(const MultiFDSolution& a, const MultiFDSolution& b) {
  return a.targets == b.targets && a.target_costs == b.target_costs &&
         a.cost == b.cost && a.truncated == b.truncated &&
         a.chosen == b.chosen;
}

// Runs every engine at threads 1 and 4 on each multi-FD component of
// `slice`, with the chosen sets Appro-M would use (Greedy-S per FD).
void ExpectComponentsMatchReference(const Slice& slice) {
  DistanceModel model(slice.dirty);
  FDGraph graph(slice.fds);
  int components = 0;
  int checked = 0;
  for (const std::vector<int>& component : graph.Components()) {
    if (component.size() < 2) continue;
    std::vector<const FD*> fds;
    for (int f : component) {
      fds.push_back(&slice.fds[static_cast<size_t>(f)]);
    }
    ComponentContext context =
        BuildComponentContext(slice.dirty, fds, model, slice.options);
    std::vector<std::vector<int>> chosen;
    std::vector<TargetTree::LevelInput> inputs(fds.size());
    for (size_t k = 0; k < fds.size(); ++k) {
      chosen.push_back(SolveGreedySingle(context.graphs[k]).chosen_set);
      inputs[k].fd = fds[k];
      for (int j : chosen[k]) {
        inputs[k].elements.push_back(context.graphs[k].pattern(j).codes);
      }
    }
    const std::vector<int>& cols = context.component_cols;
    std::vector<std::vector<uint32_t>> all = OracleTargets(inputs, cols);
    if (all.empty()) continue;
    ++components;
    const std::vector<int> search_order = SearchSumOrder(inputs, cols);
    const std::vector<int> scan_order = PositionOrder(cols.size());

    // The reference minimum per Sigma-pattern, in each summing order.
    std::vector<double> want_search(context.sigma_patterns->size());
    std::vector<double> want_scan(context.sigma_patterns->size());
    for (size_t i = 0; i < context.sigma_patterns->size(); ++i) {
      const std::vector<uint32_t>& query = (*context.sigma_patterns)[i].codes;
      want_search[i] = OracleTargetCost(all, query, slice.dirty, cols, model,
                                        search_order);
      want_scan[i] = OracleTargetCost(all, query, slice.dirty, cols, model,
                                      scan_order);
    }

    struct Engine {
      const char* name;
      bool use_tree;
      size_t max_nodes;
    };
    for (const Engine& engine : {Engine{"tree", true, 1'000'000},
                                 Engine{"lazy", true, 1},
                                 Engine{"linear", false, 1'000'000}}) {
      const bool scan = !engine.use_tree;
      const std::vector<int>& order = scan ? scan_order : search_order;
      const std::vector<double>& want = scan ? want_scan : want_search;
      std::vector<MultiFDSolution> solutions;
      for (int threads : {1, 4}) {
        RepairOptions options = slice.options;
        options.use_target_tree = engine.use_tree;
        options.max_tree_nodes = engine.max_nodes;
        options.threads = threads;
        RepairStats stats;
        auto solved = AssignTargets(context, chosen, model, options, &stats);
        ASSERT_TRUE(solved.ok()) << solved.status().ToString();
        solutions.push_back(std::move(solved).value());
      }
      const MultiFDSolution& solution = solutions[0];
      EXPECT_TRUE(SameSolution(solution, solutions[1]))
          << engine.name << ": threads 1 and 4 differ";
      ASSERT_FALSE(solution.truncated) << engine.name;
      for (size_t i = 0; i < solution.targets.size(); ++i) {
        if (solution.targets[i].empty()) continue;  // keeps its values
        const std::vector<uint32_t>& query = (*context.sigma_patterns)[i].codes;
        EXPECT_EQ(solution.target_costs[i], want[i])
            << engine.name << ", pattern " << i;
        EXPECT_EQ(PriceTarget(solution.targets[i], query, slice.dirty, cols,
                              model, order),
                  solution.target_costs[i])
            << engine.name << ", pattern " << i;
        ++checked;
      }
    }
  }
  EXPECT_GT(components, 0);
  EXPECT_GT(checked, 0);
}

TEST(TargetSearchEquivalenceTest, HospComponentsMatchTheReference) {
  ExpectComponentsMatchReference(MakeSlice(/*hosp=*/true, 1500));
}

TEST(TargetSearchEquivalenceTest, TaxComponentsMatchTheReference) {
  ExpectComponentsMatchReference(MakeSlice(/*hosp=*/false, 1000));
}

}  // namespace
}  // namespace ftrepair
