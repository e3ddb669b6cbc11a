#include <algorithm>

#include <gtest/gtest.h>

#include "core/appro_multi.h"
#include "core/expansion_multi.h"
#include "core/greedy_multi.h"
#include "detect/detector.h"
#include "test_util.h"

namespace ftrepair {
namespace {

using testing_util::CitizensDirty;
using testing_util::CitizensFDs;
using testing_util::CitizensTruth;

struct CitizensComponent {
  Table table = CitizensDirty();
  std::vector<FD> fds = CitizensFDs(table.schema());
  DistanceModel model{table};
  RepairOptions options;
  ComponentContext context;

  CitizensComponent() {
    options.w_l = 0.5;
    options.w_r = 0.5;
    // tau = 0.5 admits the cross-city FT-violations the paper's
    // Example 3 reasons about (t5 vs the New York tuples) while the
    // legitimate phi2/phi3 patterns stay pairwise above 0.5.
    options.tau_by_fd = {{"phi2", 0.5}, {"phi3", 0.5}};
    // The connected component {phi2, phi3}.
    context = BuildComponentContext(table, {&fds[1], &fds[2]}, model,
                                    options);
  }

  Table ApplySolution(const MultiFDSolution& solution) const {
    Table out = table;
    ApplyMultiFDSolution(solution, &out, nullptr);
    return out;
  }
};

TEST(ComponentContextTest, BuildsSigmaAndPhiPatterns) {
  CitizensComponent c;
  EXPECT_EQ(c.context.component_cols, (std::vector<int>{3, 4, 5, 6}));
  EXPECT_EQ(c.context.fds.size(), 2u);
  // Every Sigma-pattern maps to a phi-pattern in both FDs, and the
  // reverse mapping is consistent.
  for (size_t k = 0; k < 2; ++k) {
    for (size_t i = 0; i < c.context.sigma_patterns->size(); ++i) {
      int phi = c.context.phi_of_sigma[k][i];
      ASSERT_GE(phi, 0);
      const auto& back = c.context.sigma_of_phi[k][static_cast<size_t>(phi)];
      EXPECT_NE(std::find(back.begin(), back.end(), static_cast<int>(i)),
                back.end());
    }
  }
  // phi-pattern multiplicity equals the sum of its sigma multiplicities.
  for (size_t k = 0; k < 2; ++k) {
    for (int j = 0; j < c.context.graphs[k].num_patterns(); ++j) {
      int total = 0;
      for (int sigma : c.context.sigma_of_phi[k][static_cast<size_t>(j)]) {
        total += (*c.context.sigma_patterns)[static_cast<size_t>(sigma)].count();
      }
      EXPECT_EQ(c.context.graphs[k].pattern(j).count(), total);
    }
  }
}

TEST(GreedyMultiTest, RepairsT5JointlyPerExample3) {
  // Considering phi2 and phi3 jointly, t5 (Boston, Main, Manhattan, NY)
  // must become (New York, Main, Manhattan, NY): one City change fixes
  // both constraints (§1 Example 3).
  CitizensComponent c;
  RepairStats stats;
  MultiFDSolution solution =
      std::move(SolveGreedyMulti(c.context, c.model, c.options, &stats))
          .ValueOrDie();
  Table repaired = c.ApplySolution(solution);
  EXPECT_EQ(repaired.cell(4, 3), Value("New York"));  // t5.City fixed
  EXPECT_EQ(repaired.cell(4, 6), Value("NY"));        // State untouched
  EXPECT_EQ(repaired.cell(4, 5), Value("Manhattan"));
  // t10 State fixed to MA.
  EXPECT_EQ(repaired.cell(9, 6), Value("MA"));
  // t8 City fixed to Boston.
  EXPECT_EQ(repaired.cell(7, 3), Value("Boston"));
}

TEST(GreedyMultiTest, OutputIsFTConsistent) {
  CitizensComponent c;
  RepairStats stats;
  MultiFDSolution solution =
      std::move(SolveGreedyMulti(c.context, c.model, c.options, &stats))
          .ValueOrDie();
  Table repaired = c.ApplySolution(solution);
  for (size_t k = 1; k <= 2; ++k) {
    EXPECT_EQ(CountFTViolations(repaired, c.fds[k], c.model,
                                c.options.FTFor(c.fds[k])),
              0u)
        << c.fds[k].name();
  }
}

TEST(ApproMultiTest, OutputIsFTConsistent) {
  CitizensComponent c;
  RepairStats stats;
  MultiFDSolution solution =
      std::move(SolveApproMulti(c.context, c.model, c.options, &stats))
          .ValueOrDie();
  Table repaired = c.ApplySolution(solution);
  for (size_t k = 1; k <= 2; ++k) {
    EXPECT_EQ(CountFTViolations(repaired, c.fds[k], c.model,
                                c.options.FTFor(c.fds[k])),
              0u);
  }
  EXPECT_FALSE(stats.join_empty);
}

TEST(ExpansionMultiTest, OptimalOnCitizens) {
  CitizensComponent c;
  RepairStats stats;
  auto exact = SolveExpansionMulti(c.context, c.model, c.options, &stats);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  RepairStats greedy_stats;
  auto greedy =
      SolveGreedyMulti(c.context, c.model, c.options, &greedy_stats);
  RepairStats appro_stats;
  auto appro = SolveApproMulti(c.context, c.model, c.options, &appro_stats);
  ASSERT_TRUE(greedy.ok());
  ASSERT_TRUE(appro.ok());
  EXPECT_LE(exact.value().cost, greedy.value().cost + 1e-9);
  EXPECT_LE(exact.value().cost, appro.value().cost + 1e-9);
  // And the exact repair reproduces the Example 3 outcome for t5.
  Table repaired = c.ApplySolution(exact.value());
  EXPECT_EQ(repaired.cell(4, 3), Value("New York"));
}

TEST(ExpansionMultiTest, CloseWorldTargets) {
  // Every repaired projection value must already exist in the table
  // (valid repairs, §2.2).
  CitizensComponent c;
  RepairStats stats;
  auto exact = SolveExpansionMulti(c.context, c.model, c.options, &stats);
  ASSERT_TRUE(exact.ok());
  const MultiFDSolution& solution = exact.value();
  for (size_t i = 0; i < solution.targets.size(); ++i) {
    if (solution.targets[i].empty()) continue;
    std::vector<Value> target = DecodeProjection(
        c.table, solution.component_cols, solution.targets[i]);
    for (size_t p = 0; p < solution.component_cols.size(); ++p) {
      int col = solution.component_cols[p];
      bool exists = false;
      for (int r = 0; r < c.table.num_rows() && !exists; ++r) {
        exists = c.table.cell(r, col) == target[p];
      }
      EXPECT_TRUE(exists) << "column " << col << " value "
                          << target[p].ToString();
    }
  }
}

TEST(MultiFDTest, GroupingAblationGivesSameRepairs) {
  CitizensComponent grouped;
  RepairOptions ungrouped_options = grouped.options;
  ungrouped_options.group_tuples = false;
  ComponentContext ungrouped = BuildComponentContext(
      grouped.table, {&grouped.fds[1], &grouped.fds[2]}, grouped.model,
      ungrouped_options);
  RepairStats s1, s2;
  auto a = SolveApproMulti(grouped.context, grouped.model, grouped.options,
                           &s1);
  auto b = SolveApproMulti(ungrouped, grouped.model, ungrouped_options, &s2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  Table ta = grouped.table;
  ApplyMultiFDSolution(a.value(), &ta, nullptr);
  Table tb = grouped.table;
  ApplyMultiFDSolution(b.value(), &tb, nullptr);
  for (int r = 0; r < ta.num_rows(); ++r) {
    for (int col : grouped.context.component_cols) {
      EXPECT_EQ(ta.cell(r, col), tb.cell(r, col))
          << "row " << r << " col " << col;
    }
  }
}

TEST(MultiFDTest, LinearScanAblationMatchesTree) {
  CitizensComponent c;
  RepairOptions no_tree = c.options;
  no_tree.use_target_tree = false;
  RepairStats s1, s2;
  auto with_tree = SolveApproMulti(c.context, c.model, c.options, &s1);
  auto without = SolveApproMulti(c.context, c.model, no_tree, &s2);
  ASSERT_TRUE(with_tree.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_NEAR(with_tree.value().cost, without.value().cost, 1e-9);
  EXPECT_GT(s2.targets_materialized, 0u);
}

}  // namespace
}  // namespace ftrepair
