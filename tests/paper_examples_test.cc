// Every worked example of the paper, checked end to end on the Table 1
// instance. Example-specific unit assertions also live in the per-module
// suites; this file reads as a companion to the paper text.

#include <gtest/gtest.h>

#include "core/repairer.h"
#include "detect/detector.h"
#include "detect/violation_graph.h"
#include "metric/distance.h"
#include "test_util.h"

namespace ftrepair {
namespace {

using testing_util::CitizensDirty;
using testing_util::CitizensFDs;
using testing_util::CitizensTruth;
using testing_util::HasRowPair;
using testing_util::RowPair;
using testing_util::RowProjection;
using testing_util::ViolatingRowPairs;

class PaperExamples : public ::testing::Test {
 protected:
  Table table = CitizensDirty();
  std::vector<FD> fds = CitizensFDs(table.schema());
  DistanceModel model{table};
};

TEST_F(PaperExamples, Example2_ClassicalViolationsOfPhi1) {
  // "The two tuples t1 and t9 violate phi1, as they have the same
  //  Education (Bachelors) but different Level values."
  EXPECT_TRUE(HasRowPair(
      ViolatingRowPairs(table, fds[0], model, ClassicalFTOptions()), 0, 8));
}

TEST_F(PaperExamples, Example4_SemanticsOfSatisfaction) {
  // (t4, t8) violate phi1; (t4, t6) do not; hence D does not satisfy phi1.
  std::vector<RowPair> violations =
      ViolatingRowPairs(table, fds[0], model, ClassicalFTOptions());
  EXPECT_TRUE(HasRowPair(violations, 3, 7));
  EXPECT_FALSE(HasRowPair(violations, 3, 5));
  EXPECT_GT(CountExactViolations(table, fds[0]), 0u);
}

TEST_F(PaperExamples, Example5_ProjectionDistance) {
  // dist(t4^phi1, t6^phi1) = 0.5*dist(Masters, Masers) + 0.5*dist(4,4)
  //                        ~= 0.07.
  double d = ViolationGraph::ProjDistance(
      RowProjection(table, 3, fds[0].attrs()),
      RowProjection(table, 5, fds[0].attrs()), fds[0], model, 0.5, 0.5);
  EXPECT_NEAR(d, 0.07, 0.005);
}

TEST_F(PaperExamples, Example6_FTViolationAtTau035) {
  // tau = 0.35 => (t4, t6) is an FT-violation and D is not FT-consistent;
  // the typo in t6[Education] becomes repairable.
  FTOptions opts{0.5, 0.5, 0.35};
  EXPECT_GT(CountFTViolations(table, fds[0], model, opts), 0u);
  EXPECT_TRUE(
      HasRowPair(ViolatingRowPairs(table, fds[0], model, opts), 3, 5));
}

TEST_F(PaperExamples, Example7_GraphAndWeights) {
  // omega(t1, t9) = dist(Bachelors, Bachelors) + |3 - 1| / 8 = 0.25
  // ("we normalize the Euclidean distance by dividing the largest
  //  distance" — the Level range of Table 1 is 8).
  ViolationGraph g = ViolationGraph::Build(
      BuildPatterns(table, fds[0].attrs()), table, fds[0], model,
      FTOptions{0.5, 0.5, 0.35});
  int t1_pattern = -1;
  int t9_pattern = -1;
  for (int i = 0; i < g.num_patterns(); ++i) {
    std::vector<Value> values =
        DecodeProjection(table, fds[0].attrs(), g.pattern(i).codes);
    if (values[0] == Value("Bachelors")) {
      if (values[1] == Value(3.0)) t1_pattern = i;
      if (values[1] == Value(1.0)) t9_pattern = i;
    }
  }
  ASSERT_GE(t1_pattern, 0);
  ASSERT_GE(t9_pattern, 0);
  double weight = -1;
  for (const ViolationGraph::Edge& e : g.Neighbors(t1_pattern)) {
    if (e.to == t9_pattern) weight = e.unit_cost;
  }
  EXPECT_DOUBLE_EQ(weight, 0.25);
}

TEST_F(PaperExamples, Examples8And9_SingleFDRepairOfPhi1) {
  // Both Expansion-S and Greedy-S end with t6, t8 repaired toward t4's
  // pattern and t9, t10 toward t1's.
  for (RepairAlgorithm algorithm :
       {RepairAlgorithm::kExact, RepairAlgorithm::kGreedy}) {
    RepairOptions options;
    options.algorithm = algorithm;
    options.tau_by_fd = {{"phi1", 0.30}};
    Repairer repairer(options);
    RepairResult result =
        std::move(repairer.Repair(table, {fds[0]})).ValueOrDie();
    EXPECT_EQ(result.repaired.cell(5, 1), Value("Masters"));  // t6
    EXPECT_EQ(result.repaired.cell(7, 2), Value(4.0));        // t8 Level
    EXPECT_EQ(result.repaired.cell(8, 2), Value(3.0));        // t9 Level
    EXPECT_EQ(result.repaired.cell(9, 1), Value("Bachelors"));  // t10
  }
}

TEST_F(PaperExamples, Example3And10To14_JointRepairOfPhi2Phi3) {
  // Joint handling of phi2 and phi3 repairs t5[City] to New York with
  // minimal cost, resolving both constraints at once; t4 is repaired to
  // (New York, Western, Queens, NY) per Example 14's search trace.
  RepairOptions options;
  options.algorithm = RepairAlgorithm::kGreedy;
  options.tau_by_fd = {{"phi1", 0.30}, {"phi2", 0.5}, {"phi3", 0.5}};
  Repairer repairer(options);
  RepairResult result =
      std::move(repairer.Repair(table, fds)).ValueOrDie();
  const Schema& schema = table.schema();
  int city = schema.IndexOf("City");
  int state = schema.IndexOf("State");
  int street = schema.IndexOf("Street");
  int district = schema.IndexOf("District");
  // t5 -> (New York, Main, Manhattan, NY).
  EXPECT_EQ(result.repaired.cell(4, city), Value("New York"));
  EXPECT_EQ(result.repaired.cell(4, district), Value("Manhattan"));
  EXPECT_EQ(result.repaired.cell(4, state), Value("NY"));
  // t4 -> (New York, Western, Queens, NY) (Example 14).
  EXPECT_EQ(result.repaired.cell(3, city), Value("New York"));
  EXPECT_EQ(result.repaired.cell(3, street), Value("Western"));
  EXPECT_EQ(result.repaired.cell(3, district), Value("Queens"));
  EXPECT_EQ(result.repaired.cell(3, state), Value("NY"));
}

TEST_F(PaperExamples, FullRepairRecoversTable1Truth) {
  RepairOptions options;
  options.algorithm = RepairAlgorithm::kGreedy;
  options.tau_by_fd = {{"phi1", 0.30}, {"phi2", 0.5}, {"phi3", 0.5}};
  Repairer repairer(options);
  RepairResult result =
      std::move(repairer.Repair(table, fds)).ValueOrDie();
  Table truth = CitizensTruth();
  for (int r = 0; r < truth.num_rows(); ++r) {
    for (int c = 0; c < truth.num_columns(); ++c) {
      EXPECT_EQ(result.repaired.cell(r, c), truth.cell(r, c))
          << "t" << (r + 1) << " column "
          << table.schema().column(c).name;
    }
  }
}

TEST_F(PaperExamples, Theorem1_TauAboveWrYSubsumesClassical) {
  // For phi1 (|Y| = 1, w_r = 0.5): any FT-consistent instance at
  // tau >= 0.5 is classically consistent. Verify on the repaired table.
  RepairOptions options;
  options.algorithm = RepairAlgorithm::kGreedy;
  options.tau_by_fd = {{"phi1", 0.5}};
  Repairer repairer(options);
  RepairResult result =
      std::move(repairer.Repair(table, {fds[0]})).ValueOrDie();
  FTOptions opts{0.5, 0.5, 0.5};
  DistanceModel repaired_model(result.repaired);
  ASSERT_EQ(CountFTViolations(result.repaired, fds[0], repaired_model, opts),
            0u);
  EXPECT_EQ(CountExactViolations(result.repaired, fds[0]), 0u);
}

}  // namespace
}  // namespace ftrepair
