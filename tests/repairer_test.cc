#include <algorithm>

#include <gtest/gtest.h>

#include "core/repairer.h"
#include "detect/detector.h"
#include "test_util.h"

namespace ftrepair {
namespace {

using testing_util::CitizensDirty;
using testing_util::CitizensFDs;
using testing_util::CitizensSchema;
using testing_util::CitizensTruth;

RepairOptions CitizensOptions(RepairAlgorithm algorithm) {
  RepairOptions options;
  options.algorithm = algorithm;
  options.tau_by_fd = {{"phi1", 0.30}, {"phi2", 0.5}, {"phi3", 0.5}};
  return options;
}

TEST(RepairerTest, ValidateFDsCatchesBadColumns) {
  Schema schema = CitizensSchema();
  FD bad = std::move(FD::Make({0}, {99})).ValueOrDie();
  EXPECT_TRUE(ValidateFDs(schema, {bad}).IsInvalidArgument());
  Repairer repairer;
  auto result = repairer.Repair(CitizensDirty(), {bad});
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(RepairerTest, GreedyRepairsCitizensToTruth) {
  Table dirty = CitizensDirty();
  std::vector<FD> fds = CitizensFDs(dirty.schema());
  Repairer repairer(CitizensOptions(RepairAlgorithm::kGreedy));
  RepairResult result = std::move(repairer.Repair(dirty, fds)).ValueOrDie();
  Table truth = CitizensTruth();
  // Every error highlighted in Table 1 is corrected.
  for (int r = 0; r < truth.num_rows(); ++r) {
    for (int c = 0; c < truth.num_columns(); ++c) {
      EXPECT_EQ(result.repaired.cell(r, c), truth.cell(r, c))
          << "row " << r << " col " << c;
    }
  }
  EXPECT_GT(result.stats.ft_violations_before, 0u);
  EXPECT_EQ(result.stats.ft_violations_after, 0u);
  EXPECT_GT(result.stats.cells_changed, 0);
  EXPECT_GT(result.stats.repair_cost, 0.0);
}

TEST(RepairerTest, ExactRepairsCitizensToTruth) {
  Table dirty = CitizensDirty();
  std::vector<FD> fds = CitizensFDs(dirty.schema());
  Repairer repairer(CitizensOptions(RepairAlgorithm::kExact));
  RepairResult result = std::move(repairer.Repair(dirty, fds)).ValueOrDie();
  Table truth = CitizensTruth();
  for (int r = 0; r < truth.num_rows(); ++r) {
    for (int c = 0; c < truth.num_columns(); ++c) {
      EXPECT_EQ(result.repaired.cell(r, c), truth.cell(r, c));
    }
  }
  EXPECT_TRUE(result.stats.degradations.empty());
}

TEST(RepairerTest, ApproJoinProducesFTConsistentOutput) {
  Table dirty = CitizensDirty();
  std::vector<FD> fds = CitizensFDs(dirty.schema());
  RepairOptions options = CitizensOptions(RepairAlgorithm::kApproJoin);
  Repairer repairer(options);
  RepairResult result = std::move(repairer.Repair(dirty, fds)).ValueOrDie();
  EXPECT_EQ(result.stats.ft_violations_after, 0u);
}

TEST(RepairerTest, ChangesListMatchesTableDiff) {
  Table dirty = CitizensDirty();
  std::vector<FD> fds = CitizensFDs(dirty.schema());
  Repairer repairer(CitizensOptions(RepairAlgorithm::kGreedy));
  RepairResult result = std::move(repairer.Repair(dirty, fds)).ValueOrDie();
  // Apply the change list onto a fresh copy and compare.
  Table replay = dirty;
  for (const CellChange& change : result.changes) {
    EXPECT_EQ(replay.cell(change.row, change.col), change.old_value);
    replay.SetCell(change.row, change.col, change.new_value);
  }
  for (int r = 0; r < dirty.num_rows(); ++r) {
    for (int c = 0; c < dirty.num_columns(); ++c) {
      EXPECT_EQ(replay.cell(r, c), result.repaired.cell(r, c));
    }
  }
  EXPECT_EQ(result.stats.cells_changed,
            static_cast<int>(result.changes.size()));
}

TEST(RepairerTest, CloseWorldValidity) {
  // Every repaired cell value must come from the dirty table's active
  // domain of that column (§2.2).
  Table dirty = CitizensDirty();
  std::vector<FD> fds = CitizensFDs(dirty.schema());
  Repairer repairer(CitizensOptions(RepairAlgorithm::kGreedy));
  RepairResult result = std::move(repairer.Repair(dirty, fds)).ValueOrDie();
  for (const CellChange& change : result.changes) {
    std::vector<Value> domain = dirty.ActiveDomain(change.col);
    EXPECT_NE(std::find(domain.begin(), domain.end(), change.new_value),
              domain.end())
        << "column " << change.col << " value "
        << change.new_value.ToString();
  }
}

TEST(RepairerTest, IndependentFDsRepairIndependently) {
  // phi1 shares no attribute with phi2/phi3 (Theorem 5): repairing all
  // three equals repairing phi1 alone + {phi2, phi3} alone.
  Table dirty = CitizensDirty();
  std::vector<FD> fds = CitizensFDs(dirty.schema());
  Repairer repairer(CitizensOptions(RepairAlgorithm::kGreedy));
  Table all = std::move(repairer.Repair(dirty, fds)).ValueOrDie().repaired;
  Table only1 =
      std::move(repairer.Repair(dirty, {fds[0]})).ValueOrDie().repaired;
  Table only23 =
      std::move(repairer.Repair(dirty, {fds[1], fds[2]})).ValueOrDie()
          .repaired;
  for (int r = 0; r < dirty.num_rows(); ++r) {
    // phi1 columns from the phi1-only run.
    for (int c : fds[0].attrs()) {
      EXPECT_EQ(all.cell(r, c), only1.cell(r, c));
    }
    for (int c : fds[1].attrs()) {
      EXPECT_EQ(all.cell(r, c), only23.cell(r, c));
    }
    for (int c : fds[2].attrs()) {
      EXPECT_EQ(all.cell(r, c), only23.cell(r, c));
    }
  }
}

TEST(RepairerTest, AutoThresholdRunsEndToEnd) {
  Table dirty = CitizensDirty();
  std::vector<FD> fds = CitizensFDs(dirty.schema());
  RepairOptions options;
  options.algorithm = RepairAlgorithm::kGreedy;
  options.auto_threshold = true;
  Repairer repairer(options);
  auto result = repairer.Repair(dirty, fds);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().stats.ft_violations_after, 0u);
}

TEST(RepairerTest, EmptyFDListIsNoop) {
  Table dirty = CitizensDirty();
  Repairer repairer;
  RepairResult result = std::move(repairer.Repair(dirty, {})).ValueOrDie();
  EXPECT_TRUE(result.changes.empty());
  EXPECT_DOUBLE_EQ(result.stats.repair_cost, 0.0);
}

TEST(RepairerTest, ViolationStatsCanBeDisabled) {
  Table dirty = CitizensDirty();
  std::vector<FD> fds = CitizensFDs(dirty.schema());
  RepairOptions options = CitizensOptions(RepairAlgorithm::kGreedy);
  options.compute_violation_stats = false;
  Repairer repairer(options);
  RepairResult result = std::move(repairer.Repair(dirty, fds)).ValueOrDie();
  EXPECT_EQ(result.stats.ft_violations_before, 0u);
  EXPECT_EQ(result.stats.ft_violations_after, 0u);
  EXPECT_GT(result.stats.cells_changed, 0);
}

TEST(RepairerTest, RepairCFDsFixesConstantAndVariableViolations) {
  Table dirty = CitizensDirty();
  Schema schema = dirty.schema();
  FD fd = std::move(FD::Make({schema.IndexOf("City")},
                             {schema.IndexOf("State")}, "phi2"))
              .ValueOrDie();
  std::vector<PatternRow> tableau;
  // Constant rule: New York tuples must have NY.
  tableau.push_back({Value("New York"), Value("NY")});
  // Variable rule: plain FD semantics elsewhere.
  tableau.push_back({std::nullopt, std::nullopt});
  CFD cfd = std::move(CFD::Make(fd, std::move(tableau), "c1")).ValueOrDie();
  RepairOptions options;
  options.tau_by_fd = {{"phi2", 0.5}};
  Repairer repairer(options);
  RepairResult result =
      std::move(repairer.RepairCFDs(dirty, {cfd})).ValueOrDie();
  // t4 (New York, MA) fixed by the constant rule.
  EXPECT_EQ(result.repaired.cell(3, schema.IndexOf("State")), Value("NY"));
  EXPECT_GT(result.stats.cells_changed, 0);
}

TEST(RepairerTest, RepairCFDsRepairsTowardConstantNewToTheColumn) {
  // The tableau constant "NY-STATE" appears nowhere in the input State
  // column: pinning it mints a dictionary code after load. The later
  // variable row then repairs the State column over patterns carrying
  // that code — the typo row (New Yorkk, NY) is FT-close to (New York,
  // NY-STATE) and moves onto it, so apply decodes the minted code.
  Table dirty = CitizensDirty();
  ASSERT_TRUE(dirty
                  .AppendRow(testing_util::CitizensRow(
                      "Ines", "Bachelors", 3, "New Yorkk", "Main",
                      "Manhattan", "NY"))
                  .ok());
  Schema schema = dirty.schema();
  const int city = schema.IndexOf("City");
  const int state = schema.IndexOf("State");
  for (int r = 0; r < dirty.num_rows(); ++r) {
    ASSERT_NE(dirty.cell(r, state), Value("NY-STATE"));
  }
  FD fd = std::move(FD::Make({city}, {state}, "phi2")).ValueOrDie();
  std::vector<PatternRow> tableau;
  tableau.push_back({Value("New York"), Value("NY-STATE")});
  tableau.push_back({std::nullopt, std::nullopt});
  CFD cfd = std::move(CFD::Make(fd, std::move(tableau), "c1")).ValueOrDie();
  RepairOptions options;
  options.tau_by_fd = {{"phi2", 0.5}};
  Repairer repairer(options);
  RepairResult result =
      std::move(repairer.RepairCFDs(dirty, {cfd})).ValueOrDie();
  // Pinned output: the constant rule writes NY-STATE into the four
  // New York rows; the variable row then moves the typo row onto
  // (New York, NY-STATE) and the Boston/MA rows onto (Boton, MA).
  struct Change {
    int row;
    int col;
    const char* old_value;
    const char* new_value;
  };
  const std::vector<Change> want = {
      {0, state, "NY", "NY-STATE"},   {1, state, "NY", "NY-STATE"},
      {2, state, "NY", "NY-STATE"},   {3, state, "MA", "NY-STATE"},
      {5, city, "Boston", "Boton"},   {6, city, "Boston", "Boton"},
      {8, city, "Boston", "Boton"},   {10, city, "New Yorkk", "New York"},
      {10, state, "NY", "NY-STATE"},
  };
  ASSERT_EQ(result.changes.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    const CellChange& got = result.changes[i];
    EXPECT_EQ(got.row, want[i].row) << "change " << i;
    EXPECT_EQ(got.col, want[i].col) << "change " << i;
    EXPECT_EQ(got.old_value, Value(want[i].old_value)) << "change " << i;
    EXPECT_EQ(got.new_value, Value(want[i].new_value)) << "change " << i;
  }
  const std::vector<std::pair<const char*, const char*>> want_rows = {
      {"New York", "NY-STATE"}, {"New York", "NY-STATE"},
      {"New York", "NY-STATE"}, {"New York", "NY-STATE"},
      {"Boston", "NY"},         {"Boton", "MA"},
      {"Boton", "MA"},          {"Boton", "MA"},
      {"Boton", "MA"},          {"Boston", "NY"},
      {"New York", "NY-STATE"},
  };
  ASSERT_EQ(result.repaired.num_rows(), static_cast<int>(want_rows.size()));
  for (int r = 0; r < result.repaired.num_rows(); ++r) {
    EXPECT_EQ(result.repaired.cell(r, city),
              Value(want_rows[static_cast<size_t>(r)].first))
        << "row " << r;
    EXPECT_EQ(result.repaired.cell(r, state),
              Value(want_rows[static_cast<size_t>(r)].second))
        << "row " << r;
  }
  EXPECT_EQ(result.stats.cells_changed, 9);
  EXPECT_EQ(result.stats.tuples_changed, 8);
  EXPECT_DOUBLE_EQ(result.stats.repair_cost, 4.4861111111111107);
  EXPECT_TRUE(result.stats.degradations.empty());
}

}  // namespace
}  // namespace ftrepair
