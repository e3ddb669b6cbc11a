// Budget / degradation-ladder suite: deterministic fault injection via
// FTREPAIR_FAULT_BUDGET_UNITS proves that exhausting the budget at any
// point in the pipeline yields a well-formed partial repair — never a
// crash, a hang, or an inconsistent table.

#include <chrono>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/budget.h"
#include "common/metrics.h"
#include "core/greedy_multi.h"
#include "core/repairer.h"
#include "test_util.h"

namespace ftrepair {
namespace {

using testing_util::CitizensDirty;
using testing_util::CitizensFDs;
using testing_util::RandomFDTable;

// Scoped setenv/unsetenv so a failing assertion cannot leak the fault
// seam into later tests.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() { unsetenv(name_); }

 private:
  const char* name_;
};

TEST(BudgetTest, UnlimitedNeverExhausts) {
  Budget budget;
  EXPECT_FALSE(budget.limited());
  EXPECT_EQ(budget.RemainingMs(), Budget::kUnlimited);
  for (int i = 0; i < 10000; ++i) EXPECT_TRUE(budget.Charge());
  EXPECT_FALSE(budget.Exhausted());
  EXPECT_TRUE(budget.Check("test").ok());
}

TEST(BudgetTest, UnlimitedIgnoresFaultSeam) {
  ScopedEnv fault("FTREPAIR_FAULT_BUDGET_UNITS", "1");
  Budget budget;
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(budget.Charge());
  EXPECT_FALSE(budget.Exhausted());
}

TEST(BudgetTest, NonPositiveDeadlineExhaustsImmediately) {
  Budget zero(0);
  EXPECT_TRUE(zero.Exhausted());
  EXPECT_FALSE(zero.Charge());
  EXPECT_EQ(zero.RemainingMs(), 0);
  Budget negative(-5);
  EXPECT_TRUE(negative.Exhausted());
  Status status = negative.Check("somewhere");
  EXPECT_TRUE(status.IsResourceExhausted()) << status.ToString();
  EXPECT_NE(status.message().find("somewhere"), std::string::npos);
  EXPECT_NE(status.message().find("deadline"), std::string::npos);
}

TEST(BudgetTest, CancelLatchesAndNamesCause) {
  Budget budget;  // unlimited: only Cancel can exhaust it
  EXPECT_FALSE(budget.Exhausted());
  budget.Cancel();
  EXPECT_TRUE(budget.Exhausted());
  EXPECT_FALSE(budget.Charge());
  Status status = budget.Check("serving layer");
  EXPECT_TRUE(status.IsResourceExhausted());
  EXPECT_NE(status.message().find("cancelled"), std::string::npos)
      << status.ToString();
}

TEST(BudgetTest, FaultSeamTripsAtExactUnitCount) {
  ScopedEnv fault("FTREPAIR_FAULT_BUDGET_UNITS", "10");
  Budget budget(1e9);  // limited, deadline far away: only the seam trips
  for (int i = 0; i < 9; ++i) {
    EXPECT_TRUE(budget.Charge()) << "unit " << i;
  }
  EXPECT_FALSE(budget.Charge());  // the 10th unit trips
  EXPECT_TRUE(budget.Exhausted());
  EXPECT_EQ(budget.units_charged(), 10u);
  Status status = budget.Check("loop");
  EXPECT_NE(status.message().find("injected fault"), std::string::npos)
      << status.ToString();
}

TEST(BudgetTest, MultiUnitChargeAccountsInBulk) {
  ScopedEnv fault("FTREPAIR_FAULT_BUDGET_UNITS", "100");
  Budget budget(1e9);
  EXPECT_TRUE(budget.Charge(50));
  EXPECT_TRUE(budget.Charge(49));
  EXPECT_FALSE(budget.Charge(5));  // crosses 100
  EXPECT_EQ(budget.units_charged(), 104u);
}

TEST(BudgetTest, WallClockDeadlineLatches) {
  Budget budget(0.000001);  // positive but already in the past
  // The amortized Charge path may take up to kCheckInterval units to
  // notice; Exhausted() consults the clock directly.
  EXPECT_TRUE(budget.Exhausted());
  EXPECT_FALSE(budget.Charge());
  EXPECT_GE(budget.ElapsedMs(), 0.0);
}

// --- Degradation-ladder sweep -----------------------------------------
//
// For every algorithm family and a sweep of fault trip points, a
// budget-limited repair of the paper's running example must: succeed,
// produce a table of unchanged shape that differs from the input only
// in logged changes, stay close-world valid (every repaired cell's new
// value already occurs in that column of the input), and record at least one DegradationEvent when the budget
// tripped early.

void ExpectCloseWorldValid(const Table& input, const RepairResult& result) {
  ASSERT_EQ(result.repaired.num_rows(), input.num_rows());
  ASSERT_EQ(result.repaired.num_columns(), input.num_columns());
  for (const CellChange& change : result.changes) {
    bool found = false;
    for (int r = 0; r < input.num_rows() && !found; ++r) {
      found = input.cell(r, change.col) == change.new_value;
    }
    EXPECT_TRUE(found) << "repair invented value '"
                       << change.new_value.ToString() << "' in column "
                       << change.col;
    EXPECT_EQ(result.repaired.cell(change.row, change.col),
              change.new_value);
  }
  // Every cell no change names still holds the input's value: the
  // output table is the input plus the change log, however early the
  // ladder stopped.
  std::set<std::pair<int, int>> changed;
  for (const CellChange& change : result.changes) {
    changed.emplace(change.row, change.col);
  }
  for (int r = 0; r < input.num_rows(); ++r) {
    for (int c = 0; c < input.num_columns(); ++c) {
      if (changed.count({r, c}) != 0) continue;
      EXPECT_EQ(result.repaired.cell(r, c), input.cell(r, c))
          << "unlogged change at row " << r << ", column " << c;
    }
  }
}

class LadderSweepTest
    : public ::testing::TestWithParam<std::tuple<RepairAlgorithm, int>> {};

TEST_P(LadderSweepTest, PartialRepairStaysWellFormed) {
  RepairAlgorithm algorithm = std::get<0>(GetParam());
  int fault_units = std::get<1>(GetParam());
  ScopedEnv fault("FTREPAIR_FAULT_BUDGET_UNITS",
                  std::to_string(fault_units));

  Table dirty = CitizensDirty();
  std::vector<FD> fds = CitizensFDs(dirty.schema());
  RepairOptions options;
  options.algorithm = algorithm;
  options.default_tau = 0.3;
  Budget budget(1e9);  // limited → the fault seam is live
  options.budget = &budget;

  Repairer repairer(options);
  auto result = repairer.Repair(dirty, fds);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectCloseWorldValid(dirty, result.value());
  if (fault_units <= 4) {
    // With almost no budget the ladder must have taken a step.
    EXPECT_TRUE(result.value().stats.degraded())
        << "fault at " << fault_units << " units recorded no degradation";
  }
  // Every recorded event is fully populated, and the events are
  // stamped by one repair-scoped clock: timestamps never go backwards.
  double last_elapsed = 0.0;
  for (const DegradationEvent& event : result.value().stats.degradations) {
    EXPECT_FALSE(event.component.empty());
    EXPECT_FALSE(event.stage.empty());
    EXPECT_FALSE(event.reason.empty());
    EXPECT_GE(event.elapsed_ms, last_elapsed);
    last_elapsed = event.elapsed_ms;
  }
}

INSTANTIATE_TEST_SUITE_P(
    FaultPoints, LadderSweepTest,
    ::testing::Combine(::testing::Values(RepairAlgorithm::kExact,
                                         RepairAlgorithm::kGreedy,
                                         RepairAlgorithm::kApproJoin),
                       ::testing::Values(1, 2, 8, 32, 128, 512, 4096)));

TEST(LadderTest, ExhaustedBudgetWithoutFallbackSurfacesError) {
  // fall_back_to_greedy=false turns degradation into a hard error: the
  // caller asked for exact-or-nothing.
  ScopedEnv fault("FTREPAIR_FAULT_BUDGET_UNITS", "1");
  Table dirty = CitizensDirty();
  std::vector<FD> fds = CitizensFDs(dirty.schema());
  RepairOptions options;
  options.algorithm = RepairAlgorithm::kExact;
  options.fall_back_to_greedy = false;
  options.compute_violation_stats = false;
  Budget budget(1e9);
  options.budget = &budget;
  auto result = Repairer(options).Repair(dirty, fds);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted())
      << result.status().ToString();
}

TEST(LadderTest, UnlimitedBudgetMatchesNoBudget) {
  Table dirty = CitizensDirty();
  std::vector<FD> fds = CitizensFDs(dirty.schema());
  RepairOptions options;
  options.algorithm = RepairAlgorithm::kGreedy;
  options.default_tau = 0.3;
  auto baseline = Repairer(options).Repair(dirty, fds);
  ASSERT_TRUE(baseline.ok());

  Budget budget;  // unlimited
  options.budget = &budget;
  auto budgeted = Repairer(options).Repair(dirty, fds);
  ASSERT_TRUE(budgeted.ok());
  EXPECT_TRUE(budgeted.value().stats.degradations.empty());
  EXPECT_EQ(budgeted.value().changes.size(), baseline.value().changes.size());
  for (int r = 0; r < dirty.num_rows(); ++r) {
    for (int c = 0; c < dirty.num_columns(); ++c) {
      EXPECT_EQ(budgeted.value().repaired.cell(r, c),
                baseline.value().repaired.cell(r, c));
    }
  }
}

TEST(LadderTest, PreExhaustedBudgetYieldsDetectOnlyResult) {
  // A budget that is spent before the call even starts: the repair
  // still succeeds, changes nothing, and records skip events.
  Table dirty = CitizensDirty();
  std::vector<FD> fds = CitizensFDs(dirty.schema());
  RepairOptions options;
  options.algorithm = RepairAlgorithm::kGreedy;
  Budget budget(0);
  options.budget = &budget;
  auto result = Repairer(options).Repair(dirty, fds);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().changes.empty());
  EXPECT_TRUE(result.value().stats.degraded());
  for (int r = 0; r < dirty.num_rows(); ++r) {
    for (int c = 0; c < dirty.num_columns(); ++c) {
      EXPECT_EQ(result.value().repaired.cell(r, c), dirty.cell(r, c));
    }
  }
}

TEST(LadderTest, CancellationMidPipelineIsCleanPartial) {
  // Cancel before the call (the degenerate race): same contract as a
  // pre-exhausted deadline.
  Table dirty = RandomFDTable(60, 4, 6, 12, /*seed=*/11);
  auto fds = std::move(ParseFDList("f1: c0 -> c1\nf2: c0 -> c2\n",
                                   dirty.schema()))
                 .ValueOrDie();
  RepairOptions options;
  options.algorithm = RepairAlgorithm::kGreedy;
  Budget budget;
  budget.Cancel();
  options.budget = &budget;
  auto result = Repairer(options).Repair(dirty, fds);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().changes.empty());
  EXPECT_TRUE(result.value().stats.degraded());
}

TEST(LadderTest, WallClockDeadlineOnLargerInstanceTerminates) {
  // A real (tiny) wall-clock deadline on a larger random instance:
  // must return promptly and well-formed, whatever it got done.
  Table dirty = RandomFDTable(400, 5, 12, 80, /*seed=*/7);
  auto fds = std::move(ParseFDList(
                 "f1: c0 -> c1\nf2: c0 -> c2\nf3: c3 -> c4\n",
                 dirty.schema()))
                 .ValueOrDie();
  RepairOptions options;
  options.algorithm = RepairAlgorithm::kExact;
  Budget budget(0.05);  // 50 microseconds: trips almost immediately
  options.budget = &budget;
  auto result = Repairer(options).Repair(dirty, fds);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectCloseWorldValid(dirty, result.value());
  // Generous wall-clock sanity bound (not a perf assertion): the run
  // must not have ignored the deadline entirely.
  EXPECT_LT(budget.ElapsedMs(), 30000.0);
}

// A Greedy-M round can take milliseconds, so the grow loop reads the
// clock every round instead of every Budget::kCheckInterval charged
// units: a deadline that passed before the first round stops it there,
// with nothing chosen, and the component goes down the ladder.
TEST(LadderTest, GreedyCoverReadsTheDeadlineEveryRound) {
  Table dirty = CitizensDirty();
  std::vector<FD> fds = CitizensFDs(dirty.schema());
  RepairOptions options;
  options.tau_by_fd = {{"phi2", 0.5}, {"phi3", 0.5}};
  DistanceModel model(dirty);
  // phi2 and phi3 share City: one multi-FD component, built unbudgeted.
  ComponentContext context =
      BuildComponentContext(dirty, {&fds[1], &fds[2]}, model, options);
  Counter* rounds = Metrics().GetCounter("ftrepair.solve.greedy_rounds");

  // Not vacuous: without a budget the grow loop runs rounds.
  uint64_t before = rounds->value();
  ASSERT_TRUE(SolveGreedyMulti(context, model, options, nullptr).ok());
  ASSERT_GT(rounds->value(), before);

  Budget budget(1.0);
  while (budget.ElapsedMs() < 2.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  options.budget = &budget;
  before = rounds->value();
  auto cut = SolveGreedyMulti(context, model, options, nullptr);
  ASSERT_FALSE(cut.ok());
  EXPECT_TRUE(cut.status().IsResourceExhausted()) << cut.status().ToString();
  EXPECT_NE(cut.status().ToString().find("greedy cover"), std::string::npos)
      << cut.status().ToString();
  EXPECT_EQ(rounds->value(), before);
}

TEST(LadderTest, DegradationEventsCarryElapsedTimestamps) {
  ScopedEnv fault("FTREPAIR_FAULT_BUDGET_UNITS", "1");
  Table dirty = CitizensDirty();
  std::vector<FD> fds = CitizensFDs(dirty.schema());
  RepairOptions options;
  options.algorithm = RepairAlgorithm::kExact;
  Budget budget(1e9);
  options.budget = &budget;
  auto result = Repairer(options).Repair(dirty, fds);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result.value().stats.degraded());
  double last_elapsed = 0.0;
  for (const DegradationEvent& event : result.value().stats.degradations) {
    EXPECT_GE(event.elapsed_ms, 0.0);
    // Monotone: all events share the single repair-scoped clock.
    EXPECT_GE(event.elapsed_ms, last_elapsed);
    last_elapsed = event.elapsed_ms;
  }
}

TEST(LadderTest, PhaseTimingsPopulatedAndConsistent) {
  Table dirty = CitizensDirty();
  std::vector<FD> fds = CitizensFDs(dirty.schema());
  RepairOptions options;
  options.algorithm = RepairAlgorithm::kGreedy;
  options.default_tau = 0.3;
  auto result = Repairer(options).Repair(dirty, fds);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const PhaseTimings& phases = result.value().stats.phases;
  EXPECT_GE(phases.detect_ms, 0.0);
  EXPECT_GE(phases.graph_ms, 0.0);
  EXPECT_GE(phases.solve_ms, 0.0);
  EXPECT_GE(phases.targets_ms, 0.0);
  EXPECT_GE(phases.apply_ms, 0.0);
  EXPECT_GE(phases.stats_ms, 0.0);
  EXPECT_GT(phases.total_ms, 0.0);
  // The phases are disjoint slices of one run, so their sum cannot
  // meaningfully exceed the end-to-end wall time (small slack for
  // timer granularity).
  double phase_sum = phases.detect_ms + phases.graph_ms + phases.solve_ms +
                     phases.targets_ms + phases.apply_ms + phases.stats_ms;
  EXPECT_LE(phase_sum, phases.total_ms * 1.05 + 1.0);
}

}  // namespace
}  // namespace ftrepair
