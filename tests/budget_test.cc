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
#include "common/resource.h"
#include "constraint/fd_graph.h"
#include "core/appro_multi.h"
#include "core/greedy_multi.h"
#include "core/multi_common.h"
#include "core/provenance.h"
#include "core/repairer.h"
#include "eval/explain_verify.h"
#include "gen/error_injector.h"
#include "gen/hosp_gen.h"
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

// HOSP at 2k rows with the benchmark's generator and noise seeds and
// the dataset's recommended settings.
struct HospInstance {
  Table table;
  std::vector<FD> fds;
  RepairOptions options;
};

HospInstance Hosp2k() {
  Dataset ds = std::move(GenerateHosp({.num_rows = 2000, .seed = 7}))
                   .ValueOrDie();
  NoiseOptions noise;
  noise.error_rate = 0.04;
  noise.seed = 42;
  HospInstance in{
      std::move(InjectErrors(ds.clean, ds.fds, noise, nullptr)).ValueOrDie(),
      ds.fds, {}};
  in.options.w_l = ds.recommended_w_l;
  in.options.w_r = ds.recommended_w_r;
  in.options.tau_by_fd = ds.recommended_tau;
  return in;
}

TEST(MemoryAccountingTest, RepairReturnsEveryCharge) {
  // The RepairResult owns no charged structure (the repaired table, the
  // change log and the provenance are never charged), so every byte a
  // repair charges is returned by the time it returns.
  HospInstance hosp = Hosp2k();
  Table citizens = CitizensDirty();
  HospInstance cases[] = {
      {citizens, CitizensFDs(citizens.schema()), {}},
      std::move(hosp),
  };
  cases[0].options.tau_by_fd = {{"phi1", 0.30}, {"phi2", 0.5},
                                {"phi3", 0.5}};
  for (const HospInstance& in : cases) {
    for (RepairAlgorithm algorithm :
         {RepairAlgorithm::kGreedy, RepairAlgorithm::kApproJoin}) {
      for (int threads : {1, 4}) {
        SCOPED_TRACE(std::string(RepairAlgorithmName(algorithm)) + " rows " +
                     std::to_string(in.table.num_rows()) + " threads " +
                     std::to_string(threads));
        MemoryBudget memory;
        RepairOptions options = in.options;
        options.algorithm = algorithm;
        options.threads = threads;
        options.memory = &memory;
        auto result = Repairer(options).Repair(in.table, in.fds);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_FALSE(result.value().changes.empty());
        EXPECT_GT(memory.peak_bytes(), 0u);
        EXPECT_EQ(memory.resident_bytes(), 0u);
      }
    }
  }
}

TEST(SolveMultiTest, GraphAndTargetsNeverResidentTogether) {
  HospInstance in = Hosp2k();
  in.options.algorithm = RepairAlgorithm::kApproJoin;
  // The largest multi-FD component, its graphs and its target phase
  // measured on their own.
  std::vector<int> largest;
  const FDGraph fd_graph(in.fds);
  for (const std::vector<int>& component : fd_graph.Components()) {
    if (component.size() > largest.size()) largest = component;
  }
  ASSERT_GE(largest.size(), 2u);
  std::vector<const FD*> fds;
  for (int f : largest) fds.push_back(&in.fds[static_cast<size_t>(f)]);
  DistanceModel model(in.table);
  MemoryBudget graph_memory;
  RepairOptions options = in.options;
  options.memory = &graph_memory;
  ComponentContext context =
      BuildComponentContext(in.table, fds, model, options);
  const uint64_t csr = graph_memory.resident_bytes();
  auto cover = CoverApproMulti(context, options, nullptr);
  ASSERT_TRUE(cover.ok()) << cover.status().ToString();
  EXPECT_GT(ReleaseCoverInputs(&context), 0u);
  EXPECT_EQ(graph_memory.resident_bytes(), 0u);
  MemoryBudget target_memory;
  options.memory = &target_memory;
  auto solved =
      AssignCover(context, std::move(cover).value(), model, options, nullptr);
  ASSERT_TRUE(solved.ok()) << solved.status().ToString();
  const uint64_t targets = target_memory.peak_bytes();
  ASSERT_GT(csr, 0u);
  ASSERT_GT(targets, 0u);

  MemoryBudget memory;
  options = in.options;
  options.memory = &memory;
  auto unlimited = Repairer(options).Repair(in.table, in.fds);
  ASSERT_TRUE(unlimited.ok()) << unlimited.status().ToString();
  const uint64_t peak = memory.peak_bytes();
  EXPECT_LT(peak, csr + targets)
      << "csr " << csr << " targets " << targets;

  // The peak is all the repair needs: a hard limit there (and no soft
  // watermark below it) admits it whole.
  MemoryBudget hard(peak, 1.0);
  options.memory = &hard;
  auto limited = Repairer(options).Repair(in.table, in.fds);
  ASSERT_TRUE(limited.ok()) << limited.status().ToString();
  EXPECT_TRUE(limited.value().stats.degradations.empty());
  EXPECT_FALSE(hard.Exhausted());
  EXPECT_EQ(limited.value().changes.size(), unlimited.value().changes.size());
}

TEST(LadderTest, TargetPhaseExhaustionSkips) {
  // Sweeps the memory fault seam over the multi-FD component's charges
  // until one lands inside the target-tree build. A target phase that
  // runs out would run out on any cover, so the component skips once;
  // it is not re-solved with Appro-M.
  Table dirty = CitizensDirty();
  std::vector<FD> all = CitizensFDs(dirty.schema());
  std::vector<FD> fds = {all[1], all[2]};  // phi2 + phi3
  RepairOptions options;
  options.algorithm = RepairAlgorithm::kGreedy;
  options.tau_by_fd = {{"phi2", 0.5}, {"phi3", 0.5}};
  options.compute_violation_stats = false;
  options.provenance = true;
  bool found = false;
  for (int bytes = 1; bytes < 1 << 16 && !found; ++bytes) {
    ScopedEnv fault("FTREPAIR_FAULT_MEM_BYTES", std::to_string(bytes));
    MemoryBudget memory(uint64_t{1} << 40);
    options.memory = &memory;
    auto result = Repairer(options).Repair(dirty, fds);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const std::vector<DegradationEvent>& events =
        result.value().stats.degradations;
    if (events.empty() ||
        events[0].reason.find("target tree build") == std::string::npos) {
      continue;
    }
    found = true;
    SCOPED_TRACE("fault after " + std::to_string(bytes) + " bytes");
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].stage, "skip");
    EXPECT_EQ(events[0].cause, DegradationCause::kMemoryHard);
    EXPECT_TRUE(result.value().changes.empty());
    auto verified = VerifyExplainReport(
        dirty, ExplainReportJson(dirty, result.value()));
    ASSERT_TRUE(verified.ok()) << verified.status().ToString();
    EXPECT_TRUE(verified.value().ok());
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace ftrepair
