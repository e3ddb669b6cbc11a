// Memory-governance chaos suite: deterministic fault injection via
// FTREPAIR_FAULT_MEM_BYTES sweeps exhaustion across every pipeline
// phase (ingest, graph, index, solve, targets) x every algorithm x
// thread counts, proving that running out of memory anywhere yields a
// well-formed partial repair or a clean ResourceExhausted naming the
// exhausting phase — never a crash — and that an uninstalled or
// unlimited budget changes nothing at all.

#include <cstdlib>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/budget.h"
#include "common/metrics.h"
#include "common/resource.h"
#include "constraint/fd_parser.h"
#include "core/provenance.h"
#include "core/repairer.h"
#include "data/csv.h"
#include "detect/violation_graph.h"
#include "eval/explain_verify.h"
#include "gen/dataset.h"
#include "gen/error_injector.h"
#include "gen/hosp_gen.h"
#include "test_util.h"

namespace ftrepair {
namespace {

using testing_util::CitizensDirty;
using testing_util::CitizensFDs;
using testing_util::ScopedEnv;

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
}

// --- MemoryBudget unit behavior ---------------------------------------

TEST(MemoryBudgetTest, UnlimitedNeverExhausts) {
  MemoryBudget memory;
  EXPECT_FALSE(memory.limited());
  for (int i = 0; i < 10000; ++i) {
    EXPECT_TRUE(memory.TryCharge(1 << 20));
  }
  EXPECT_FALSE(memory.Exhausted());
  EXPECT_FALSE(memory.SoftExceeded());
  EXPECT_TRUE(memory.Check("test").ok());
}

TEST(MemoryBudgetTest, UnlimitedIgnoresFaultSeam) {
  ScopedEnv fault("FTREPAIR_FAULT_MEM_BYTES", "1");
  MemoryBudget memory;
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(memory.TryCharge(64));
  EXPECT_FALSE(memory.Exhausted());
}

TEST(MemoryBudgetTest, MalformedFaultSeamIsDisabled) {
  // Satellite contract: a malformed seam value warns and disables the
  // seam instead of silently arming garbage.
  ScopedEnv fault("FTREPAIR_FAULT_MEM_BYTES", "banana");
  MemoryBudget memory(1 << 20);
  EXPECT_TRUE(memory.TryCharge(1024));
  EXPECT_FALSE(memory.Exhausted());
}

TEST(MemoryBudgetTest, FaultSeamTripsAtExactByteCount) {
  ScopedEnv fault("FTREPAIR_FAULT_MEM_BYTES", "100");
  MemoryBudget memory(1 << 30);  // limited, limit far away: only the seam
  EXPECT_TRUE(memory.TryCharge(50));
  EXPECT_TRUE(memory.TryCharge(49));
  EXPECT_FALSE(memory.TryCharge(5));  // crosses 100 charged bytes
  EXPECT_TRUE(memory.Exhausted());
  EXPECT_EQ(memory.charged_total_bytes(), 104u);
  Status status = memory.Check("loop");
  EXPECT_TRUE(status.IsResourceExhausted());
  EXPECT_NE(status.message().find("injected fault"), std::string::npos)
      << status.ToString();
}

TEST(MemoryBudgetTest, HardLimitLatchesAndNamesSite) {
  MemoryBudget memory(1024);
  EXPECT_TRUE(memory.TryCharge(1000, MemPhase::kGraph));
  EXPECT_FALSE(memory.TryCharge(100, MemPhase::kGraph));  // would cross
  EXPECT_TRUE(memory.Exhausted());
  // The failed charge is rolled back from occupancy; peak keeps the
  // attempted high-water.
  EXPECT_EQ(memory.resident_bytes(), 1000u);
  EXPECT_EQ(memory.peak_bytes(), 1100u);
  // Release never un-latches exhaustion.
  memory.Release(1000);
  EXPECT_EQ(memory.resident_bytes(), 0u);
  EXPECT_TRUE(memory.Exhausted());
  EXPECT_FALSE(memory.TryCharge(1));
  Status status = memory.Check("graph edges");
  EXPECT_TRUE(status.IsResourceExhausted());
  EXPECT_NE(status.message().find("graph edges"), std::string::npos);
  EXPECT_NE(status.message().find("hard limit"), std::string::npos)
      << status.ToString();
}

TEST(MemoryBudgetTest, SoftWatermarkLatchesWithoutExhausting) {
  MemoryBudget memory(1000, /*soft_fraction=*/0.5);
  EXPECT_EQ(memory.soft_limit_bytes(), 500u);
  EXPECT_TRUE(memory.TryCharge(400));
  EXPECT_FALSE(memory.SoftExceeded());
  EXPECT_TRUE(memory.TryCharge(200));  // crosses the soft watermark
  EXPECT_TRUE(memory.SoftExceeded());
  EXPECT_FALSE(memory.Exhausted());
  memory.Release(600);  // occupancy drops below the watermark...
  EXPECT_TRUE(memory.SoftExceeded());  // ...but the latch stays
}

TEST(MemoryBudgetTest, ZeroLimitStartsExhausted) {
  MemoryBudget memory(0);
  EXPECT_TRUE(memory.Exhausted());
  EXPECT_TRUE(memory.SoftExceeded());
  EXPECT_FALSE(memory.TryCharge(1));
  EXPECT_TRUE(memory.Check("start").IsResourceExhausted());
}

TEST(MemoryBudgetTest, ReleaseClampsAtZeroAndTracksPeak) {
  MemoryBudget memory(1 << 20);
  EXPECT_TRUE(memory.TryCharge(300));
  memory.Release(100);
  EXPECT_TRUE(memory.TryCharge(50));
  EXPECT_EQ(memory.resident_bytes(), 250u);
  EXPECT_EQ(memory.peak_bytes(), 300u);
  memory.Release(1000);  // over-release clamps
  EXPECT_EQ(memory.resident_bytes(), 0u);
  EXPECT_EQ(memory.peak_bytes(), 300u);
}

TEST(MemoryBudgetTest, PerPhaseAccountingSeparatesCharges) {
  MemoryBudget memory(1 << 20);
  EXPECT_TRUE(memory.TryCharge(10, MemPhase::kIngest));
  EXPECT_TRUE(memory.TryCharge(20, MemPhase::kGraph));
  EXPECT_TRUE(memory.TryCharge(30, MemPhase::kGraph));
  EXPECT_TRUE(memory.TryCharge(40, MemPhase::kTargets));
  EXPECT_EQ(memory.charged_bytes(MemPhase::kIngest), 10u);
  EXPECT_EQ(memory.charged_bytes(MemPhase::kGraph), 50u);
  EXPECT_EQ(memory.charged_bytes(MemPhase::kTargets), 40u);
  EXPECT_EQ(memory.charged_bytes(MemPhase::kSolve), 0u);
  EXPECT_EQ(memory.charged_total_bytes(), 100u);
}

TEST(MemoryBudgetTest, ResourceCheckNeverReturnsOk) {
  Budget budget;           // not exhausted
  MemoryBudget memory;     // not exhausted
  Status generic = ResourceCheck(&budget, &memory, "some cap");
  EXPECT_TRUE(generic.IsResourceExhausted());
  EXPECT_NE(generic.message().find("some cap"), std::string::npos);
  EXPECT_TRUE(ResourceCheck(nullptr, nullptr, "x").IsResourceExhausted());

  MemoryBudget spent(0);
  Status from_memory = ResourceCheck(&budget, &spent, "targets");
  EXPECT_NE(from_memory.message().find("memory budget exhausted"),
            std::string::npos)
      << from_memory.ToString();

  Budget cancelled;
  cancelled.Cancel();
  Status from_budget = ResourceCheck(&cancelled, &spent, "targets");
  EXPECT_NE(from_budget.message().find("cancelled"), std::string::npos)
      << from_budget.ToString();
}

// --- CSV ingest under memory pressure ---------------------------------

TEST(MemoryChaosIngestTest, TinyBudgetFailsCleanlyNamingIngest) {
  CsvOptions options;
  MemoryBudget memory(16);
  options.memory = &memory;
  auto result = ReadCsvString("a,b\n1,2\n3,4\n5,6\n", options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted())
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("csv ingest"), std::string::npos)
      << result.status().ToString();
}

TEST(MemoryChaosIngestTest, UnlimitedBudgetReadsIdentically) {
  CsvOptions plain;
  auto baseline = ReadCsvString("a,b\nx,1\ny,2\n", plain);
  ASSERT_TRUE(baseline.ok());
  MemoryBudget memory;
  CsvOptions governed;
  governed.memory = &memory;
  auto result = ReadCsvString("a,b\nx,1\ny,2\n", governed);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().num_rows(), baseline.value().num_rows());
  for (int r = 0; r < baseline.value().num_rows(); ++r) {
    for (int c = 0; c < baseline.value().num_columns(); ++c) {
      EXPECT_EQ(result.value().cell(r, c), baseline.value().cell(r, c));
    }
  }
}

// --- Chaos sweep: fault point x algorithm x threads -------------------
//
// For every algorithm family, thread count, and a sweep of byte trip
// points, a memory-limited repair of the paper's running example must:
// never crash, either succeed with close-world-valid partial output or
// fail with a clean ResourceExhausted, keep DegradationEvents in sync
// with the ftrepair.degradations{stage} counters, and keep event
// timestamps monotone.

const char* const kKnownStages[] = {
    "skip",          "exact->greedy",   "greedy->appro", "greedy->partial",
    "partial-graph", "partial-targets", "soft-valves",
};

// Runs one memory-limited repair and applies the chaos invariants.
// Returns the stages of the recorded degradations (empty when the run
// never degraded or failed outright).
std::vector<std::string> RunChaosRepair(RepairAlgorithm algorithm,
                                        int threads,
                                        const MemoryBudget& memory,
                                        const Budget* budget = nullptr) {
  Table dirty = CitizensDirty();
  std::vector<FD> fds = CitizensFDs(dirty.schema());
  RepairOptions options;
  options.algorithm = algorithm;
  options.default_tau = 0.3;
  options.threads = threads;
  options.memory = &memory;
  options.budget = budget;

  std::map<std::string, uint64_t> before;
  for (const char* stage : kKnownStages) {
    before[stage] =
        Metrics().GetCounter("ftrepair.degradations", "stage", stage)->value();
  }

  auto result = Repairer(options).Repair(dirty, fds);
  if (!result.ok()) {
    // The only acceptable failure is a clean resource report.
    EXPECT_TRUE(result.status().IsResourceExhausted())
        << result.status().ToString();
    return {};
  }
  ExpectCloseWorldValid(dirty, result.value());

  std::map<std::string, uint64_t> emitted;
  double last_elapsed = 0.0;
  std::vector<std::string> stages;
  for (const DegradationEvent& event : result.value().stats.degradations) {
    EXPECT_FALSE(event.component.empty());
    EXPECT_FALSE(event.stage.empty());
    EXPECT_FALSE(event.reason.empty());
    EXPECT_GE(event.elapsed_ms, last_elapsed);
    last_elapsed = event.elapsed_ms;
    ++emitted[event.stage];
    stages.push_back(event.stage);
  }
  for (const char* stage : kKnownStages) {
    uint64_t after =
        Metrics().GetCounter("ftrepair.degradations", "stage", stage)->value();
    EXPECT_EQ(after - before[stage], emitted[stage])
        << "counter drift for stage " << stage;
  }
  return stages;
}

class MemoryChaosSweepTest
    : public ::testing::TestWithParam<std::tuple<RepairAlgorithm, int, int>> {
};

TEST_P(MemoryChaosSweepTest, PartialRepairStaysWellFormed) {
  auto [algorithm, threads, fault_bytes] = GetParam();
  ScopedEnv fault("FTREPAIR_FAULT_MEM_BYTES", std::to_string(fault_bytes));
  MemoryBudget memory(uint64_t{1} << 40);  // limited → the seam is live
  std::vector<std::string> stages =
      RunChaosRepair(algorithm, threads, memory);
  if (fault_bytes <= 64 && memory.Exhausted()) {
    EXPECT_FALSE(stages.empty())
        << "fault at " << fault_bytes << " bytes recorded no degradation";
  }
}

INSTANTIATE_TEST_SUITE_P(
    FaultPoints, MemoryChaosSweepTest,
    ::testing::Combine(::testing::Values(RepairAlgorithm::kExact,
                                         RepairAlgorithm::kGreedy,
                                         RepairAlgorithm::kApproJoin),
                       ::testing::Values(1, 2, 4, 8),
                       ::testing::Values(1, 64, 512, 4096, 32768, 262144)));

// The Citizens instance is too small to engage the blocking index, so
// the sweep above never crosses the index phase. These sweeps run
// inputs on which the graph build picks the index by itself, through
// each of its joins, and chaos-test index construction.
void SweepIndexFaults(const Table& dirty, const std::vector<FD>& fds,
                      RepairOptions options) {
  options.algorithm = RepairAlgorithm::kGreedy;
  {
    // Untripped governed run: the index phase must actually charge,
    // or this sweep is not covering what it claims to.
    MemoryBudget memory(uint64_t{1} << 40);
    options.memory = &memory;
    auto result = Repairer(options).Repair(dirty, fds);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GT(memory.charged_bytes(MemPhase::kIndex), 0u);
  }
  int tripped_in_index = 0;
  for (int fault_bytes : {1, 1024, 8192, 32768, 262144, 1 << 21}) {
    ScopedEnv fault("FTREPAIR_FAULT_MEM_BYTES", std::to_string(fault_bytes));
    MemoryBudget memory(uint64_t{1} << 40);
    options.memory = &memory;
    auto result = Repairer(options).Repair(dirty, fds);
    tripped_in_index += memory.Exhausted() &&
                        memory.charged_bytes(MemPhase::kIndex) > 0;
    if (result.ok()) {
      ExpectCloseWorldValid(dirty, result.value());
    } else {
      EXPECT_TRUE(result.status().IsResourceExhausted())
          << "fault at " << fault_bytes << " bytes: "
          << result.status().ToString();
    }
  }
  // Some fault point must land once index construction has charged.
  EXPECT_GT(tripped_in_index, 0);
}

TEST(MemoryChaosIndexTest, BlockedIndexUnderFaultSweepStaysClean) {
  // The exact bucket join: a key-rich random table at tau = 0 has
  // hundreds of patterns per FD.
  Table dirty = testing_util::RandomFDTable(800, 3, 400, 80, /*seed=*/13);
  auto fds = std::move(ParseFDList("f1: c0 -> c1\nf2: c0 -> c2\n",
                                   dirty.schema()))
                 .ValueOrDie();
  RepairOptions options;
  options.default_tau = 0;
  SweepIndexFaults(dirty, fds, options);
}

TEST(MemoryChaosIndexTest, GramJoinIndexUnderFaultSweepStaysClean) {
  // The gram join: the 4000-row dirty HOSP h3 slice (ZipCode -> City)
  // at the recommended weights and tau = 0.2. Both columns are edit
  // columns, so at tau > 0 any index the build charges is a gram join,
  // with its per-attribute filter data and posting lists under the
  // fault sweep.
  HospOptions hosp;
  hosp.num_rows = 4000;
  hosp.seed = 7;
  Dataset ds = std::move(GenerateHosp(hosp)).ValueOrDie();
  NoiseOptions noise;
  noise.error_rate = 0.05;
  Table dirty = std::move(InjectErrors(ds.clean, ds.fds, noise)).ValueOrDie();
  RepairOptions options;
  options.w_l = 0.7;
  options.w_r = 0.3;
  options.default_tau = 0.2;
  SweepIndexFaults(dirty, {ds.fds[2]}, options);
}

// --- Target-phase memory sweep ----------------------------------------
//
// A HOSP slice with multi-FD components, so target assignment runs and
// charges MemPhase::kTargets for the eager tree's nodes and for the
// distance table. Sweeping the trip point across the whole run must
// land faults inside the target phase, and every tripped run must stay
// a well-formed partial repair that replay-verifies.

TEST(MemoryChaosTargetsTest, TargetPhaseFaultSweepStaysVerifiable) {
  HospOptions hosp;
  hosp.num_rows = 1500;
  hosp.seed = 7;
  Dataset ds = std::move(GenerateHosp(hosp)).ValueOrDie();
  NoiseOptions noise;
  noise.error_rate = 0.04;
  noise.seed = 42;
  Table dirty = std::move(InjectErrors(ds.clean, ds.fds, noise)).ValueOrDie();
  RepairOptions options;
  options.algorithm = RepairAlgorithm::kGreedy;
  options.w_l = ds.recommended_w_l;
  options.w_r = ds.recommended_w_r;
  options.tau_by_fd = ds.recommended_tau;
  options.provenance = true;

  uint64_t total_bytes = 0;
  {
    MemoryBudget memory(uint64_t{1} << 40);
    options.memory = &memory;
    auto result = Repairer(options).Repair(dirty, ds.fds);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_GT(memory.charged_bytes(MemPhase::kTargets), 0u);
    total_bytes = memory.charged_total_bytes();
  }
  int tripped_in_targets = 0;
  for (int threads : {1, 4}) {
    options.threads = threads;
    for (uint64_t step = 1; step < 16; ++step) {
      uint64_t fault_bytes = total_bytes * step / 16;
      ScopedEnv fault("FTREPAIR_FAULT_MEM_BYTES", std::to_string(fault_bytes));
      MemoryBudget memory(uint64_t{1} << 40);
      options.memory = &memory;
      auto result = Repairer(options).Repair(dirty, ds.fds);
      if (!memory.Exhausted()) continue;
      tripped_in_targets += memory.charged_bytes(MemPhase::kTargets) > 0;
      std::string where = "fault at " + std::to_string(fault_bytes) +
                          " bytes, threads " + std::to_string(threads);
      ASSERT_TRUE(result.ok()) << where << ": " << result.status().ToString();
      const RepairResult& repair = result.value();
      bool memory_degraded = false;
      for (const DegradationEvent& event : repair.stats.degradations) {
        memory_degraded |= event.cause == DegradationCause::kMemoryHard;
      }
      EXPECT_TRUE(memory_degraded) << where << " recorded no degradation";
      // A multi-FD decision writes its whole target into every row.
      for (const RepairDecision& decision : repair.provenance.decisions) {
        if (decision.fd >= 0) continue;
        for (int row : decision.rows) {
          for (size_t k = 0; k < decision.cols.size(); ++k) {
            EXPECT_EQ(repair.repaired.cell(row, decision.cols[k]),
                      decision.target_values[k])
                << where << ": row " << row << " holds half a target";
          }
        }
      }
      auto verified =
          VerifyExplainReport(dirty, ExplainReportJson(dirty, repair));
      ASSERT_TRUE(verified.ok()) << where << ": "
                                 << verified.status().ToString();
      EXPECT_TRUE(verified.value().ok())
          << where << ": "
          << (verified.value().errors.empty() ? std::string("truncated")
                                              : verified.value().errors[0]);
    }
  }
  EXPECT_GT(tripped_in_targets, 0)
      << "no fault point landed once the target phase had charged";
}

// --- Ladder completeness under both pressure kinds --------------------
//
// Sweeping the trip point across the pipeline must reach every rung of
// the degradation ladder — exact->greedy, greedy->appro, and the
// detect-only bottom ("skip") — under deadline pressure and under
// memory pressure alike.

std::vector<int> LadderSweepPoints() {
  std::vector<int> points;
  for (int p = 1; p <= 1 << 17; p *= 2) points.push_back(p);
  for (int p = 250; p <= 4000; p += 250) points.push_back(p);
  return points;
}

TEST(LadderCompletenessTest, MemoryPressureReachesEveryRung) {
  std::map<std::string, int> seen;
  for (int fault_bytes : LadderSweepPoints()) {
    ScopedEnv fault("FTREPAIR_FAULT_MEM_BYTES", std::to_string(fault_bytes));
    MemoryBudget memory(uint64_t{1} << 40);
    for (const std::string& stage :
         RunChaosRepair(RepairAlgorithm::kExact, 1, memory)) {
      ++seen[stage];
    }
  }
  EXPECT_GT(seen["exact->greedy"], 0) << "exact->greedy rung never taken";
  EXPECT_GT(seen["greedy->appro"], 0) << "greedy->appro rung never taken";
  EXPECT_GT(seen["skip"], 0) << "detect-only rung never taken";
}

TEST(LadderCompletenessTest, DeadlinePressureReachesEveryRung) {
  // Budget units are coarser than bytes, so the trip windows between
  // phases can be only a few units wide. Calibrate against a clean
  // run, then sweep every unit position — no window can be skipped.
  uint64_t total_units = 0;
  {
    Budget budget(1e9);  // limited so units are counted; never trips
    MemoryBudget memory;
    RunChaosRepair(RepairAlgorithm::kExact, 1, memory, &budget);
    total_units = budget.units_charged();
  }
  ASSERT_GT(total_units, 0u);
  std::map<std::string, int> seen;
  for (uint64_t fault_units = 1; fault_units <= total_units + 1;
       ++fault_units) {
    ScopedEnv fault("FTREPAIR_FAULT_BUDGET_UNITS",
                    std::to_string(fault_units));
    Budget budget(1e9);  // limited → the budget seam is live
    MemoryBudget memory;  // unlimited: only the deadline budget trips
    for (const std::string& stage :
         RunChaosRepair(RepairAlgorithm::kExact, 1, memory, &budget)) {
      ++seen[stage];
    }
  }
  EXPECT_GT(seen["exact->greedy"], 0) << "exact->greedy rung never taken";
  EXPECT_GT(seen["greedy->appro"], 0) << "greedy->appro rung never taken";
  EXPECT_GT(seen["skip"], 0) << "detect-only rung never taken";
}

// --- Soft watermark ---------------------------------------------------

TEST(MemoryLadderTest, SoftWatermarkTightensValvesAndStepsExactDown) {
  MemoryBudget memory(uint64_t{1} << 30, /*soft_fraction=*/0.0001);
  // Pre-charge past the (tiny) soft watermark; the hard limit stays
  // far away, so the run completes under tightened valves.
  ASSERT_TRUE(memory.TryCharge(1 << 20));
  ASSERT_TRUE(memory.SoftExceeded());

  Table dirty = CitizensDirty();
  std::vector<FD> fds = CitizensFDs(dirty.schema());
  RepairOptions options;
  options.algorithm = RepairAlgorithm::kExact;
  options.default_tau = 0.3;
  options.memory = &memory;
  auto result = Repairer(options).Repair(dirty, fds);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectCloseWorldValid(dirty, result.value());
  bool saw_valves = false;
  bool saw_step = false;
  for (const DegradationEvent& event : result.value().stats.degradations) {
    saw_valves = saw_valves || event.stage == "soft-valves";
    saw_step = saw_step || event.stage == "exact->greedy";
  }
  EXPECT_TRUE(saw_valves) << "soft watermark staged no valve tightening";
  EXPECT_TRUE(saw_step) << "soft watermark did not step exact down";
}

TEST(MemoryLadderTest, SoftWatermarkRespectsClosedFallbackValve) {
  MemoryBudget memory(uint64_t{1} << 30, /*soft_fraction=*/0.0001);
  ASSERT_TRUE(memory.TryCharge(1 << 20));
  Table dirty = CitizensDirty();
  std::vector<FD> fds = CitizensFDs(dirty.schema());
  RepairOptions options;
  options.algorithm = RepairAlgorithm::kExact;
  options.default_tau = 0.3;
  options.fall_back_to_greedy = false;
  options.memory = &memory;
  auto result = Repairer(options).Repair(dirty, fds);
  // Exact-or-nothing: the soft watermark must not silently degrade.
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (const DegradationEvent& event : result.value().stats.degradations) {
    EXPECT_NE(event.stage, "soft-valves");
    EXPECT_NE(event.stage, "exact->greedy");
  }
}

// --- Hard pre-exhaustion ----------------------------------------------

TEST(MemoryLadderTest, PreExhaustedMemoryYieldsDetectOnlyResult) {
  MemoryBudget memory(0);
  Table dirty = CitizensDirty();
  std::vector<FD> fds = CitizensFDs(dirty.schema());
  RepairOptions options;
  options.algorithm = RepairAlgorithm::kGreedy;
  options.memory = &memory;
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

TEST(MemoryLadderTest, PreExhaustedMemoryWithoutFallbackSurfacesError) {
  MemoryBudget memory(0);
  Table dirty = CitizensDirty();
  std::vector<FD> fds = CitizensFDs(dirty.schema());
  RepairOptions options;
  options.algorithm = RepairAlgorithm::kExact;
  options.fall_back_to_greedy = false;
  options.compute_violation_stats = false;
  options.memory = &memory;
  auto result = Repairer(options).Repair(dirty, fds);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted())
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("memory budget"),
            std::string::npos)
      << result.status().ToString();
}

// --- Component latency histogram --------------------------------------

// ftrepair.solve.component_ms observes every component that passed the
// resource preamble exactly once — including one that walked the whole
// multi-FD ladder (exact -> greedy -> appro) and ended detect-only.
TEST(MemoryLadderTest, ComponentLatencyObservedAtTheBottomRung) {
  ScopedEnv fault("FTREPAIR_FAULT_MEM_BYTES", "4096");
  MemoryBudget memory(uint64_t{1} << 30);
  Table dirty = CitizensDirty();
  std::vector<FD> fds = CitizensFDs(dirty.schema());
  RepairOptions options;
  options.algorithm = RepairAlgorithm::kExact;
  options.default_tau = 0.4;
  options.memory = &memory;
  Histogram* component_ms =
      Metrics().GetHistogram("ftrepair.solve.component_ms");
  const uint64_t before = component_ms->count();
  auto result = Repairer(options).Repair(dirty, fds);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  std::vector<std::string> multi_stages;
  int preamble_skips = 0;
  for (const DegradationEvent& event : result.value().stats.degradations) {
    if (event.component == "phi2+phi3") multi_stages.push_back(event.stage);
    if (event.stage == "skip" &&
        event.reason.find("in repair pipeline") != std::string::npos) {
      ++preamble_skips;
    }
  }
  ASSERT_EQ(multi_stages, (std::vector<std::string>{
                              "exact->greedy", "greedy->appro", "skip"}))
      << "the fault point no longer drives phi2+phi3 to the bottom rung";
  // Two components (phi1, phi2+phi3); every one that started solving
  // is observed.
  EXPECT_EQ(component_ms->count() - before,
            static_cast<uint64_t>(2 - preamble_skips));
}

// A CFD tableau unit is observed even when its variable part has too
// few matching rows to build a graph.
TEST(MemoryLadderTest, ComponentLatencyObservedForEveryCfdUnit) {
  Table dirty = CitizensDirty();
  // Row 0 pins one HS-grad row (a one-row scope); row 1 is variable.
  std::vector<CFD> cfds =
      std::move(ParseCFDList("c: Education -> Level | HS-grad -> 9 | _ -> _\n",
                             dirty.schema()))
          .ValueOrDie();
  RepairOptions options;
  options.default_tau = 0.4;
  Histogram* component_ms =
      Metrics().GetHistogram("ftrepair.solve.component_ms");
  const uint64_t before = component_ms->count();
  auto result = Repairer(options).RepairCFDs(dirty, cfds);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(component_ms->count() - before, 2u);
}

// --- Bit-identity without a limit -------------------------------------

TEST(MemoryChaosIdentityTest, NoLimitMatchesBaselineAtEveryThreadCount) {
  Table dirty = CitizensDirty();
  std::vector<FD> fds = CitizensFDs(dirty.schema());
  RepairOptions base;
  base.algorithm = RepairAlgorithm::kExact;
  base.default_tau = 0.3;
  base.threads = 1;
  auto baseline = Repairer(base).Repair(dirty, fds);
  ASSERT_TRUE(baseline.ok());

  // An armed seam must be inert without a limited budget installed.
  ScopedEnv fault("FTREPAIR_FAULT_MEM_BYTES", "1");
  MemoryBudget unlimited;
  for (int threads : {1, 2, 4, 8}) {
    for (bool install : {false, true}) {
      RepairOptions options = base;
      options.threads = threads;
      options.memory = install ? &unlimited : nullptr;
      auto result = Repairer(options).Repair(dirty, fds);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_TRUE(result.value().stats.degradations.empty());
      ASSERT_EQ(result.value().changes.size(),
                baseline.value().changes.size())
          << "threads=" << threads << " install=" << install;
      for (size_t i = 0; i < baseline.value().changes.size(); ++i) {
        const CellChange& want = baseline.value().changes[i];
        const CellChange& got = result.value().changes[i];
        EXPECT_EQ(got.row, want.row);
        EXPECT_EQ(got.col, want.col);
        EXPECT_EQ(got.old_value, want.old_value);
        EXPECT_EQ(got.new_value, want.new_value);
      }
      for (int r = 0; r < dirty.num_rows(); ++r) {
        for (int c = 0; c < dirty.num_columns(); ++c) {
          EXPECT_EQ(result.value().repaired.cell(r, c),
                    baseline.value().repaired.cell(r, c));
        }
      }
    }
  }
}

// --- Registry surface -------------------------------------------------

TEST(MemoryMetricsTest, LimitedRunPublishesGaugesAndPhaseHistograms) {
  Table dirty = CitizensDirty();
  std::vector<FD> fds = CitizensFDs(dirty.schema());
  MemoryBudget memory(uint64_t{1} << 30);
  RepairOptions options;
  options.algorithm = RepairAlgorithm::kGreedy;
  options.default_tau = 0.3;
  options.memory = &memory;
  auto result = Repairer(options).Repair(dirty, fds);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(memory.charged_total_bytes(), 0u);
  EXPECT_GT(Metrics().GetGauge("ftrepair.memory.peak_bytes")->value(), 0.0);
  std::string snapshot = Metrics().SnapshotJson();
  for (const char* phase : {"ingest", "graph", "index", "solve", "targets",
                            "other"}) {
    EXPECT_NE(snapshot.find("ftrepair.memory.phase_charge_mb{phase=" +
                            std::string(phase) + "}"),
              std::string::npos)
        << "missing per-phase charge histogram for " << phase;
  }
}

}  // namespace
}  // namespace ftrepair
