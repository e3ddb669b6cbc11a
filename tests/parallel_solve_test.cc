// Solve-phase concurrency suite: the per-component fan-out in
// Repairer::Repair and the per-group CFD fan-out in RepairCFDs must be
// bit-identical to the serial run at every thread count — down to the
// CellChange ordering, the degradation sequence and the exact repair
// cost — plus regression coverage for the two historical CFD-path
// bugs (trusted rows overwritten, auto_threshold ignored).

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/repairer.h"
#include "detect/threshold.h"
#include "gen/error_injector.h"
#include "gen/hosp_gen.h"
#include "gen/tax_gen.h"
#include "test_util.h"

namespace ftrepair {
namespace {

using testing_util::CitizensDirty;
using testing_util::CitizensFDs;

// Field-by-field equality of two repair results; EXPECT_EQ on the
// doubles on purpose — "bit-identical at any thread count" is the
// contract, not "close".
void ExpectResultsIdentical(const RepairResult& reference,
                            const RepairResult& got) {
  ASSERT_EQ(reference.changes.size(), got.changes.size());
  for (size_t i = 0; i < reference.changes.size(); ++i) {
    SCOPED_TRACE("change " + std::to_string(i));
    EXPECT_EQ(reference.changes[i].row, got.changes[i].row);
    EXPECT_EQ(reference.changes[i].col, got.changes[i].col);
    EXPECT_EQ(reference.changes[i].old_value, got.changes[i].old_value);
    EXPECT_EQ(reference.changes[i].new_value, got.changes[i].new_value);
  }
  ASSERT_EQ(reference.repaired.num_rows(), got.repaired.num_rows());
  for (int r = 0; r < reference.repaired.num_rows(); ++r) {
    for (int c = 0; c < reference.repaired.schema().num_columns(); ++c) {
      EXPECT_EQ(reference.repaired.cell(r, c), got.repaired.cell(r, c))
          << "cell (" << r << ", " << c << ")";
    }
  }
  EXPECT_EQ(reference.stats.repair_cost, got.stats.repair_cost);
  EXPECT_EQ(reference.stats.cells_changed, got.stats.cells_changed);
  EXPECT_EQ(reference.stats.tuples_changed, got.stats.tuples_changed);
  EXPECT_EQ(reference.stats.trusted_conflicts, got.stats.trusted_conflicts);
  ASSERT_EQ(reference.stats.degradations.size(),
            got.stats.degradations.size());
  for (size_t i = 0; i < reference.stats.degradations.size(); ++i) {
    SCOPED_TRACE("degradation " + std::to_string(i));
    EXPECT_EQ(reference.stats.degradations[i].component,
              got.stats.degradations[i].component);
    EXPECT_EQ(reference.stats.degradations[i].stage,
              got.stats.degradations[i].stage);
  }
}

RepairOptions CitizensOptions(RepairAlgorithm algorithm) {
  RepairOptions options;
  options.algorithm = algorithm;
  options.tau_by_fd = {{"phi1", 0.30}, {"phi2", 0.5}, {"phi3", 0.5}};
  return options;
}

TEST(ParallelSolveTest, BitIdenticalAcrossThreadCountsOnCitizens) {
  // phi1 and {phi2, phi3} are two independent components.
  Table dirty = CitizensDirty();
  std::vector<FD> fds = CitizensFDs(dirty.schema());
  for (RepairAlgorithm algorithm :
       {RepairAlgorithm::kGreedy, RepairAlgorithm::kExact,
        RepairAlgorithm::kApproJoin}) {
    RepairOptions serial = CitizensOptions(algorithm);
    Repairer reference_repairer(serial);
    RepairResult reference =
        std::move(reference_repairer.Repair(dirty, fds)).ValueOrDie();
    for (int threads : {2, 4, 8, 0}) {
      RepairOptions opts = serial;
      opts.threads = threads;
      Repairer repairer(opts);
      RepairResult got = std::move(repairer.Repair(dirty, fds)).ValueOrDie();
      SCOPED_TRACE("algorithm=" + std::string(RepairAlgorithmName(algorithm)) +
                   " threads=" + std::to_string(threads));
      ExpectResultsIdentical(reference, got);
    }
  }
}

class ParallelSolveGeneratorTest : public ::testing::TestWithParam<bool> {
 protected:
  Dataset Generate(int rows) {
    if (GetParam()) {
      return std::move(GenerateHosp({.num_rows = rows, .seed = 13}))
          .ValueOrDie();
    }
    return std::move(GenerateTax({.num_rows = rows, .seed = 13}))
        .ValueOrDie();
  }
};

TEST_P(ParallelSolveGeneratorTest, BitIdenticalAcrossThreadCounts) {
  Dataset ds = Generate(400);
  NoiseOptions noise;
  noise.error_rate = 0.05;
  noise.seed = 29;
  Table dirty =
      std::move(InjectErrors(ds.clean, ds.fds, noise, nullptr)).ValueOrDie();
  RepairOptions serial;
  serial.algorithm = RepairAlgorithm::kGreedy;
  serial.w_l = ds.recommended_w_l;
  serial.w_r = ds.recommended_w_r;
  for (const auto& [name, tau] : ds.recommended_tau) {
    serial.tau_by_fd[name] = tau;
  }
  serial.compute_violation_stats = false;
  // Every target search: the eager tree, the lazy search (a one-node
  // cap overflows the eager tree) and the linear-scan ablation.
  RepairOptions lazy = serial;
  lazy.max_tree_nodes = 1;
  RepairOptions linear = serial;
  linear.use_target_tree = false;
  for (const RepairOptions& search : {serial, lazy, linear}) {
    Repairer reference_repairer(search);
    RepairResult reference =
        std::move(reference_repairer.Repair(dirty, ds.fds)).ValueOrDie();
    for (int threads : {2, 4, 8, 0}) {
      RepairOptions opts = search;
      opts.threads = threads;
      Repairer repairer(opts);
      RepairResult got =
          std::move(repairer.Repair(dirty, ds.fds)).ValueOrDie();
      SCOPED_TRACE("max_tree_nodes=" + std::to_string(search.max_tree_nodes) +
                   " use_target_tree=" +
                   std::to_string(search.use_target_tree) +
                   " threads=" + std::to_string(threads));
      ExpectResultsIdentical(reference, got);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Generators, ParallelSolveGeneratorTest,
                         ::testing::Bool());

TEST(ParallelSolveTest, DegradationSequenceDeterministicUnderExactFallback) {
  // A starved frontier makes every component fall off the exact rung
  // (budget-independent, so fully deterministic): the merged
  // degradation sequence must come out in component order with
  // monotone elapsed_ms at every thread count.
  Table dirty = CitizensDirty();
  std::vector<FD> fds = CitizensFDs(dirty.schema());
  RepairOptions serial = CitizensOptions(RepairAlgorithm::kExact);
  serial.max_frontier = 1;
  Repairer reference_repairer(serial);
  RepairResult reference =
      std::move(reference_repairer.Repair(dirty, fds)).ValueOrDie();
  ASSERT_FALSE(reference.stats.degradations.empty());
  for (int threads : {1, 2, 4, 8}) {
    RepairOptions opts = serial;
    opts.threads = threads;
    Repairer repairer(opts);
    RepairResult got = std::move(repairer.Repair(dirty, fds)).ValueOrDie();
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectResultsIdentical(reference, got);
    double last = 0;
    for (const DegradationEvent& event : got.stats.degradations) {
      EXPECT_GE(event.elapsed_ms, last);
      last = event.elapsed_ms;
    }
  }
}

// ---------------------------------------------------------------------------
// CFD path.

CFD CitizensStateCfd(const Schema& schema) {
  FD fd = std::move(FD::Make({schema.IndexOf("City")},
                             {schema.IndexOf("State")}, "phi2"))
              .ValueOrDie();
  std::vector<PatternRow> tableau;
  tableau.push_back({Value("New York"), Value("NY")});  // constant rule
  tableau.push_back({std::nullopt, std::nullopt});      // variable rule
  return std::move(CFD::Make(fd, std::move(tableau), "c1")).ValueOrDie();
}

TEST(ParallelCfdTest, TrustedRowSurvivesConstantPinning) {
  // Row 3 is (New York, MA): it violates the constant rule, but as a
  // trusted row it must keep MA and surface a trusted conflict —
  // historically the pinning loop overwrote it.
  Table dirty = CitizensDirty();
  Schema schema = dirty.schema();
  RepairOptions options;
  options.tau_by_fd = {{"phi2", 0.5}};
  options.trusted_rows = {3};
  Repairer repairer(options);
  RepairResult result =
      std::move(repairer.RepairCFDs(dirty, {CitizensStateCfd(schema)}))
          .ValueOrDie();
  EXPECT_EQ(result.repaired.cell(3, schema.IndexOf("State")), Value("MA"));
  EXPECT_GE(result.stats.trusted_conflicts, 1u);
  for (const CellChange& change : result.changes) {
    EXPECT_NE(change.row, 3);
  }
}

TEST(ParallelCfdTest, TrustedRowSurvivesVariableRepair) {
  // Minority-truth idiom: nine ("aaaaaa", right) rows and one trusted
  // ("aaaaab", right) row. Untrusted, the variable rule repairs the
  // singleton toward the majority; trusted, the singleton is pinned
  // and never written — historically the CFD variable path dropped
  // the mask and rewrote it anyway.
  Table t(Schema({{"k", ValueType::kString}, {"v", ValueType::kString}}));
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(t.AppendRow({Value("aaaaaa"), Value("right")}).ok());
  }
  ASSERT_TRUE(t.AppendRow({Value("aaaaab"), Value("right")}).ok());
  FD fd = std::move(FD::Make({0}, {1}, "phi")).ValueOrDie();
  std::vector<PatternRow> wildcard;
  wildcard.push_back({std::nullopt, std::nullopt});
  CFD cfd = std::move(CFD::Make(fd, std::move(wildcard), "c1")).ValueOrDie();
  RepairOptions baseline;
  baseline.tau_by_fd = {{"phi", 0.3}};
  Repairer baseline_repairer(baseline);
  RepairResult untrusted =
      std::move(baseline_repairer.RepairCFDs(t, {cfd})).ValueOrDie();
  ASSERT_EQ(untrusted.repaired.cell(9, 0), Value("aaaaaa"))
      << "baseline must actually repair row 9 for this regression to bite";
  RepairOptions options = baseline;
  options.trusted_rows = {9};
  Repairer repairer(options);
  RepairResult result =
      std::move(repairer.RepairCFDs(t, {cfd})).ValueOrDie();
  EXPECT_EQ(result.repaired.cell(9, 0), Value("aaaaab"));
  for (const CellChange& change : result.changes) {
    EXPECT_NE(change.row, 9);
  }
  // Trust inverts the repair direction: the majority rows now move
  // toward the pinned minority pattern (trust overrides frequency).
  EXPECT_EQ(result.repaired.cell(0, 0), Value("aaaaab"));
}

TEST(ParallelCfdTest, AutoThresholdMatchesExplicitTau) {
  // RepairCFDs with auto_threshold must behave exactly like a run
  // whose tau_by_fd was resolved by SuggestThreshold up front —
  // historically the CFD path silently used default_tau instead.
  Table dirty = CitizensDirty();
  Schema schema = dirty.schema();
  CFD cfd = CitizensStateCfd(schema);
  RepairOptions auto_opts;
  auto_opts.auto_threshold = true;
  auto_opts.default_tau = 0.05;  // tiny: ignoring auto_threshold shows
  Repairer auto_repairer(auto_opts);
  RepairResult with_auto =
      std::move(auto_repairer.RepairCFDs(dirty, {cfd})).ValueOrDie();

  DistanceModel model(dirty);
  ThresholdOptions topt;
  topt.w_l = auto_opts.w_l;
  topt.w_r = auto_opts.w_r;
  topt.fallback = auto_opts.default_tau;
  double suggested = SuggestThreshold(dirty, cfd.fd(), model, topt);
  RepairOptions explicit_opts;
  explicit_opts.default_tau = auto_opts.default_tau;
  explicit_opts.tau_by_fd = {{"phi2", suggested}};
  Repairer explicit_repairer(explicit_opts);
  RepairResult with_explicit =
      std::move(explicit_repairer.RepairCFDs(dirty, {cfd})).ValueOrDie();
  ExpectResultsIdentical(with_explicit, with_auto);
}

TEST(ParallelCfdTest, BitIdenticalAcrossThreadCounts) {
  // Two column-disjoint CFDs (Education->Level and City->State) form
  // two groups: the grouped fan-out must reproduce the serial result.
  Table dirty = CitizensDirty();
  Schema schema = dirty.schema();
  FD phi1 = std::move(FD::Make({schema.IndexOf("Education")},
                               {schema.IndexOf("Level")}, "phi1"))
                .ValueOrDie();
  std::vector<PatternRow> wildcard;
  wildcard.push_back({std::nullopt, std::nullopt});
  CFD cfd1 = std::move(CFD::Make(phi1, std::move(wildcard), "c0"))
                 .ValueOrDie();
  CFD cfd2 = CitizensStateCfd(schema);
  std::vector<CFD> cfds = {cfd1, cfd2};
  RepairOptions serial;
  serial.tau_by_fd = {{"phi1", 0.30}, {"phi2", 0.5}};
  serial.trusted_rows = {0};
  Repairer reference_repairer(serial);
  RepairResult reference =
      std::move(reference_repairer.RepairCFDs(dirty, cfds)).ValueOrDie();
  EXPECT_GT(reference.stats.cells_changed, 0);
  for (int threads : {2, 4, 8, 0}) {
    RepairOptions opts = serial;
    opts.threads = threads;
    Repairer repairer(opts);
    RepairResult got =
        std::move(repairer.RepairCFDs(dirty, cfds)).ValueOrDie();
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectResultsIdentical(reference, got);
  }
}

}  // namespace
}  // namespace ftrepair
