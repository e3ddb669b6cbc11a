// Cross-semantics differential & property harness — the pin holding
// the three repair semantics (core/semantics.h) together.
//
// 520 seeded adversarial tables (RandomFDTable shapes crossed with
// four FD-set layouts: single FD, multi-rhs FD, a shared-lhs multi-FD
// component, and two independent components) are repaired under every
// semantics and checked against the properties that define
// them:
//
//   1. cardinality never changes more cells than ft-cost does under
//      the same classical detection (it is the min-change semantics);
//   2. soft-fd with every confidence at 1 is byte-for-byte
//      decision-identical to ft-cost (infinite penalty rate == the
//      filter never fires);
//   3. the soft-fd filter only ever *reverts* repairs: cost and cells
//      changed are monotonically <= the ft-cost run, and the hard
//      (confidence 1) FDs stay consistent;
//   4. every mode's output satisfies its own consistency predicate
//      (CountResidualViolations == 0);
//   5. explain reports replay through VerifyExplainReport under every
//      semantics — including cardinality, whose verifier must rebuild
//      the indicator-metric distance model from the report.
//
// Runs that degraded or hit an empty target join are skipped where a
// property only holds for complete repairs; vacuity guards assert the
// harness actually exercised violating tables and non-skipped runs.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/strings.h"
#include "constraint/fd.h"
#include "core/repairer.h"
#include "core/semantics.h"
#include "data/csv.h"
#include "eval/explain_verify.h"
#include "test_util.h"

namespace ftrepair {
namespace {

using testing_util::RandomFDTable;

constexpr uint64_t kNumScenarios = 520;

/// One adversarial instance: a seeded dirty table plus its FD set.
struct Scenario {
  uint64_t seed = 0;
  Table table;
  std::vector<FD> fds;
};

/// Deterministic scenario family. The table shape, error density and
/// FD layout all derive from the seed, so every test in this file
/// walks the same 520 instances.
Scenario MakeScenario(uint64_t seed) {
  const int num_cols = 2 + static_cast<int>(seed % 3);
  const int num_rows = 16 + static_cast<int>(seed % 45);
  const int num_keys = 2 + static_cast<int>(seed % 5);
  const int num_flips = static_cast<int>(seed % 12);

  Scenario s;
  s.seed = seed;
  s.table =
      RandomFDTable(num_rows, num_cols, num_keys, num_flips, seed * 1000 + 17);

  auto fd = [](std::vector<int> lhs, std::vector<int> rhs, std::string name) {
    return std::move(FD::Make(std::move(lhs), std::move(rhs), std::move(name)))
        .ValueOrDie();
  };
  switch (seed % 4) {
    case 1:
      if (num_cols >= 3) {  // one FD, two rhs columns
        s.fds.push_back(fd({0}, {1, 2}, "phi0"));
        break;
      }
      [[fallthrough]];
    case 2:
      if (num_cols >= 3) {  // shared-lhs multi-FD component
        s.fds.push_back(fd({0}, {1}, "phi0"));
        s.fds.push_back(fd({0}, {2}, "phi1"));
        break;
      }
      [[fallthrough]];
    case 3:
      if (num_cols >= 4) {  // two independent components
        s.fds.push_back(fd({0}, {1}, "phi0"));
        s.fds.push_back(fd({2}, {3}, "phi1"));
        break;
      }
      [[fallthrough]];
    default:
      s.fds.push_back(fd({0}, {1}, "phi0"));
      break;
  }
  return s;
}

/// Classical-FD detection settings: the only configuration where
/// ft-cost and cardinality see the identical violation set, making
/// their change counts comparable.
RepairOptions ClassicalOptions(uint64_t seed) {
  RepairOptions options;
  options.w_l = 1.0;
  options.w_r = 0.0;
  options.default_tau = 0.0;
  options.algorithm = RepairAlgorithm::kExact;
  options.threads = (seed % 2 == 0) ? 1 : 4;
  return options;
}

/// A "natural" ft configuration (positive tau, split weights, the
/// algorithm family cycling with the seed) for the soft-fd
/// differentials, which hold at any settings.
RepairOptions NaturalOptions(uint64_t seed) {
  RepairOptions options;
  options.default_tau = (seed % 2 == 0) ? 0.2 : 0.4;
  switch (seed % 3) {
    case 0:
      options.algorithm = RepairAlgorithm::kExact;
      break;
    case 1:
      options.algorithm = RepairAlgorithm::kGreedy;
      break;
    default:
      options.algorithm = RepairAlgorithm::kApproJoin;
      break;
  }
  options.threads = (seed % 4 == 3) ? 4 : 1;
  return options;
}

RepairResult RunRepair(const Scenario& s, const RepairOptions& options) {
  auto result = Repairer(options).Repair(s.table, s.fds);
  EXPECT_TRUE(result.ok()) << "seed " << s.seed << ": "
                           << result.status().ToString();
  return result.ok() ? std::move(result).value() : RepairResult{};
}

uint64_t Residual(const std::string& semantics, const Table& repaired,
                  const Scenario& s, const RepairOptions& options) {
  auto id = ParseSemantics(semantics);
  EXPECT_TRUE(id.ok()) << id.status().ToString();
  return id.ok() ? CountResidualViolations(id.value(), repaired, s.fds, options)
                 : ~0ULL;
}

/// Byte-level fingerprint of everything a repair produced (the
/// semantics_golden_test format: equal fingerprints == the two runs
/// made the same decisions everywhere).
std::string Fingerprint(const RepairResult& result) {
  std::string fp = WriteCsvString(result.repaired);
  fp += "|changes:";
  for (const CellChange& c : result.changes) {
    fp += std::to_string(c.row) + "," + std::to_string(c.col) + ":" +
          c.old_value.ToString() + "->" + c.new_value.ToString() + ";";
  }
  fp += "|cost:" + FormatDouble(result.stats.repair_cost);
  fp += "|cells:" + std::to_string(result.stats.cells_changed);
  fp += "|tuples:" + std::to_string(result.stats.tuples_changed);
  fp += "|before:" + std::to_string(result.stats.ft_violations_before);
  fp += "|after:" + std::to_string(result.stats.ft_violations_after);
  return fp;
}

bool Complete(const RepairResult& result) {
  return !result.stats.degraded() && !result.stats.join_empty;
}

// Property 1 + 4 (ft-cost, cardinality): under identical classical
// detection, both semantics repair over the same feasible target
// space, so the min-change optimum can never change more cells than
// the min-cost optimum; and each output must satisfy its own
// consistency predicate.
TEST(SemanticsPropertyTest, CardinalityNeverChangesMoreCellsThanFtCost) {
  uint64_t compared = 0;
  uint64_t skipped = 0;
  uint64_t had_violations = 0;
  for (uint64_t seed = 1; seed <= kNumScenarios; ++seed) {
    const Scenario s = MakeScenario(seed);

    RepairOptions ft_options = ClassicalOptions(seed);
    ft_options.semantics = "ft-cost";
    const RepairResult ft = RunRepair(s, ft_options);

    RepairOptions card_options = ClassicalOptions(seed);
    card_options.semantics = "cardinality";
    const RepairResult card = RunRepair(s, card_options);
    if (HasFatalFailure()) return;

    if (ft.stats.ft_violations_before > 0) ++had_violations;

    // The comparison (and the consistency predicates) only bind when
    // both runs completed their requested rung without truncation.
    if (!Complete(ft) || !Complete(card)) {
      ++skipped;
      continue;
    }
    ++compared;

    EXPECT_LE(card.stats.cells_changed, ft.stats.cells_changed)
        << "seed " << seed
        << ": cardinality changed more cells than ft-cost";

    EXPECT_EQ(Residual("cardinality", card.repaired, s, card_options), 0u)
        << "seed " << seed << ": cardinality output not exact-FD consistent";
    EXPECT_EQ(Residual("ft-cost", ft.repaired, s, ft_options),
              ft.stats.ft_violations_after)
        << "seed " << seed
        << ": registry predicate disagrees with the pipeline's own count";
    EXPECT_EQ(Residual("ft-cost", ft.repaired, s, ft_options), 0u)
        << "seed " << seed << ": ft-cost output not FT-consistent";
  }
  // Vacuity guards: the harness must have exercised real violations
  // and actually compared most runs.
  EXPECT_GE(had_violations, kNumScenarios / 4);
  EXPECT_GE(compared, kNumScenarios / 2) << "skipped " << skipped;
}

// Property 2: confidence 1 == infinite penalty rate == the revert
// filter can never fire, so soft-fd must reproduce the ft-cost run
// byte for byte — table, change list, cost and stats counters.
TEST(SemanticsPropertyTest, SoftFdAtFullConfidenceIsDecisionIdentical) {
  for (uint64_t seed = 1; seed <= kNumScenarios; ++seed) {
    const Scenario s = MakeScenario(seed);

    RepairOptions ft_options = NaturalOptions(seed);
    ft_options.semantics = "ft-cost";
    const RepairResult ft = RunRepair(s, ft_options);

    RepairOptions soft_options = NaturalOptions(seed);
    soft_options.semantics = "soft-fd";  // every FD keeps confidence 1
    const RepairResult soft = RunRepair(s, soft_options);
    if (HasFatalFailure()) return;

    ASSERT_EQ(Fingerprint(soft), Fingerprint(ft))
        << "seed " << seed
        << ": soft-fd at confidence 1 diverged from ft-cost";
  }
}

// Property 3 + 4 (soft-fd): the penalty filter only reverts repairs,
// so against the same-options ft-cost run the soft run's cost and
// changed-cell count are monotonically <=; and the hard FDs (the ones
// the predicate counts) stay consistent whenever the run completed.
TEST(SemanticsPropertyTest, SoftFdFilterOnlyRevertsRepairs) {
  uint64_t reverted_somewhere = 0;
  for (uint64_t seed = 1; seed <= kNumScenarios; ++seed) {
    const Scenario s = MakeScenario(seed);

    // Classical detection keeps the violation graphs sparse (per-key
    // cliques), so a low-confidence FD's penalty can actually fall
    // below the repair cost; under a dense tau>0 graph every pattern
    // has so many violating pairs that repairs are always worth it.
    RepairOptions ft_options = ClassicalOptions(seed);
    switch (seed % 3) {
      case 0:
        ft_options.algorithm = RepairAlgorithm::kExact;
        break;
      case 1:
        ft_options.algorithm = RepairAlgorithm::kGreedy;
        break;
      default:
        ft_options.algorithm = RepairAlgorithm::kApproJoin;
        break;
    }
    ft_options.semantics = "ft-cost";
    const RepairResult ft = RunRepair(s, ft_options);

    RepairOptions soft_options = ft_options;
    soft_options.semantics = "soft-fd";
    // First FD soft with a seed-varied confidence, the rest hard. The
    // grid spans low-trust FDs (where reverting beats repairing) up to
    // near-hard ones, so both filter outcomes occur across the sweep.
    static constexpr double kConfidences[7] = {0.01, 0.03, 0.08, 0.15,
                                               0.3,  0.6,  0.9};
    soft_options.confidence_by_fd["phi0"] = kConfidences[seed % 7];
    const RepairResult soft = RunRepair(s, soft_options);
    if (HasFatalFailure()) return;

    EXPECT_LE(soft.stats.repair_cost, ft.stats.repair_cost + 1e-9)
        << "seed " << seed << ": soft-fd repaired at a higher cost";
    EXPECT_LE(soft.stats.cells_changed, ft.stats.cells_changed)
        << "seed " << seed << ": soft-fd changed more cells";
    if (soft.stats.cells_changed < ft.stats.cells_changed) {
      ++reverted_somewhere;
    }

    if (Complete(soft)) {
      EXPECT_EQ(Residual("soft-fd", soft.repaired, s, soft_options), 0u)
          << "seed " << seed << ": a hard FD is inconsistent after soft-fd";
    }
  }
  // Vacuity guard: the filter must actually have fired somewhere.
  EXPECT_GE(reverted_somewhere, 10u);
}

// Property 4, all three modes at the natural settings (the classical
// test already covers ft-cost/cardinality at tau 0): whatever a mode
// emits must satisfy that same mode's consistency predicate.
TEST(SemanticsPropertyTest, EveryModeSatisfiesItsOwnConsistencyPredicate) {
  uint64_t checked = 0;
  for (uint64_t seed = 1; seed <= kNumScenarios; seed += 4) {
    const Scenario s = MakeScenario(seed);
    for (const std::string& semantics :
         {std::string("ft-cost"), std::string("soft-fd"),
          std::string("cardinality")}) {
      RepairOptions options = NaturalOptions(seed);
      options.semantics = semantics;
      if (semantics == "soft-fd") {
        options.confidence_by_fd["phi0"] = 0.5;
      }
      const RepairResult result = RunRepair(s, options);
      if (HasFatalFailure()) return;
      if (!Complete(result)) continue;
      ++checked;
      EXPECT_EQ(Residual(semantics, result.repaired, s, options), 0u)
          << "seed " << seed << ": " << semantics
          << " output violates its own consistency predicate";
    }
  }
  EXPECT_GE(checked, kNumScenarios / 4);
}

// Property 5: explain reports replay under every semantics. The
// cardinality replays exercise the verifier's semantics-aware
// distance-model reconstruction (indicator metrics); a drifted model
// would fail every recomputed unit cost.
TEST(SemanticsPropertyTest, ExplainReplayVerifiesAcrossSemantics) {
  int replayed = 0;
  for (uint64_t seed = 1; seed <= kNumScenarios; seed += 37) {
    const Scenario s = MakeScenario(seed);
    for (const std::string& semantics :
         {std::string("ft-cost"), std::string("soft-fd"),
          std::string("cardinality")}) {
      RepairOptions options = NaturalOptions(seed);
      options.semantics = semantics;
      options.provenance = true;
      if (semantics == "soft-fd") {
        options.confidence_by_fd["phi0"] = 0.7;
      }
      const RepairResult result = RunRepair(s, options);
      if (HasFatalFailure()) return;

      const std::string json = ExplainReportJson(s.table, result);
      auto verify = VerifyExplainReport(s.table, json, 1e-6);
      ASSERT_TRUE(verify.ok()) << "seed " << seed << " " << semantics << ": "
                               << verify.status().ToString();
      EXPECT_TRUE(verify.value().errors.empty())
          << "seed " << seed << " " << semantics << ": "
          << (verify.value().errors.empty() ? ""
                                            : verify.value().errors.front());
      ++replayed;
    }
  }
  EXPECT_GE(replayed, 42);  // 14 seeds x 3 semantics
}

}  // namespace
}  // namespace ftrepair
