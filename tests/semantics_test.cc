// Unit tests of the repair-semantics layer's parts: the SemanticsId
// table (name lookup, the actionable unknown-name error, CFD support,
// option validation), the cardinality majority solver, and the soft-fd
// penalty filter. End-to-end behavior across the three built-ins is
// pinned by semantics_property_test / semantics_golden_test.

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "constraint/fd.h"
#include "core/cardinality.h"
#include "core/repairer.h"
#include "core/semantics.h"
#include "core/soft_fd.h"
#include "detect/pattern.h"
#include "detect/violation_graph.h"
#include "metric/projection.h"
#include "test_util.h"

namespace ftrepair {
namespace {

// ---------------------------------------------------------------------------
// SemanticsId table

TEST(SemanticsRegistryTest, BuiltinsAreRegistered) {
  for (const char* name : {"cardinality", "ft-cost", "soft-fd"}) {
    auto parsed = ParseSemantics(name);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_STREQ(SemanticsName(parsed.value()), name);
  }
  EXPECT_EQ(ParseSemantics("ft-cost").value(), SemanticsId::kFtCost);
  EXPECT_TRUE(SupportsCfds(SemanticsId::kFtCost));
  EXPECT_EQ(ParseSemantics("soft-fd").value(), SemanticsId::kSoftFd);
  EXPECT_FALSE(SupportsCfds(SemanticsId::kSoftFd));
  EXPECT_EQ(ParseSemantics("cardinality").value(), SemanticsId::kCardinality);
  EXPECT_FALSE(SupportsCfds(SemanticsId::kCardinality));

  EXPECT_FALSE(ParseSemantics("nope").ok());

  EXPECT_STREQ(SemanticsName(SemanticsId::kFtCost), "ft-cost");
  EXPECT_STREQ(SemanticsName(SemanticsId::kSoftFd), "soft-fd");
  EXPECT_STREQ(SemanticsName(SemanticsId::kCardinality), "cardinality");
}

TEST(SemanticsRegistryTest, ResolveUnknownListsEveryRegisteredName) {
  auto resolved = ParseSemantics("nope");
  ASSERT_FALSE(resolved.ok());
  EXPECT_TRUE(resolved.status().IsInvalidArgument());
  const std::string& message = resolved.status().message();
  EXPECT_NE(message.find("unknown semantics 'nope'"), std::string::npos)
      << message;
  for (const char* known : {"cardinality", "ft-cost", "soft-fd"}) {
    EXPECT_NE(message.find(known), std::string::npos) << message;
  }
  // Single line: the CLI forwards this verbatim as its whole error.
  EXPECT_EQ(message.find('\n'), std::string::npos) << message;
}

TEST(SemanticsRegistryTest, SoftFdValidateRejectsBadConfidences) {
  std::vector<FD> fds{std::move(FD::Make({0}, {1}, "phi")).ValueOrDie()};
  auto validate = [&fds](const RepairOptions& options) {
    return ValidateSemantics(SemanticsId::kSoftFd, options, fds);
  };

  RepairOptions options;
  options.confidence_by_fd["phi"] = 0.5;
  EXPECT_TRUE(validate(options).ok());

  options.confidence_by_fd["phi"] = 0.0;
  EXPECT_FALSE(validate(options).ok());
  options.confidence_by_fd["phi"] = 1.5;
  EXPECT_FALSE(validate(options).ok());

  options.confidence_by_fd.clear();
  options.confidence_by_fd["phantom"] = 0.5;
  Status unknown = validate(options);
  EXPECT_FALSE(unknown.ok());
  EXPECT_NE(unknown.message().find("phantom"), std::string::npos)
      << unknown.ToString();
}

// ---------------------------------------------------------------------------
// Cardinality majority solver

/// Classical (tau 0, lhs-only) violation graph over an indicator-metric
/// model — exactly the preconditions the pipeline establishes before
/// dispatching to SolveCardinalityMajority.
ViolationGraph ClassicalGraph(const Table& t, const FD& fd) {
  DistanceModel model(t);
  for (int c = 0; c < t.num_columns(); ++c) {
    model.SetColumnMetric(c, ColumnMetric::kDiscrete);
  }
  return ViolationGraph::Build(BuildPatterns(t, fd.attrs()), t, fd, model,
                               FTOptions{1.0, 0.0, 0.0});
}

Table TwoColumnTable(const std::vector<std::pair<std::string, std::string>>&
                         rows) {
  Table t{Schema({{"c0", ValueType::kString}, {"c1", ValueType::kString}})};
  for (const auto& [a, b] : rows) {
    EXPECT_TRUE(t.AppendRow({Value(a), Value(b)}).ok());
  }
  return t;
}

// Pattern id of a (c0 -> c1) graph over `t` rendering as (lhs, rhs).
int PatternId(const ViolationGraph& g, const Table& t, const std::string& lhs,
              const std::string& rhs) {
  for (int i = 0; i < g.num_patterns(); ++i) {
    const std::vector<uint32_t>& codes = g.pattern(i).codes;
    if (t.dictionary(0).value(codes[0]).ToString() == lhs &&
        t.dictionary(1).value(codes[1]).ToString() == rhs) {
      return i;
    }
  }
  ADD_FAILURE() << "no pattern " << lhs << "/" << rhs;
  return -1;
}

TEST(CardinalityMajorityTest, RepairsMinorityTowardMajority) {
  // Block "a": x dominates (3 rows) over y (1) and z (1); block "b" is
  // already consistent. Min-change == 2 cells.
  Table t = TwoColumnTable({{"a", "x"},
                            {"a", "x"},
                            {"a", "x"},
                            {"a", "y"},
                            {"a", "z"},
                            {"b", "w"}});
  FD fd = std::move(FD::Make({0}, {1}, "phi")).ValueOrDie();
  ViolationGraph g = ClassicalGraph(t, fd);

  uint64_t conflicts = 0;
  SingleFDSolution solution = SolveCardinalityMajority(g, nullptr, &conflicts);
  EXPECT_EQ(conflicts, 0u);
  EXPECT_EQ(solution.rung, SolverRung::kCardinality);
  EXPECT_FALSE(solution.truncated);

  const int x = PatternId(g, t, "a", "x");
  const int y = PatternId(g, t, "a", "y");
  const int z = PatternId(g, t, "a", "z");
  const int w = PatternId(g, t, "b", "w");
  EXPECT_EQ(solution.repair_target[static_cast<size_t>(x)], -1);
  EXPECT_EQ(solution.repair_target[static_cast<size_t>(y)], x);
  EXPECT_EQ(solution.repair_target[static_cast<size_t>(z)], x);
  EXPECT_EQ(solution.repair_target[static_cast<size_t>(w)], -1);
  // Indicator pricing: each repaired row rewrites one rhs cell.
  EXPECT_DOUBLE_EQ(solution.cost, 2.0);
  // Unrepaired patterns form the chosen (kept) set.
  EXPECT_EQ(solution.chosen_set.size(), 2u);
}

TEST(CardinalityMajorityTest, TieBreaksTowardLowestPatternId) {
  Table t = TwoColumnTable({{"a", "x"}, {"a", "y"}, {"a", "x"}, {"a", "y"}});
  FD fd = std::move(FD::Make({0}, {1}, "phi")).ValueOrDie();
  ViolationGraph g = ClassicalGraph(t, fd);

  uint64_t conflicts = 0;
  SingleFDSolution solution = SolveCardinalityMajority(g, nullptr, &conflicts);
  const int x = PatternId(g, t, "a", "x");
  const int y = PatternId(g, t, "a", "y");
  const int lo = std::min(x, y);
  const int hi = std::max(x, y);
  EXPECT_EQ(solution.repair_target[static_cast<size_t>(lo)], -1);
  EXPECT_EQ(solution.repair_target[static_cast<size_t>(hi)], lo);
  EXPECT_DOUBLE_EQ(solution.cost, 2.0);
}

TEST(CardinalityMajorityTest, ForcedPatternBeatsMajority) {
  // "y" carries a trusted row: the 3-row majority must repair toward
  // it, not the other way around.
  Table t = TwoColumnTable(
      {{"a", "x"}, {"a", "x"}, {"a", "x"}, {"a", "y"}});
  FD fd = std::move(FD::Make({0}, {1}, "phi")).ValueOrDie();
  ViolationGraph g = ClassicalGraph(t, fd);

  const int x = PatternId(g, t, "a", "x");
  const int y = PatternId(g, t, "a", "y");
  std::vector<bool> forced(static_cast<size_t>(g.num_patterns()), false);
  forced[static_cast<size_t>(y)] = true;

  uint64_t conflicts = 0;
  SingleFDSolution solution = SolveCardinalityMajority(g, &forced, &conflicts);
  EXPECT_EQ(conflicts, 0u);
  EXPECT_EQ(solution.repair_target[static_cast<size_t>(y)], -1);
  EXPECT_EQ(solution.repair_target[static_cast<size_t>(x)], y);
  EXPECT_DOUBLE_EQ(solution.cost, 3.0);
}

TEST(CardinalityMajorityTest, ConflictingForcedPatternsAreCountedNotRepaired) {
  Table t = TwoColumnTable({{"a", "x"}, {"a", "y"}, {"a", "z"}});
  FD fd = std::move(FD::Make({0}, {1}, "phi")).ValueOrDie();
  ViolationGraph g = ClassicalGraph(t, fd);

  const int x = PatternId(g, t, "a", "x");
  const int y = PatternId(g, t, "a", "y");
  const int z = PatternId(g, t, "a", "z");
  std::vector<bool> forced(static_cast<size_t>(g.num_patterns()), false);
  forced[static_cast<size_t>(x)] = true;
  forced[static_cast<size_t>(y)] = true;

  uint64_t conflicts = 0;
  SingleFDSolution solution = SolveCardinalityMajority(g, &forced, &conflicts);
  // Two trusted patterns disagree: 2*(2-1)/2 = 1 conflict pair; both
  // keep their values, the non-forced pattern repairs to the lowest-id
  // forced one.
  EXPECT_EQ(conflicts, 1u);
  EXPECT_EQ(solution.repair_target[static_cast<size_t>(x)], -1);
  EXPECT_EQ(solution.repair_target[static_cast<size_t>(y)], -1);
  EXPECT_EQ(solution.repair_target[static_cast<size_t>(z)], std::min(x, y));
}

// ---------------------------------------------------------------------------
// Soft-fd penalty rate + filters

TEST(SoftFdTest, PenaltyRateShape) {
  EXPECT_EQ(SoftFdPenaltyRate(1.0), std::numeric_limits<double>::infinity());
  EXPECT_EQ(SoftFdPenaltyRate(1.5), std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(SoftFdPenaltyRate(0.5), 1.0);
  EXPECT_NEAR(SoftFdPenaltyRate(0.9), 9.0, 1e-12);
  EXPECT_DOUBLE_EQ(SoftFdPenaltyRate(0.0), 0.0);
  EXPECT_DOUBLE_EQ(SoftFdPenaltyRate(-0.3), 0.0);
  EXPECT_LT(SoftFdPenaltyRate(0.2), SoftFdPenaltyRate(0.4));
}

TEST(SoftFdTest, SingleFilterRevertsExactlyWhenCostExceedsPenalty) {
  // Block "a": 3 rows of x, 1 of y. Repairing y -> x costs 1 cell
  // (indicator metric) and discharges 3 violating pairs.
  Table t = TwoColumnTable({{"a", "x"}, {"a", "x"}, {"a", "x"}, {"a", "y"}});
  FD fd = std::move(FD::Make({0}, {1}, "phi")).ValueOrDie();
  ViolationGraph g = ClassicalGraph(t, fd);
  const int x = PatternId(g, t, "a", "x");
  const int y = PatternId(g, t, "a", "y");

  uint64_t conflicts = 0;
  SingleFDSolution repaired = SolveCardinalityMajority(g, nullptr, &conflicts);
  ASSERT_EQ(repaired.repair_target[static_cast<size_t>(y)], x);

  // rate 1 (c = 0.5): benefit 1*1*3 = 3 >= cost 1 — repair kept.
  SingleFDSolution kept = repaired;
  FilterSingleFDSolutionSoft(g, SoftFdPenaltyRate(0.5), &kept);
  EXPECT_EQ(kept.repair_target[static_cast<size_t>(y)], x);
  EXPECT_DOUBLE_EQ(kept.cost, repaired.cost);

  // rate 0.25 (c = 0.2): benefit 0.75 < cost 1 — repair reverted, the
  // pattern rejoins the chosen set and its cost leaves the total.
  SingleFDSolution dropped = repaired;
  FilterSingleFDSolutionSoft(g, SoftFdPenaltyRate(0.2), &dropped);
  EXPECT_EQ(dropped.repair_target[static_cast<size_t>(y)], -1);
  EXPECT_DOUBLE_EQ(dropped.cost, 0.0);
  EXPECT_NE(std::find(dropped.chosen_set.begin(), dropped.chosen_set.end(), y),
            dropped.chosen_set.end());
}

TEST(SoftFdTest, AllSoftMultiComponentReverts) {
  // Shared-lhs component {c0->c1, c0->c2}: one doubly-flipped row
  // against five agreeing ones. ft-cost rewrites its two rhs cells;
  // with both FDs at confidence 0.05 the penalty (2 * 0.0526 * 5) is
  // far below the repair cost (~2), so soft-fd keeps the row as is.
  Table t{Schema({{"c0", ValueType::kString},
                  {"c1", ValueType::kString},
                  {"c2", ValueType::kString}})};
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(t.AppendRow({Value("a"), Value("b"), Value("c")}).ok());
  }
  ASSERT_TRUE(t.AppendRow({Value("a"), Value("B"), Value("C")}).ok());
  std::vector<FD> fds{std::move(FD::Make({0}, {1}, "phi0")).ValueOrDie(),
                      std::move(FD::Make({0}, {2}, "phi1")).ValueOrDie()};

  RepairOptions options;
  options.w_l = 1.0;
  options.w_r = 0.0;
  options.default_tau = 0.0;
  options.semantics = "ft-cost";
  auto ft = Repairer(options).Repair(t, fds);
  ASSERT_TRUE(ft.ok()) << ft.status().ToString();
  EXPECT_EQ(ft.value().stats.cells_changed, 2);

  options.semantics = "soft-fd";
  options.confidence_by_fd["phi0"] = 0.05;
  options.confidence_by_fd["phi1"] = 0.05;
  auto soft = Repairer(options).Repair(t, fds);
  ASSERT_TRUE(soft.ok()) << soft.status().ToString();
  EXPECT_EQ(soft.value().stats.cells_changed, 0);
  EXPECT_DOUBLE_EQ(soft.value().stats.repair_cost, 0.0);

  // A mixed component (one hard FD) must NOT filter: the hard FD's
  // consistency cannot be sacrificed.
  options.confidence_by_fd.erase("phi1");
  auto mixed = Repairer(options).Repair(t, fds);
  ASSERT_TRUE(mixed.ok()) << mixed.status().ToString();
  EXPECT_EQ(mixed.value().stats.cells_changed, 2);
}

}  // namespace
}  // namespace ftrepair
