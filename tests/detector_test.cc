#include <gtest/gtest.h>

#include "detect/detector.h"
#include "test_util.h"

namespace ftrepair {
namespace {

using testing_util::CitizensDirty;
using testing_util::CitizensFDs;
using testing_util::CitizensTruth;
using testing_util::HasRowPair;
using testing_util::RandomFDTable;
using testing_util::RowPair;
using testing_util::RowProjection;
using testing_util::ViolatingRowPairs;

// Brute-force FT-violation pair count, for cross-checking the grouped
// implementation.
uint64_t BruteForceFTCount(const Table& t, const FD& fd,
                           const DistanceModel& model,
                           const FTOptions& opts) {
  uint64_t count = 0;
  for (int i = 0; i < t.num_rows(); ++i) {
    for (int j = i + 1; j < t.num_rows(); ++j) {
      bool differ = false;
      for (int c : fd.attrs()) {
        if (t.cell(i, c) != t.cell(j, c)) {
          differ = true;
          break;
        }
      }
      if (!differ) continue;
      double d = ViolationGraph::ProjDistance(
          RowProjection(t, i, fd.attrs()), RowProjection(t, j, fd.attrs()),
          fd, model, opts.w_l, opts.w_r);
      if (d <= opts.tau) ++count;
    }
  }
  return count;
}

TEST(DetectorTest, PaperExample4ClassicalViolation) {
  // (t4, t8) violate phi1: same Education (Masters), different Level.
  // (t4, t6) do not: Education differs.
  Table t = CitizensDirty();
  std::vector<FD> fds = CitizensFDs(t.schema());
  DistanceModel model(t);
  std::vector<RowPair> violations =
      ViolatingRowPairs(t, fds[0], model, ClassicalFTOptions());
  EXPECT_TRUE(HasRowPair(violations, 3, 7));
  EXPECT_FALSE(HasRowPair(violations, 3, 5));
  EXPECT_GT(CountExactViolations(t, fds[0]), 0u);
}

TEST(DetectorTest, TruthIsClassicallyConsistent) {
  Table truth = CitizensTruth();
  for (const FD& fd : CitizensFDs(truth.schema())) {
    EXPECT_EQ(CountExactViolations(truth, fd), 0u) << fd.name();
  }
}

TEST(DetectorTest, PaperExample6FTViolation) {
  // tau = 0.35: dist(t4^phi1, t6^phi1) ~= 0.07 < tau => FT-violation,
  // so D is not FT-consistent and the typo in t6[Education] is caught.
  Table t = CitizensDirty();
  std::vector<FD> fds = CitizensFDs(t.schema());
  DistanceModel model(t);
  FTOptions opts{0.5, 0.5, 0.35};
  bool has_t4_t6 = false;
  for (const RowPair& v : ViolatingRowPairs(t, fds[0], model, opts)) {
    if (v.row1 == 3 && v.row2 == 5) {
      has_t4_t6 = true;
      EXPECT_NEAR(v.proj_dist, 0.5 / 7.0, 1e-9);
    }
  }
  EXPECT_TRUE(has_t4_t6);
  EXPECT_GT(CountFTViolations(t, fds[0], model, opts), 0u);
}

TEST(DetectorTest, FTCapturesErrorsEqualityCannot) {
  // t8[City] = "Boton" conflicts with no tuple under string equality
  // w.r.t. phi2, but is an FT-violation with the Boston tuples (§1
  // Example 3).
  Table t = CitizensDirty();
  std::vector<FD> fds = CitizensFDs(t.schema());
  DistanceModel model(t);
  auto touches_t8 = [](const std::vector<RowPair>& pairs) {
    for (const RowPair& v : pairs) {
      if (v.row1 == 7 || v.row2 == 7) return true;
    }
    return false;
  };
  EXPECT_FALSE(
      touches_t8(ViolatingRowPairs(t, fds[1], model, ClassicalFTOptions())));
  EXPECT_TRUE(touches_t8(
      ViolatingRowPairs(t, fds[1], model, FTOptions{0.5, 0.5, 0.35})));
}

TEST(DetectorTest, ClassicalDegenerationProperty) {
  // With w_l = 1, w_r = 0, tau = 0 FT semantics equals classical
  // semantics (§2.1 Remark) — on the running example and random tables.
  Table citizens = CitizensDirty();
  std::vector<FD> cfds = CitizensFDs(citizens.schema());
  DistanceModel cmodel(citizens);
  for (const FD& fd : cfds) {
    EXPECT_EQ(CountFTViolations(citizens, fd, cmodel, ClassicalFTOptions()),
              CountExactViolations(citizens, fd));
  }
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Table t = RandomFDTable(60, 3, 5, 12, seed);
    FD fd = std::move(FD::Make({0}, {1})).ValueOrDie();
    DistanceModel model(t);
    EXPECT_EQ(CountFTViolations(t, fd, model, ClassicalFTOptions()),
              CountExactViolations(t, fd))
        << "seed " << seed;
  }
}

class DetectorPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DetectorPropertyTest, GroupedCountMatchesBruteForce) {
  Table t = RandomFDTable(50, 4, 6, 15, GetParam());
  FD fd = std::move(FD::Make({0, 2}, {1})).ValueOrDie();
  DistanceModel model(t);
  for (double tau : {0.1, 0.3, 0.6}) {
    FTOptions opts{0.5, 0.5, tau};
    EXPECT_EQ(CountFTViolations(t, fd, model, opts),
              BruteForceFTCount(t, fd, model, opts))
        << "tau " << tau;
  }
}

TEST_P(DetectorPropertyTest, Theorem1FTConsistencyImpliesConsistency) {
  // tau >= w_r * |Y|: FT-consistent => classically consistent.
  Table t = RandomFDTable(40, 3, 8, 6, GetParam() * 13 + 1);
  FD fd = std::move(FD::Make({0}, {1, 2})).ValueOrDie();
  DistanceModel model(t);
  double w_r = 0.5;
  FTOptions opts{0.5, w_r, w_r * fd.rhs_size()};
  // A classical violation (equal X, different Y) is within
  // w_r * |Y| <= tau, so it is an FT-violation too: FT-consistent
  // (count 0) implies consistent (count 0).
  uint64_t exact = CountExactViolations(t, fd);
  EXPECT_GT(exact, 0u);
  EXPECT_GE(CountFTViolations(t, fd, model, opts), exact);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DetectorPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(DetectorTest, ExactCountFormulaMatchesPairList) {
  // The class-size formula against the listed classical pairs: equal X,
  // different Y.
  Table t = CitizensDirty();
  DistanceModel model(t);
  for (const FD& fd : CitizensFDs(t.schema())) {
    uint64_t listed = 0;
    for (int i = 0; i < t.num_rows(); ++i) {
      for (int j = i + 1; j < t.num_rows(); ++j) {
        if (RowProjection(t, i, fd.lhs()) == RowProjection(t, j, fd.lhs()) &&
            RowProjection(t, i, fd.rhs()) != RowProjection(t, j, fd.rhs())) {
          ++listed;
        }
      }
    }
    EXPECT_GT(listed, 0u) << fd.name();
    EXPECT_EQ(CountExactViolations(t, fd), listed) << fd.name();
    EXPECT_EQ(ViolatingRowPairs(t, fd, model, ClassicalFTOptions()).size(),
              listed)
        << fd.name();
  }
}

TEST(DetectorTest, MultiFDConsistencyHelpers) {
  Table truth = CitizensTruth();
  Table dirty = CitizensDirty();
  std::vector<FD> fds = CitizensFDs(truth.schema());
  DistanceModel model(dirty);
  FTOptions opts{0.5, 0.5, 0.3};
  uint64_t truth_exact = 0;
  uint64_t dirty_exact = 0;
  uint64_t dirty_ft = 0;
  for (const FD& fd : fds) {
    truth_exact += CountExactViolations(truth, fd);
    dirty_exact += CountExactViolations(dirty, fd);
    dirty_ft += CountFTViolations(dirty, fd, model, opts);
  }
  EXPECT_EQ(truth_exact, 0u);
  EXPECT_GT(dirty_exact, 0u);
  EXPECT_GT(dirty_ft, 0u);
}

}  // namespace
}  // namespace ftrepair
