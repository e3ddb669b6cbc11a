#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "detect/detector.h"
#include "gen/error_injector.h"
#include "gen/hosp_gen.h"
#include "gen/pools.h"
#include "gen/tax_gen.h"
#include "metric/distance.h"

namespace ftrepair {
namespace {

double PoolFloor(const std::vector<std::string>& pool) {
  double floor = 1.0;
  for (size_t i = 0; i < pool.size(); ++i) {
    for (size_t j = i + 1; j < pool.size(); ++j) {
      floor = std::min(floor, NormalizedEditDistance(pool[i], pool[j]));
    }
  }
  return floor;
}

TEST(PoolsTest, CuratedSeparationFloors) {
  // These floors underwrite the datasets' recommended taus.
  EXPECT_GE(PoolFloor(StateNamePool()), 0.61);
  EXPECT_GE(PoolFloor(CityNamePool()), 0.62);
  std::vector<std::string> names = FirstNamePoolMale();
  names.insert(names.end(), FirstNamePoolFemale().begin(),
               FirstNamePoolFemale().end());
  EXPECT_GE(PoolFloor(names), 0.70);
}

TEST(PoolsTest, DistinctCodesRespectMinDistance) {
  Rng rng(3);
  std::vector<std::string> codes = MakeDistinctDigitCodes(&rng, 40, 6, 4);
  ASSERT_EQ(codes.size(), 40u);
  for (size_t i = 0; i < codes.size(); ++i) {
    EXPECT_EQ(codes[i].size(), 6u);
    for (size_t j = i + 1; j < codes.size(); ++j) {
      EXPECT_GE(EditDistance(codes[i], codes[j]), 4u)
          << codes[i] << " vs " << codes[j];
    }
  }
}

class DatasetTest : public ::testing::TestWithParam<bool> {
 protected:
  Dataset Generate(int rows, uint64_t seed) {
    if (GetParam()) {
      return std::move(GenerateHosp({.num_rows = rows, .seed = seed}))
          .ValueOrDie();
    }
    return std::move(GenerateTax({.num_rows = rows, .seed = seed}))
        .ValueOrDie();
  }
};

TEST_P(DatasetTest, ShapeMatchesPaper) {
  Dataset ds = Generate(500, 7);
  EXPECT_EQ(ds.clean.num_rows(), 500);
  EXPECT_EQ(ds.fds.size(), 9u);  // 9 FDs on both datasets (§6.1)
  if (GetParam()) {
    EXPECT_EQ(ds.name, "HOSP");
    EXPECT_EQ(ds.clean.num_columns(), 19);
  } else {
    EXPECT_EQ(ds.name, "Tax");
    EXPECT_EQ(ds.clean.num_columns(), 15);
  }
  EXPECT_EQ(ds.recommended_tau.size(), 9u);
  for (const FD& fd : ds.fds) {
    EXPECT_TRUE(ds.recommended_tau.count(fd.name())) << fd.name();
  }
}

TEST_P(DatasetTest, CleanDataSatisfiesAllFDs) {
  Dataset ds = Generate(800, 11);
  for (const FD& fd : ds.fds) {
    EXPECT_EQ(CountExactViolations(ds.clean, fd), 0u) << fd.name();
  }
}

TEST_P(DatasetTest, CleanDataHasZeroFTViolationsAtRecommendedTaus) {
  // The separation property: the value pools keep every legitimate
  // pattern pair above tau, so FT-detection on clean data is silent.
  Dataset ds = Generate(800, 13);
  DistanceModel model(ds.clean);
  for (const FD& fd : ds.fds) {
    FTOptions opts{ds.recommended_w_l, ds.recommended_w_r,
                   ds.recommended_tau.at(fd.name())};
    EXPECT_EQ(CountFTViolations(ds.clean, fd, model, opts), 0u)
        << fd.name();
  }
}

TEST_P(DatasetTest, DeterministicBySeed) {
  Dataset a = Generate(200, 21);
  Dataset b = Generate(200, 21);
  Dataset c = Generate(200, 22);
  for (int r = 0; r < a.clean.num_rows(); ++r) {
    for (int col = 0; col < a.clean.num_columns(); ++col) {
      ASSERT_EQ(a.clean.cell(r, col), b.clean.cell(r, col));
    }
  }
  bool differs = false;
  for (int r = 0; r < a.clean.num_rows() && !differs; ++r) {
    for (int col = 0; col < a.clean.num_columns() && !differs; ++col) {
      differs = a.clean.cell(r, col) != c.clean.cell(r, col);
    }
  }
  EXPECT_TRUE(differs);
}

TEST_P(DatasetTest, RejectsNonPositiveRows) {
  if (GetParam()) {
    EXPECT_FALSE(GenerateHosp({.num_rows = 0}).ok());
  } else {
    EXPECT_FALSE(GenerateTax({.num_rows = 0}).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(HospAndTax, DatasetTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Hosp" : "Tax";
                         });

TEST(ErrorInjectorTest, BudgetAccounting) {
  Dataset ds = std::move(GenerateHosp({.num_rows = 1000, .seed = 3}))
                   .ValueOrDie();
  NoiseOptions noise;
  noise.error_rate = 0.05;
  noise.seed = 9;
  NoiseReport report;
  Table dirty =
      std::move(InjectErrors(ds.clean, ds.fds, noise, &report)).ValueOrDie();
  // FD columns of HOSP: union of all attrs.
  std::set<int> fd_cols;
  for (const FD& fd : ds.fds) {
    fd_cols.insert(fd.attrs().begin(), fd.attrs().end());
  }
  int budget = static_cast<int>(
      std::llround(0.05 * 1000 * static_cast<int>(fd_cols.size())));
  EXPECT_EQ(report.cells_dirtied, budget);
  EXPECT_NEAR(report.lhs_errors, budget / 3.0, budget * 0.05 + 2);
  EXPECT_NEAR(report.rhs_errors, budget / 3.0, budget * 0.05 + 2);
  EXPECT_NEAR(report.typos, budget / 3.0, budget * 0.05 + 2);
  // Exactly `budget` cells differ, all within FD columns.
  int diff = 0;
  for (int r = 0; r < dirty.num_rows(); ++r) {
    for (int c = 0; c < dirty.num_columns(); ++c) {
      if (dirty.cell(r, c) != ds.clean.cell(r, c)) {
        ++diff;
        EXPECT_TRUE(fd_cols.count(c)) << "non-FD column dirtied: " << c;
      }
    }
  }
  EXPECT_EQ(diff, report.cells_dirtied);
}

TEST(ErrorInjectorTest, ZeroRateLeavesTableClean) {
  Dataset ds = std::move(GenerateTax({.num_rows = 100, .seed = 3}))
                   .ValueOrDie();
  NoiseOptions noise;
  noise.error_rate = 0.0;
  Table dirty =
      std::move(InjectErrors(ds.clean, ds.fds, noise, nullptr)).ValueOrDie();
  for (int r = 0; r < dirty.num_rows(); ++r) {
    for (int c = 0; c < dirty.num_columns(); ++c) {
      ASSERT_EQ(dirty.cell(r, c), ds.clean.cell(r, c));
    }
  }
}

TEST(ErrorInjectorTest, InvalidOptionsRejected) {
  Dataset ds =
      std::move(GenerateTax({.num_rows = 50, .seed = 3})).ValueOrDie();
  NoiseOptions noise;
  noise.error_rate = 1.5;
  EXPECT_FALSE(InjectErrors(ds.clean, ds.fds, noise, nullptr).ok());
  noise.error_rate = 0.1;
  noise.lhs_fraction = noise.rhs_fraction = noise.typo_fraction = 0;
  EXPECT_FALSE(InjectErrors(ds.clean, ds.fds, noise, nullptr).ok());
  EXPECT_FALSE(InjectErrors(ds.clean, {}, NoiseOptions{}, nullptr).ok());
}

TEST(ErrorInjectorTest, DeterministicBySeed) {
  Dataset ds =
      std::move(GenerateTax({.num_rows = 300, .seed = 3})).ValueOrDie();
  NoiseOptions noise;
  noise.error_rate = 0.04;
  noise.seed = 77;
  Table a = std::move(InjectErrors(ds.clean, ds.fds, noise, nullptr))
                .ValueOrDie();
  Table b = std::move(InjectErrors(ds.clean, ds.fds, noise, nullptr))
                .ValueOrDie();
  for (int r = 0; r < a.num_rows(); ++r) {
    for (int c = 0; c < a.num_columns(); ++c) {
      ASSERT_EQ(a.cell(r, c), b.cell(r, c));
    }
  }
}

TEST(MakeTypoTest, AlwaysChangesTheValue) {
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    Value s("Boston");
    Value typo = MakeTypo(s, &rng);
    EXPECT_NE(typo, s);
    Value n(42.0);
    Value ntypo = MakeTypo(n, &rng);
    EXPECT_NE(ntypo, n);
  }
  // Degenerate inputs still change.
  EXPECT_NE(MakeTypo(Value(""), &rng), Value(""));
}

TEST(MakeTypoTest, StringTyposStayClose) {
  Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    Value typo = MakeTypo(Value("Sacramento"), &rng);
    ASSERT_TRUE(typo.is_string());
    EXPECT_LE(EditDistance("Sacramento", typo.str()), 2u);
  }
}

}  // namespace
}  // namespace ftrepair
