#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "constraint/fd_parser.h"
#include "detect/violation_graph.h"
#include "metric/projection.h"
#include "test_util.h"

namespace ftrepair {
namespace {

using testing_util::CitizensDirty;
using testing_util::CitizensFDs;
using testing_util::RowProjection;

TEST(DistanceModelTest, EqualValuesAreZero) {
  Table t = CitizensDirty();
  DistanceModel model(t);
  EXPECT_DOUBLE_EQ(model.CellDistance(0, Value("x"), Value("x")), 0.0);
  EXPECT_DOUBLE_EQ(model.CellDistance(2, Value(3.0), Value(3.0)), 0.0);
  EXPECT_DOUBLE_EQ(model.CellDistance(0, Value(), Value()), 0.0);
}

TEST(DistanceModelTest, NullVsValueIsOne) {
  Table t = CitizensDirty();
  DistanceModel model(t);
  EXPECT_DOUBLE_EQ(model.CellDistance(0, Value(), Value("x")), 1.0);
}

TEST(DistanceModelTest, StringsUseNormalizedEdit) {
  Table t = CitizensDirty();
  DistanceModel model(t);
  EXPECT_DOUBLE_EQ(
      model.CellDistance(1, Value("Masters"), Value("Masers")), 1.0 / 7);
}

TEST(DistanceModelTest, NumbersUseRangeNormalizedEuclidean) {
  Table t = CitizensDirty();
  DistanceModel model(t);
  int level = t.schema().IndexOf("Level");
  // Level range in Table 1 is [1, 9] => range 8.
  EXPECT_DOUBLE_EQ(model.Range(level), 8.0);
  EXPECT_DOUBLE_EQ(model.CellDistance(level, Value(3.0), Value(1.0)), 0.25);
}

TEST(DistanceModelTest, MixedTypeUsesEditOnRenderings) {
  // A typo'd numeric cell ("3x") stays *close* to its origin under the
  // default metric, so FT-detection can still associate it; under an
  // explicit Euclidean metric it is maximally dirty.
  Table t = CitizensDirty();
  DistanceModel model(t);
  int level = t.schema().IndexOf("Level");
  EXPECT_DOUBLE_EQ(model.CellDistance(level, Value(3.0), Value("3x")), 0.5);
  model.SetColumnMetric(level, ColumnMetric::kEuclidean);
  EXPECT_DOUBLE_EQ(model.CellDistance(level, Value(3.0), Value("3x")), 1.0);
}

TEST(DistanceModelTest, ColumnMetricOverrides) {
  Table t = CitizensDirty();
  DistanceModel model(t);
  model.SetColumnMetric(0, ColumnMetric::kDiscrete);
  EXPECT_DOUBLE_EQ(model.CellDistance(0, Value("ab"), Value("ac")), 1.0);
  model.SetColumnMetric(0, ColumnMetric::kJaccard);
  EXPECT_DOUBLE_EQ(
      model.CellDistance(0, Value("a b"), Value("b a")), 0.0);
  model.SetColumnMetric(0, ColumnMetric::kEdit);
  EXPECT_DOUBLE_EQ(model.CellDistance(0, Value("ab"), Value("ac")), 0.5);
}

TEST(DistanceModelTest, JaroWinklerAndQGramOverrides) {
  Table t = CitizensDirty();
  DistanceModel model(t);
  model.SetColumnMetric(0, ColumnMetric::kJaroWinkler);
  EXPECT_NEAR(model.CellDistance(0, Value("MARTHA"), Value("MARHTA")),
              1 - 0.9611, 1e-3);
  model.SetColumnMetric(0, ColumnMetric::kQGramCosine);
  EXPECT_DOUBLE_EQ(model.CellDistance(0, Value("abcd"), Value("abcd")), 0.0);
  EXPECT_GT(model.CellDistance(0, Value("abcd"), Value("wxyz")), 0.9);
}

TEST(CellDistanceCappedTest, ExactWheneverWithinCap) {
  // Differential contract: whenever the true distance fits under the
  // cap, the capped call is bit-identical to CellDistance and leaves
  // `clipped` untouched; otherwise it returns a lower bound and sets
  // `clipped`. Exercised over random strings and every cap in [0, 1].
  Table t = CitizensDirty();
  DistanceModel model(t);
  Rng rng(2024);
  auto random_string = [&rng]() {
    std::string s;
    size_t len = rng.Index(14);
    for (size_t i = 0; i < len; ++i) {
      s += static_cast<char>('a' + rng.Index(4));
    }
    return s;
  };
  for (int iter = 0; iter < 300; ++iter) {
    Value a{random_string()};
    Value b{random_string()};
    double exact = model.CellDistance(0, a, b);
    for (double cap : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 2.0}) {
      bool clipped = false;
      double capped = model.CellDistanceCapped(0, a, b, cap, &clipped);
      if (clipped) {
        EXPECT_LE(capped, exact) << a.ToString() << " / " << b.ToString()
                                 << " cap=" << cap;
        EXPECT_GT(exact, cap);
      } else {
        // Bit-identical, not just approximately equal.
        EXPECT_EQ(capped, exact) << a.ToString() << " / " << b.ToString()
                                 << " cap=" << cap;
      }
    }
  }
}

TEST(CellDistanceCappedTest, NonEditMetricsAlwaysExact) {
  Table t = CitizensDirty();
  DistanceModel model(t);
  int level = t.schema().IndexOf("Level");
  bool clipped = false;
  // Numeric kAuto resolves to Euclidean: no bounded kernel, exact even
  // under a tiny cap.
  EXPECT_DOUBLE_EQ(
      model.CellDistanceCapped(level, Value(3.0), Value(1.0), 0.01, &clipped),
      0.25);
  EXPECT_FALSE(clipped);
  model.SetColumnMetric(0, ColumnMetric::kJaroWinkler);
  EXPECT_EQ(model.CellDistanceCapped(0, Value("MARTHA"), Value("MARHTA"),
                                     0.01, &clipped),
            model.CellDistance(0, Value("MARTHA"), Value("MARHTA")));
  EXPECT_FALSE(clipped);
}

TEST(CellDistanceCappedTest, TrivialCases) {
  Table t = CitizensDirty();
  DistanceModel model(t);
  bool clipped = false;
  EXPECT_DOUBLE_EQ(
      model.CellDistanceCapped(0, Value("x"), Value("x"), 0.0, &clipped), 0.0);
  EXPECT_DOUBLE_EQ(
      model.CellDistanceCapped(0, Value(), Value("x"), 0.0, &clipped), 1.0);
  EXPECT_FALSE(clipped);
  // Distant strings under a tiny cap: clipped, lower bound positive.
  double d = model.CellDistanceCapped(0, Value("aaaaaaaaaa"),
                                      Value("bbbbbbbbbb"), 0.2, &clipped);
  EXPECT_TRUE(clipped);
  EXPECT_GT(d, 0.2);
  EXPECT_LE(d, 1.0);
}

TEST(ProjectionDistanceTest, PaperExample5) {
  // dist(t4^phi1, t6^phi1) = 0.5 * dist(Masters, Masers)
  //                        + 0.5 * dist(4, 4) = 0.5 / 7 ~= 0.07.
  Table t = CitizensDirty();
  DistanceModel model(t);
  std::vector<FD> fds = CitizensFDs(t.schema());
  const FD& phi1 = fds[0];
  std::vector<Value> t4 = RowProjection(t, 3, phi1.attrs());
  std::vector<Value> t6 = RowProjection(t, 5, phi1.attrs());
  double d = ViolationGraph::ProjDistance(t4, t6, phi1, model, 0.5, 0.5);
  EXPECT_NEAR(d, 0.5 / 7.0, 1e-12);
  EXPECT_NEAR(d, 0.07, 0.005);  // the paper rounds to .07
}

TEST(ProjectionDistanceTest, WeightsScaleSides) {
  Table t = CitizensDirty();
  DistanceModel model(t);
  std::vector<FD> fds = CitizensFDs(t.schema());
  const FD& phi2 = fds[1];  // City -> State
  // t5 (Boston, NY) vs t1 (New York, NY): LHS-only difference.
  std::vector<Value> t5 = RowProjection(t, 4, phi2.attrs());
  std::vector<Value> t1 = RowProjection(t, 0, phi2.attrs());
  double lhs_only = ViolationGraph::ProjDistance(t5, t1, phi2, model, 1.0, 0.0);
  double rhs_only = ViolationGraph::ProjDistance(t5, t1, phi2, model, 0.0, 1.0);
  EXPECT_GT(lhs_only, 0.0);
  EXPECT_DOUBLE_EQ(rhs_only, 0.0);
  double mixed = ViolationGraph::ProjDistance(t5, t1, phi2, model, 0.7, 0.3);
  EXPECT_NEAR(mixed, 0.7 * lhs_only, 1e-12);
}

TEST(RepairCostTest, SumsUnweightedOverColumns) {
  // Eq. 3 over the FD's attributes; weightless.
  Table t = CitizensDirty();
  DistanceModel model(t);
  std::vector<FD> fds = CitizensFDs(t.schema());
  const FD& phi1 = fds[0];
  std::vector<Value> t4 = RowProjection(t, 3, phi1.attrs());
  std::vector<Value> t6 = RowProjection(t, 5, phi1.attrs());
  double cost = ViolationGraph::UnitCost(t4, t6, phi1, model);
  EXPECT_NEAR(cost, 1.0 / 7.0, 1e-12);  // Education differs, Level equal
  // The sum of the per-attribute cell distances.
  int education = t.schema().IndexOf("Education");
  EXPECT_NEAR(cost,
              model.CellDistance(education, t.cell(3, education),
                                 t.cell(5, education)),
              1e-12);
}

TEST(RepairCostTest, ZeroForIdenticalRows) {
  Table t = CitizensDirty();
  DistanceModel model(t);
  for (const FD& fd : CitizensFDs(t.schema())) {
    std::vector<Value> t1 = RowProjection(t, 0, fd.attrs());
    EXPECT_DOUBLE_EQ(ViolationGraph::UnitCost(t1, t1, fd, model), 0.0);
  }
}

}  // namespace
}  // namespace ftrepair
