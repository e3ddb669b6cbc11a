#include <cmath>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "data/schema.h"
#include "detect/pattern.h"
#include "test_util.h"

namespace ftrepair {
namespace {

using testing_util::CitizensDirty;
using testing_util::CitizensFDs;

TEST(PatternTest, GroupsIdenticalProjections) {
  Table t = CitizensDirty();
  std::vector<FD> fds = CitizensFDs(t.schema());
  // phi1 (Education, Level): t1, t2, t3 share (Bachelors, 3).
  std::vector<Pattern> patterns = BuildPatterns(t, fds[0].attrs());
  ASSERT_FALSE(patterns.empty());
  // First pattern by first-occurrence is (Bachelors, 3) carried by rows
  // 0, 1, 2 and also t10's corrected... no: t10 is (Bachelers, 3).
  EXPECT_EQ(DecodeProjection(t, fds[0].attrs(), patterns[0].codes),
            (std::vector<Value>{Value("Bachelors"), Value(3.0)}));
  EXPECT_EQ(patterns[0].rows, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(patterns[0].count(), 3);
  // Distinct projections in Table 1 under phi1:
  // (Bachelors,3) (Masters,4) (Masers,4) (HS-grad,9) (Masters,3)
  // (Bachelors,1) (Bachelers,3) = 7.
  EXPECT_EQ(patterns.size(), 7u);
}

TEST(PatternTest, SingleColumnGrouping) {
  Table t = CitizensDirty();
  int city = t.schema().IndexOf("City");
  std::vector<Pattern> patterns = BuildPatterns(t, {city});
  ASSERT_EQ(patterns.size(), 3u);  // New York, Boston, Boton
  int total = 0;
  for (const Pattern& p : patterns) total += p.count();
  EXPECT_EQ(total, t.num_rows());
}

TEST(PatternTest, RestrictedRows) {
  Table t = CitizensDirty();
  int city = t.schema().IndexOf("City");
  std::vector<Pattern> patterns =
      BuildPatternsForRows(t, {city}, {0, 1, 4, 5});
  // Rows 0,1 New York; 4,5 Boston.
  ASSERT_EQ(patterns.size(), 2u);
  EXPECT_EQ(patterns[0].rows, (std::vector<int>{0, 1}));
  EXPECT_EQ(patterns[1].rows, (std::vector<int>{4, 5}));
}

TEST(PatternTest, EmptyRowsGiveNoPatterns) {
  Table t = CitizensDirty();
  EXPECT_TRUE(BuildPatternsForRows(t, {0}, {}).empty());
}

// A value-keyed group: one distinct projection and its rows.
struct ValueGroup {
  std::vector<Value> values;
  std::vector<int> rows;
};

// Value-keyed reference grouping: rows keyed on their projected value
// vectors, groups in first-occurrence order.
std::vector<ValueGroup> GroupByValues(const Table& t,
                                      const std::vector<int>& cols,
                                      const std::vector<int>& row_ids) {
  std::vector<ValueGroup> out;
  std::unordered_map<std::vector<Value>, int, ProjectionHash> index;
  for (int r : row_ids) {
    std::vector<Value> proj;
    for (int c : cols) proj.push_back(t.cell(r, c));
    auto [it, inserted] = index.emplace(proj, static_cast<int>(out.size()));
    if (inserted) {
      out.emplace_back();
      out.back().values = std::move(proj);
    }
    out[static_cast<size_t>(it->second)].rows.push_back(r);
  }
  return out;
}

TEST(PatternTest, CodeGroupingMatchesValueGrouping) {
  // Equal-but-differently-spelled numbers (-0.0/+0.0, two NaN
  // payloads), a number next to the string that renders like it, nulls,
  // and cells rewritten in place: the code-keyed grouping must give the
  // value grouping's partition, order and row lists.
  Schema schema({{"A", ValueType::kString}, {"B", ValueType::kString}});
  Table t(schema);
  std::vector<Row> rows = {
      {Value(0.0), Value("x")},          {Value(-0.0), Value("x")},
      {Value(std::nan("1")), Value("y")}, {Value(std::nan("2")), Value("y")},
      {Value(5.0), Value("5")},          {Value("5"), Value(5.0)},
      {Value(), Value("x")},             {Value(), Value()},
      {Value("5"), Value("5")},          {Value(5.0), Value("5")},
      {Value(-0.0), Value()},
  };
  for (Row& row : rows) ASSERT_TRUE(t.AppendRow(std::move(row)).ok());
  t.SetCell(7, 0, Value(-0.0));   // row 7 becomes row 10's (0, null)
  t.SetCell(2, 1, Value("x"));    // row 2 leaves row 3's group
  t.SetCell(5, 0, t.cell(4, 0));  // row 5's "5" becomes the number 5

  std::vector<int> all(static_cast<size_t>(t.num_rows()));
  for (int r = 0; r < t.num_rows(); ++r) all[static_cast<size_t>(r)] = r;
  const std::vector<std::vector<int>> row_sets = {all, {8, 3, 0, 10, 2, 7}};
  const std::vector<std::vector<int>> col_sets = {{0, 1}, {0}, {1}, {1, 0}};
  for (const std::vector<int>& row_ids : row_sets) {
    for (const std::vector<int>& cols : col_sets) {
      std::vector<Pattern> got = BuildPatternsForRows(t, cols, row_ids);
      std::vector<ValueGroup> want = GroupByValues(t, cols, row_ids);
      ASSERT_EQ(got.size(), want.size()) << "cols=" << cols.size();
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].codes.size(), cols.size());
        EXPECT_EQ(DecodeProjection(t, cols, got[i].codes), want[i].values)
            << "pattern " << i;
        EXPECT_EQ(got[i].rows, want[i].rows) << "pattern " << i;
      }
    }
  }
  // The table really exercises the merges and splits described above:
  // column A has {0, NaN, 5, "5", null}.
  EXPECT_EQ(BuildPatterns(t, {0}).size(), 5u);
}

TEST(PatternTest, DecodeProjectionReadsThroughDictionaries) {
  Table t = CitizensDirty();
  std::vector<int> cols = {t.schema().IndexOf("City"),
                           t.schema().IndexOf("State")};
  std::vector<Pattern> patterns = BuildPatterns(t, cols);
  // Row 4 is (Boston, NY): its pattern decodes to exactly those cells,
  // and a ProjectionDecoder over the same columns agrees.
  const Pattern* boston_ny = nullptr;
  for (const Pattern& p : patterns) {
    if (p.rows.front() == 4) boston_ny = &p;
  }
  ASSERT_NE(boston_ny, nullptr);
  EXPECT_EQ(DecodeProjection(t, cols, boston_ny->codes),
            (std::vector<Value>{Value("Boston"), Value("NY")}));
  ProjectionDecoder decoder(t, cols);
  EXPECT_EQ(decoder.cols(), cols);
  EXPECT_EQ(decoder.value(0, boston_ny->codes[0]), Value("Boston"));
  EXPECT_EQ(decoder.value(1, boston_ny->codes[1]), Value("NY"));
  // Its distances are CellDistance on the decoded values; equal codes
  // are 0 without decoding.
  DistanceModel model(t);
  EXPECT_EQ(decoder.Distance(model, 1, boston_ny->codes[1],
                             boston_ny->codes[1]),
            0.0);
  EXPECT_EQ(decoder.Distance(model, 0, boston_ny->codes[0],
                             t.code(0, cols[0])),
            model.CellDistance(cols[0], Value("Boston"), Value("New York")));
  // A code minted after the decoder was built still decodes.
  t.SetCell(0, cols[0], Value("Springfield"));
  EXPECT_EQ(decoder.value(0, t.code(0, cols[0])), Value("Springfield"));
}

TEST(PatternTest, ProjectionHashConsistent) {
  ProjectionHash hash;
  std::vector<Value> a{Value("x"), Value(1.0)};
  std::vector<Value> b{Value("x"), Value(1.0)};
  std::vector<Value> c{Value(1.0), Value("x")};  // order matters
  EXPECT_EQ(hash(a), hash(b));
  EXPECT_NE(hash(a), hash(c));
}

}  // namespace
}  // namespace ftrepair
