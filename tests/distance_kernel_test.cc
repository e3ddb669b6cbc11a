// Distance-kernel equivalence suite.
//
// EditDistance / BoundedEditDistance run Myers' bit-parallel kernel
// (one-word and multi-word); the scalar banded DP (*Scalar) is kept as
// their oracle. Both must return the same integer on every input,
// including the BoundedEditDistance `cap + 1` sentinel. The fuzz
// harness here drives random byte strings — high bytes and embedded
// NULs included, so signed-char PEQ indexing can never land — across
// lengths straddling the one-word/multi-word boundary
// {0, 1, 63, 64, 65, 128} and caps {0, 1, len-1, len, huge}, asserting
//
//   BoundedEditDistance(a, b, cap) == min(EditDistance(a, b), cap + 1)
//
// for both kernels and scalar == bitparallel throughout.

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gen/error_injector.h"
#include "gen/hosp_gen.h"
#include "gen/tax_gen.h"
#include "metric/distance.h"
#include "test_util.h"

namespace ftrepair {
namespace {

using testing_util::CitizensDirty;

constexpr size_t kHugeCap = std::numeric_limits<size_t>::max();

std::string RandomBytes(Rng* rng, size_t len, bool full_alphabet) {
  std::string s;
  s.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    if (full_alphabet) {
      // Full byte range: exercises high bytes (>= 0x80) and NULs.
      s.push_back(static_cast<char>(rng->Uniform(256)));
    } else {
      // Tiny alphabet: forces interesting match structure.
      s.push_back(static_cast<char>('a' + rng->Uniform(3)));
    }
  }
  return s;
}

// All four kernel entry points on one (a, b, cap) triple.
void ExpectKernelsAgree(const std::string& a, const std::string& b,
                        size_t cap) {
  size_t exact = EditDistanceScalar(a, b);
  ASSERT_EQ(EditDistance(a, b), exact)
      << "len_a=" << a.size() << " len_b=" << b.size();
  size_t expected = exact <= cap ? exact : cap + 1;
  ASSERT_EQ(BoundedEditDistanceScalar(a, b, cap), expected)
      << "len_a=" << a.size() << " len_b=" << b.size() << " cap=" << cap;
  ASSERT_EQ(BoundedEditDistance(a, b, cap), expected)
      << "len_a=" << a.size() << " len_b=" << b.size() << " cap=" << cap;
}

class DistanceKernelFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DistanceKernelFuzzTest, BoundedMatchesMinOfExactForEveryKernel) {
  Rng rng(GetParam() * 7919 + 1);
  // Lengths straddling the one-word/multi-word boundary, plus deeper
  // multi-word shapes (128 -> 2 words, 193 -> 4, 300 -> 5).
  const size_t lengths[] = {0, 1, 2, 7, 31, 63, 64, 65, 66, 100, 128, 193, 300};
  for (size_t len_a : lengths) {
    for (int rep = 0; rep < 4; ++rep) {
      bool full = rep % 2 == 0;
      size_t len_b = rng.Uniform(static_cast<uint64_t>(len_a) + 4);
      std::string a = RandomBytes(&rng, len_a, full);
      std::string b = RandomBytes(&rng, len_b, full);
      // Correlated pair: mutate a few positions of `a` so small true
      // distances (where the cap semantics bite) actually occur.
      if (len_a > 0 && rep % 2 == 1) {
        b = a;
        for (int m = 0; m < 3 && !b.empty(); ++m) {
          b[rng.Index(b.size())] = static_cast<char>(rng.Uniform(256));
        }
      }
      size_t len = std::max(a.size(), b.size());
      std::vector<size_t> caps = {0, 1, len, len + 3, kHugeCap,
                                  rng.Uniform(static_cast<uint64_t>(len) + 2)};
      if (len > 0) caps.push_back(len - 1);
      for (size_t cap : caps) {
        ExpectKernelsAgree(a, b, cap);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistanceKernelFuzzTest,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

TEST(DistanceKernelTest, HighByteAndEmbeddedNulStrings) {
  // PEQ tables must index by unsigned char: these inputs make a
  // signed-char index negative (0xe9, 0xc3, 0xa9) or zero ('\0').
  std::string nul_a("a\0b", 3);
  std::string nul_b("a\0c", 3);
  std::string nul_run("\0\0\0", 3);
  struct Case {
    std::string a, b;
    size_t expected;
  };
  const Case cases[] = {
      {"caf\xc3\xa9", "cafe", 2},          // UTF-8 é vs e
      {"\xe9\xe9\xe9", "\xe9\xe9", 1},     // Latin-1 high bytes
      {"\x80\x81\x82", "\x80\x81\x82", 0},
      {"\xff", "\x7f", 1},                 // 0xff vs 0x7f collide mod 128
      {nul_a, nul_b, 1},
      {nul_run, "", 3},
      {std::string(70, '\xfe') + nul_a, std::string(70, '\xfe') + nul_b, 1},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(EditDistanceScalar(c.a, c.b), c.expected);
    EXPECT_EQ(EditDistance(c.a, c.b), c.expected);
    for (size_t cap : {size_t{0}, size_t{1}, size_t{4}, kHugeCap}) {
      size_t expected = c.expected <= cap ? c.expected : cap + 1;
      EXPECT_EQ(BoundedEditDistanceScalar(c.a, c.b, cap), expected);
      EXPECT_EQ(BoundedEditDistance(c.a, c.b, cap), expected);
    }
  }
}

TEST(DistanceKernelTest, CapSentinelSemantics) {
  // cap + 1 means "greater than cap" for every kernel; a cap at or
  // above max(len) can never clip, even at the huge end of size_t.
  EXPECT_EQ(BoundedEditDistanceScalar("kitten", "sitting", 2), size_t{3});
  EXPECT_EQ(BoundedEditDistance("kitten", "sitting", 2), size_t{3});
  EXPECT_EQ(BoundedEditDistanceScalar("kitten", "sitting", kHugeCap),
            size_t{3});
  EXPECT_EQ(BoundedEditDistance("kitten", "sitting", kHugeCap),
            size_t{3});
  EXPECT_EQ(BoundedEditDistanceScalar("abc", "xyz", 0), size_t{1});
  EXPECT_EQ(BoundedEditDistance("abc", "xyz", 0), size_t{1});
}

// ---- Jaccard whitespace fix: seed corpora are provably unaffected ---

// Dirty slice of a generated dataset.
Table DirtySlice(const Dataset& dataset, int rows) {
  NoiseOptions noise;
  noise.error_rate = 0.04;
  Table dirty =
      std::move(InjectErrors(dataset.clean, dataset.fds, noise, nullptr))
          .ValueOrDie();
  return dirty.Head(rows);
}

// TokenJaccardDistance now splits on any whitespace instead of ' '
// alone. The repair delta on the seed corpora is *provably* zero:
// their cells contain no tab/newline/CR/FF/VT bytes, so the old and
// new tokenizers emit identical token sets on every cell. This test
// is that proof, kept green against generator drift.
TEST(DistanceKernelDifferentialTest, SeedCorporaHaveNoNonSpaceWhitespace) {
  auto scan = [](const Table& table, const std::string& label) {
    for (int r = 0; r < table.num_rows(); ++r) {
      for (int c = 0; c < table.num_columns(); ++c) {
        std::string s = table.cell(r, c).ToString();
        EXPECT_EQ(s.find_first_of("\t\n\r\f\v"), std::string::npos)
            << label << " cell(" << r << ", " << c << ")";
      }
    }
  };
  scan(CitizensDirty(), "citizens");
  Dataset hosp =
      std::move(GenerateHosp({.num_rows = 1000, .seed = 7})).ValueOrDie();
  scan(DirtySlice(hosp, 1000), "hosp");
  Dataset tax =
      std::move(GenerateTax({.num_rows = 1000, .seed = 11})).ValueOrDie();
  scan(DirtySlice(tax, 1000), "tax");
}

}  // namespace
}  // namespace ftrepair
