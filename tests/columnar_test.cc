// Columnar-path suite.
//
// Detection runs on dictionary codes (code-keyed pattern grouping,
// code-bucketed exact joins, per-pair distance memoization, code-keyed
// phi maps), and the sharded joins and concurrent component fan-out
// must not change a byte of it: repairs must be bit-identical at every
// thread count, on every corpus, under every solver. The differential
// tests here fingerprint the *entire* RepairResult (repaired table
// bytes, change list, cost, stats) and compare fingerprints across the
// {threads} grid per {algorithm}. The coded paths' value references
// live at unit level: pattern_test.cc (grouping), block_index_property
// _test.cc (memoized kernels, bucket join) and greedy_multi_test.cc
// (code-keyed phi index).
//
// Alongside: the dictionary invariants the equivalence argument rests
// on (interning is a bijection, codes are deterministic, null is code
// 0 — see PERFORMANCE.md "Dictionary-join equivalence"), and the
// streaming-ingest memory contract (peak charge tracks distinct values
// + codes, never a second copy of the text).

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/resource.h"
#include "common/strings.h"
#include "constraint/fd_parser.h"
#include "core/repairer.h"
#include "data/csv.h"
#include "gen/error_injector.h"
#include "gen/hosp_gen.h"
#include "gen/tax_gen.h"
#include "test_util.h"

namespace ftrepair {
namespace {

using testing_util::CitizensDirty;
using testing_util::CitizensFDs;
using testing_util::RandomFDTable;

// Byte-level fingerprint of everything a repair produced. Two runs
// with equal fingerprints made the same decisions everywhere.
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

// Runs the {1, 2, 4, 8 threads} grid for one (table, fds, algorithm)
// instance and asserts one fingerprint.
void ExpectColumnarInvariant(const Table& table, const std::vector<FD>& fds,
                             RepairAlgorithm algorithm, double tau) {
  std::string reference;
  for (int threads : {1, 2, 4, 8}) {
    RepairOptions options;
    options.algorithm = algorithm;
    options.default_tau = tau;
    options.threads = threads;
    auto result = Repairer(options).Repair(table, fds);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::string fp = Fingerprint(result.value());
    if (reference.empty()) {
      reference = fp;
    } else {
      ASSERT_EQ(fp, reference) << "threads=" << threads;
    }
  }
}

// A numeric-heavy corpus: number-typed FD attributes exercise the
// tostring render classes of the coded bucket join (number 5 and
// string "5" render identically) and the memoized Euclidean distances.
Table NumericZipTable() {
  Table t(Schema({{"zip", ValueType::kNumber},
                  {"city", ValueType::kString},
                  {"rate", ValueType::kNumber}}));
  auto add = [&t](double zip, const std::string& city, double rate) {
    (void)t.AppendRow({Value(zip), Value(city), Value(rate)});
  };
  for (int i = 0; i < 12; ++i) add(2130, "Boston", 6.25);
  for (int i = 0; i < 10; ++i) add(10001, "New York", 8.875);
  add(2130, "Bostn", 6.25);    // typo city under a clean zip
  add(2130, "Boston", 6.5);    // off rate under a clean zip
  add(2131, "Boston", 6.25);   // near-miss zip
  add(10001, "New York", 8.0); // off rate
  return t;
}

TEST(ColumnarDifferentialTest, CitizensAllSolversAllThreadCounts) {
  Table t = CitizensDirty();
  std::vector<FD> fds = CitizensFDs(t.schema());
  for (RepairAlgorithm algorithm :
       {RepairAlgorithm::kExact, RepairAlgorithm::kGreedy,
        RepairAlgorithm::kApproJoin}) {
    ExpectColumnarInvariant(t, fds, algorithm, 0.4);
  }
}

TEST(ColumnarDifferentialTest, NumericZipAllSolvers) {
  Table t = NumericZipTable();
  auto fds = std::move(ParseFDList("z2c: zip -> city\nz2r: zip -> rate\n",
                                   t.schema()))
                 .ValueOrDie();
  for (RepairAlgorithm algorithm :
       {RepairAlgorithm::kExact, RepairAlgorithm::kGreedy,
        RepairAlgorithm::kApproJoin}) {
    ExpectColumnarInvariant(t, fds, algorithm, 0.4);
  }
}

TEST(ColumnarDifferentialTest, SmallRandomExact) {
  Table t = RandomFDTable(40, 3, 5, 10, /*seed=*/21);
  auto fds = std::move(ParseFDList("f1: c0 -> c1\nf2: c0 -> c2\n",
                                   t.schema()))
                 .ValueOrDie();
  ExpectColumnarInvariant(t, fds, RepairAlgorithm::kExact, 0.35);
}

TEST(ColumnarDifferentialTest, RandomCorporaGreedyAndAppro) {
  struct Instance {
    int rows, cols, keys, flips;
    uint64_t seed;
  };
  for (const Instance& inst : {Instance{200, 4, 12, 30, 3},
                               Instance{120, 3, 6, 50, 17},
                               Instance{300, 4, 25, 40, 29}}) {
    Table t = RandomFDTable(inst.rows, inst.cols, inst.keys, inst.flips,
                            inst.seed);
    std::string spec = "f1: c0 -> c1\nf2: c0 -> c2\n";
    if (inst.cols > 3) spec += "f3: c3 -> c1\n";
    auto fds = std::move(ParseFDList(spec, t.schema())).ValueOrDie();
    for (RepairAlgorithm algorithm :
         {RepairAlgorithm::kGreedy, RepairAlgorithm::kApproJoin}) {
      ExpectColumnarInvariant(t, fds, algorithm, 0.35);
    }
  }
}

// Dirty slice of a generated dataset, with the generator-recommended
// taus/weights folded into options by the caller via TauFor defaults.
Table DirtySlice(const Dataset& dataset, int rows) {
  NoiseOptions noise;
  noise.error_rate = 0.04;
  Table dirty =
      std::move(InjectErrors(dataset.clean, dataset.fds, noise, nullptr))
          .ValueOrDie();
  return dirty.Head(rows);
}

void ExpectColumnarInvariantOnDataset(const Dataset& dataset, int rows,
                                      RepairAlgorithm algorithm) {
  Table dirty = DirtySlice(dataset, rows);
  std::string reference;
  for (int threads : {1, 2, 4, 8}) {
    RepairOptions options;
    options.algorithm = algorithm;
    options.w_l = dataset.recommended_w_l;
    options.w_r = dataset.recommended_w_r;
    options.tau_by_fd = dataset.recommended_tau;
    options.threads = threads;
    auto result = Repairer(options).Repair(dirty, dataset.fds);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::string fp = Fingerprint(result.value());
    if (reference.empty()) {
      reference = fp;
    } else {
      ASSERT_EQ(fp, reference) << dataset.name << " threads=" << threads;
    }
  }
}

TEST(ColumnarDifferentialTest, HospGreedyAndAppro) {
  Dataset hosp =
      std::move(GenerateHosp({.num_rows = 600, .seed = 7})).ValueOrDie();
  ExpectColumnarInvariantOnDataset(hosp, 600, RepairAlgorithm::kGreedy);
  ExpectColumnarInvariantOnDataset(hosp, 600, RepairAlgorithm::kApproJoin);
}

TEST(ColumnarDifferentialTest, TaxGreedyAndAppro) {
  Dataset tax =
      std::move(GenerateTax({.num_rows = 500, .seed = 11})).ValueOrDie();
  ExpectColumnarInvariantOnDataset(tax, 500, RepairAlgorithm::kGreedy);
  ExpectColumnarInvariantOnDataset(tax, 500, RepairAlgorithm::kApproJoin);
}

TEST(ColumnarDifferentialTest, TauZeroUsesCodedBucketJoin) {
  // tau = 0 routes candidate generation through the code-keyed exact
  // bucket join.
  Table t = RandomFDTable(150, 3, 10, 25, /*seed=*/41);
  auto fds =
      std::move(ParseFDList("f1: c0 -> c1\n", t.schema())).ValueOrDie();
  ExpectColumnarInvariant(t, fds, RepairAlgorithm::kGreedy, 0.0);
}

// ---- Dictionary invariants ----

TEST(DictionaryInvariantTest, InterningIsABijection) {
  Table t = CitizensDirty();
  for (int c = 0; c < t.num_columns(); ++c) {
    for (int r1 = 0; r1 < t.num_rows(); ++r1) {
      // Decode(encode) is the identity.
      EXPECT_EQ(t.dictionary(c).value(t.code(r1, c)), t.cell(r1, c));
      for (int r2 = r1 + 1; r2 < t.num_rows(); ++r2) {
        // Equal cells <=> equal codes, per column.
        EXPECT_EQ(t.code(r1, c) == t.code(r2, c),
                  t.cell(r1, c) == t.cell(r2, c))
            << "col " << c << " rows " << r1 << "," << r2;
      }
    }
  }
}

TEST(DictionaryInvariantTest, CodesAreDeterministic) {
  // The same cell sequence always assigns the same codes, whether it
  // arrives via AppendRow or via the streaming CSV reader.
  Table appended = CitizensDirty();
  Table parsed =
      std::move(ReadCsvString(WriteCsvString(appended))).ValueOrDie();
  ASSERT_EQ(parsed.num_rows(), appended.num_rows());
  for (int r = 0; r < appended.num_rows(); ++r) {
    for (int c = 0; c < appended.num_columns(); ++c) {
      EXPECT_EQ(parsed.code(r, c), appended.code(r, c))
          << "r=" << r << " c=" << c;
    }
  }
}

TEST(DictionaryInvariantTest, NullIsCodeZero) {
  Table t = std::move(ReadCsvString("a,b\n1,\n,x\n")).ValueOrDie();
  EXPECT_EQ(t.code(0, 1), ColumnDictionary::kNullCode);
  EXPECT_EQ(t.code(1, 0), ColumnDictionary::kNullCode);
  EXPECT_TRUE(t.cell(0, 1).is_null());
  EXPECT_NE(t.code(0, 0), ColumnDictionary::kNullCode);
}

TEST(DictionaryInvariantTest, SetCellInternsNewValuesConsistently) {
  Table t = CitizensDirty();
  t.SetCell(0, 3, Value("Boston"));
  // The new cell shares the code of every other "Boston" in the column.
  int boston_row = -1;
  for (int r = 1; r < t.num_rows(); ++r) {
    if (t.cell(r, 3) == Value("Boston")) {
      boston_row = r;
      break;
    }
  }
  ASSERT_GE(boston_row, 0);
  EXPECT_EQ(t.code(0, 3), t.code(boston_row, 3));
}

TEST(DictionaryInvariantTest, CopyDecodesOldCodesAfterSetCell) {
  // Apply decodes a solver's codes through the output table, which
  // starts as a copy of the input and then takes SetCell writes: new
  // values, existing values and nulls. Every code of the original must
  // keep decoding to the same Value in the copy.
  Table original = CitizensDirty();
  Table copy = original;
  copy.SetCell(0, 3, Value("Springfield"));  // new to the column
  copy.SetCell(1, 2, Value(42.0));           // a new number
  copy.SetCell(2, 6, Value());               // null
  copy.SetCell(3, 3, Value("Boston"));       // already in the column
  copy.SetCell(4, 1, Value("Doctorate"));    // new to the column
  copy.SetCell(4, 1, Value("Masters"));      // strands "Doctorate"
  for (int c = 0; c < original.num_columns(); ++c) {
    const ColumnDictionary& before = original.dictionary(c);
    const ColumnDictionary& after = copy.dictionary(c);
    ASSERT_GE(after.size(), before.size()) << "col " << c;
    for (uint32_t code = 0; code < before.size(); ++code) {
      EXPECT_EQ(after.value(code), before.value(code))
          << "col " << c << " code " << code;
    }
    for (int r = 0; r < original.num_rows(); ++r) {
      EXPECT_EQ(after.value(original.code(r, c)), original.cell(r, c))
          << "col " << c << " row " << r;
    }
  }
  // The writes landed in the copy only: the new values took fresh
  // codes past the original range, and the original is untouched.
  EXPECT_GE(copy.code(0, 3), original.dictionary(3).size());
  EXPECT_EQ(copy.cell(0, 3), Value("Springfield"));
  EXPECT_EQ(copy.code(2, 6), ColumnDictionary::kNullCode);
  EXPECT_EQ(original.cell(0, 3), Value("New York"));
  EXPECT_EQ(original.cell(2, 6), Value("NY"));
}

TEST(DictionaryInvariantTest, CopiesAndMovesKeepDecoding) {
  // value() reads through per-code slots into the value storage, so a
  // copy must re-point its slots at its own storage and a move must
  // keep them valid. The copies outlive a source whose storage is then
  // overwritten in place and destroyed, and a reference taken before
  // later interns stays valid.
  std::vector<Value> want = {Value(), Value("a"), Value(2.0), Value("c")};
  auto fill = [&](ColumnDictionary* dict) {
    for (size_t i = 1; i < want.size(); ++i) dict->Intern(want[i]);
  };
  auto expect_decodes = [&](const ColumnDictionary& dict) {
    ASSERT_EQ(dict.size(), want.size());
    for (uint32_t code = 0; code < want.size(); ++code) {
      EXPECT_EQ(dict.value(code), want[code]) << "code " << code;
    }
  };
  auto source = std::make_unique<ColumnDictionary>();
  fill(source.get());
  ColumnDictionary copied(*source);
  ColumnDictionary assigned;
  assigned.Intern(Value("stale"));
  assigned = *source;
  ColumnDictionary other;
  for (const char* v : {"w", "x", "y", "z"}) other.Intern(Value(v));
  *source = other;
  expect_decodes(copied);
  expect_decodes(assigned);
  source.reset();
  expect_decodes(copied);
  expect_decodes(assigned);

  ColumnDictionary moved(std::move(copied));
  expect_decodes(moved);
  ColumnDictionary move_assigned;
  move_assigned = std::move(assigned);
  expect_decodes(move_assigned);

  const Value& held = moved.value(1);
  for (int i = 0; i < 1000; ++i) moved.Intern(Value(static_cast<double>(i)));
  EXPECT_EQ(&held, &moved.value(1));
  EXPECT_EQ(held, Value("a"));
}

TEST(DictionaryInvariantTest, FromColumnsValidates) {
  Schema schema({{"a", ValueType::kString}});
  {
    // Arity mismatch: two code columns for a one-column schema.
    std::vector<ColumnDictionary> dicts(2);
    std::vector<std::vector<uint32_t>> codes{{0}, {0}};
    EXPECT_FALSE(Table::FromColumns(schema, std::move(dicts),
                                    std::move(codes))
                     .ok());
  }
  {
    // Ragged code vectors.
    Schema two({{"a", ValueType::kString}, {"b", ValueType::kString}});
    std::vector<ColumnDictionary> dicts(2);
    std::vector<std::vector<uint32_t>> codes{{0, 0}, {0}};
    EXPECT_FALSE(
        Table::FromColumns(two, std::move(dicts), std::move(codes)).ok());
  }
  {
    // Out-of-range code.
    std::vector<ColumnDictionary> dicts(1);
    std::vector<std::vector<uint32_t>> codes{{5}};
    EXPECT_FALSE(Table::FromColumns(schema, std::move(dicts),
                                    std::move(codes))
                     .ok());
  }
}

// ---- Streaming-ingest memory contract ----

TEST(StreamingIngestTest, PeakChargeIsBelowOneTextCopy) {
  // Repetitive data with wide cells: the old reader charged the whole
  // text up front; the streaming reader charges distinct dictionary
  // entries + one 4-byte code per cell, far below the text size.
  std::string text = "alpha,beta,gamma,delta\n";
  const std::string wide(60, 'x');
  for (int r = 0; r < 500; ++r) {
    std::string row;
    for (int c = 0; c < 4; ++c) {
      if (c > 0) row += ',';
      row += wide + std::to_string(r % 7);
    }
    text += row + "\n";
  }
  MemoryBudget memory;
  CsvOptions options;
  options.memory = &memory;
  auto result = ReadCsvString(text, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().num_rows(), 500);
  EXPECT_LT(memory.peak_bytes(), text.size() / 2);
  EXPECT_GT(memory.peak_bytes(), 0u);
}

TEST(StreamingIngestTest, FileReadChargesOnlyChunkAndDictionaries) {
  std::string path = ::testing::TempDir() + "/ftrepair_columnar_mem.csv";
  {
    Table big(Schema({{"k", ValueType::kString}, {"v", ValueType::kString}}));
    const std::string wide(80, 'y');
    for (int r = 0; r < 400; ++r) {
      ASSERT_TRUE(
          big.AppendRow({Value(wide + std::to_string(r % 5)), Value(wide)})
              .ok());
    }
    ASSERT_TRUE(WriteCsvFile(big, path).ok());
  }
  MemoryBudget memory;
  CsvOptions options;
  options.memory = &memory;
  options.chunk_bytes = 4 * 1024;
  auto result = ReadCsvFile(path, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().num_rows(), 400);
  // ~65k of text on disk; the read holds one 4k chunk + tiny
  // dictionaries + 400 * 2 codes.
  EXPECT_LT(memory.peak_bytes(), 20u * 1024u);
  std::remove(path.c_str());
}

TEST(StreamingIngestTest, ExhaustionMidStreamIsCleanAndNamed) {
  // Every row distinct: dictionary charges accrue until the budget
  // trips mid-stream, which must surface as ResourceExhausted naming
  // the ingest site — not a crash, not a partial table.
  std::string text = "a,b\n";
  for (int r = 0; r < 2000; ++r) {
    text += "u" + std::to_string(r) + ",w" + std::to_string(r) + "\n";
  }
  MemoryBudget memory(8 * 1024);
  CsvOptions options;
  options.memory = &memory;
  auto result = ReadCsvString(text, options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted());
  EXPECT_NE(result.status().message().find("csv ingest"), std::string::npos);
}

}  // namespace
}  // namespace ftrepair
