#ifndef FTREPAIR_TESTS_TEST_UTIL_H_
#define FTREPAIR_TESTS_TEST_UTIL_H_

#include <cctype>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.h"
#include "constraint/fd.h"
#include "constraint/fd_parser.h"
#include "data/table.h"
#include "detect/pattern.h"
#include "detect/violation_graph.h"

namespace ftrepair {
namespace testing_util {

/// Scoped setenv/unsetenv so a failing assertion cannot leak a fault
/// seam into later tests.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() { unsetenv(name_); }

 private:
  const char* name_;
};

/// Schema of the paper's running example (Table 1): US citizens.
inline Schema CitizensSchema() {
  return Schema({{"Name", ValueType::kString},
                 {"Education", ValueType::kString},
                 {"Level", ValueType::kNumber},
                 {"City", ValueType::kString},
                 {"Street", ValueType::kString},
                 {"District", ValueType::kString},
                 {"State", ValueType::kString}});
}

inline Row CitizensRow(const std::string& name, const std::string& education,
                       double level, const std::string& city,
                       const std::string& street, const std::string& district,
                       const std::string& state) {
  return Row{Value(name),   Value(education), Value(level), Value(city),
             Value(street), Value(district),  Value(state)};
}

/// The dirty instance of Table 1 (errors exactly as highlighted there).
inline Table CitizensDirty() {
  Table t(CitizensSchema());
  auto add = [&t](Row row) { (void)t.AppendRow(std::move(row)); };
  add(CitizensRow("Janaina", "Bachelors", 3, "New York", "Main", "Manhattan", "NY"));
  add(CitizensRow("Aloke", "Bachelors", 3, "New York", "Main", "Manhattan", "NY"));
  add(CitizensRow("Jieyu", "Bachelors", 3, "New York", "Western", "Queens", "NY"));
  add(CitizensRow("Paulo", "Masters", 4, "New York", "Western", "Queens", "MA"));
  add(CitizensRow("Zoe", "Masters", 4, "Boston", "Main", "Manhattan", "NY"));
  add(CitizensRow("Gara", "Masers", 4, "Boston", "Main", "Financial", "MA"));
  add(CitizensRow("Mitchell", "HS-grad", 9, "Boston", "Main", "Financial", "MA"));
  add(CitizensRow("Pavol", "Masters", 3, "Boton", "Arlingto", "Brookside", "MA"));
  add(CitizensRow("Thilo", "Bachelors", 1, "Boston", "Arlingto", "Brookside", "MA"));
  add(CitizensRow("Nenad", "Bachelers", 3, "Boston", "Arlingto", "Brookside", "NY"));
  return t;
}

/// Ground truth for Table 1 (the corrections highlighted in the paper).
inline Table CitizensTruth() {
  Table t(CitizensSchema());
  auto add = [&t](Row row) { (void)t.AppendRow(std::move(row)); };
  add(CitizensRow("Janaina", "Bachelors", 3, "New York", "Main", "Manhattan", "NY"));
  add(CitizensRow("Aloke", "Bachelors", 3, "New York", "Main", "Manhattan", "NY"));
  add(CitizensRow("Jieyu", "Bachelors", 3, "New York", "Western", "Queens", "NY"));
  add(CitizensRow("Paulo", "Masters", 4, "New York", "Western", "Queens", "NY"));
  add(CitizensRow("Zoe", "Masters", 4, "New York", "Main", "Manhattan", "NY"));
  add(CitizensRow("Gara", "Masters", 4, "Boston", "Main", "Financial", "MA"));
  add(CitizensRow("Mitchell", "HS-grad", 9, "Boston", "Main", "Financial", "MA"));
  add(CitizensRow("Pavol", "Masters", 4, "Boston", "Arlingto", "Brookside", "MA"));
  add(CitizensRow("Thilo", "Bachelors", 3, "Boston", "Arlingto", "Brookside", "MA"));
  add(CitizensRow("Nenad", "Bachelors", 3, "Boston", "Arlingto", "Brookside", "MA"));
  return t;
}

/// The three FDs of Example 2: phi1, phi2, phi3.
inline std::vector<FD> CitizensFDs(const Schema& schema) {
  return std::move(ParseFDList(
                       "phi1: Education -> Level\n"
                       "phi2: City -> State\n"
                       "phi3: City, Street -> District\n",
                       schema))
      .ValueOrDie();
}

/// A small random table over `num_cols` string columns where column 0
/// functionally determines every other column (values "k<i>" / "v<i>_<c>"),
/// with `num_flips` cells randomly replaced by other domain values.
/// Used by property suites.
inline Table RandomFDTable(int num_rows, int num_cols, int num_keys,
                           int num_flips, uint64_t seed) {
  std::vector<Column> columns;
  for (int c = 0; c < num_cols; ++c) {
    columns.push_back(Column{"c" + std::to_string(c), ValueType::kString});
  }
  Table table{Schema(std::move(columns))};
  Rng rng(seed);
  for (int r = 0; r < num_rows; ++r) {
    int key = static_cast<int>(rng.Index(static_cast<size_t>(num_keys)));
    Row row;
    row.emplace_back("key" + std::to_string(key));
    for (int c = 1; c < num_cols; ++c) {
      row.emplace_back("val" + std::to_string(key) + "c" +
                       std::to_string(c));
    }
    (void)table.AppendRow(std::move(row));
  }
  for (int f = 0; f < num_flips && table.num_rows() > 0; ++f) {
    int r = static_cast<int>(rng.Index(static_cast<size_t>(table.num_rows())));
    int c = static_cast<int>(rng.Index(static_cast<size_t>(num_cols)));
    int key = static_cast<int>(rng.Index(static_cast<size_t>(num_keys)));
    Value v = c == 0 ? Value("key" + std::to_string(key))
                     : Value("val" + std::to_string(key) + "c" +
                             std::to_string(c));
    table.SetCell(r, c, v);
  }
  return table;
}

/// Row `row` of `table` projected onto `cols`: the value vector that
/// ViolationGraph::ProjDistance / UnitCost take.
inline std::vector<Value> RowProjection(const Table& table, int row,
                                        const std::vector<int>& cols) {
  std::vector<Value> values;
  for (int c : cols) values.push_back(table.cell(row, c));
  return values;
}

/// One FT-violating tuple pair (row1 < row2) and its Eq. 2 distance.
struct RowPair {
  int row1 = 0;
  int row2 = 0;
  double proj_dist = 0;
};

/// The FT-violating tuple pairs of `fd` under `opts`, sorted by (row1,
/// row2): the edges of the violation graph built over one pattern per
/// row (BuildRowPatterns), so pattern i is row i. Under
/// ClassicalFTOptions() these are the classical violations (§2.1).
inline std::vector<RowPair> ViolatingRowPairs(const Table& table,
                                              const FD& fd,
                                              const DistanceModel& model,
                                              const FTOptions& opts) {
  ViolationGraph g = ViolationGraph::Build(
      BuildRowPatterns(table, fd.attrs()), table, fd, model, opts);
  std::vector<RowPair> pairs;
  for (int i = 0; i < g.num_patterns(); ++i) {
    // Each adjacency list holds its higher neighbours in ascending order.
    for (const ViolationGraph::Edge& e : g.Neighbors(i)) {
      if (e.to > i) pairs.push_back(RowPair{i, e.to, e.proj_dist});
    }
  }
  return pairs;
}

/// True when (row1, row2) is among `pairs`.
inline bool HasRowPair(const std::vector<RowPair>& pairs, int row1,
                       int row2) {
  for (const RowPair& p : pairs) {
    if (p.row1 == row1 && p.row2 == row2) return true;
  }
  return false;
}

/// \brief Interns literal values into dictionary codes, so tests can
/// drive the code-keyed target searches (TargetTree, LazyTargetSearch,
/// FindBestTargetLinear) with the values they spell out.
///
/// The book is a one-row table: interning overwrites that row, and a
/// code keeps decoding through its column dictionary for the table's
/// lifetime whether or not the row still holds it. A search built over
/// `table()` keeps pointers into it, so the book must outlive (and not
/// be copied away from under) the search.
class CodeBook {
 public:
  explicit CodeBook(const Schema& schema) : table_(schema) {
    (void)table_.AppendRow(Row(static_cast<size_t>(schema.num_columns())));
  }

  /// Codes of `values` laid out over `cols`, interning unseen values.
  std::vector<uint32_t> Codes(const std::vector<int>& cols,
                              const std::vector<Value>& values) {
    std::vector<uint32_t> codes;
    for (size_t k = 0; k < cols.size(); ++k) {
      table_.SetCell(0, cols[k], values[k]);
      codes.push_back(table_.code(0, cols[k]));
    }
    return codes;
  }

  /// Codes() of each tuple: the elements of a TargetTree::LevelInput
  /// whose FD has attributes `cols`.
  std::vector<std::vector<uint32_t>> Elements(
      const std::vector<int>& cols,
      const std::vector<std::vector<Value>>& tuples) {
    std::vector<std::vector<uint32_t>> elements;
    for (const std::vector<Value>& tuple : tuples) {
      elements.push_back(Codes(cols, tuple));
    }
    return elements;
  }

  /// The values `codes` (laid out over `cols`) decode to.
  std::vector<Value> Values(const std::vector<int>& cols,
                            const std::vector<uint32_t>& codes) const {
    return DecodeProjection(table_, cols, codes);
  }

  const Table& table() const { return table_; }

 private:
  Table table_;
};

namespace json_detail {

inline void SkipWs(const std::string& s, size_t* i) {
  while (*i < s.size() && (s[*i] == ' ' || s[*i] == '\t' || s[*i] == '\n' ||
                           s[*i] == '\r')) {
    ++*i;
  }
}

inline bool ParseValue(const std::string& s, size_t* i, int depth);

inline bool ParseString(const std::string& s, size_t* i) {
  if (*i >= s.size() || s[*i] != '"') return false;
  ++*i;
  while (*i < s.size()) {
    char c = s[*i];
    if (c == '"') {
      ++*i;
      return true;
    }
    if (c == '\\') {
      ++*i;
      if (*i >= s.size()) return false;
      char e = s[*i];
      if (e == 'u') {
        for (int k = 0; k < 4; ++k) {
          ++*i;
          if (*i >= s.size() || !isxdigit(static_cast<unsigned char>(s[*i]))) {
            return false;
          }
        }
      } else if (e != '"' && e != '\\' && e != '/' && e != 'b' && e != 'f' &&
                 e != 'n' && e != 'r' && e != 't') {
        return false;
      }
    }
    ++*i;
  }
  return false;
}

inline bool ParseNumber(const std::string& s, size_t* i) {
  size_t start = *i;
  if (*i < s.size() && s[*i] == '-') ++*i;
  while (*i < s.size() && (isdigit(static_cast<unsigned char>(s[*i])) ||
                           s[*i] == '.' || s[*i] == 'e' || s[*i] == 'E' ||
                           s[*i] == '+' || s[*i] == '-')) {
    ++*i;
  }
  return *i > start;
}

inline bool ParseValue(const std::string& s, size_t* i, int depth) {
  if (depth > 64) return false;
  SkipWs(s, i);
  if (*i >= s.size()) return false;
  char c = s[*i];
  if (c == '{') {
    ++*i;
    SkipWs(s, i);
    if (*i < s.size() && s[*i] == '}') {
      ++*i;
      return true;
    }
    while (true) {
      SkipWs(s, i);
      if (!ParseString(s, i)) return false;
      SkipWs(s, i);
      if (*i >= s.size() || s[*i] != ':') return false;
      ++*i;
      if (!ParseValue(s, i, depth + 1)) return false;
      SkipWs(s, i);
      if (*i < s.size() && s[*i] == ',') {
        ++*i;
        continue;
      }
      if (*i < s.size() && s[*i] == '}') {
        ++*i;
        return true;
      }
      return false;
    }
  }
  if (c == '[') {
    ++*i;
    SkipWs(s, i);
    if (*i < s.size() && s[*i] == ']') {
      ++*i;
      return true;
    }
    while (true) {
      if (!ParseValue(s, i, depth + 1)) return false;
      SkipWs(s, i);
      if (*i < s.size() && s[*i] == ',') {
        ++*i;
        continue;
      }
      if (*i < s.size() && s[*i] == ']') {
        ++*i;
        return true;
      }
      return false;
    }
  }
  if (c == '"') return ParseString(s, i);
  if (s.compare(*i, 4, "true") == 0) {
    *i += 4;
    return true;
  }
  if (s.compare(*i, 5, "false") == 0) {
    *i += 5;
    return true;
  }
  if (s.compare(*i, 4, "null") == 0) {
    *i += 4;
    return true;
  }
  return ParseNumber(s, i);
}

}  // namespace json_detail

/// Strict syntactic check that `text` is one complete JSON value
/// (objects, arrays, strings with escapes, numbers, literals). No
/// external dependency: a ~100-line recursive-descent validator shared
/// by the metrics/trace JSON tests.
inline bool IsValidJson(const std::string& text) {
  size_t i = 0;
  if (!json_detail::ParseValue(text, &i, 0)) return false;
  json_detail::SkipWs(text, &i);
  return i == text.size();
}

}  // namespace testing_util
}  // namespace ftrepair

#endif  // FTREPAIR_TESTS_TEST_UTIL_H_
